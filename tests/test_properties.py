"""Property tests: metric invariants, the config parser and the blocked
optimizer passes, over generated inputs.

Hypothesis runs derandomized and without its example database, so every run
draws the same examples and leaves nothing on disk.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ref_adagrad_step, ref_penalty_backward

from ordernet.autodiff import BLOCK, Graph, Param
from ordernet.errors import OrdernetError
from ordernet.metrics import lsr_scores, pm_scores, pmr
from ordernet.training import AdaGradState, TrainConfig, adagrad_step, parse_config_value

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# Orders of distinct sentence positions; pairwise scores need two of them.
orders = st.lists(st.integers(0, 20), min_size=2, max_size=9, unique=True)


@PROPERTY
@given(st.data())
def test_precision_equals_recall_whenever_the_lengths_match(data):
    gold = data.draw(orders)
    pred = data.draw(st.lists(st.integers(0, 20), min_size=len(gold), max_size=len(gold),
                              unique=True))
    pm, lsr = pm_scores(pred, gold), lsr_scores(pred, gold)
    assert pm.p == pm.r
    assert lsr.p == lsr.r


@PROPERTY
@given(orders)
def test_every_order_scores_one_against_itself(order):
    assert pm_scores(order, order).f == 1.0
    assert lsr_scores(order, order).f == 1.0
    assert pmr(order, order) == 1.0


setting_text = st.one_of(
    st.text(max_size=20),
    st.from_regex(r"-?[0-9]{0,6}(\.[0-9]{0,3})?(e-?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["0", "-3", "abc", "nan", "inf", "1e999", "on", "off", "none", "one",
                     "half", "cbow", "cnn", "lstm", "3 4 5", "3,0", ""]),
)


@PROPERTY
@given(st.sampled_from([f.name for f in fields(TrainConfig)]), setting_text)
def test_config_text_raises_only_ordernet_errors(key, text):
    try:
        TrainConfig(**{key: parse_config_value(key, text)})
    except OrdernetError:
        pass


setting_value = st.one_of(
    st.integers(-3, 300), st.floats(), st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from(["cbow", "cnn", "lstm", "none", "one", "always_one", "half", "off"]),
)
# Keyword arguments for up to three fields, each a value of any of the
# kinds above (filter_lengths: a list of them); the other fields keep their
# defaults.
config_settings = st.lists(
    st.sampled_from([f.name for f in fields(TrainConfig)]), max_size=3, unique=True,
).flatmap(lambda keys: st.fixed_dictionaries({
    key: st.lists(setting_value, max_size=4) if key == "filter_lengths" else setting_value
    for key in keys}))


@PROPERTY
@given(config_settings)
def test_every_config_that_builds_survives_its_dict_round_trip(settings):
    # A checkpoint stores to_dict() and reloads it through from_dict, so a
    # config that builds but does not round-trip writes an unloadable (or
    # silently different) checkpoint.
    try:
        config = TrainConfig(**settings)
    except OrdernetError:
        return
    assert TrainConfig.from_dict(config.to_dict()) == config


# Parameter sizes around the block edges of the optimizer passes, and one
# of several blocks with a ragged tail.
block_sizes = st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
LAYOUTS = ("contiguous", "strided", "fortran")


def laid_out(array, layout):
    """A copy of an array in one memory layout: C order, every other entry
    of a buffer twice as long, or Fortran order."""
    if layout == "contiguous":
        return np.array(array, order="C")
    if layout == "strided":
        out = np.full(array.shape + (2,), np.nan)[..., 0]
        out[...] = array
        return out
    return np.array(array, order="F")


def random_arrays(rng, size, layout, count):
    """Arrays of signed entries spanning six decades, with exact zeros among
    them: vectors of the given size, or (2, size) matrices for Fortran order."""
    shape = (2, size) if layout == "fortran" else (size,)
    arrays = []
    for _ in range(count):
        entries = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        entries[rng.random(shape) < 0.1] = 0.0
        arrays.append(entries)
    return arrays


def twin_params(value, grad, layout):
    """The same parameter twice: laid out as given, and in C order."""
    params = []
    for order in (layout, "contiguous"):
        p = Param("w", laid_out(value, order))
        p.grad = laid_out(grad, order)
        params.append(p)
    return params


@PROPERTY
@given(block_sizes, st.sampled_from(LAYOUTS), st.integers(0, 2**32 - 1))
def test_blocked_adagrad_equals_the_whole_array_update(size, layout, seed):
    value, grad, acc = random_arrays(np.random.default_rng(seed), size, layout, 3)
    blocked, whole = twin_params(value, grad, layout)
    states = []
    for p, order in ((blocked, layout), (whole, "contiguous")):
        states.append(AdaGradState([p], learning_rate=0.3, epsilon=1e-6))
        states[-1].accumulators["w"] = laid_out(np.abs(acc), order)
    adagrad_step([blocked], states[0])
    ref_adagrad_step([whole], states[1])
    assert np.array_equal(blocked.value, whole.value)
    assert np.array_equal(states[0].accumulators["w"], states[1].accumulators["w"])
    assert np.array_equal(blocked.grad, whole.grad) and not blocked.grad.any()


@PROPERTY
@given(block_sizes, st.sampled_from(LAYOUTS), st.integers(0, 2**32 - 1))
def test_blocked_penalty_gradient_equals_the_whole_array_one(size, layout, seed):
    rng = np.random.default_rng(seed)
    blocked, whole = twin_params(*random_arrays(rng, size, layout, 2), layout)
    root_grad = float(rng.normal())
    graph = Graph()
    graph.backward(graph.sum_squares([blocked]), seed=root_grad)
    ref_penalty_backward([whole], root_grad)
    assert np.array_equal(blocked.grad, whole.grad)


def full_row_pointer_log_probs(kv, slots, qv, targets, wv, vv, seed):
    """The pointer op as it was before the shared attention kernel, on plain
    arrays: each step scores every slot of its rows over a (rows, slots, h)
    key gather, sets the hidden slots to -inf, and takes v's gradient by an
    einsum per step.  Returns the (B,) log-likelihoods and the gradients of
    the keys, queries, w and v under the root gradient seed."""
    slots, targets = np.asarray(slots), np.asarray(targets)
    h = len(vv)
    present = slots >= 0
    steps = (targets >= 0).sum(axis=1)
    first_query = np.cumsum(steps) - steps
    key_proj = (kv @ wv[:h])[np.where(present, slots, 0)]
    query_proj = qv @ wv[h:]
    hidden = ~present
    total = np.zeros(len(steps))
    step_rows = []
    for t in range(steps.max()):
        rows = np.flatnonzero(steps > t)
        query_rows = first_query[rows] + t
        chosen = targets[rows, t]
        logits = np.tanh(key_proj[rows] + query_proj[query_rows][:, None, :]) @ vv
        logits[hidden[rows]] = -np.inf
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        z = e.sum(axis=1)
        total[rows] += shifted[np.arange(len(rows)), chosen] - np.log(z)
        hidden[rows, chosen] = True
        step_rows.append((rows, query_rows, chosen, e / z[:, None]))
    d_key_proj = np.zeros(key_proj.shape)
    d_query_proj = np.empty(query_proj.shape)
    d_v = np.zeros(h)
    for rows, query_rows, chosen, probs in step_rows:
        g = seed[rows]
        d_logits = probs * -g[:, None]
        d_logits[np.arange(len(rows)), chosen] += g
        act = np.tanh(key_proj[rows] + query_proj[query_rows][:, None, :])
        d_v += np.einsum("rs,rsh->h", d_logits, act)
        d_in = d_logits[:, :, None] * vv * (1.0 - act * act)
        d_key_proj[rows] += d_in
        d_query_proj[query_rows] = d_in.sum(axis=1)
    d_keys = np.zeros(kv.shape)
    np.add.at(d_keys, slots[present], d_key_proj[present])
    d_w = np.vstack([kv.T @ d_keys, qv.T @ d_query_proj])
    return total, d_keys @ wv[:h].T, d_query_proj @ wv[h:].T, d_w, d_v


# Ragged batches that mix both length modes, as batch_log_probs builds them:
# row b points at its own n_b sentence keys, plus the one stop key that every
# variable-length row shares.  Slot rows are 2-12 wide, across the 8 entries
# at which numpy's sums change order, and a target that takes every slot
# leaves its last step a single visible slot.
pointer_rows = st.lists(
    st.tuples(st.integers(1, 11), st.booleans(), st.integers(1, 12)).filter(
        lambda row: row[0] + row[1] >= 2),
    min_size=1, max_size=6)


@PROPERTY
@given(pointer_rows, st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_pointer_log_probs_equals_the_full_row_op(rows, h, seed):
    rng = np.random.default_rng(seed)
    sentences = sum(n for n, _, _ in rows)
    slots = np.full((len(rows), max(n + stop for n, stop, _ in rows)), -1)
    targets = np.full(slots.shape, -1)
    offset = 0
    for b, (n, stop, length) in enumerate(rows):
        slots[b, :n] = np.arange(offset, offset + n)
        if stop:
            slots[b, n] = sentences  # the shared stop key
        length = min(length, n + stop)
        targets[b, :length] = rng.permutation(n + stop)[:length]
        offset += n
    keys = Param("keys", rng.normal(size=(sentences + 1, h)))
    queries = Param("queries", rng.normal(size=(int((targets >= 0).sum()), h)))
    w, v = Param("w", rng.normal(size=(2 * h, h))), Param("v", rng.normal(size=h))
    root = rng.normal(size=len(rows))
    graph = Graph()
    out = graph.pointer_log_probs(keys, slots, queries, targets, w, v)
    graph.backward(out, seed=root)
    want = full_row_pointer_log_probs(keys.value, slots, queries.value, targets, w.value,
                                      v.value, root)
    for got, expected in zip((out.value, keys.grad, queries.grad, w.grad, v.grad), want):
        assert np.max(np.abs(got - expected)) <= 1e-12
