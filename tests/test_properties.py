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
