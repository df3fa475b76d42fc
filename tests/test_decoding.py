"""Tests for greedy, beam, and exhaustive search plus the beam oracle."""

import math

import numpy as np
import pytest

from helpers import (
    overwrite_well_scaled,
    random_sentences,
    ref_beam_decode,
    ref_context,
    ref_log_prob,
    ref_lstm_step,
    ref_lstm_update,
    ref_step_probs,
    tiny_params,
)

from ordernet import decoding, model
from ordernet.autodiff import Graph, Tensor
from ordernet.decoding import (
    EXHAUSTIVE_LIMIT,
    BatchDecoder,
    beam_decode,
    exhaustive_decode,
    greedy_decode,
    oracle_in_beam,
    rescore,
)
from ordernet.errors import IndexRangeError, InvalidOrderError, ShapeError
from ordernet.metrics import pm_scores
from ordernet.model import START, Order, PtrNetParams
from ordernet.training import TrainConfig


# ---------------------------------------------------------------------------
# batched decoder against the Graph step functions
# ---------------------------------------------------------------------------


def grid_mask(rng, rows, slots, visible):
    """A (rows, slots) mask, True on hidden slots, that leaves each row its
    own random choice of exactly `visible` slots, as every row of a beam
    level has."""
    mask = np.ones((rows, slots), dtype=bool)
    for r in range(rows):
        mask[r, rng.choice(slots, size=visible, replace=False)] = False
    return mask


def visible_grid(mask):
    """The (rows, V) grid of visible slot numbers that log_probs takes."""
    return np.nonzero(~mask)[1].reshape(len(mask), -1)


def test_batch_decoder_rows_equal_graph_steps():
    rng = np.random.default_rng(12)
    for trial in range(60):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial // 3 % 2)
        params = tiny_params(kind, seed=3000 + trial)
        n = int(rng.integers(1, 6))
        sentences = random_sentences(rng, 12, n)
        (decoder,) = BatchDecoder.for_documents([sentences], params, [variable])
        graph = Graph(recording=False)
        encoded = model.encode_document(graph, sentences, params)
        b, hd = int(rng.integers(1, 9)), params.hidden_dim

        hidden, cell = rng.normal(size=(b, hd)), rng.normal(size=(b, hd))
        parents = rng.integers(0, b, size=b).tolist()
        chosen = rng.integers(model.START, n, size=b)
        new_hidden, new_cell = decoder.advance(hidden, cell, parents, chosen)
        slots = n + 1 if variable else n
        mask = grid_mask(rng, b, slots, int(rng.integers(1, slots + 1)))
        free = visible_grid(mask)
        step = decoder.log_probs(hidden, free)
        assert new_hidden.shape == new_cell.shape == (b, hd)
        assert step.shape == free.shape

        for r, parent in enumerate(parents):
            h, c = model.advance_decoder(graph, (Tensor(hidden[parent]), Tensor(cell[parent])),
                                         int(chosen[r]), encoded, params)
            assert np.max(np.abs(new_hidden[r] - h.value)) <= 1e-12
            assert np.max(np.abs(new_cell[r] - c.value)) <= 1e-12
            probs = model.decode_step(graph, Tensor(hidden[r]), encoded, mask[r],
                                      params, variable).value
            assert np.all(probs[mask[r]] == 0.0)
            assert np.max(np.abs(step[r] - np.log(probs[free[r]]))) <= 1e-12


def test_a_masked_dominant_slot_leaves_the_visible_distribution_intact():
    # The stop logit is thousands above the others; once the stop slot is
    # masked it must not take part in the max, or every visible slot would
    # underflow to probability 0.
    params = tiny_params("cbow", seed=3)
    h = params.hidden_dim
    params.attn_w.value[...] = 0.0
    params.attn_w.value[:h] = np.eye(h)
    params.attn_v.value[...] = 1000.0
    params.stop_key.value[...] = 100.0
    sentences = random_sentences(np.random.default_rng(16), 12, 4)
    (decoder,) = BatchDecoder.for_documents([sentences], params, [True])
    mask = np.array([[False, True, False, False, True],
                     [True, False, True, False, False]])
    free = visible_grid(mask)
    step = decoder.log_probs(np.zeros((2, h)), free)
    assert free.tolist() == [[0, 2, 3], [1, 3, 4]]
    assert np.all(np.isfinite(step[0]))
    assert abs(np.exp(step[0]).sum() - 1.0) <= 1e-12
    assert int(free[1, np.argmax(step[1])]) == 4


def test_batch_decoder_rejects_positions_outside_the_document():
    params = tiny_params("cbow", seed=5)
    sentences = random_sentences(np.random.default_rng(14), 12, 3)
    (decoder,) = BatchDecoder.for_documents([sentences], params, [False])
    with pytest.raises(IndexRangeError):
        decoder.advance(*decoder.initial, [0], [3])
    with pytest.raises(IndexRangeError):
        decoder.advance(*decoder.initial, [0], [model.START - 1])
    with pytest.raises(IndexRangeError):
        decoder.advance(*decoder.initial, [0, 1], [0, 1])
    with pytest.raises(IndexRangeError):
        decoder.advance(*decoder.initial, [-1], [0])


def test_a_decoder_that_does_not_fit_the_document_is_refused():
    params = tiny_params("cbow", seed=6)
    rng = np.random.default_rng(22)
    documents = [random_sentences(rng, 12, 3), random_sentences(rng, 12, 4)]
    with pytest.raises(ShapeError):
        BatchDecoder.for_documents(documents, params, [False])
    three, four = BatchDecoder.for_documents(documents, params, [False, True])
    greedy_decode(documents[1], params, True, decoder=four)
    with pytest.raises(ShapeError):
        greedy_decode(documents[1], params, True, decoder=three)
    with pytest.raises(ShapeError):
        beam_decode(documents[1], params, 4, False, decoder=four)


def standard_params(kind, seed, vocab_size=40):
    """The default encoder dimensions (cnn: 128 maps x widths 3, 4, 5) and hidden 200."""
    return PtrNetParams.create(TrainConfig(encoder=kind, seed=seed), vocab_size)


def test_batch_decoder_advance_equals_graph_step_at_standard_dimensions():
    # The cached input projection splits the decoder product at the input
    # width: 384 rows on cnn, 100 on cbow, 200 on lstm.
    rng = np.random.default_rng(19)
    for kind in ("cnn", "cbow", "lstm"):
        params = standard_params(kind, seed=17)
        sentences = random_sentences(rng, 40, 6, max_words=8)
        (decoder,) = BatchDecoder.for_documents([sentences], params, [False])
        encoded = model.encode_document(Graph(recording=False), sentences, params)
        chosen = np.arange(model.START, len(sentences))
        hidden = rng.normal(size=(len(chosen), 200))
        cell = rng.normal(size=(len(chosen), 200))
        new_hidden, new_cell = decoder.advance(hidden, cell, range(len(chosen)), chosen)
        for r, position in enumerate(chosen.tolist()):
            h, c = model.advance_decoder(Graph(recording=False),
                                         (Tensor(hidden[r]), Tensor(cell[r])),
                                         position, encoded, params)
            assert np.max(np.abs(new_hidden[r] - h.value)) <= 1e-12
            assert np.max(np.abs(new_cell[r] - c.value)) <= 1e-12


def test_advance_from_repeated_parents_equals_gather_then_step():
    # Children of one parent share its recurrent product; the step must
    # equal stepping the gathered rows, exactly whenever advance's product
    # has at least two rows (a one-row product may round differently).
    rng = np.random.default_rng(25)
    shared = 0
    for trial in range(60):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        params = standard_params(kind, seed=26) if trial < 3 else tiny_params(kind, seed=trial)
        n = int(rng.integers(1, 7))
        sentences = random_sentences(rng, 12, n)
        (decoder,) = BatchDecoder.for_documents([sentences], params, [bool(trial % 2)])
        rows, hd = int(rng.integers(1, 9)), params.hidden_dim
        hidden, cell = rng.normal(size=(rows, hd)), rng.normal(size=(rows, hd))
        parents = rng.integers(0, rows, size=int(rng.integers(1, 3 * rows + 1))).tolist()
        if trial % 4 == 0:
            parents = [parents[0]] * len(parents)
        chosen = rng.integers(model.START, n, size=len(parents))
        new_hidden, new_cell = decoder.advance(hidden, cell, parents, chosen)
        ref_hidden, ref_cell = ref_lstm_update(
            decoder.input_pre[chosen + 1] + hidden[parents] @ decoder.hidden_w, cell[parents])
        assert np.max(np.abs(new_hidden - ref_hidden)) <= 1e-12
        assert np.max(np.abs(new_cell - ref_cell)) <= 1e-12
        if len(set(parents)) > 1 or len(parents) == 1:
            assert np.array_equal(new_hidden, ref_hidden)
            assert np.array_equal(new_cell, ref_cell)
        shared += len(set(parents)) < len(parents)
    assert shared, "no trial gave a parent more than one child"


def test_log_probs_equal_the_reference_on_visible_slots():
    rng = np.random.default_rng(27)
    lone = 0
    for trial in range(60):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial // 3 % 2)
        params = tiny_params(kind, seed=6000 + trial)
        overwrite_well_scaled(params, seed=6000 + trial)
        n = int(rng.integers(1, 7))
        sentences = random_sentences(rng, 12, n)
        (decoder,) = BatchDecoder.for_documents([sentences], params, [variable])
        _, hiddens, _ = ref_context(params, sentences)
        rows, slots = int(rng.integers(1, 9)), n + variable
        hidden = rng.normal(size=(rows, params.hidden_dim))
        visible = 1 if trial % 4 == 0 else int(rng.integers(1, slots + 1))
        mask = grid_mask(rng, rows, slots, visible)
        if visible == 1:  # row 0 keeps the last slot, the stop slot when there is one
            mask[0] = True
            mask[0, slots - 1] = False
        free = visible_grid(mask)
        step = decoder.log_probs(hidden, free)
        assert step.shape == (rows, visible)
        for r in range(rows):
            probs = ref_step_probs(params, hiddens, hidden[r], mask[r], variable)
            assert np.max(np.abs(step[r] - np.log(probs[free[r]]))) <= 1e-12
        if visible == 1:
            assert np.all(step == 0.0)
            lone += slots > 1
    assert lone, "no trial masked all but one of several slots"


def full_row_log_probs(decoder, hidden, mask):
    """Masked log-softmax over whole (B, slots) rows, -inf at hidden slots:
    the pair-gathered computation the visible-slot grid replaced."""
    rows, free = np.nonzero(~mask)
    pairs = decoder.keys[free]
    pairs += (hidden @ decoder.query_w)[rows]
    logits = np.full(mask.shape, -np.inf)
    logits[rows, free] = np.tanh(pairs, out=pairs) @ decoder.attn_v
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def test_grid_log_probs_equal_the_full_row_softmax_bit_for_bit():
    # numpy sums a row of 8 or more entries in another order than it sums
    # fewer, so a normalizer over the V visible entries alone would move
    # bits; the grid sums each whole slot row, zeros at hidden slots.
    rng = np.random.default_rng(29)
    for trial in range(40):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial % 2)
        params = standard_params(kind, seed=29) if trial < 3 else tiny_params(kind, seed=trial)
        n = int(rng.integers(8, 13)) - variable
        sentences = random_sentences(rng, 12, n)
        (decoder,) = BatchDecoder.for_documents([sentences], params, [variable])
        rows, slots = int(rng.integers(1, 65)), n + variable
        hidden = rng.normal(scale=3.0, size=(rows, params.hidden_dim))
        mask = grid_mask(rng, rows, slots, int(rng.integers(1, slots + 1)))
        free = visible_grid(mask)
        want = full_row_log_probs(decoder, hidden, mask)
        assert np.array_equal(decoder.log_probs(hidden, free),
                              want[np.arange(rows)[:, None], free]), trial


class CountingWeight:
    """A weight matrix that records the row count of every product with it."""

    __array_ufunc__ = None  # ndarray @ self defers to __rmatmul__

    def __init__(self, value):
        self.value, self.rows = value, []

    def __rmatmul__(self, left):
        self.rows.append(left.shape[0])
        return left @ self.value


def test_each_level_multiplies_each_distinct_parent_once(monkeypatch):
    levels = []  # (distinct parents, children) of each advance call
    advance = BatchDecoder.advance

    def recording(self, hidden, cell, parents, chosen):
        levels.append((len(set(parents)), len(parents)))
        return advance(self, hidden, cell, parents, chosen)

    monkeypatch.setattr(BatchDecoder, "advance", recording)
    rng = np.random.default_rng(28)
    shared = 0
    for trial in range(12):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial % 2)
        params = tiny_params(kind, seed=7000 + trial)
        overwrite_well_scaled(params, seed=7000 + trial)
        sentences = random_sentences(rng, 12, int(rng.integers(2, 7)))
        (decoder,) = BatchDecoder.for_documents([sentences], params, [variable])
        decoder.hidden_w = CountingWeight(decoder.hidden_w)
        levels.clear()
        _, beam = beam_decode(sentences, params, (1, 4, 64)[trial % 3], variable,
                              decoder=decoder)
        _, ref_beam = ref_beam_decode(sentences, params, (1, 4, 64)[trial % 3], variable)
        assert [o.positions for o in beam] == [o.positions for o in ref_beam]
        assert decoder.hidden_w.rows == [parents for parents, _ in levels]
        shared += any(parents < children for parents, children in levels)
    assert shared, "no level gave a parent more than one surviving child"


class TiedStepDecoder:
    """A stand-in BatchDecoder whose state rows are the positions read so
    far and whose step log-probabilities are whole numbers, so that many
    children tie exactly."""

    def __init__(self, n):
        self.n = self.slots = n
        self.initial = ((), None)

    def advance(self, hidden, cell, parents, chosen):
        return [() if c == START else hidden[p] + (c,) for p, c in zip(parents, chosen)], None

    def log_probs(self, hidden, free):
        return np.array([[self.step(hidden[r], slot) for slot in row]
                         for r, row in enumerate(free.tolist())])

    @staticmethod
    def step(positions, slot):
        return -1.0 if (slot + len(positions)) % 3 == 0 else -2.0


def _uncut_beam(n, step, beam_size):
    """Fixed-length beam search that sorts every expansion of every level;
    a last free position is taken at an unchanged score."""
    beam = [(0.0, ())]
    while any(len(positions) < n for _, positions in beam):
        expansions = [e for e in beam if len(e[1]) == n]
        for score, positions in beam:
            if len(positions) < n:
                free = [slot for slot in range(n) if slot not in positions]
                expansions += [(score + (step(positions, slot) if len(free) > 1 else 0.0),
                                positions + (slot,)) for slot in free]
        expansions.sort(key=lambda e: (-e[0], e[1]))
        beam = expansions[:beam_size]
    return beam


def test_the_top_k_cut_keeps_every_child_tied_at_the_cut():
    # Whole-number step scores put more than beam_size children on the
    # beam_size-th best score; each must reach the exact sort, which picks
    # among them by key as a search that sorts everything does.
    for n in (3, 5, 6):
        decoder = TiedStepDecoder(n)
        for beam_size in (1, 2, 3, 5):
            best, beam = beam_decode([[1]] * n, None, beam_size, False, decoder=decoder)
            want = _uncut_beam(n, TiedStepDecoder.step, beam_size)
            assert [(o.positions, o.log_prob) for o in beam] == [(p, s) for s, p in want]
            assert best == beam[0]
    first_level = sorted((TiedStepDecoder.step((), slot) for slot in range(6)), reverse=True)
    assert first_level.count(first_level[2]) > 3  # n = 6, beam 3: four children on the cut


def test_search_never_calls_encode_document(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("search called encode_document")

    monkeypatch.setattr(model, "encode_document", refuse)
    monkeypatch.setattr(decoding, "encode_document", refuse)
    rng = np.random.default_rng(20)
    for kind in ("cbow", "cnn", "lstm"):
        params = tiny_params(kind, seed=21)
        sentences = random_sentences(rng, 12, 4)
        for variable in (False, True):
            greedy_decode(sentences, params, variable)
            beam_decode(sentences, params, 8, variable)


def test_beam_matches_per_candidate_reference():
    rng = np.random.default_rng(15)
    uneven_finish = False
    for trial in range(240):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial % 2)
        width = (1, 2, 4, 64)[trial // 2 % 4]
        params = tiny_params(kind, seed=4000 + trial)
        # At the initial scale the decoder state barely moves the logits,
        # so a candidate advanced from the wrong parent would go unnoticed.
        overwrite_well_scaled(params, seed=4000 + trial)
        sentences = random_sentences(rng, 12, int(rng.integers(1, 6)))
        best, beam = beam_decode(sentences, params, width, variable)
        _, ref_beam = ref_beam_decode(sentences, params, width, variable)
        assert [o.positions for o in beam] == [o.positions for o in ref_beam]
        assert all(o.stopped == variable for o in beam)
        for order, ref in zip(beam, ref_beam):
            assert abs(order.log_prob - ref.log_prob) <= 1e-10
        assert best == beam[0]
        uneven_finish |= len({len(o.positions) for o in beam}) > 1
    assert uneven_finish, "no beam held candidates that stopped at different levels"


def test_wide_beam_matches_per_candidate_reference_at_standard_dimensions():
    rng = np.random.default_rng(22)
    for trial, kind in enumerate(("cnn", "cbow")):
        params = standard_params(kind, seed=23 + trial)
        # At the initial scale a fixed-length beam's scores lie within 0.01
        # of a uniform order's; weights of 0.05-0.2 spread them over a
        # quarter to half a nat.
        overwrite_well_scaled(params, seed=23 + trial, low=0.05, high=0.2)
        for variable in (False, True):
            sentences = random_sentences(rng, 40, 6, max_words=6)
            _, beam = beam_decode(sentences, params, 64, variable)
            _, ref_beam = ref_beam_decode(sentences, params, 64, variable)
            assert [o.positions for o in beam] == [o.positions for o in ref_beam]
            for order, ref in zip(beam, ref_beam):
                assert abs(order.log_prob - ref.log_prob) <= 1e-10


# ---------------------------------------------------------------------------
# search equivalences
# ---------------------------------------------------------------------------


def test_greedy_follows_the_flat_reference_argmax_everywhere():
    # Greedy is beam_decode of width 1, so it is checked against the flat
    # numpy reference instead: every chosen slot is that step's argmax, or
    # ties it within 1e-12 from a lower slot, and the search stops exactly
    # where the argmax is the stop slot.  The forced last step, which greedy
    # does not score, must be the reference's argmax too.
    rng = np.random.default_rng(0)
    early_stops = 0
    for trial in range(200):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial % 2)
        params = tiny_params(kind, seed=trial)
        n = int(rng.integers(2, 6))
        sentences = random_sentences(rng, 12, n)
        greedy = greedy_decode(sentences, params, variable)
        assert greedy.stopped == variable
        target = list(greedy.positions) + ([n] if variable else [])
        assert len(set(target)) == len(target) and len(greedy.positions) <= n
        if not variable:
            assert len(target) == n

        sent_vecs, hiddens, state = ref_context(params, sentences)
        w, b = params.decoder_cell.w.value, params.decoder_cell.b.value
        mask = np.zeros(n + variable, dtype=bool)
        x = params.start_input.value
        for choice in target:
            state = ref_lstm_step(x, state[0], state[1], w, b)
            with np.errstate(divide="ignore"):
                step = np.log(ref_step_probs(params, hiddens, state[0], mask, variable))
            best = int(np.argmax(np.where(mask, -np.inf, step)))
            assert choice == best or (choice < best and step[best] - step[choice] <= 1e-12)
            if choice == n:
                break
            mask[choice] = True
            x = sent_vecs[choice]
        early_stops += variable and len(greedy.positions) < n
        assert abs(greedy.log_prob - ref_log_prob(params, sentences, target)) <= 1e-10
    assert early_stops, "no variable-length search chose the stop slot before the end"


def test_forced_continuations_are_not_scored(monkeypatch):
    # A fixed-length search takes its last position unscored, so it makes
    # n - 1 levels of one advance and one log_probs call each; a
    # variable-length search scores up to its stop, or its first n steps
    # when it takes every position.
    calls = {"advance": 0, "log_probs": 0}
    for name in calls:
        def wrapper(self, *args, _method=getattr(BatchDecoder, name), _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(BatchDecoder, name, wrapper)

    def counted(search, *args):
        calls.update(advance=0, log_probs=0)
        result = search(*args)
        assert calls["advance"] == calls["log_probs"]
        return result, calls["log_probs"]

    rng = np.random.default_rng(24)
    for trial in range(24):
        params = tiny_params(("cbow", "cnn", "lstm")[trial % 3], seed=5000 + trial)
        n = int(rng.integers(1, 7))
        sentences = random_sentences(rng, 12, n)
        assert counted(greedy_decode, sentences, params, False)[1] == n - 1
        assert counted(beam_decode, sentences, params, 4, False)[1] == n - 1
        order, levels = counted(greedy_decode, sentences, params, True)
        assert levels == min(len(order.positions) + 1, n)
        assert counted(beam_decode, sentences, params, 4, True)[1] <= n


def test_wide_beam_equals_exhaustive_search():
    # A beam holding every candidate sequence cannot prune, so its best
    # must match brute-force enumeration exactly.
    rng = np.random.default_rng(1)
    for trial in range(100):
        variable = bool(trial % 2)
        params = tiny_params("cbow", seed=1000 + trial)
        n = int(rng.integers(2, 5))
        sentences = random_sentences(rng, 12, n)
        width = sum(
            math.perm(n, k) for k in range(n + 1)) if variable else math.factorial(n)
        best, _ = beam_decode(sentences, params, width, variable)
        brute = exhaustive_decode(sentences, params, variable)
        assert best.positions == brute.positions
        assert abs(best.log_prob - brute.log_prob) <= 1e-10


def test_rescore_matches_every_search_score():
    rng = np.random.default_rng(2)
    for trial in range(30):
        variable = bool(trial % 2)
        params = tiny_params("lstm", seed=2000 + trial)
        sentences = random_sentences(rng, 12, int(rng.integers(2, 5)))
        greedy = greedy_decode(sentences, params, variable)
        assert abs(rescore(sentences, params, greedy, variable)
                   - greedy.log_prob) <= 1e-10
        best, beam = beam_decode(sentences, params, 4, variable)
        for order in beam:
            assert abs(rescore(sentences, params, order, variable)
                       - order.log_prob) <= 1e-10


# ---------------------------------------------------------------------------
# mode-specific output shapes
# ---------------------------------------------------------------------------


def test_fixed_length_outputs_are_full_permutations():
    rng = np.random.default_rng(3)
    for trial in range(20):
        params = tiny_params("cbow", seed=trial)
        n = int(rng.integers(2, 6))
        sentences = random_sentences(rng, 12, n)
        order = greedy_decode(sentences, params, variable_length=False)
        assert sorted(order.positions) == list(range(n))
        assert order.stopped is False


def test_variable_length_outputs_never_repeat_and_always_stop():
    rng = np.random.default_rng(4)
    full_length_seen = False
    for trial in range(60):
        params = tiny_params("cnn", seed=trial)
        n = int(rng.integers(2, 5))
        sentences = random_sentences(rng, 12, n)
        order = greedy_decode(sentences, params, variable_length=True)
        assert order.stopped is True
        assert len(set(order.positions)) == len(order.positions)
        assert len(order.positions) <= n
        if len(order.positions) == n:
            full_length_seen = True
            # The forced final stop contributes log(1) = 0, so re-scoring
            # the full sequence reproduces the search score exactly.
            assert abs(rescore(sentences, params, order, True)
                       - order.log_prob) <= 1e-12
    assert full_length_seen, "no trial exercised the forced-stop branch"


def test_uniform_logits_break_ties_toward_low_positions():
    # Zeroed attention readout makes every candidate equally likely; greedy
    # must then emit the identity order, and the stop slot loses its ties.
    rng = np.random.default_rng(5)
    params = tiny_params("cbow", seed=9)
    params.attn_v.value[...] = 0.0
    sentences = random_sentences(rng, 12, 4)
    fixed = greedy_decode(sentences, params, variable_length=False)
    assert fixed.positions == (0, 1, 2, 3)
    variable = greedy_decode(sentences, params, variable_length=True)
    assert variable.positions == (0, 1, 2, 3) and variable.stopped
    best, _ = beam_decode(sentences, params, 2, variable_length=False)
    assert best.positions == (0, 1, 2, 3)


def test_dominant_stop_key_stops_immediately():
    params = tiny_params("cbow", seed=3)
    h = params.hidden_dim
    params.attn_w.value[...] = 0.0
    params.attn_w.value[:h] = np.eye(h)          # keys pass through
    params.attn_v.value[...] = 1.0
    params.stop_key.value[...] = 100.0           # saturates its tanh block
    rng = np.random.default_rng(6)
    sentences = random_sentences(rng, 12, 4)
    order = greedy_decode(sentences, params, variable_length=True)
    assert order.positions == () and order.stopped
    best, _ = beam_decode(sentences, params, 130, variable_length=True)
    assert best.positions == ()


# ---------------------------------------------------------------------------
# beam structure
# ---------------------------------------------------------------------------


def test_beam_is_finished_sorted_and_within_width():
    rng = np.random.default_rng(7)
    for variable in (False, True):
        params = tiny_params("lstm", seed=11)
        sentences = random_sentences(rng, 12, 4)
        best, beam = beam_decode(sentences, params, 6, variable)
        assert best == beam[0]
        assert len(beam) <= 6
        scores = [o.log_prob for o in beam]
        assert scores == sorted(scores, reverse=True)
        for order in beam:
            assert len(set(order.positions)) == len(order.positions)
            if not variable:
                assert sorted(order.positions) == list(range(4))


def test_beam_size_must_be_positive():
    params = tiny_params("cbow", seed=0)
    sentences = random_sentences(np.random.default_rng(8), 12, 3)
    with pytest.raises(IndexRangeError):
        beam_decode(sentences, params, 0)


def test_exhaustive_guard_rejects_large_inputs():
    params = tiny_params("cbow", seed=0)
    sentences = random_sentences(np.random.default_rng(9), 12, EXHAUSTIVE_LIMIT + 1)
    with pytest.raises(IndexRangeError):
        exhaustive_decode(sentences, params)


def test_rescore_requires_stopped_orders_in_variable_mode():
    params = tiny_params("cbow", seed=0)
    sentences = random_sentences(np.random.default_rng(10), 12, 3)
    order = Order((0, 1), stopped=False, log_prob=-1.0)
    with pytest.raises(InvalidOrderError):
        rescore(sentences, params, order, variable_length=True)


# ---------------------------------------------------------------------------
# oracle over a finished beam
# ---------------------------------------------------------------------------


def _order(positions, log_prob):
    return Order(tuple(positions), True, log_prob)


def test_oracle_pmr_detects_gold_membership():
    beam = [_order([0, 1, 2], -1.0), _order([2, 1, 0], -2.0)]
    cand, score = oracle_in_beam(beam, (2, 1, 0), "pmr")
    assert score == 1.0 and cand.positions == (2, 1, 0)
    cand, score = oracle_in_beam(beam, (1, 0, 2), "pmr")
    assert score == 0.0


def test_oracle_pm_f_maximizes_the_pairwise_metric():
    gold = (0, 1, 2, 3)
    beam = [_order([3, 2, 1, 0], -0.5), _order([0, 1, 3, 2], -3.0)]
    cand, score = oracle_in_beam(beam, gold, "pm_f")
    assert cand.positions == (0, 1, 3, 2)
    assert score == pytest.approx(pm_scores((0, 1, 3, 2), gold).f)


def test_oracle_breaks_metric_ties_by_log_prob_then_lexicographically():
    gold = (0, 1, 2)
    # Hand-checked: both candidates share a longest common subsequence of
    # length 2 with gold, so pm_f ties and the higher log-probability
    # candidate must win.
    beam = [_order([0, 2, 1], -5.0), _order([1, 0, 2], -1.0)]
    assert pm_scores((0, 2, 1), gold).f == pm_scores((1, 0, 2), gold).f
    cand, _ = oracle_in_beam(beam, gold, "pm_f")
    assert cand.positions == (1, 0, 2)

    twins = [_order([1, 0, 2], -1.0), _order([0, 2, 1], -1.0)]
    cand, _ = oracle_in_beam(twins, gold, "pm_f")
    assert cand.positions == (0, 2, 1)


def test_oracle_rejects_bad_inputs():
    beam = [_order([0, 1], -1.0)]
    with pytest.raises(IndexRangeError):
        oracle_in_beam(beam, (0, 1), "kendall")
    with pytest.raises(InvalidOrderError):
        oracle_in_beam([], (0, 1), "pmr")


def test_oracle_score_never_decreases_with_beam_width():
    rng = np.random.default_rng(11)
    params = tiny_params("cbow", seed=21)
    sentences = random_sentences(rng, 12, 4)
    gold = tuple(rng.permutation(4))
    prev = -1.0
    for width in (1, 2, 4, 8, 16, 32):
        _, beam = beam_decode(sentences, params, width, variable_length=False)
        _, score = oracle_in_beam(beam, gold, "pm_f")
        assert score >= prev - 1e-12
        prev = score
