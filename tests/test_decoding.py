"""Tests for greedy, beam, and exhaustive search plus the beam oracle."""

import math

import numpy as np
import pytest

from helpers import overwrite_well_scaled, random_sentences, ref_beam_decode, tiny_params

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
from ordernet.encoders import EncoderConfig
from ordernet.errors import IndexRangeError, InvalidOrderError
from ordernet.metrics import pm_scores
from ordernet.model import Order, PtrNetParams


# ---------------------------------------------------------------------------
# batched decoder against the Graph step functions
# ---------------------------------------------------------------------------


def test_batch_decoder_rows_equal_graph_steps():
    rng = np.random.default_rng(12)
    for trial in range(60):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial // 3 % 2)
        params = tiny_params(kind, seed=3000 + trial)
        n = int(rng.integers(1, 6))
        sentences = random_sentences(rng, 12, n)
        decoder = BatchDecoder(sentences, params, variable)
        graph = Graph(recording=False)
        encoded = model.encode_document(graph, sentences, params)
        b, hd = int(rng.integers(1, 9)), params.hidden_dim

        hidden, cell = rng.normal(size=(b, hd)), rng.normal(size=(b, hd))
        chosen = rng.integers(model.START, n, size=b)
        new_hidden, new_cell = decoder.advance(hidden, cell, chosen)
        slots = n + 1 if variable else n
        mask = rng.random((b, slots)) < 0.5
        mask[np.arange(b), rng.integers(0, slots, size=b)] = False
        step = decoder.log_probs(hidden, mask)
        assert new_hidden.shape == new_cell.shape == (b, hd)
        assert step.shape == (b, slots)

        for r in range(b):
            h, c = model.advance_decoder(graph, (Tensor(hidden[r]), Tensor(cell[r])),
                                         int(chosen[r]), encoded, params)
            assert np.max(np.abs(new_hidden[r] - h.value)) <= 1e-12
            assert np.max(np.abs(new_cell[r] - c.value)) <= 1e-12
            probs = model.decode_step(graph, Tensor(hidden[r]), encoded, mask[r],
                                      params, variable).value
            assert np.all(step[r][mask[r]] == -np.inf)
            keep = ~mask[r]
            assert np.max(np.abs(step[r][keep] - np.log(probs[keep]))) <= 1e-12


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
    decoder = BatchDecoder(sentences, params, variable_length=True)
    mask = np.array([[False, True, False, False, True],
                     [False, False, False, False, False]])
    step = decoder.log_probs(np.zeros((2, h)), mask)
    assert step[0, 4] == -np.inf and np.all(np.isfinite(step[0, [0, 2, 3]]))
    assert abs(np.exp(step[0, [0, 2, 3]]).sum() - 1.0) <= 1e-12
    assert int(np.argmax(step[1])) == 4


def test_batch_decoder_rejects_positions_outside_the_document():
    params = tiny_params("cbow", seed=5)
    sentences = random_sentences(np.random.default_rng(14), 12, 3)
    decoder = BatchDecoder(sentences, params)
    with pytest.raises(IndexRangeError):
        decoder.advance(*decoder.initial, [3])
    with pytest.raises(IndexRangeError):
        decoder.advance(*decoder.initial, [model.START - 1])


def standard_params(kind, seed, vocab_size=40):
    """The default encoder dimensions (cnn: 128 maps x widths 3, 4, 5) and hidden 200."""
    return PtrNetParams.create(EncoderConfig(kind=kind), 200, vocab_size, seed)


def test_batch_decoder_advance_equals_graph_step_at_standard_dimensions():
    # The cached input projection splits the decoder product at the input
    # width: 384 rows on cnn, 100 on cbow, 200 on lstm.
    rng = np.random.default_rng(19)
    for kind in ("cnn", "cbow", "lstm"):
        params = standard_params(kind, seed=17)
        sentences = random_sentences(rng, 40, 6, max_words=8)
        decoder = BatchDecoder(sentences, params)
        encoded = model.encode_document(Graph(recording=False), sentences, params)
        chosen = np.arange(model.START, len(sentences))
        hidden = rng.normal(size=(len(chosen), 200))
        cell = rng.normal(size=(len(chosen), 200))
        new_hidden, new_cell = decoder.advance(hidden, cell, chosen)
        for r, position in enumerate(chosen.tolist()):
            h, c = model.advance_decoder(Graph(recording=False),
                                         (Tensor(hidden[r]), Tensor(cell[r])),
                                         position, encoded, params)
            assert np.max(np.abs(new_hidden[r] - h.value)) <= 1e-12
            assert np.max(np.abs(new_cell[r] - c.value)) <= 1e-12


def test_search_never_builds_per_word_row_views(monkeypatch):
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


def test_beam_of_one_equals_greedy_everywhere():
    rng = np.random.default_rng(0)
    for trial in range(200):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        variable = bool(trial % 2)
        params = tiny_params(kind, seed=trial)
        sentences = random_sentences(rng, 12, int(rng.integers(2, 6)))
        greedy = greedy_decode(sentences, params, variable)
        best, beam = beam_decode(sentences, params, 1, variable)
        assert len(beam) == 1
        assert best.positions == greedy.positions
        assert best.stopped == greedy.stopped
        assert abs(best.log_prob - greedy.log_prob) <= 1e-12


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
