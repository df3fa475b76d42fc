"""Tests for the pointer-network model: parameters, attention, loss, saliency."""

import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    TINY_DIMS,
    overwrite_well_scaled,
    random_sentences,
    ref_batch_loss,
    ref_context,
    ref_log_prob,
    ref_step_probs,
    stepwise_lstm_sequence,
    tiny_params,
)

from ordernet.autodiff import Graph
from ordernet.encoders import EncoderConfig
from ordernet.errors import EmptyInputError, IndexRangeError, InvalidOrderError, NumericError
from ordernet.model import (
    START,
    PtrNetParams,
    advance_decoder,
    batch_loss,
    decode_step,
    encode_document,
    saliency,
    sequence_log_prob,
    validate_target,
)


# ---------------------------------------------------------------------------
# parameter creation
# ---------------------------------------------------------------------------


def test_same_seed_creates_identical_parameters():
    a = tiny_params("lstm", seed=3)
    b = tiny_params("lstm", seed=3)
    for pa, pb in zip(a.all_params(), b.all_params()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)


def test_different_seeds_create_different_parameters():
    a = tiny_params("cbow", seed=3)
    b = tiny_params("cbow", seed=4)
    assert not np.array_equal(a.embeddings.value, b.embeddings.value)


def test_embedding_init_range_and_zero_padding_row():
    params = tiny_params("cbow", seed=0)
    emb = params.embeddings.value
    assert np.array_equal(emb[0], np.zeros(emb.shape[1]))
    assert np.all(np.abs(emb) <= 0.1)


def test_per_encoder_parameter_sets():
    lstm = tiny_params("lstm", seed=0)
    assert lstm.word_cell is not None and lstm.cnn_filters is None
    cnn = tiny_params("cnn", seed=0)
    assert cnn.cnn_filters is not None and cnn.word_cell is None
    cbow = tiny_params("cbow", seed=0)
    assert cbow.word_cell is None and cbow.cnn_filters is None
    names = [p.name for p in cbow.all_params()]
    assert len(names) == len(set(names))


def test_pretrained_embeddings_are_used_verbatim():
    config = EncoderConfig(kind="cbow", **TINY_DIMS)
    pre = np.arange(12 * TINY_DIMS["embed_dim"], dtype=float).reshape(12, -1)
    params = PtrNetParams.create(config, 7, 12, seed=0, pretrained=pre)
    assert np.array_equal(params.embeddings.value, pre)


def test_pretrained_embeddings_with_wrong_shape_are_rejected():
    config = EncoderConfig(kind="cbow", **TINY_DIMS)
    with pytest.raises(IndexRangeError):
        PtrNetParams.create(config, 7, 12, seed=0,
                            pretrained=np.zeros((5, TINY_DIMS["embed_dim"])))


# ---------------------------------------------------------------------------
# encoding and the attention step
# ---------------------------------------------------------------------------


def test_encode_document_matches_flat_reference():
    rng = np.random.default_rng(0)
    for kind in ("cbow", "cnn", "lstm"):
        params = tiny_params(kind, seed=5)
        sentences = random_sentences(rng, 12, 4)
        g = Graph(recording=False)
        enc = encode_document(g, sentences, params)
        sent_vecs, hiddens, (h, c) = ref_context(params, sentences)
        for got, want in zip(enc.sentence_vectors, sent_vecs):
            assert np.allclose(got.value, want, atol=1e-12)
        for got, want in zip(enc.context_hidden, hiddens):
            assert np.allclose(got.value, want, atol=1e-12)
        assert np.allclose(enc.final_state[0].value, h, atol=1e-12)
        assert np.allclose(enc.final_state[1].value, c, atol=1e-12)


def test_encode_document_rejects_empty_input():
    with pytest.raises(EmptyInputError):
        encode_document(Graph(recording=False), [], tiny_params("cbow", 0))


def test_decode_step_matches_unfactorized_attention():
    rng = np.random.default_rng(1)
    for kind in ("cbow", "cnn", "lstm"):
        for allow_stop in (False, True):
            params = tiny_params(kind, seed=6)
            sentences = random_sentences(rng, 12, 4)
            g = Graph(recording=False)
            enc = encode_document(g, sentences, params)
            d = rng.normal(size=params.hidden_dim)
            n_slots = 5 if allow_stop else 4
            mask = np.zeros(n_slots, dtype=bool)
            mask[1] = True
            probs = decode_step(g, _tensor(g, d), enc, mask, params, allow_stop)
            hiddens = [t.value for t in enc.context_hidden]
            want = ref_step_probs(params, hiddens, d, mask, allow_stop)
            assert np.max(np.abs(probs.value - want)) <= 1e-12


def _tensor(graph, value):
    from ordernet.autodiff import Tensor
    return Tensor(np.asarray(value, dtype=np.float64))


def test_projected_keys_are_cached_per_stop_mode():
    rng = np.random.default_rng(2)
    params = tiny_params("cbow", seed=0)
    g = Graph(recording=False)
    enc = encode_document(g, random_sentences(rng, 12, 3), params)
    d = _tensor(g, rng.normal(size=params.hidden_dim))
    decode_step(g, d, enc, np.zeros(3, bool), params, allow_stop=False)
    first = enc._projected_keys[False]
    decode_step(g, d, enc, np.zeros(3, bool), params, allow_stop=False)
    assert enc._projected_keys[False] is first
    decode_step(g, d, enc, np.zeros(4, bool), params, allow_stop=True)
    assert set(enc._projected_keys) == {False, True}
    assert enc._projected_keys[True].value.shape == (4, params.hidden_dim)


def test_advance_decoder_start_sentinel_and_range_check():
    rng = np.random.default_rng(3)
    params = tiny_params("cbow", seed=1)
    g = Graph(recording=False)
    enc = encode_document(g, random_sentences(rng, 12, 3), params)
    state = advance_decoder(g, enc.final_state, START, enc, params)
    assert state[0].value.shape == (params.hidden_dim,)
    with pytest.raises(IndexRangeError):
        advance_decoder(g, enc.final_state, 3, enc, params)
    with pytest.raises(IndexRangeError):
        advance_decoder(g, enc.final_state, -2, enc, params)


# ---------------------------------------------------------------------------
# target validation
# ---------------------------------------------------------------------------


def test_validate_target_accepts_permutations_and_stop_sequences():
    assert validate_target([2, 0, 1], 3) is False
    assert validate_target([2, 0, 1, 3], 3) is True
    assert validate_target([1, 3], 3) is True  # partial body, stop-terminated
    assert validate_target([3], 3) is True     # immediate stop


@pytest.mark.parametrize("target,n", [
    ([], 3),            # empty
    ([0, 1], 3),        # fixed-length but incomplete
    ([0, 0, 1], 3),     # repeated position
    ([0, 4, 1], 3),     # out of range
    ([0, 1, 3, 3], 3),  # repeat of the stop index inside the body
])
def test_validate_target_rejects_malformed_sequences(target, n):
    with pytest.raises(InvalidOrderError):
        validate_target(target, n)


# ---------------------------------------------------------------------------
# sequence log-probability and loss
# ---------------------------------------------------------------------------


def test_sequence_log_prob_matches_flat_reference():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(12):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        params = tiny_params(kind, seed=trial)
        n = int(rng.integers(2, 5))
        sentences = random_sentences(rng, 12, n)
        body = list(rng.permutation(n))
        for target in (body, body[: n - 1] + [n]):
            g = Graph(recording=False)
            got = sequence_log_prob(g, sentences, target, params).value
            want = ref_log_prob(params, sentences, target)
            worst = max(worst, abs(float(got) - want))
    assert worst <= 1e-10


def test_zero_attention_readout_gives_uniform_orders():
    # With attn_v = 0 every candidate scores alike, so a full fixed-length
    # order has probability 1/n! regardless of the other parameters.
    rng = np.random.default_rng(5)
    params = tiny_params("cbow", seed=9)
    params.attn_v.value[...] = 0.0
    for n in (2, 3, 4):
        sentences = random_sentences(rng, 12, n)
        target = list(rng.permutation(n))
        g = Graph(recording=False)
        lp = sequence_log_prob(g, sentences, target, params).value
        assert float(lp) == pytest.approx(-math.log(math.factorial(n)), abs=1e-12)


def test_batch_loss_matches_numpy_recomputation():
    rng = np.random.default_rng(6)
    params = tiny_params("lstm", seed=2)
    instances = []
    want_nll = []
    for _ in range(3):
        n = int(rng.integers(2, 5))
        sentences = random_sentences(rng, 12, n)
        target = list(rng.permutation(n)) + [n]
        instances.append(SimpleNamespace(inputs=sentences, target=target))
        want_nll.append(-ref_log_prob(params, sentences, target))
    reg = 1e-3
    g = Graph()
    loss = batch_loss(g, instances, params, reg).value
    sq = sum(float(np.sum(p.value * p.value)) for p in params.all_params())
    want = float(np.mean(want_nll)) + reg / 2.0 * sq
    assert float(loss) == pytest.approx(want, abs=1e-10)
    with pytest.raises(EmptyInputError):
        batch_loss(Graph(), [], params, reg)


def test_batch_loss_without_regularization_drops_the_penalty():
    rng = np.random.default_rng(7)
    params = tiny_params("cbow", seed=3)
    sentences = random_sentences(rng, 12, 3)
    inst = SimpleNamespace(inputs=sentences, target=[1, 0, 2])
    got = batch_loss(Graph(), [inst], params, 0.0).value
    assert float(got) == pytest.approx(-ref_log_prob(params, sentences, [1, 0, 2]),
                                       abs=1e-12)


def _ragged_instances(rng, vocab_size, count, max_sentences=8, max_words=5):
    """Documents of 2 to 8 sentences, each holding a one-word sentence (shorter
    than every filter width), with fixed-length, stop-terminated and
    noise-excluding targets in turn (the last leave one position out)."""
    instances = []
    for i in range(count):
        n = int(rng.integers(2, max_sentences + 1))
        sentences = random_sentences(rng, vocab_size, n, max_words)
        sentences[int(rng.integers(n))] = [int(rng.integers(1, vocab_size))]
        body = [int(p) for p in rng.permutation(n)]
        target = (body, body + [n], body[1:] + [n])[i % 3]
        instances.append(SimpleNamespace(doc_id=f"doc-{i}", inputs=sentences, target=target))
    return instances


def _batch_against_loop(params, instances, reg):
    """Worst relative difference of the loss and of each parameter gradient
    between batch_loss and the per-document reference loop."""
    all_params = params.all_params()
    for p in all_params:
        p.zero_grad()
    graph = Graph()
    loss = batch_loss(graph, instances, params, reg)
    graph.backward(loss)
    batched = [p.grad.copy() for p in all_params]
    for p in all_params:
        p.zero_grad()
    want = ref_batch_loss(params, instances, reg)
    worst = abs(float(loss.value) - want) / abs(want)
    for p, got in zip(all_params, batched):
        scale = max(np.abs(p.grad).max(), 1e-300)
        worst = max(worst, np.abs(got - p.grad).max() / scale)
        p.zero_grad()
    return worst


@pytest.mark.parametrize("kind", ["cbow", "cnn", "lstm"])
def test_batch_loss_and_every_gradient_match_the_per_document_loop(kind):
    rng = np.random.default_rng({"cbow": 12, "cnn": 13, "lstm": 14}[kind])
    worst = 0.0
    for trial in range(4):
        params = tiny_params(kind, seed=trial, vocab_size=30)
        overwrite_well_scaled(params, seed=100 + trial)
        instances = _ragged_instances(rng, 30, count=1 + 3 * trial)
        worst = max(worst, _batch_against_loop(params, instances, reg=1e-3 * trial))
    # Wide enough that the batched products are summed in fixed blocks.
    config = EncoderConfig(kind=kind, embed_dim=40, filter_lengths=(2, 3),
                           feature_maps=64, recurrent_dim=64)
    params = PtrNetParams.create(config, 64, 60, seed=5)
    worst = max(worst, _batch_against_loop(params, _ragged_instances(rng, 60, count=24), 1e-5))
    assert worst <= 1e-9, f"{kind}: batch differs from the loop by {worst:.3e}"


def test_batch_loss_names_the_document_whose_log_probability_is_not_finite():
    params = tiny_params("cbow", seed=2)
    instances = [SimpleNamespace(doc_id="first", inputs=[[1, 2], [3]], target=[1, 0]),
                 SimpleNamespace(doc_id="second", inputs=[[4], [5, 6]], target=[0, 1])]
    params.embeddings.value[5] = np.nan
    with pytest.raises(NumericError, match="second: log-probability is nan"):
        batch_loss(Graph(), instances, params, 1e-3)
    assert not any(p.grad.any() for p in params.all_params())


def test_a_batch_graph_is_freed_without_the_cycle_collector():
    rng = np.random.default_rng(15)
    for kind in ("cbow", "cnn", "lstm"):
        params = tiny_params(kind, seed=1, vocab_size=30)
        instances = _ragged_instances(rng, 30, count=4)
        gc.disable()
        try:
            g = Graph()
            loss = batch_loss(g, instances, params, 1e-3)
            g.backward(loss)
            ref = weakref.ref(g)
            del g, loss
            assert ref() is None, kind
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# saliency
# ---------------------------------------------------------------------------


def test_saliency_reports_the_probed_probability_and_word_shapes():
    rng = np.random.default_rng(8)
    params = tiny_params("lstm", seed=4)
    sentences = random_sentences(rng, 12, 4)
    inst = SimpleNamespace(inputs=sentences, target=[0, 1, 2, 3])
    result = saliency(inst, prefix=[2], params=params, choice=0)
    assert result.step == 2
    assert result.choice == 0
    assert [len(s) for s in result.scores] == [len(s) for s in sentences]
    assert all(v >= 0.0 for scores in result.scores for v in scores)

    # The probability must equal the same teacher-forced forward pass.
    g = Graph(recording=False)
    enc = encode_document(g, sentences, params)
    state = advance_decoder(g, enc.final_state, START, enc, params)
    mask = np.zeros(4, dtype=bool)
    mask[2] = True
    state = advance_decoder(g, state, 2, enc, params)
    probs = decode_step(g, state[0], enc, mask, params, allow_stop=False)
    assert result.probability == pytest.approx(float(probs.value[0]), abs=1e-15)


def test_saliency_defaults_to_the_greedy_choice():
    rng = np.random.default_rng(9)
    params = tiny_params("cbow", seed=5)
    sentences = random_sentences(rng, 12, 3)
    inst = SimpleNamespace(inputs=sentences, target=[0, 1, 2])
    result = saliency(inst, prefix=[], params=params)
    g = Graph(recording=False)
    enc = encode_document(g, sentences, params)
    state = advance_decoder(g, enc.final_state, START, enc, params)
    probs = decode_step(g, state[0], enc, np.zeros(3, bool), params, False)
    assert result.choice == int(np.argmax(probs.value))
    assert result.step == 1


def test_saliency_with_stop_slot_probes_the_stop_probability():
    rng = np.random.default_rng(10)
    params = tiny_params("cbow", seed=6)
    sentences = random_sentences(rng, 12, 3)
    inst = SimpleNamespace(inputs=sentences, target=[0, 1, 2, 3])
    result = saliency(inst, prefix=[0, 1], params=params, choice=3,
                      allow_stop=True)
    assert result.choice == 3
    assert 0.0 < result.probability < 1.0
    assert any(v > 0.0 for scores in result.scores for v in scores)

    # Once every position is used the stop slot is forced: probability one
    # and, the decision being constant, zero attribution everywhere.
    forced = saliency(inst, prefix=[0, 1, 2], params=params, choice=3,
                      allow_stop=True)
    assert forced.probability == 1.0
    assert all(v == 0.0 for scores in forced.scores for v in scores)


def test_lstm_saliency_matches_the_step_by_step_encoder(monkeypatch):
    # The word and context LSTMs run as one lstm_sequence op each; swapping
    # in a chain of lstm_step ops must give the same word attributions.
    rng = np.random.default_rng(11)
    for trial in range(6):
        params = tiny_params("lstm", seed=20 + trial)
        sentences = random_sentences(rng, 12, 3 + trial % 3, max_words=5)
        n = len(sentences)
        inst = SimpleNamespace(inputs=sentences, target=list(range(n)))
        prefix = [int(p) for p in rng.permutation(n)[:trial % n]]
        batched = saliency(inst, prefix, params)
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "lstm_sequence", stepwise_lstm_sequence)
            stepwise = saliency(inst, prefix, params)
        assert batched.choice == stepwise.choice
        assert batched.probability == pytest.approx(stepwise.probability, rel=1e-10)
        for row, ref_row in zip(batched.scores, stepwise.scores):
            assert len(row) == len(ref_row)
            for value, ref in zip(row, ref_row):
                assert value == pytest.approx(ref, rel=1e-10, abs=1e-300)
