"""Tests for the pointer-network model: parameters, attention, loss, saliency."""

import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    TINY_DIMS,
    log_products,
    overwrite_well_scaled,
    random_sentences,
    ref_batch_loss,
    ref_context,
    ref_encode_document,
    ref_log_prob,
    ref_step_probs,
    scored_steps,
    start_state,
    stepwise_lstm_sequence,
    tiny_params,
)

from ordernet.autodiff import Graph, Tensor
from ordernet.corpus import Document, build_instances, build_vocab, tokenize
from ordernet.errors import EmptyInputError, IndexRangeError, InvalidOrderError, NumericError
from ordernet.model import (
    START,
    PtrNetParams,
    advance_decoder,
    batch_log_probs,
    batch_loss,
    decode_step,
    encode_batch,
    encode_document,
    saliency,
    sequence_log_prob,
    validate_target,
)
from ordernet.synthetic import generate_documents
from ordernet.training import Model, TrainConfig


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
    config = TrainConfig(encoder="cbow", hidden_dim=7, seed=0, **TINY_DIMS)
    pre = np.arange(12 * TINY_DIMS["embed_dim"], dtype=float).reshape(12, -1)
    params = PtrNetParams.create(config, 12, pretrained=pre)
    assert np.array_equal(params.embeddings.value, pre)


def test_pretrained_embeddings_with_wrong_shape_are_rejected():
    config = TrainConfig(encoder="cbow", hidden_dim=7, seed=0, **TINY_DIMS)
    with pytest.raises(IndexRangeError):
        PtrNetParams.create(config, 12, pretrained=np.zeros((5, TINY_DIMS["embed_dim"])))


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
        for got, want in zip(enc.sentences.value, sent_vecs, strict=True):
            assert np.allclose(got, want, atol=1e-12)
        for got, want in zip(enc.context.value, hiddens, strict=True):
            assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(enc.final_h.value[0], h, atol=1e-12)
        assert np.allclose(enc.final_c.value[0], c, atol=1e-12)


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
            hiddens = list(enc.context.value)
            want = ref_step_probs(params, hiddens, d, mask, allow_stop)
            assert np.max(np.abs(probs.value - want)) <= 1e-12


def _tensor(graph, value):
    from ordernet.autodiff import Tensor
    return Tensor(np.asarray(value, dtype=np.float64))


def test_advance_decoder_start_sentinel_and_range_check():
    rng = np.random.default_rng(3)
    params = tiny_params("cbow", seed=1)
    g = Graph(recording=False)
    enc = encode_document(g, random_sentences(rng, 12, 3), params)
    state = advance_decoder(g, start_state(g, enc), START, enc, params)
    assert state[0].value.shape == (params.hidden_dim,)
    with pytest.raises(IndexRangeError):
        advance_decoder(g, start_state(g, enc), 3, enc, params)
    with pytest.raises(IndexRangeError):
        advance_decoder(g, start_state(g, enc), -2, enc, params)


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
    config = TrainConfig(encoder=kind, embed_dim=40, filter_lengths=(2, 3),
                         feature_maps=64, recurrent_dim=64, hidden_dim=64, seed=5)
    params = PtrNetParams.create(config, 60)
    worst = max(worst, _batch_against_loop(params, _ragged_instances(rng, 60, count=24), 1e-5))
    assert worst <= 1e-9, f"{kind}: batch differs from the loop by {worst:.3e}"


def _encoding_and_gradients(params, instances):
    """Every encode_batch output, the word rows' gradients, the batch
    log-probabilities and every parameter gradient, from one recording graph."""
    for p in params.all_params():
        p.zero_grad()
    rng = np.random.default_rng(0)
    graph = Graph()
    documents = [inst.inputs for inst in instances]
    batch = encode_batch(graph, documents, params)
    log_probs = batch_log_probs(graph, documents, [inst.target for inst in instances], params)
    total = graph.sum(log_probs)
    outputs = (batch.sentences, batch.context, batch.final_h, batch.final_c)
    for out in outputs:
        total = graph.add(total, graph.sum(graph.mul(out, Tensor(rng.normal(size=out.shape)))))
    graph.backward(total)
    arrays = [out.value for out in outputs] + [log_probs.value, batch.words.grad]
    return [a.copy() for a in arrays] + [p.grad.copy() for p in params.all_params()]


def _projected_per_row(lstm_sequence):
    """Graph.lstm_sequence with its index dropped: one projection per input row."""
    def per_row(self, x, lengths, h0, c0, w, b, keep_hidden=True, index=None):
        return lstm_sequence(self, x, lengths, h0, c0, w, b, keep_hidden)
    return per_row


@pytest.mark.parametrize("kind", ["cbow", "cnn", "lstm"])
def test_one_projection_per_distinct_input_keeps_every_bit(kind, monkeypatch):
    # The word LSTM projects each distinct word id once and the decoder
    # each distinct teacher-forced input once; gathering a row of a GEMM
    # gives the bits of the same row in a taller GEMM.  A batch of one
    # distinct word projects one row, which numpy hands to gemv: that
    # product may round differently, so it is held to 1e-15 instead.
    rng = np.random.default_rng({"cbow": 40, "cnn": 41, "lstm": 42}[kind])
    wide = TrainConfig(encoder=kind, embed_dim=40, filter_lengths=(2, 3),
                       feature_maps=64, recurrent_dim=64, hidden_dim=64, seed=44)
    distinct = iter(range(1, 60))
    all_distinct = [SimpleNamespace(inputs=[[next(distinct) for _ in range(k)]
                                            for k in (3, 1, 4)], target=[2, 0, 1])
                    for _ in range(3)]
    one_word = [SimpleNamespace(inputs=[[7] * k for k in (2, 5, 1, 3)], target=[1, 3, 0, 2, 4]),
                SimpleNamespace(inputs=[[7] * k for k in (4, 2)], target=[1, 0])]
    batches = [(tiny_params(kind, seed=43, vocab_size=30), _ragged_instances(rng, 30, count=7)),
               (PtrNetParams.create(wide, 60), _ragged_instances(rng, 60, count=9)),
               (tiny_params(kind, seed=45, vocab_size=60), all_distinct),
               (tiny_params(kind, seed=46, vocab_size=30), one_word)]
    for b, (params, instances) in enumerate(batches):
        overwrite_well_scaled(params, seed=47 + b)
        indexed = _encoding_and_gradients(params, instances)
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "lstm_sequence", _projected_per_row(Graph.lstm_sequence))
            per_row = _encoding_and_gradients(params, instances)
        assert len(indexed) == len(per_row)
        for got, want in zip(indexed, per_row):
            if instances is one_word:
                assert np.max(np.abs(got - want)) <= 1e-15 * max(np.abs(want).max(), 1.0)
            else:
                assert np.array_equal(got, want), b


def test_the_word_and_decoder_lstms_project_each_distinct_input_once():
    rng = np.random.default_rng(48)
    k, d = TINY_DIMS["embed_dim"], TINY_DIMS["recurrent_dim"]
    for trial in range(8):
        params = tiny_params("lstm", seed=49 + trial)
        word_products = log_products(params.word_cell.w)
        decoder_products = log_products(params.decoder_cell.w)
        instances = _ragged_instances(rng, 12, count=1 + trial)
        documents = [inst.inputs for inst in instances]
        graph = Graph()
        graph.backward(graph.sum(batch_log_probs(
            graph, documents, [inst.target for inst in instances], params)))
        ids = {t for doc in documents for sentence in doc for t in sentence}
        # Forward input projections only: backward multiplies by W_x^T.
        assert [left[0] for left, right in word_products if right == (k, 4 * d)] == [len(ids)]
        # The decoder reads START, then the sentence chosen at each scored
        # step but the last; a forced last step is not run.
        inputs = {(b, p) for b, inst in enumerate(instances)
                  for p in scored_steps(len(inst.inputs), inst.target)[:-1]}
        decoder_inputs = [left[0] for left, right in decoder_products
                          if right == (d, 4 * params.hidden_dim)]
        assert decoder_inputs == [1 + len(inputs)]


def _scored_step_counts(monkeypatch, params, documents, targets):
    """batch_log_probs's values, with the sequence lengths its decoder LSTM
    ran and the steps its pointer op scored, one entry per document."""
    seen = {}
    lstm_sequence, pointer_log_probs = Graph.lstm_sequence, Graph.pointer_log_probs

    def counted_lstm(self, x, lengths, h0, c0, w, b, *args, **kwargs):
        if w is params.decoder_cell.w:
            seen["decoder"] = [int(t) for t in lengths]
        return lstm_sequence(self, x, lengths, h0, c0, w, b, *args, **kwargs)

    def counted_pointer(self, keys, slots, queries, steps, w, v):
        seen["pointer"] = (np.asarray(steps) >= 0).sum(axis=1).tolist()
        return pointer_log_probs(self, keys, slots, queries, steps, w, v)

    with monkeypatch.context() as patch:
        patch.setattr(Graph, "lstm_sequence", counted_lstm)
        patch.setattr(Graph, "pointer_log_probs", counted_pointer)
        graph = Graph()
        log_probs = batch_log_probs(graph, documents, targets, params)
        graph.backward(graph.sum(log_probs))
    return log_probs.value, seen["decoder"], seen["pointer"]


@pytest.mark.parametrize("kind", ["cbow", "cnn", "lstm"])
def test_the_forced_last_step_is_neither_run_nor_scored(kind, monkeypatch):
    rng = np.random.default_rng(60)
    for trial in range(4):
        params = tiny_params(kind, seed=61 + trial, vocab_size=30)
        instances = _ragged_instances(rng, 30, count=3 + trial)
        documents = [inst.inputs for inst in instances]
        targets = [inst.target for inst in instances]
        _, decoder, pointer = _scored_step_counts(monkeypatch, params, documents, targets)
        want = [len(scored_steps(len(doc), target)) for doc, target in zip(documents, targets)]
        assert decoder == pointer == want
        # Fixed-length and permutation-plus-stop targets lose their last step.
        assert want == [len(target) - (i % 3 != 2) for i, target in enumerate(targets)]


def test_which_targets_keep_their_last_step(monkeypatch):
    params = tiny_params("cbow", seed=62)
    three = [[1, 2], [3], [4, 5, 6]]
    cases = [
        ([[7, 8]], [0], 1),            # one-sentence fixed-length: its only step
        ([[7, 8]], [1], 1),            # an immediate stop
        ([[7, 8]], [0, 1], 1),         # the stop after the only sentence is forced
        (three, [2, 0, 1], 2),         # fixed-length: n - 1 steps
        (three, [2, 0, 1, 3], 3),      # permutation + stop: n steps
        (three, [2, 1, 3], 3),         # a noise sentence left out: the stop is scored
    ]
    for documents, target, steps in cases:
        _, decoder, pointer = _scored_step_counts(monkeypatch, params, [documents], [target])
        assert decoder == pointer == [steps], target
    values, decoder, pointer = _scored_step_counts(
        monkeypatch, params, [documents for documents, _, _ in cases],
        [target for _, target, _ in cases])
    assert decoder == pointer == [steps for _, _, steps in cases]
    assert values[0] == 0.0  # a one-sentence document has one order


def test_batch_log_probs_without_forced_steps_matches_the_flat_reference():
    rng = np.random.default_rng(63)
    worst = 0.0
    for trial in range(6):
        kind = ("cbow", "cnn", "lstm")[trial % 3]
        params = tiny_params(kind, seed=64 + trial, vocab_size=30)
        instances = _ragged_instances(rng, 30, count=6)
        instances += [SimpleNamespace(inputs=[[5, 6]], target=[0]),
                      SimpleNamespace(inputs=[[7]], target=[0, 1])]
        got = batch_log_probs(Graph(recording=False), [inst.inputs for inst in instances],
                              [inst.target for inst in instances], params).value
        want = [ref_log_prob(params, inst.inputs, inst.target) for inst in instances]
        worst = max(worst, np.max(np.abs(got - want)))
    assert worst <= 1e-10


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
    state = advance_decoder(g, start_state(g, enc), START, enc, params)
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
    state = advance_decoder(g, start_state(g, enc), START, enc, params)
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


def test_a_forced_saliency_step_builds_no_graph(monkeypatch):
    # The last free slot has probability exactly 1 and backward gives every
    # word exactly 0 there, so saliency returns that without a graph.
    rng = np.random.default_rng(14)
    params = tiny_params("cnn", seed=9)
    sentences = random_sentences(rng, 12, 4)
    inst = SimpleNamespace(inputs=sentences, target=[0, 1, 2, 3])
    monkeypatch.setattr("ordernet.model.Graph", None)
    for prefix, allow_stop, last in (([2, 0, 3], False, 1), ([2, 0, 3, 1], True, 4)):
        for choice in (None, last):
            forced = saliency(inst, prefix, params, choice, allow_stop=allow_stop)
            assert (forced.step, forced.choice, forced.probability) == (len(prefix) + 1, last, 1.0)
            assert forced.scores == [[0.0] * len(s) for s in sentences]


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


def _reference_saliency(sentences, prefix, choice, params, allow_stop):
    """Step probability and per-word gradient norms, with the encoder run
    one lookup and one op per word (helpers.ref_encode_document)."""
    g = Graph()
    encoded = ref_encode_document(g, sentences, params)
    state = start_state(g, encoded)
    mask = np.zeros(len(sentences) + allow_stop, dtype=bool)
    previous = START
    for p in prefix:
        state = advance_decoder(g, state, previous, encoded, params)
        mask[p] = True
        previous = p
    state = advance_decoder(g, state, previous, encoded, params)
    prob = g.pick(decode_step(g, state[0], encoded, mask, params, allow_stop), choice)
    g.backward(prob)
    return float(prob.value), np.linalg.norm(encoded.words.grad, axis=1)


def test_saliency_scores_equal_per_word_reference_gradients():
    # Ragged sentences: one word, and two words, shorter than the widest
    # cnn filter (3).
    sentences = [[3, 5, 7, 2], [4], [8, 9], [6, 10, 11, 3, 1]]
    order = [2, 0, 3, 1]
    cases = 0
    for kind in ("cbow", "cnn", "lstm"):
        params = tiny_params(kind, seed=15)
        for allow_stop in (False, True):
            inst = SimpleNamespace(inputs=sentences)
            # Every unforced step, at the greedy choice and at the stop slot
            # or last gold position.
            for k in range(len(sentences) - 1 + allow_stop):
                prefix = order[:k]
                for choice in (None, 4 if allow_stop else order[-1]):
                    result = saliency(inst, prefix, params, choice, allow_stop)
                    prob, norms = _reference_saliency(sentences, prefix, result.choice,
                                                      params, allow_stop)
                    assert abs(result.probability - prob) <= 1e-15
                    scores = [v for row in result.scores for v in row]
                    assert np.max(np.abs(np.array(scores) - norms)) <= 1e-12
                    assert np.max(norms) > 0.0
                    cases += 1
    assert cases == 3 * (2 * 3 + 2 * 4)


def test_saliency_restores_every_parameter_gradient():
    rng = np.random.default_rng(12)
    for kind in ("cbow", "cnn", "lstm"):
        params = tiny_params(kind, seed=7)
        for p in params.all_params():
            p.grad[...] = rng.normal(size=p.grad.shape)
        before = [p.grad.copy() for p in params.all_params()]
        sentences = random_sentences(rng, 12, 3)
        inst = SimpleNamespace(inputs=sentences, target=[0, 1, 2, 3])
        result = saliency(inst, prefix=[1], params=params, choice=3, allow_stop=True)
        assert any(v > 0.0 for scores in result.scores for v in scores)
        for p, grad in zip(params.all_params(), before):
            assert np.array_equal(p.grad, grad), (kind, p.name)


@pytest.mark.parametrize("prefix, choice", [
    ([-1], None),     # would hide the last slot and feed START twice
    ([0, 0], None),   # a repeated position
    ([5], None),      # past the last of three sentences
    ([3], None),      # the stop slot is no input position
    ([1], 1),         # already chosen
    ([], 3),          # the stop slot without allow_stop
    ([], -1),
])
def test_saliency_rejects_an_invalid_prefix_or_choice(prefix, choice):
    params = tiny_params("cbow", seed=8)
    inst = SimpleNamespace(inputs=random_sentences(np.random.default_rng(13), 12, 3),
                           target=[0, 1, 2])
    with pytest.raises(InvalidOrderError):
        saliency(inst, prefix, params, choice)


@pytest.mark.parametrize("encoder", ["cbow", "cnn", "lstm"])
def test_recording_and_forward_only_graphs_give_the_same_log_probs(encoder):
    # Both graph kinds run the same products, so a training batch scores
    # its documents exactly as a forward-only graph (decoding) does.
    texts = generate_documents(32, np.random.default_rng(9), sentences_per_doc=5)
    docs = [Document(f"d{i}", [tokenize(s) for s in text]) for i, text in enumerate(texts)]
    model = Model.create(TrainConfig(encoder=encoder, seed=4), build_vocab(docs))
    instances = build_instances(docs, model.vocab, 4, 1)
    args = ([inst.inputs for inst in instances], [inst.target for inst in instances],
            model.params)
    recorded = batch_log_probs(Graph(), *args).value
    assert np.array_equal(recorded, batch_log_probs(Graph(recording=False), *args).value)
