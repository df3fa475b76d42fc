"""Shared test utilities: independent reference math and fixture builders.

The reference implementations here deliberately repeat the model arithmetic
in flat numpy, without the autodiff graph, so graph plumbing (masking, the
factorized attention) is checked against a second, simpler derivation.
Brute-force enumerators provide oracles for the metric and search code.
"""

from __future__ import annotations

import itertools
import json
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ordernet.autodiff import Graph, Tensor
from ordernet.encoders import LstmCell, lstm_step
from ordernet.errors import EmptyInputError, IndexRangeError
from ordernet.model import (
    START,
    BatchEncoding,
    Order,
    PtrNetParams,
    advance_decoder,
    decode_step,
    encode_document,
    validate_target,
)
from ordernet.training import TrainConfig

# ---------------------------------------------------------------------------
# fixture builders
# ---------------------------------------------------------------------------

TINY_DIMS = dict(embed_dim=6, filter_lengths=(2, 3), feature_maps=3,
                 recurrent_dim=5)


def tiny_params(kind, seed, vocab_size=12, hidden_dim=7):
    """A small model of the given encoder kind with deterministic weights."""
    config = TrainConfig(encoder=kind, hidden_dim=hidden_dim, seed=seed, **TINY_DIMS)
    return PtrNetParams.create(config, vocab_size)


# Ways a checkpoint file can be damaged, for damaged_checkpoint.
CHECKPOINT_DAMAGE = ("truncated", "bit-flipped", "meta-not-json", "unknown-encoder",
                     "repeated-token")


def damaged_checkpoint(path, damage):
    """A copy of a good checkpoint file, next to it, damaged one way.

    truncated keeps the first half of the bytes; bit-flipped flips one bit
    of the last stored byte of param/attn.w, so only its CRC tells; the
    others replace meta/config by text that is not JSON or by a config
    naming an encoder kind that does not exist, or repeat the last token of
    meta/vocab.
    """
    path = Path(path)
    out = path.with_name(f"{damage}.npz")
    raw = path.read_bytes()
    if damage == "truncated":
        out.write_bytes(raw[:len(raw) // 2])
    elif damage == "bit-flipped":
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("param/attn.w.npy")
        start = info.header_offset  # local header: 30 bytes, then name and extra field
        name_len, extra_len = struct.unpack("<HH", raw[start + 26:start + 30])
        last = start + 30 + name_len + extra_len + info.compress_size - 1
        flipped = bytearray(raw)
        flipped[last] ^= 0x01
        out.write_bytes(bytes(flipped))
    else:
        arrays = dict(np.load(path, allow_pickle=False))
        config = json.loads(str(arrays["meta/config"]))
        arrays.update({
            "meta-not-json": {"meta/config": np.array("{encoder: cbow")},
            "unknown-encoder": {
                "meta/config": np.array(json.dumps({**config, "encoder": "transformer"}))},
            "repeated-token": {
                "meta/vocab": np.append(arrays["meta/vocab"], arrays["meta/vocab"][-1])},
        }[damage])
        np.savez(out, **arrays)
    return out


def overwrite_well_scaled(params, seed, low=0.1, high=0.5):
    """Replace every parameter with values bounded away from zero.

    Finite differences lose all significant digits on coordinates whose true
    gradient is near the rounding floor, so gradient-check fixtures draw
    sign * U(low, high) values: combined with an L2 term in the objective,
    every coordinate keeps a healthy gradient magnitude.
    """
    rng = np.random.default_rng(seed)
    for t in params.all_params():
        sign = rng.choice([-1.0, 1.0], size=t.value.shape)
        t.value[...] = sign * rng.uniform(low, high, size=t.value.shape)


def random_sentences(rng, vocab_size, n_sentences, max_words=4):
    """Random token-id sentences (ids 1.., so the padding row stays unused)."""
    return [
        [int(rng.integers(1, vocab_size)) for _ in range(int(rng.integers(1, max_words + 1)))]
        for _ in range(n_sentences)
    ]


def scored_steps(n_inputs, target):
    """The steps of a target that batch_log_probs scores: every step but a
    forced last one, which a target as long as the document has slots (n,
    or n + 1 ending in the stop) takes; a one-step target keeps its step."""
    target = list(target)
    slots = n_inputs + (target[-1] == n_inputs)
    return target[:-1] if 1 < len(target) == slots else target


class ProductLog(np.ndarray):
    """A view of a weight matrix that logs every matrix product taken with it.

    Each product with the matrix or any view of it (a block of rows, the
    transpose) appends the shapes of its two operands to the shared list
    `products`; the product itself is the plain ndarray one.
    """

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(a) if isinstance(a, ProductLog) else a for a in inputs]
        if ufunc is np.matmul:
            self.products.append((plain[0].shape, plain[1].shape))
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


def log_products(weight):
    """Replace a weight tensor's value by a ProductLog view; returns its list."""
    weight.value = weight.value.view(ProductLog)
    weight.value.products = []
    return weight.value.products


# ---------------------------------------------------------------------------
# reference forward pass (flat numpy, no graph)
# ---------------------------------------------------------------------------

def ref_sigmoid(v):
    return 0.5 * (1.0 + np.tanh(v / 2.0))


def ref_lstm_step(x, h_prev, c_prev, w, b):
    """One LSTM transition with gates packed (input, output, forget, candidate)."""
    return ref_lstm_update(np.concatenate([x, h_prev]) @ w + b, c_prev)


def ref_lstm_update(pre, c_prev):
    """New (hidden, cell) from packed pre-activations (last axis) and the old cell."""
    d = pre.shape[-1] // 4
    gate_in = ref_sigmoid(pre[..., :d])
    gate_out = ref_sigmoid(pre[..., d:2 * d])
    gate_forget = ref_sigmoid(pre[..., 2 * d:3 * d])
    candidate = np.tanh(pre[..., 3 * d:])
    c = c_prev * gate_forget + candidate * gate_in
    return gate_out * np.tanh(c), c


def stepwise_lstm_sequence(graph, x, lengths, h0, c0, w, b, keep_hidden=True, index=None):
    """Graph.lstm_sequence as a chain of encoders.lstm_step calls, one row
    at a time: the unfused reference for the op.

    Has the op's signature, so a test can swap it in for the method.  Every
    row is projected on its own, so index is not read; h0 and c0 of None
    start each sequence from zero vectors, which are multiplied like any
    other state.
    """
    d = w.shape[1] // 4
    cell = LstmCell(w, b, d)
    hidden, final_h, final_c = [], [], []
    start = 0
    for s, length in enumerate(lengths):
        if h0 is None:
            h, c = Tensor(np.zeros(d)), Tensor(np.zeros(d))
        else:
            h, c = graph.lookup(h0, s), graph.lookup(c0, s)
        for t in range(length):
            h, c = lstm_step(graph, graph.lookup(x, start + t), h, c, cell)
            hidden.append(h)
        final_h.append(h)
        final_c.append(c)
        start += length
    return (graph.stack_rows(hidden) if keep_hidden else None,
            graph.stack_rows(final_h), graph.stack_rows(final_c))


def ref_sentence_vector(params, token_ids):
    """Encode one sentence with the configured encoder, in flat numpy."""
    emb = params.embeddings.value
    vectors = [emb[t] for t in token_ids]
    kind = params.encoder
    if kind == "cbow":
        return np.mean(vectors, axis=0)
    if kind == "cnn":
        pooled = []
        for f in params.cnn_filters:
            vecs = list(vectors)
            while len(vecs) < f.width:
                vecs.append(np.zeros_like(vecs[0]))
            rows = np.stack([
                np.concatenate(vecs[k:k + f.width])
                for k in range(len(vecs) - f.width + 1)
            ])
            pooled.append(np.tanh(rows @ f.w.value + f.b.value).max(axis=0))
        return np.concatenate(pooled)
    h = np.zeros(params.word_cell.state_dim)
    c = np.zeros(params.word_cell.state_dim)
    for x in vectors:
        h, c = ref_lstm_step(x, h, c, params.word_cell.w.value,
                             params.word_cell.b.value)
    return h


def ref_context(params, sentences):
    """Sentence vectors and context-encoder states over the given order."""
    sent_vecs = [ref_sentence_vector(params, s) for s in sentences]
    h = np.zeros(params.hidden_dim)
    c = np.zeros(params.hidden_dim)
    hiddens = []
    for vec in sent_vecs:
        h, c = ref_lstm_step(vec, h, c, params.context_cell.w.value,
                             params.context_cell.b.value)
        hiddens.append(h)
    return sent_vecs, hiddens, (h, c)


def ref_step_probs(params, hiddens, decoder_hidden, mask, allow_stop):
    """Pointing distribution from the unfactorized per-position logit.

    Each slot's logit is attn_v . tanh(attn_w^T [key_j ; decoder_hidden]),
    evaluated one slot at a time on the full concatenated vector, which is
    the form the production code splits into key and query halves.
    """
    keys = list(hiddens)
    if allow_stop:
        keys.append(params.stop_key.value)
    logits = np.array([
        np.tanh(np.concatenate([key, decoder_hidden]) @ params.attn_w.value)
        @ params.attn_v.value
        for key in keys
    ])
    keep = ~np.asarray(mask, dtype=bool)
    probs = np.zeros_like(logits)
    shifted = np.exp(logits[keep] - logits[keep].max())
    probs[keep] = shifted / shifted.sum()
    return probs


def ref_log_prob(params, sentences, target):
    """Teacher-forced log-probability of `target`, all in flat numpy."""
    n = len(sentences)
    allow_stop = target[-1] == n
    sent_vecs, hiddens, state = ref_context(params, sentences)

    w_dec = params.decoder_cell.w.value
    b_dec = params.decoder_cell.b.value
    mask = np.zeros(n + 1 if allow_stop else n, dtype=bool)
    x = params.start_input.value
    total = 0.0
    for t in target:
        state = ref_lstm_step(x, state[0], state[1], w_dec, b_dec)
        probs = ref_step_probs(params, hiddens, state[0], mask, allow_stop)
        total += np.log(probs[t])
        if t < n:
            mask[t] = True
            x = sent_vecs[t]
    return total


# ---------------------------------------------------------------------------
# reference loss (one Graph per document, one op per word and step)
# ---------------------------------------------------------------------------

def composed_cnn_vector(graph, word_vectors, filters):
    """One sentence through the convolutional encoder, one op per window."""
    embed_dim = word_vectors[0].value.shape[0]
    pooled = []
    for f in filters:
        vecs = list(word_vectors)
        while len(vecs) < f.width:
            vecs.append(Tensor(np.zeros(embed_dim)))
        windows = [graph.concat(vecs[k:k + f.width]) for k in range(len(vecs) - f.width + 1)]
        features = graph.tanh(graph.add_rowvec(graph.matmul(graph.stack_rows(windows), f.w), f.b))
        pooled.append(graph.max_over_time(features))
    return graph.concat(pooled)


def _lstm_chain(graph, inputs, cell, dim):
    h, c = Tensor(np.zeros(dim)), Tensor(np.zeros(dim))
    hidden = []
    for x in inputs:
        h, c = lstm_step(graph, x, h, c, cell)
        hidden.append(h)
    return hidden, (h, c)


def ref_encode_document(graph, sentences, params):
    """encode_document for one document, one lookup per word and one
    encoders.lstm_step per LSTM input.  The sentence encoders read each word
    as its row of `words`, the stack of those lookups, so words.grad holds
    one gradient row per word use, as encode_batch's does."""
    if not sentences or not all(sentences):
        raise EmptyInputError("empty document or sentence")
    lengths = np.array([len(s) for s in sentences])
    words = graph.stack_rows([graph.lookup(params.embeddings, t) for s in sentences for t in s])
    rows = iter(range(int(lengths.sum())))
    word_vectors = [[graph.lookup(words, next(rows)) for _ in s] for s in sentences]
    kind = params.encoder
    if kind == "cbow":
        vectors = [graph.mean_rows(graph.stack_rows(sentence)) for sentence in word_vectors]
    elif kind == "cnn":
        vectors = [composed_cnn_vector(graph, sentence, params.cnn_filters)
                   for sentence in word_vectors]
    else:
        vectors = [_lstm_chain(graph, sentence, params.word_cell, params.word_cell.state_dim)[1][0]
                   for sentence in word_vectors]
    hidden, (h, c) = _lstm_chain(graph, vectors, params.context_cell, params.hidden_dim)
    return BatchEncoding(words, lengths, graph.stack_rows(vectors), np.array([len(sentences)]),
                         np.array([0]), graph.stack_rows(hidden), graph.stack_rows([h]),
                         graph.stack_rows([c]))


def start_state(graph, encoded):
    """The decoder's first (hidden, cell): row 0 of a one-document encoding's
    final context state."""
    return graph.lookup(encoded.final_h, 0), graph.lookup(encoded.final_c, 0)


def ref_sequence_log_prob(graph, sentences, target, params):
    """Teacher-forced log-probability of one target, stepping the decoder
    with model.advance_decoder and model.decode_step."""
    n = len(sentences)
    allow_stop = validate_target(target, n)
    encoded = ref_encode_document(graph, sentences, params)
    state = start_state(graph, encoded)
    mask = np.zeros(n + 1 if allow_stop else n, dtype=bool)
    previous = START
    total = None
    for t in target:
        state = advance_decoder(graph, state, previous, encoded, params)
        probs = decode_step(graph, state[0], encoded, mask, params, allow_stop)
        term = graph.log(graph.pick(probs, t))
        total = term if total is None else graph.add(total, term)
        if t < n:
            mask[t] = True
            previous = t
    return total


def ref_batch_loss(params, instances, reg_lambda):
    """model.batch_loss as a loop of per-document graphs and backward passes.

    Adds the gradients to the parameters and returns the loss value.
    """
    m = len(instances)
    loss = 0.0
    for inst in instances:
        graph = Graph()
        lp = ref_sequence_log_prob(graph, inst.inputs, inst.target, params)
        graph.backward(lp, seed=-1.0 / m)
        loss += -float(lp.value) / m
    penalty = 0.0
    for p in params.all_params():
        p.grad += reg_lambda * p.value
        penalty += float(np.sum(p.value * p.value))
    return loss + 0.5 * reg_lambda * penalty


# ---------------------------------------------------------------------------
# reference optimizer passes (whole-array expressions, no blocks)
# ---------------------------------------------------------------------------

def ref_adagrad_step(params, state):
    """training.adagrad_step as one whole-array expression per parameter."""
    for p in params:
        acc = state.accumulators[p.name]
        acc += p.grad * p.grad
        p.value -= state.learning_rate * p.grad / (np.sqrt(acc) + state.epsilon)
        p.grad[...] = 0.0


def ref_penalty_backward(tensors, seed):
    """The backward of Graph.sum_squares(tensors) under a root gradient of
    seed, as one whole-array expression per tensor."""
    twice = 2.0 * np.float64(seed)
    for t in tensors:
        t.grad += twice * t.value


# ---------------------------------------------------------------------------
# reference beam search (one Graph step per candidate)
# ---------------------------------------------------------------------------

@dataclass
class _Candidate:
    key: tuple        # positions, with the stop slot appended once finished
    positions: tuple
    state: tuple      # decoder (hidden, cell) after consuming the last choice
    parent: object    # candidate this one extends, until its state is built
    log_prob: float
    finished: bool


def ref_beam_decode(sentences, params, beam_size, variable_length=False):
    """Beam search stepping each candidate alone through the Graph functions.

    Same contract and tie order as ordernet.decoding.beam_decode: candidates
    sort by (-log p, key) with the stop slot numbered n, finished ones keep
    competing for the beam, and the search ends when all are finished.
    """
    if beam_size < 1:
        raise IndexRangeError(f"beam size must be positive, got {beam_size}")
    n = len(sentences)
    graph = Graph(recording=False)
    encoded = encode_document(graph, sentences, params)

    root_state = advance_decoder(graph, start_state(graph, encoded), START, encoded, params)
    beam = [_Candidate((), (), root_state, None, 0.0, False)]

    while any(not c.finished for c in beam):
        expansions = []
        for cand in beam:
            if cand.finished:
                expansions.append(cand)
                continue
            mask = np.zeros(n + 1 if variable_length else n, dtype=bool)
            mask[list(cand.positions)] = True
            probs = decode_step(graph, cand.state[0], encoded, mask, params,
                                variable_length)
            for slot in np.flatnonzero(~mask):
                slot = int(slot)
                score = cand.log_prob + float(np.log(probs.value[slot]))
                if slot == n:
                    expansions.append(_Candidate(
                        cand.key + (n,), cand.positions, None, None, score, True))
                    continue
                positions = cand.positions + (slot,)
                if len(positions) == n:
                    key = positions + (n,) if variable_length else positions
                    expansions.append(_Candidate(key, positions, None, None, score, True))
                else:
                    expansions.append(_Candidate(
                        positions, positions, None, cand, score, False))
        expansions.sort(key=lambda c: (-c.log_prob, c.key))
        beam = expansions[:beam_size]
        for cand in beam:
            if cand.parent is not None:
                cand.state = advance_decoder(
                    graph, cand.parent.state, cand.positions[-1], encoded, params)
                cand.parent = None

    stopped = variable_length
    orders = [Order(c.positions, stopped, c.log_prob) for c in beam]
    return orders[0], orders


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_lcs_length(a, b):
    """Longest common subsequence by enumerating subsequences of `a`.

    Exponential in len(a); used only as an oracle against the DP version.
    """
    a, b = list(a), list(b)
    best = 0
    for r in range(len(a), 0, -1):
        if r <= best:
            break
        for picked in itertools.combinations(a, r):
            if _is_subsequence(picked, b):
                best = r
                break
    return best


def _is_subsequence(candidate, sequence):
    it = iter(sequence)
    return all(any(x == y for y in it) for x in candidate)


def all_fixed_orders(n):
    """Every permutation of range(n) as target sequences."""
    return [list(p) for p in itertools.permutations(range(n))]


def all_stop_orders(n):
    """Every stop-terminated sequence of distinct positions, all lengths."""
    return [
        list(p) + [n]
        for k in range(n + 1)
        for p in itertools.permutations(range(n), k)
    ]
