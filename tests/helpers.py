"""Shared test utilities: independent reference math and fixture builders.

The reference implementations here deliberately repeat the model arithmetic
in flat numpy, without the autodiff graph, so graph plumbing (masking, key
caching, the factorized attention) is checked against a second, simpler
derivation.  Brute-force enumerators provide oracles for the metric and
search code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ordernet.autodiff import Graph, Tensor
from ordernet.encoders import EncoderConfig
from ordernet.errors import EmptyInputError, IndexRangeError
from ordernet.model import (
    START,
    EncodedInstance,
    Order,
    PtrNetParams,
    advance_decoder,
    decode_step,
    encode_document,
    validate_target,
)

# ---------------------------------------------------------------------------
# fixture builders
# ---------------------------------------------------------------------------

TINY_DIMS = dict(embed_dim=6, filter_lengths=(2, 3), feature_maps=3,
                 recurrent_dim=5)


def tiny_params(kind, seed, vocab_size=12, hidden_dim=7):
    """A small model of the given encoder kind with deterministic weights."""
    config = EncoderConfig(kind=kind, **TINY_DIMS)
    return PtrNetParams.create(config, hidden_dim, vocab_size, seed)


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


# ---------------------------------------------------------------------------
# reference forward pass (flat numpy, no graph)
# ---------------------------------------------------------------------------

def ref_sigmoid(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def ref_lstm_step(x, h_prev, c_prev, w, b):
    """One LSTM transition with gates packed (input, output, forget, candidate)."""
    d = h_prev.shape[0]
    pre = np.concatenate([x, h_prev]) @ w + b
    gate_in = ref_sigmoid(pre[:d])
    gate_out = ref_sigmoid(pre[d:2 * d])
    gate_forget = ref_sigmoid(pre[2 * d:3 * d])
    candidate = np.tanh(pre[3 * d:])
    c = c_prev * gate_forget + candidate * gate_in
    return gate_out * np.tanh(c), c


def composed_lstm_step(graph, x, h_prev, c_prev, cell):
    """One LSTM transition composed from separate Graph primitives.

    This is the op-by-op form that Graph.lstm_step fuses; the two must agree
    bit for bit, in values and in gradients.
    """
    d = cell.state_dim
    pre = graph.add(graph.matmul(graph.concat([x, h_prev]), cell.w), cell.b)
    gate_in = graph.sigmoid(graph.narrow(pre, 0, d))
    gate_out = graph.sigmoid(graph.narrow(pre, d, 2 * d))
    gate_forget = graph.sigmoid(graph.narrow(pre, 2 * d, 3 * d))
    candidate = graph.tanh(graph.narrow(pre, 3 * d, 4 * d))
    c = graph.add(graph.mul(c_prev, gate_forget), graph.mul(candidate, gate_in))
    h = graph.mul(gate_out, graph.tanh(c))
    return h, c


def stepwise_lstm_sequence(graph, x, lengths, h0, c0, w, b, keep_hidden=True):
    """Graph.lstm_sequence as a chain of lstm_step ops, one row at a time.

    Has the op's signature, so a test can swap it in for the method.
    """
    hidden, final_h, final_c = [], [], []
    start = 0
    for s, length in enumerate(lengths):
        h, c = graph.lookup(h0, s), graph.lookup(c0, s)
        for t in range(length):
            h, c = graph.lstm_step(graph.lookup(x, start + t), h, c, w, b)
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
    kind = params.encoder.kind
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
        h, c = graph.lstm_step(x, h, c, cell.w, cell.b)
        hidden.append(h)
    return hidden, (h, c)


def ref_encode_document(graph, sentences, params):
    """encode_document for one document, one lookup per word and one
    lstm_step per LSTM input."""
    if not sentences or not all(sentences):
        raise EmptyInputError("empty document or sentence")
    word_vectors = [[graph.lookup(params.embeddings, t) for t in s] for s in sentences]
    kind = params.encoder.kind
    if kind == "cbow":
        vectors = [graph.mean_rows(graph.stack_rows(words)) for words in word_vectors]
    elif kind == "cnn":
        vectors = [composed_cnn_vector(graph, words, params.cnn_filters) for words in word_vectors]
    else:
        vectors = [_lstm_chain(graph, words, params.word_cell, params.word_cell.state_dim)[1][0]
                   for words in word_vectors]
    hidden, final = _lstm_chain(graph, vectors, params.context_cell, params.hidden_dim)
    return EncodedInstance(word_vectors, vectors, hidden, final)


def ref_sequence_log_prob(graph, sentences, target, params):
    """Teacher-forced log-probability of one target, stepping the decoder
    with model.advance_decoder and model.decode_step."""
    n = len(sentences)
    allow_stop = validate_target(target, n)
    encoded = ref_encode_document(graph, sentences, params)
    state = encoded.final_state
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

    root_state = advance_decoder(graph, encoded.final_state, START, encoded, params)
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
