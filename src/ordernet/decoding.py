"""Order search over a trained model: greedy, beam, exhaustive, oracle.

All searches share the same tie discipline: candidates sort by cumulative
log-probability, then lexicographically by their position sequence (with the
stop slot numbered n, so stopping loses ties to any position).  Scores are
raw sums of step log-probabilities; nothing is length-normalized.

Greedy and beam search step a BatchDecoder, a forward-only copy of the
decoder on plain arrays built from one non-recording encode_batch call.
Every decoder input is START or one of the document's sentence vectors, so
the input half of the decoder LSTM product is computed once per document
(input_pre = [start; sentences] @ W_x + b) and each step only adds
hidden @ W_h to the rows it gathers.  Exhaustive search and rescoring
teacher-force the differentiable Graph path of ordernet.model.  No search
runs the per-step Graph functions, which compose primitives and have no
fused op.
"""

from __future__ import annotations

import itertools

import numpy as np

from .autodiff import Graph, lstm_cell
from .errors import IndexRangeError, InvalidOrderError
from .metrics import lsr_scores, pm_scores
from .model import START, Order, encode_batch, sequence_log_prob

# The per-step Graph functions and encode_document stay bound here so that
# a profiler can wrap them in this namespace (bench/tracing.py does); the
# searches below use BatchDecoder instead.
from .model import advance_decoder, decode_step, encode_document  # noqa: F401

EXHAUSTIVE_LIMIT = 8  # factorial guard


class BatchDecoder:
    """Forward-only pointer decoder over plain arrays, for a batch of rows.

    The document is encoded once, by encode_batch on a non-recording Graph,
    and its outputs are read as arrays.  The attention keys are projected
    once, and so is the decoder input: row 0 of input_pre is the START
    input and row j + 1 the vector of sentence j, each times the input
    rows of the decoder LSTM weight plus its bias.  Each row of a batch is
    one decoder state; advance() and log_probs() apply the decoder LSTM
    step and the pointing distribution of model.advance_decoder and
    model.decode_step to every row at once, with no gradient buffers.
    """

    def __init__(self, sentences, params, variable_length=False):
        batch = encode_batch(Graph(recording=False), [sentences], params)
        hd = params.hidden_dim
        keys = batch.context.value
        if variable_length:
            keys = np.vstack([keys, params.stop_key.value])
        self.n = len(sentences)
        self.slots = len(keys)  # n, or n + 1 with the stop slot last
        self.keys = keys @ params.attn_w.value[:hd]
        self.query_w = params.attn_w.value[hd:]
        self.attn_v = params.attn_v.value
        cell_w = params.decoder_cell.w.value  # input rows, then hd hidden rows
        inputs = np.vstack([params.start_input.value, batch.sentences.value])
        self.input_pre = inputs @ cell_w[:-hd] + params.decoder_cell.b.value
        self.hidden_w = cell_w[-hd:]
        self.initial = (batch.final_h.value, batch.final_c.value)

    def advance(self, hidden, cell, chosen):
        """Decoder LSTM step of every row; chosen[r] is START or a position."""
        chosen = np.asarray(chosen)
        if np.any((chosen < START) | (chosen >= self.n)):
            raise IndexRangeError(f"chosen positions {chosen} outside {self.n} inputs")
        pre = self.input_pre[chosen + 1] + hidden @ self.hidden_w
        hidden, cell, _ = lstm_cell(pre, cell)
        return hidden, cell

    def log_probs(self, hidden, mask):
        """(B, slots) log pointing distributions; mask[r, j] True hides slot j.

        Hidden slots come out as -inf, so they are never the argmax of a row
        with any visible slot.  Every row needs one visible slot.
        """
        logits = np.tanh(self.keys[None, :, :] + (hidden @ self.query_w)[:, None, :]) @ self.attn_v
        logits = np.where(mask, -np.inf, logits)
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def greedy_decode(sentences, params, variable_length=False):
    """Follow the argmax at every step; ties go to the lowest slot index."""
    n = len(sentences)
    decoder = BatchDecoder(sentences, params, variable_length)
    hidden, cell = decoder.initial
    mask = np.zeros((1, decoder.slots), dtype=bool)

    positions = []
    log_prob = 0.0
    previous = START
    stopped = False
    while len(positions) < n:
        hidden, cell = decoder.advance(hidden, cell, [previous])
        step = decoder.log_probs(hidden, mask)[0]
        choice = int(np.argmax(step))
        log_prob += float(step[choice])
        if choice == n:
            stopped = True
            break
        positions.append(choice)
        mask[0, choice] = True
        previous = choice
    if variable_length and not stopped:
        # Every position is taken, so the stop slot is the only candidate
        # left and carries probability exactly 1.
        stopped = True
    return Order(tuple(positions), stopped, log_prob)


def beam_decode(sentences, params, beam_size, variable_length=False):
    """Beam search; returns (best order, the whole finished beam).

    Finished candidates stay in the beam at their final score and compete
    with live ones for the beam_size slots.  The search runs until every
    survivor is finished, which takes at most n+1 levels.  Each level scores
    every live candidate in one log_probs call and advances the surviving
    children in one advance call.
    """
    if beam_size < 1:
        raise IndexRangeError(f"beam size must be positive, got {beam_size}")
    n = len(sentences)
    decoder = BatchDecoder(sentences, params, variable_length)
    # Candidates are (log_prob, key, positions, parent row), the key being
    # the positions with the stop slot n appended once finished and the
    # parent row None once finished.  Row r of hidden, cell and mask holds
    # the decoder state of live[r], which is (positions, log_prob).
    hidden, cell = decoder.advance(*decoder.initial, [START])
    mask = np.zeros((1, decoder.slots), dtype=bool)
    live = [((), 0.0)]
    finished = []

    while live:
        rows, slots = np.nonzero(~mask)
        step = decoder.log_probs(hidden, mask)
        scores = np.array([lp for _, lp in live])[rows] + step[rows, slots]
        expansions = list(finished)
        for row, slot, score in zip(rows.tolist(), slots.tolist(), scores.tolist()):
            positions = live[row][0]
            if slot == n:
                expansions.append((score, positions + (n,), positions, None))
                continue
            positions = positions + (slot,)
            if len(positions) == n:
                # The only continuation is stop (probability exactly 1 in
                # variable-length mode, no further step otherwise).
                key = positions + (n,) if variable_length else positions
                expansions.append((score, key, positions, None))
            else:
                expansions.append((score, positions, positions, row))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        beam = expansions[:beam_size]
        finished = [e for e in beam if e[3] is None]
        children = [e for e in beam if e[3] is not None]
        live = [(positions, score) for score, _, positions, _ in children]
        if children:
            parents = [row for _, _, _, row in children]
            chosen = [positions[-1] for _, _, positions, _ in children]
            hidden, cell = decoder.advance(hidden[parents], cell[parents], chosen)
            mask = mask[parents]
            mask[np.arange(len(children)), chosen] = True

    stopped = variable_length
    orders = [Order(positions, stopped, score) for score, _, positions, _ in beam]
    return orders[0], orders


def exhaustive_decode(sentences, params, variable_length=False):
    """Score every admissible order and keep the best; n is capped at 8.

    Used as a reference for the beam: in fixed-length mode the candidates are
    all permutations, otherwise every stop-terminated sequence of distinct
    positions (all lengths 0..n).
    """
    n = len(sentences)
    if n > EXHAUSTIVE_LIMIT:
        raise IndexRangeError(
            f"exhaustive search over {n} sentences exceeds the limit of {EXHAUSTIVE_LIMIT}")
    if variable_length:
        candidates = (
            tuple(p) + (n,)
            for k in range(n + 1)
            for p in itertools.permutations(range(n), k)
        )
    else:
        candidates = itertools.permutations(range(n))

    best = None
    for target in candidates:
        graph = Graph(recording=False)
        lp = float(sequence_log_prob(graph, sentences, list(target), params).value)
        entry = (-lp, tuple(target))
        if best is None or entry < best[0]:
            best = (entry, lp, target)
    _, lp, target = best
    if variable_length:
        return Order(tuple(target[:-1]), True, lp)
    return Order(tuple(target), False, lp)


def rescore(sentences, params, order, variable_length=False):
    """Log-probability of an already decoded order under the model."""
    target = list(order.positions)
    if variable_length:
        if not order.stopped:
            raise InvalidOrderError("variable-length orders must be stopped")
        target.append(len(sentences))
    graph = Graph(recording=False)
    return float(sequence_log_prob(graph, sentences, target, params).value)


ORACLE_METRICS = ("pm_f", "lsr_f", "pmr")


def oracle_in_beam(beam, gold, metric):
    """Best candidate of a finished beam against the gold order.

    metric is pm_f, lsr_f, or pmr.  Ties prefer the higher log-probability,
    then the lexicographically smaller position sequence.  Returns
    (candidate, score); for pmr the score is 1.0 exactly when some candidate
    equals gold.
    """
    if metric not in ORACLE_METRICS:
        raise IndexRangeError(f"unknown oracle metric {metric!r}")
    if not beam:
        raise InvalidOrderError("oracle over an empty beam")
    gold = tuple(gold)

    def score_of(order):
        if metric == "pmr":
            return 1.0 if order.positions == gold else 0.0
        if metric == "pm_f":
            return pm_scores(order.positions, gold).f
        return lsr_scores(order.positions, gold).f

    best = None
    for order in beam:
        score = score_of(order)
        entry = (-score, -order.log_prob, order.positions)
        if best is None or entry < best[0]:
            best = (entry, order, score)
    return best[1], best[2]
