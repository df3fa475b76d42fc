"""Order search over a trained model: greedy, beam, exhaustive, oracle.

All searches share the same tie discipline: candidates sort by cumulative
log-probability, then lexicographically by their position sequence (with the
stop slot numbered n, so stopping loses ties to any position).  Scores are
raw float64 sums of step log-probabilities, nothing length-normalized, and
ties are taken on the rounded sum: children whose step log-probs differ by
less than one ulp of their parent's score tie, and the lower slot wins.

Greedy search is beam search of width 1; beam_decode holds the one stepping
loop.  It steps a BatchDecoder, a forward-only copy of the decoder on plain
arrays.  BatchDecoder.for_documents, the one constructor, builds the
decoders of many documents from one non-recording encode_batch call: the
attention keys of every document (and the stop key) are projected by one
GEMM, and so is every decoder input.  Each input is START or one of a
document's sentence vectors, so the input half of the decoder LSTM product
is computed once (input_pre = [start; sentences] @ W_x + b) and each step
only adds hidden @ W_h to the rows it gathers.  A beam step computes only
what differs between candidates: hidden @ W_h once per distinct surviving
parent (its children share it and differ only in their input_pre row),
attention logits only for the slots that are still visible, and Python
candidates only for the children that can survive the level's top-k cut.
Every live candidate of a level holds the same number of positions, so
each has the same number V of visible slots: attention scores the (B, V)
grid of them through autodiff.attention_log_probs, the kernel that
training's Graph.pointer_log_probs runs too, and the LSTM gates of a step
are whole-row passes over its contiguous (B, 4h) pre-activations
(autodiff.lstm_cell).  for_documents and beam_decode each run on one BLAS
thread (autodiff.single_blas_thread, pinned once per call, never per step),
so decoded log-probabilities do not depend on the thread count.
Exhaustive search and rescoring teacher-force the differentiable Graph path
of ordernet.model.  No search runs the per-step Graph functions, which
compose primitives and have no fused op.
"""

from __future__ import annotations

import itertools

import numpy as np

from .autodiff import Graph, attention_log_probs, lstm_cell, single_blas_thread
from .errors import IndexRangeError, InvalidOrderError, NumericError, ShapeError
from .metrics import lsr_scores, pm_scores
from .model import START, Order, encode_batch, sequence_log_prob

# The per-step Graph functions and encode_document stay bound here so that
# a profiler can wrap them in this namespace (bench/tracing.py does); the
# searches below use BatchDecoder instead.
from .model import advance_decoder, decode_step, encode_document  # noqa: F401

EXHAUSTIVE_LIMIT = 8  # factorial guard


def is_count(value):
    """Whether value is an integer >= 1: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


class BatchDecoder:
    """Forward-only pointer decoder of one document over plain arrays.

    The document is encoded by encode_batch on a non-recording Graph, and
    its outputs are read as arrays.  The attention keys are projected
    once, and so is the decoder input: row 0 of input_pre is the START
    input and row j + 1 the vector of sentence j, each times the input
    rows of the decoder LSTM weight plus its bias.  Each row of a batch is
    one decoder state; advance() and log_probs() apply the decoder LSTM
    step and the pointing distribution of model.advance_decoder and
    model.decode_step to every row at once, with no gradient buffers.
    advance() steps children from their parents' rows, multiplying each
    distinct parent's hidden state by the recurrent weights once;
    log_probs() evaluates the attention only on a (B, V) grid of visible
    slots, through autodiff.attention_log_probs.
    """

    @classmethod
    @single_blas_thread()
    def for_documents(cls, documents, params, variable_flags):
        """One decoder per document, all from a single encode_batch call.

        The keys of every document plus the stop key, and the START input
        plus every sentence vector, are each projected by one GEMM; each
        decoder then gathers its own rows.  variable_flags[b] gives document
        b the stop slot.  It runs on one BLAS thread (single_blas_thread),
        so the encoding rounds the same at any thread count.  Raises
        NumericError unless every array a search reads (keys, input
        projections, start states, decoder weights) is finite.
        """
        if len(variable_flags) != len(documents):
            raise ShapeError(f"{len(variable_flags)} length modes for {len(documents)} documents")
        batch = encode_batch(Graph(recording=False), documents, params)
        hd = params.hidden_dim
        attn_w = params.attn_w.value
        cell_w = params.decoder_cell.w.value  # input rows, then hd hidden rows
        # Key row len(context) is the stop key; input row 0 is START and
        # row 1 + i sentence i of the batch.
        context = batch.context.value
        keys = np.vstack([context, params.stop_key.value]) @ attn_w[:hd]
        inputs = np.vstack([params.start_input.value, batch.sentences.value])
        input_pre = inputs @ cell_w[:-hd] + params.decoder_cell.b.value
        # Every value a search reads comes from these arrays; a NaN among
        # them would sort out of the beam instead of failing.
        if not all(np.isfinite(a).all() for a in (
                keys, input_pre, batch.final_h.value, batch.final_c.value, cell_w[-hd:],
                attn_w[hd:], params.attn_v.value)):
            raise NumericError("the decoder's inputs or weights are not finite")
        decoders = []
        for b, (offset, n, variable) in enumerate(
                zip(batch.doc_offsets.tolist(), batch.doc_lengths.tolist(), variable_flags)):
            key_rows = list(range(offset, offset + n)) + ([len(context)] if variable else [])
            decoder = cls.__new__(cls)
            decoder.n = n
            decoder.slots = len(key_rows)  # n, or n + 1 with the stop slot last
            decoder.keys = keys[key_rows]
            decoder.query_w = attn_w[hd:]
            decoder.attn_v = params.attn_v.value
            decoder.input_pre = input_pre[[0] + list(range(offset + 1, offset + n + 1))]
            decoder.hidden_w = cell_w[-hd:]
            decoder.initial = (batch.final_h.value[b:b + 1], batch.final_c.value[b:b + 1])
            decoders.append(decoder)
        return decoders

    def advance(self, hidden, cell, parents, chosen):
        """Decoder LSTM step of one child per entry of parents and chosen.

        Child r continues row parents[r] of the previous states hidden and
        cell by reading chosen[r], START or a position; both are checked
        to be in range as the lists they are.  hidden @ W_h is computed
        once per distinct parent, in order of first appearance, and
        gathered for each of its children; when the distinct parents are
        the rows of hidden in order (always at width 1), hidden and cell
        are read as they are, with no gather.  The result equals stepping
        hidden[parents] and cell[parents], bit for bit unless several
        children all share one parent: that one-row product goes through a
        matrix-vector routine, which may round differently.
        """
        if min(chosen) < START or max(chosen) >= self.n:
            raise IndexRangeError(f"chosen positions {list(chosen)} outside {self.n} inputs")
        first = {}
        inverse = [first.setdefault(p, len(first)) for p in parents]
        distinct = list(first)
        in_order = distinct == list(range(len(hidden)))
        if not in_order:
            if min(distinct) < 0 or max(distinct) >= len(hidden):
                raise IndexRangeError(f"parent rows {distinct} outside {len(hidden)} states")
            hidden = hidden[distinct]
        pre = hidden @ self.hidden_w
        if len(distinct) < len(inverse):  # else its rows are already in child order
            pre = pre[inverse]
        if not in_order or len(distinct) < len(inverse):  # else cell is cell[parents]
            cell = cell[parents]
        pre += self.input_pre[[position + 1 for position in chosen]]
        hidden, cell, _ = lstm_cell(pre, cell)
        return hidden, cell

    def log_probs(self, hidden, free):
        """(B, V) step log-probabilities of the V visible slots of each row.

        free is the (B, V) grid of visible slot numbers, ascending along
        each row: every row of a beam level has the same number V of
        visible slots, so np.nonzero(~mask)[1].reshape(B, V) gives it for
        a (B, slots) mask that is True on hidden slots.  The grid's
        (row, slot) pairs, row-major, go to autodiff.attention_log_probs
        with each row's projected query, and entry (r, i) is the
        log-probability of slot free[r, i]; the normalizer is summed over
        each whole slot row with zeros at hidden slots, so it rounds as a
        full-row masked log-softmax does.  V must be at least 1.
        """
        flat = free.reshape(-1)
        rows = np.repeat(np.arange(len(free)), free.shape[1])
        return attention_log_probs(self.keys[flat], hidden @ self.query_w, rows, flat,
                                   self.attn_v, self.slots).reshape(free.shape)


def _decoder_of(sentences, params, variable_length, decoder):
    """The given decoder after checking that it fits, else a new one."""
    if decoder is None:
        return BatchDecoder.for_documents([sentences], params, [variable_length])[0]
    if (decoder.n, decoder.slots) != (len(sentences), len(sentences) + bool(variable_length)):
        raise ShapeError(f"decoder of {decoder.n} inputs and {decoder.slots} slots does not fit "
                         f"{len(sentences)} sentences (variable length {variable_length})")
    return decoder


def greedy_decode(sentences, params, variable_length=False, decoder=None):
    """Beam search of width 1: the best order of beam_decode(..., 1, ...).

    Each step keeps the child of highest cumulative score; ties, taken on
    the rounded sum, go to the lower slot (stop last).  decoder is as for
    beam_decode.
    """
    return beam_decode(sentences, params, 1, variable_length, decoder)[0]


@single_blas_thread()
def beam_decode(sentences, params, beam_size, variable_length=False, decoder=None):
    """Beam search; returns (best order, the whole finished beam).

    Candidates sort by (-cumulative score, key), the key being the positions
    with the stop slot n appended once stopped.  Finished candidates stay in
    the beam at their final score and compete with live ones for the
    beam_size slots.  Each level advances the surviving children from their
    parents' rows in one advance call and scores their visible slots, found
    by one np.nonzero over the mask as a (B, V) grid, in one log_probs
    call; each child's score is its parent's score plus its grid entry.
    Only the children scoring at least the beam_size-th best live child's
    score, ties included, become candidates for the exact sort (np.partition
    finds that score); any other child has beam_size live children strictly
    ahead of it.  A candidate left with one visible slot takes it at its
    unchanged score, unscored (that step's log-softmax is exactly 0.0), so a
    fixed-length search makes n - 1 levels.  decoder, when given, is the
    document's BatchDecoder, built beforehand (by BatchDecoder.for_documents,
    say) from the same sentences and params.  The search runs on one BLAS
    thread (single_blas_thread).
    """
    if not is_count(beam_size):
        raise IndexRangeError(f"beam size must be an integer >= 1, got {beam_size!r}")
    n = len(sentences)
    decoder = _decoder_of(sentences, params, variable_length, decoder)
    slots = decoder.slots
    every_slot = slots * (slots - 1) // 2  # the sum of all slot numbers

    def candidate(score, positions, row):
        """(score, key, positions, parent row), the parent row None once finished."""
        if len(positions) < slots - 1:
            return score, positions, positions, row
        last = every_slot - sum(positions)  # the one slot not yet taken
        key = positions + (last,)
        return score, key, positions if last == n else key, None

    # Row r of hidden, cell and mask holds the decoder state of the live
    # candidates whose parent row is r, before their last position is read.
    hidden, cell = decoder.initial
    mask = np.zeros((1, slots), dtype=bool)
    beam = [candidate(0.0, (), 0)]
    while live := [e for e in beam if e[3] is not None]:
        parents = [row for _, _, _, row in live]
        mask = mask[parents]
        if live[0][2]:  # every live candidate holds the same number of positions
            chosen = [positions[-1] for _, _, positions, _ in live]
            mask[np.arange(len(live)), chosen] = True
        else:
            chosen = [START]
        hidden, cell = decoder.advance(hidden, cell, parents, chosen)
        rows, free = np.nonzero(~mask)
        step = decoder.log_probs(hidden, free.reshape(len(live), -1))
        scores = (np.array([score for score, _, _, _ in live])[:, None] + step).ravel()
        if len(scores) > beam_size:
            # beam_size live expansions score at least the cut, so none
            # scoring less can survive the sort; those tying it still may.
            keep = scores >= np.partition(scores, -beam_size)[-beam_size]
            rows, free, scores = rows[keep], free[keep], scores[keep]
        expansions = [e for e in beam if e[3] is None]
        for row, slot, score in zip(rows.tolist(), free.tolist(), scores.tolist()):
            positions = live[row][2]
            if slot == n:
                expansions.append((score, positions + (n,), positions, None))
            else:
                expansions.append(candidate(score, positions + (slot,), row))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        beam = expansions[:beam_size]

    orders = [Order(positions, variable_length, score) for score, _, positions, _ in beam]
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
    return Order(tuple(target[:-1] if variable_length else target), bool(variable_length), lp)


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
