"""Reverse-mode automatic differentiation over dense float64 arrays.

A Graph records the backward closure of every primitive application on a
tape in construction order, already a topological order of the data flow.
backward() consumes the tape in reverse, dropping each closure and the arrays
it saved once it has run, so a graph is differentiated once.  Gradients of
leaf tensors (anything created directly, such as parameters or probe inputs)
accumulate until the caller zeroes them; an op output's starts at zero.

There is no implicit broadcasting: elementwise ops accept equal shapes or one
scalar operand, and anything else raises ShapeError naming both shapes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

from .errors import (
    EmptyInputError,
    IndexRangeError,
    MaskError,
    NumericError,
    ShapeError,
)


class Tensor:
    """A dense float64 array paired with a same-shaped gradient buffer."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


class Param(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, name, value):
        super().__init__(value)
        self.name = name

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


def sigmoid(v, out=None):
    """Elementwise logistic function of an array, as 0.5 * (1 + tanh(v / 2))
    computed in place on one output array (out, if given); never overflows."""
    out = np.multiply(v, 0.5, out=np.empty(np.shape(v)) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@functools.cache
def _gate_affine(width):
    """Read-only (scale, shift) vectors of packed gate pre-activations of
    the given width: 0.5 and 0.5 on the three sigmoid blocks, 1.0 and -0.0
    on the candidate block."""
    d = width // 4
    scale = np.full(width, 0.5)
    shift = np.full(width, 0.5)
    scale[3 * d:], shift[3 * d:] = 1.0, -0.0
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_cell(pre, c_prev):
    """Gate nonlinearities and state update of an LSTM, on plain arrays.

    pre holds the pre-activations packed (input, output, forget, candidate)
    along its last axis; a leading batch axis is allowed.  The activations
    are written over pre (sigmoids of the first three blocks, tanh of the
    candidate), so the caller hands over an array it owns.  They are three
    passes over all of pre's rows: pre *= scale, one tanh, then pre *=
    scale; pre += shift, with scale and shift 0.5 on the sigmoid blocks and
    1.0 and -0.0 on the candidate.  Halving is exact and t * 0.5 + 0.5 ==
    (t + 1) * 0.5 for t in [-1, 1], so the gates equal sigmoid()'s
    0.5 * (1 + tanh(v / 2)) and np.tanh of the candidate bit for bit (x *
    1.0 and x + -0.0 are x, signed zeros included).  Returns the new hidden
    state tanh(c) * output, the new cell state c = c_prev * forget +
    candidate * input, and pre, now holding the activations.  c and h are
    built by in-place ops in the order of those expressions, so they round
    as the expressions do.
    """
    d = pre.shape[-1] // 4
    scale, shift = _gate_affine(pre.shape[-1])
    pre *= scale
    np.tanh(pre, out=pre)
    pre *= scale
    pre += shift
    gate_in, gate_out, gate_forget, candidate = _gate_blocks(pre, d)
    h = np.multiply(candidate, gate_in)
    c = np.multiply(c_prev, gate_forget)
    c += h
    np.tanh(c, out=h)
    h *= gate_out
    return h, c, pre


def _gate_blocks(acts, d):
    """The (input, output, forget, candidate) blocks of packed gate activations."""
    return (acts[..., :d], acts[..., d:2 * d], acts[..., 2 * d:3 * d], acts[..., 3 * d:])


def squared_norm(array):
    """Sum of squares in numpy's own loop: BLAS splits a long dot product
    across threads, so its rounding would depend on the thread count."""
    flat = array.reshape(-1)
    return float(np.einsum("i,i->", flat, flat))


# Entries per block of a parameter-wide pass (the L2 penalty's backward,
# AdaGrad): a parameter, its gradient, its accumulator and two scratch
# blocks of 16,384 float64s take 640 KiB, which stays in a 2 MiB L2 cache.
# 4,096 and 131,072 entries were both slower.
BLOCK = 16384


def blocks(written, read=()):
    """Matching flat blocks of at most BLOCK entries of same-shaped float64
    arrays, as tuples: one view of each array of `written`, then of each of
    `read`.  A block of a contiguous array is a view into it; a block of any
    other layout is a buffer that numpy's nditer copies back into the array
    before the next block, so writes to the blocks of `written` reach it."""
    arrays = (*written, *read)
    with np.nditer(arrays, flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readwrite"]] * len(written) + [["readonly"]] * len(read),
                   buffersize=BLOCK, order="K") as it:
        yield from (it if len(arrays) > 1 else zip(it))


@functools.cache
def _openblas_threads():
    """(getter, setter) of the thread count of numpy's bundled OpenBLAS,
    or None where the library exports no such pair."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, restoring
    the caller's count on exit (also on an exception).  A threaded product
    can round differently, so the body's bits then do not depend on the
    thread count.  Where the library has no thread control, this does nothing."""
    get, set_ = _openblas_threads() or (lambda: None, lambda count: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _segments(lengths, rows, what):
    """Validated segment lengths (each >= 1, summing to rows) and offsets."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0:
        raise EmptyInputError(f"{what} of no segments")
    if lengths.min() < 1:
        raise EmptyInputError(f"{what} over an empty segment")
    if lengths.sum() != rows:
        raise ShapeError(f"{what}: segment lengths sum to {int(lengths.sum())}, "
                         f"not the {rows} input rows")
    return lengths, np.cumsum(lengths) - lengths


def _window_rows(lengths, offsets, width, pad_row):
    """Row indices of every width-long window of each segment.

    Returns (index, segment, start): index[j] lists the rows of window j,
    pad_row where a segment shorter than the width runs out (such a
    segment has exactly one window); segment[j] and start[j] are the
    window's segment and its first position within it.
    """
    counts = np.maximum(lengths, width) - width + 1
    segment = np.repeat(np.arange(len(lengths)), counts)
    start = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    position = start[:, None] + np.arange(width)
    index = np.where(position < lengths[segment, None], offsets[segment, None] + position,
                     pad_row)
    return index, segment, start


def _scatter_add_rows(rows, values, count):
    """A (count, width) array whose row r sums the rows of values that rows
    sends to r, in their input order, starting from zero: bit-equal to
    np.add.at(np.zeros((count, width)), rows, values).  Adding the result to
    an array that already holds nonzero entries rounds as g + (v1 + v2)
    rather than np.add.at's (g + v1) + v2."""
    width = values.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, values.reshape(-1), count * width).reshape(count, width)


class Graph:
    """Tape of primitive applications, differentiated at most once.

    With recording=False the same primitives run forward-only (used for
    decoding, where gradients are never needed).
    """

    def __init__(self, recording=True):
        self._tape = []
        self.recording = recording

    def _emit(self, out, backward_fn):
        if self.recording:
            self._tape.append(backward_fn)
        return out

    def backward(self, root, seed=1.0):
        """Add seed * d(root)/d(leaf) into every leaf gradient, consuming
        the tape: each closure is dropped once it has run, which frees the
        arrays it saved.  The graph stops recording, so a second call
        raises NumericError, as a call on a non-recording graph does."""
        if not self.recording:
            raise NumericError("backward of a forward-only or already differentiated graph")
        self.recording = False
        root.grad += seed
        while self._tape:
            self._tape.pop()()

    # ----- primitives -----

    def matmul(self, a, b):
        """Matrix/vector product following numpy's one- and two-dim rules."""
        av, bv = a.value, b.value
        if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
            raise ShapeError(f"matmul expects vectors or matrices, got {av.shape} @ {bv.shape}")
        if av.shape[-1] != bv.shape[0]:
            raise ShapeError(f"matmul inner dimensions disagree: {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv)

        def backward_fn():
            g = out.grad
            if av.ndim == 2 and bv.ndim == 2:
                a.grad += g @ bv.T
                b.grad += av.T @ g
            elif av.ndim == 1 and bv.ndim == 2:
                a.grad += bv @ g
                b.grad += np.outer(av, g)
            elif av.ndim == 2 and bv.ndim == 1:
                a.grad += np.outer(g, bv)
                b.grad += av.T @ g
            else:
                a.grad += g * bv
                b.grad += g * av

        return self._emit(out, backward_fn)

    def add(self, a, b):
        return self._elementwise(a, b, lambda x, y: x + y, "add",
                                 da=lambda g, av, bv: g, db=lambda g, av, bv: g)

    def mul(self, a, b):
        return self._elementwise(a, b, lambda x, y: x * y, "mul",
                                 da=lambda g, av, bv: g * bv, db=lambda g, av, bv: g * av)

    def _elementwise(self, a, b, fn, name, da, db):
        av, bv = a.value, b.value
        if av.shape != bv.shape and av.shape != () and bv.shape != ():
            raise ShapeError(f"{name} expects equal shapes or a scalar: {av.shape} vs {bv.shape}")
        out = Tensor(fn(av, bv))

        def backward_fn():
            g = out.grad
            ga, gb = da(g, av, bv), db(g, av, bv)
            a.grad += ga.sum() if av.shape == () and g.shape != () else ga
            b.grad += gb.sum() if bv.shape == () and g.shape != () else gb

        return self._emit(out, backward_fn)

    def scale(self, x, c):
        """Multiply by a python constant (no gradient flows into c)."""
        c = float(c)
        out = Tensor(x.value * c)

        def backward_fn():
            x.grad += out.grad * c

        return self._emit(out, backward_fn)

    def tanh(self, x):
        out = Tensor(np.tanh(x.value))

        def backward_fn():
            x.grad += out.grad * (1.0 - out.value * out.value)

        return self._emit(out, backward_fn)

    def sigmoid(self, x):
        out = Tensor(sigmoid(x.value))

        def backward_fn():
            x.grad += out.grad * out.value * (1.0 - out.value)

        return self._emit(out, backward_fn)

    def lstm_sequence(self, x, lengths, h0, c0, w, b, keep_hidden=True, index=None):
        """An LSTM run over a batch of ragged sequences as a single op.

        x holds the input vectors of S sequences one after another, a
        (sum(lengths), k) matrix; sequence s is lengths[s] >= 1 rows long
        and starts from row s of the (S, d) states h0 and c0, or from zero
        states when both are None.  w is the ([x; h_prev], 4d) weight
        matrix and b the 4d bias, packed as in lstm_cell.  index, when
        given, is the lookup index the rows of x came from, one entry per
        row, with equal entries marking equal rows: the input projection
        x @ W_x + b is then computed once per distinct entry, else once per
        row, and each time index gathers its rows of it.  Each time index
        advances the rows still inside their sequence in one batched step,
        and a row keeps its state once its sequence ends; from zero states
        the first step adds no recurrent product.  Returns (hidden,
        final_h, final_c): the hidden state after every input, row-aligned
        with x, and each sequence's last hidden and cell states as (S, d)
        matrices.  With keep_hidden false, hidden is None and is never
        stored.  This is the only LSTM op; one step on a graph is a
        composition of primitives (encoders.lstm_step).

        Only the gate activations and cell states of each step are stored;
        backward() recomputes the rest from them, runs the recurrence back
        by hand, writing each step's gradient of the gate pre-activations
        (d_pre) over that step's stored activations, and adds the weight
        gradient as [x; h_prev]^T @ d_pre and the bias gradient as one
        column sum.  x's gradient stays one row per input row, index or
        not.  From zero states, the gradients of the states before the
        first step are never formed.  Values round differently from a
        chain of encoders.lstm_step calls (the projection splits the
        [x; h_prev] @ w product in two).
        """
        xv, wv, bv = x.value, w.value, b.value
        if xv.ndim != 2:
            raise ShapeError(f"lstm_sequence expects a matrix of input rows, got {xv.shape}")
        lengths, offsets = _segments(lengths, xv.shape[0], "lstm_sequence")
        rows_total, (n, k) = len(lengths), xv.shape
        zero_start = h0 is None
        if zero_start != (c0 is None):
            raise ShapeError("lstm_sequence expects both of h0 and c0, or neither")
        if zero_start:
            d = wv.shape[-1] // 4
            hv = cv = np.zeros((rows_total, d))
        else:
            hv, cv = h0.value, c0.value
            if hv.ndim != 2 or hv.shape[0] != rows_total or cv.shape != hv.shape:
                raise ShapeError(f"lstm_sequence expects ({rows_total}, d) states h0 and c0, "
                                 f"got {hv.shape} and {cv.shape}")
            d = hv.shape[1]
        if wv.shape != (k + d, 4 * d) or bv.shape != (4 * d,):
            raise ShapeError(f"lstm_sequence weights {wv.shape} and bias {bv.shape} do not "
                             f"fit input {k} and state {d}")

        w_input, w_hidden = wv[:k], wv[k:]
        if index is None:
            projected, source = xv @ w_input + bv, None
        else:
            index = np.asarray(index)
            if index.shape != (n,):
                raise ShapeError(f"lstm_sequence expects an index of {n} entries, "
                                 f"got {index.shape}")
            _, first, source = np.unique(index, return_index=True, return_inverse=True)
            projected = xv[first] @ w_input + bv
        h, c = hv.copy(), cv.copy()
        acts_all = np.empty((n, 4 * d)) if self.recording else None
        c_all = np.empty((n, d)) if self.recording else None
        h_all = np.empty((n, d)) if keep_hidden else None
        steps = []
        for t in range(lengths.max()):
            rows = np.flatnonzero(lengths > t)
            flat = offsets[rows] + t
            pre = projected[flat if source is None else source[flat]]
            if t or not zero_start:
                pre += h[rows] @ w_hidden
            h_new, c_new, acts = lstm_cell(pre, c[rows])
            h[rows], c[rows] = h_new, c_new
            if self.recording:
                acts_all[flat], c_all[flat] = acts, c_new
            if keep_hidden:
                h_all[flat] = h_new
            steps.append((rows, flat))
        del projected

        hidden = Tensor(h_all) if keep_hidden else None
        final_h, final_c = Tensor(h), Tensor(c)

        def backward_fn():
            dh, dc = final_h.grad.copy(), final_c.grad.copy()
            tanh_c_all = np.tanh(c_all)
            # The hidden state before each input: h0 for a sequence's first
            # row, else the previous row's output gate times tanh(cell),
            # read before the steps below write d_pre over the gates.
            h_prev_all = np.empty((n, d))
            np.multiply(acts_all[:-1, d:2 * d], tanh_c_all[:-1], out=h_prev_all[1:])
            h_prev_all[offsets] = hv
            for t, (rows, flat) in reversed(list(enumerate(steps))):
                c_prev = cv[rows] if t == 0 else c_all[flat - 1]
                # g reaches the new hidden state; dct is the whole gradient
                # of the new cell state, dc[rows] being what later steps sent.
                g = dh[rows] if hidden is None else hidden.grad[flat] + dh[rows]
                gate_in, gate_out, gate_forget, candidate = _gate_blocks(acts_all[flat], d)
                tanh_c = tanh_c_all[flat]
                dct = dc[rows] + g * gate_out * (1.0 - tanh_c * tanh_c)
                d_pre = np.concatenate([
                    dct * candidate * gate_in * (1.0 - gate_in),
                    g * tanh_c * gate_out * (1.0 - gate_out),
                    dct * c_prev * gate_forget * (1.0 - gate_forget),
                    dct * gate_in * (1.0 - candidate * candidate),
                ], axis=-1)
                # No earlier step reads these rows of the activations.
                acts_all[flat] = d_pre
                if t or not zero_start:  # else only h0 and c0 would read them
                    dc[rows] = dct * gate_forget
                    dh[rows] = d_pre @ w_hidden.T
            if not zero_start:
                h0.grad += dh
                c0.grad += dc
            # acts_all now holds every row's d_pre.
            b.grad += acts_all.sum(axis=0)
            w.grad[:k] += xv.T @ acts_all
            w.grad[k:] += h_prev_all.T @ acts_all
            x.grad += acts_all @ w_input.T

        self._emit(final_h, backward_fn)
        return hidden, final_h, final_c

    def conv_max(self, x, lengths, filters):
        """Max-over-time tanh convolutions of each segment of x, as one op.

        x is an (N, k) matrix split into runs of lengths[s] >= 1 rows;
        filters is a list of (width, w, b) with w of shape (width * k, F)
        and b of shape (F,).  For each width, every window of that many
        consecutive rows of a segment becomes one row of a window matrix
        (a segment shorter than the width is zero-padded to exactly one
        window), which is multiplied by w in one GEMM, shifted by b and
        passed through tanh.  Each segment keeps the column-wise maximum
        over its windows, ties going to the earliest window.  Returns an
        (S, sum of F) matrix with one block of columns per filter, in
        order.  backward() rebuilds the window matrices from x instead of
        storing them, and adds their gradient back into x's rows one window
        column at a time.
        """
        xv = x.value
        if xv.ndim != 2:
            raise ShapeError(f"conv_max expects a matrix of input rows, got {xv.shape}")
        lengths, offsets = _segments(lengths, xv.shape[0], "conv_max")
        n, k = xv.shape
        x_padded = np.vstack([xv, np.zeros((1, k))])  # row n is the zero padding
        pooled, saved = [], []
        for width, w, b in filters:
            if w.value.shape != (width * k, b.value.shape[0]) or b.value.ndim != 1:
                raise ShapeError(f"conv_max filter of width {width}: weights {w.shape} and "
                                 f"bias {b.shape} do not fit {k} input columns")
            index, segment, start = _window_rows(lengths, offsets, width, n)
            features = np.tanh(
                x_padded[index].reshape(len(index), width * k) @ w.value + b.value)
            # Column-wise argmax of each segment's windows, over a
            # (segments, windows, F) array padded with -inf.
            by_segment = np.full((len(lengths), start.max() + 1, features.shape[1]), -np.inf)
            by_segment[segment, start] = features
            winner = np.flatnonzero(start == 0)[:, None] + by_segment.argmax(axis=1)
            pooled.append(np.take_along_axis(features, winner, axis=0))
            saved.append((width, w, b, index, winner))
        del x_padded
        out = Tensor(np.concatenate(pooled, axis=1))

        def backward_fn():
            x_padded = np.vstack([xv, np.zeros((1, k))])
            x_grad = np.zeros_like(x_padded)
            lo = 0
            for width, w, b, index, winner in saved:
                hi = lo + winner.shape[1]
                d_pre = out.grad[:, lo:hi] * (1.0 - out.value[:, lo:hi] ** 2)
                b.grad += d_pre.sum(axis=0)
                d_features = np.zeros((len(index), winner.shape[1]))
                np.put_along_axis(d_features, winner, d_pre, axis=0)
                windows = x_padded[index].reshape(len(index), width * k)
                w.grad += windows.T @ d_features
                d_windows = (d_features @ w.value.T).reshape(len(index), width, k)
                # Column i holds distinct rows but for the pad row, which is
                # dropped; a row's windows take it as columns width - 1 down
                # to 0, so this sweep adds in np.add.at's order.
                for i in range(width - 1, -1, -1):
                    x_grad[index[:, i]] += d_windows[:, i]
                lo = hi
            x.grad += x_grad[:n]

        return self._emit(out, backward_fn)

    def pointer_log_probs(self, keys, slots, queries, targets, w, v):
        """Teacher-forced log-likelihood of a batch of pointer sequences, as one op.

        Row b of the batch chooses among the slots slots[b] (row indices
        into the (K, h) keys, padded with -1 after the row's last slot; a
        -1 before a real slot, or any entry below -1, is an error);
        targets[b] lists the slot chosen at each step (padded with -1
        after the row's last step).  queries holds one (Q, h) row per step,
        row b's steps one after another following row b - 1's.  At a step
        with query q, slot j scores v . tanh(w[:h]^T key_j + w[h:]^T q);
        slots chosen at earlier steps of the row are hidden, and the step's
        log-probability is the target's masked log-softmax.  Returns the
        (B,) vector of each row's summed step log-probabilities.

        Keys and queries are each projected by one GEMM; the steps run one
        at a time over a (B, slots, h) array, and backward() recomputes
        its tanh instead of storing it.  backward() sums the gradients of
        the slots that share a key row (the stop key of every variable-length
        row, say) with one bincount, each key's slots in row order, as
        np.add.at into a zero array would.
        """
        kv, qv, wv, vv = keys.value, queries.value, w.value, v.value
        slots = np.asarray(slots, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        h = vv.shape[0]
        if (kv.ndim != 2 or qv.ndim != 2 or kv.shape[1] != h or qv.shape[1] != h
                or wv.shape != (2 * h, h)):
            raise ShapeError(f"pointer_log_probs shapes disagree: keys {kv.shape}, queries "
                             f"{qv.shape}, w {wv.shape}, v {vv.shape}")
        if slots.ndim != 2 or targets.ndim != 2 or slots.shape[0] != targets.shape[0]:
            raise ShapeError(f"pointer_log_probs expects (B, slots) and (B, steps) index "
                             f"arrays, got {slots.shape} and {targets.shape}")
        present = slots >= 0
        steps = (targets >= 0).sum(axis=1)
        if steps.sum() != qv.shape[0]:
            raise ShapeError(f"pointer_log_probs: {int(steps.sum())} steps but "
                             f"{qv.shape[0]} queries")
        if np.any(slots >= kv.shape[0]) or np.any(slots < -1):
            raise IndexRangeError(f"pointer_log_probs slot outside {kv.shape[0]} keys")
        if np.any(present[:, 1:] & ~present[:, :-1]):
            raise IndexRangeError("pointer_log_probs slots must come before the -1 padding")
        for b, (row_slots, row_targets) in enumerate(zip(present.sum(axis=1), targets)):
            chosen = row_targets[:steps[b]]
            if (chosen.size == 0 or chosen.min() < 0 or chosen.max() >= row_slots
                    or np.unique(chosen).size != chosen.size):
                raise IndexRangeError(f"pointer_log_probs row {b}: targets {chosen.tolist()} "
                                      f"are not distinct slots of {row_slots}")
        batch = len(steps)
        first_query = np.cumsum(steps) - steps
        key_proj = (kv @ wv[:h])[np.where(present, slots, 0)]
        query_proj = qv @ wv[h:]
        hidden = ~present
        total = np.zeros(batch)
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
        out = Tensor(total)

        def backward_fn():
            d_key_proj = np.zeros(key_proj.shape)
            d_query_proj = np.empty(query_proj.shape)
            for rows, query_rows, chosen, probs in step_rows:
                g = out.grad[rows]
                d_logits = probs * -g[:, None]
                d_logits[np.arange(len(rows)), chosen] += g
                act = np.tanh(key_proj[rows] + query_proj[query_rows][:, None, :])
                v.grad += np.einsum("rs,rsh->h", d_logits, act)
                d_in = d_logits[:, :, None] * vv * (1.0 - act * act)
                d_key_proj[rows] += d_in
                d_query_proj[query_rows] = d_in.sum(axis=1)
            d_keys = _scatter_add_rows(slots[present], d_key_proj[present], kv.shape[0])
            w.grad[:h] += kv.T @ d_keys
            keys.grad += d_keys @ wv[:h].T
            w.grad[h:] += qv.T @ d_query_proj
            queries.grad += d_query_proj @ wv[h:].T

        return self._emit(out, backward_fn)

    def log(self, x):
        if np.any(x.value <= 0.0):
            raise NumericError("log requires strictly positive inputs")
        out = Tensor(np.log(x.value))

        def backward_fn():
            x.grad += out.grad / x.value

        return self._emit(out, backward_fn)

    def sum(self, x):
        """Total of all entries, as a scalar tensor."""
        out = Tensor(x.value.sum())

        def backward_fn():
            x.grad += out.grad

        return self._emit(out, backward_fn)

    def sum_squares(self, tensors):
        """Sum of the squares of every entry of every tensor, as a scalar.

        One op for any number of tensors, storing nothing per tensor; the
        squares are summed by squared_norm, so the total does not depend
        on the BLAS thread count.  Backward adds 2 * out.grad * value to
        each gradient in blocks, through one block-sized scratch array.
        """
        tensors = list(tensors)
        out = Tensor(sum(squared_norm(t.value) for t in tensors))

        def backward_fn():
            twice = 2.0 * out.grad
            scratch = np.empty(BLOCK)
            for t in tensors:
                for grad, value in blocks([t.grad], [t.value]):
                    grad += np.multiply(twice, value, out=scratch[:value.size])

        return self._emit(out, backward_fn)

    def masked_softmax(self, logits, mask):
        """Softmax over the unmasked entries of a vector.

        mask[i] is True where position i is hidden; hidden positions come out
        with probability exactly 0.  The maximum unmasked logit is subtracted
        before exponentiation, so any finite logits are safe.
        """
        if logits.value.ndim != 1:
            raise ShapeError(f"masked_softmax expects a vector, got {logits.shape}")
        keep = ~np.asarray(mask, dtype=bool)
        if keep.shape != logits.value.shape:
            raise ShapeError(f"mask shape {keep.shape} does not match logits {logits.shape}")
        if not keep.any():
            raise MaskError("all positions are masked")
        v = logits.value
        e = np.zeros_like(v)
        e[keep] = np.exp(v[keep] - v[keep].max())
        p = e / e.sum()
        out = Tensor(p)

        def backward_fn():
            g = out.grad
            # Hidden entries have p == 0 and therefore zero gradient.
            logits.grad += p * (g - np.dot(g, p))

        return self._emit(out, backward_fn)

    def max_over_time(self, x):
        """Column-wise maximum of a (rows, features) matrix.

        Ties route the gradient to the lowest row index (argmax keeps the
        first maximum).
        """
        if x.value.ndim != 2:
            raise ShapeError(f"max_over_time expects a matrix, got {x.shape}")
        if x.value.shape[0] == 0:
            raise EmptyInputError("max_over_time over zero rows")
        rows = np.argmax(x.value, axis=0)
        cols = np.arange(x.value.shape[1])
        out = Tensor(x.value[rows, cols])

        def backward_fn():
            x.grad[rows, cols] += out.grad

        return self._emit(out, backward_fn)

    def concat(self, parts):
        """Join vectors end to end."""
        parts = list(parts)
        if not parts:
            raise EmptyInputError("concat of no parts")
        for p in parts:
            if p.value.ndim != 1:
                raise ShapeError(f"concat expects vectors, got {p.shape}")
        out = Tensor(np.concatenate([p.value for p in parts]))
        offsets = np.cumsum([0] + [p.value.shape[0] for p in parts])

        def backward_fn():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                p.grad += out.grad[lo:hi]

        return self._emit(out, backward_fn)

    def stack_rows(self, parts):
        """Stack vectors (one row each) and matrices (their rows) into one matrix."""
        parts = list(parts)
        if not parts:
            raise EmptyInputError("stack_rows of no parts")
        width = parts[0].value.shape[-1:]
        for p in parts:
            if p.value.ndim not in (1, 2) or p.value.shape[-1:] != width:
                raise ShapeError(f"stack_rows expects rows of one width, got {p.shape} vs {width}")
        out = Tensor(np.vstack([p.value for p in parts]))
        sizes = [1 if p.value.ndim == 1 else p.value.shape[0] for p in parts]
        starts = np.cumsum([0] + sizes[:-1])

        def backward_fn():
            for p, start, size in zip(parts, starts, sizes):
                p.grad += out.grad[start] if p.value.ndim == 1 else out.grad[start:start + size]

        return self._emit(out, backward_fn)

    def narrow(self, x, start, stop):
        """Contiguous slice of the leading axis of a vector or matrix."""
        n = x.value.shape[0] if x.value.ndim else 0
        if x.value.ndim not in (1, 2):
            raise ShapeError(f"narrow expects a vector or matrix, got {x.shape}")
        if not (0 <= start < stop <= n):
            raise IndexRangeError(f"narrow [{start}:{stop}] outside axis of length {n}")
        out = Tensor(x.value[start:stop].copy())

        def backward_fn():
            x.grad[start:stop] += out.grad

        return self._emit(out, backward_fn)

    def add_rowvec(self, m, v):
        """Add a vector to every row of a matrix."""
        if m.value.ndim != 2 or v.value.ndim != 1 or m.value.shape[1] != v.value.shape[0]:
            raise ShapeError(f"add_rowvec shapes disagree: {m.shape} + {v.shape}")
        out = Tensor(m.value + v.value[None, :])

        def backward_fn():
            m.grad += out.grad
            v.grad += out.grad.sum(axis=0)

        return self._emit(out, backward_fn)

    def lookup(self, table, index):
        """Rows of a table: an int index gives one row (a vector), a 1-d
        array of indices a matrix of those rows.  The gradient of each row
        accumulates into the table row it came from: one bincount sums the
        rows per table row in index order, then adds the sums to the
        table's gradient.  From a zero table gradient (an op output's, or a
        parameter's in training, which resets them after each step) that is
        bit-equal to np.add.at; onto a nonzero one it rounds as
        g + (v1 + v2) instead of (g + v1) + v2."""
        if table.value.ndim != 2:
            raise ShapeError(f"lookup expects a matrix table, got {table.shape}")
        scalar = np.ndim(index) == 0
        index = int(index) if scalar else np.asarray(index, dtype=np.intp)
        if not scalar and index.ndim != 1:
            raise ShapeError(f"lookup expects an int or a 1-d index array, got {index.shape}")
        rows = table.value.shape[0]
        if np.size(index) and not (0 <= np.min(index) and np.max(index) < rows):
            raise IndexRangeError(f"lookup index outside table of {rows} rows")
        out = Tensor(table.value[index])

        def backward_fn():
            if scalar:
                table.grad[index] += out.grad
            else:
                table.grad += _scatter_add_rows(index, out.grad, rows)

        return self._emit(out, backward_fn)

    def mean_rows(self, x, lengths=None):
        """Average the rows of a (rows, dim) matrix into a vector; with
        lengths, average each run of lengths[s] consecutive rows into row s
        of an (S, dim) matrix."""
        if x.value.ndim != 2:
            raise ShapeError(f"mean_rows expects a matrix, got {x.shape}")
        rows = x.value.shape[0]
        if rows == 0:
            raise EmptyInputError("mean_rows over zero rows")
        if lengths is None:
            out = Tensor(x.value.mean(axis=0))

            def backward_fn():
                x.grad += out.grad[None, :] / rows

            return self._emit(out, backward_fn)
        lengths, offsets = _segments(lengths, rows, "mean_rows")
        out = Tensor(np.add.reduceat(x.value, offsets, axis=0) / lengths[:, None])

        def backward_fn():
            x.grad += np.repeat(out.grad / lengths[:, None], lengths, axis=0)

        return self._emit(out, backward_fn)

    def pick(self, x, index):
        """Single entry of a vector, as a scalar tensor."""
        index = int(index)
        if x.value.ndim != 1:
            raise ShapeError(f"pick expects a vector, got {x.shape}")
        if not 0 <= index < x.value.shape[0]:
            raise IndexRangeError(f"pick index {index} outside vector of length {x.value.shape[0]}")
        out = Tensor(x.value[index])

        def backward_fn():
            x.grad[index] += out.grad

        return self._emit(out, backward_fn)


def grad_check(f, inputs, step=1e-5):
    """Worst relative error between reverse-mode and central-difference gradients.

    f takes a Graph and returns a scalar Tensor; inputs are the leaf tensors
    to differentiate against.  Each coordinate is perturbed by +-step and the
    relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    graph = Graph()
    out = f(graph)
    if out.value.shape != ():
        raise ShapeError(f"grad_check needs a scalar objective, got {out.shape}")
    if not np.isfinite(out.value):
        raise NumericError("objective is not finite at the evaluation point")
    for t in inputs:
        t.zero_grad()
    graph.backward(out)
    analytic = [t.grad.copy() for t in inputs]

    worst = 0.0
    for t, ga in zip(inputs, analytic):
        flat_value = t.value.reshape(-1)
        flat_grad = ga.reshape(-1)
        for k in range(flat_value.shape[0]):
            original = flat_value[k]
            flat_value[k] = original + step
            f_plus = float(f(Graph(recording=False)).value)
            flat_value[k] = original - step
            f_minus = float(f(Graph(recording=False)).value)
            flat_value[k] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("objective became non-finite during perturbation")
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(flat_grad[k]), abs(numeric), 1e-8)
            worst = max(worst, abs(flat_grad[k] - numeric) / denom)
    return worst
