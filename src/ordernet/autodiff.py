"""Reverse-mode automatic differentiation over dense float64 arrays.

A Graph records every primitive application on a tape in construction order,
which is already a topological order of the data flow.  backward() replays the
tape in reverse.  Gradients of leaf tensors (anything created directly, such
as parameters or probe inputs) accumulate across backward passes; gradients of
op outputs are scratch space that is reset at the start of each pass, so
calling backward twice without zeroing doubles every leaf gradient exactly.

There is no implicit broadcasting: elementwise ops accept equal shapes or one
scalar operand, and anything else raises ShapeError naming both shapes.
"""

from __future__ import annotations

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


def sigmoid(v):
    """Elementwise logistic function of an array, split by sign so exp never overflows."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def lstm_cell(pre, c_prev):
    """Gate nonlinearities and state update of an LSTM, on plain arrays.

    pre holds the pre-activations packed (input, output, forget, candidate)
    along its last axis; a leading batch axis is allowed.  Returns the new
    hidden state, the new cell state, the gate activations packed like pre
    (sigmoids of the first three blocks, tanh of the candidate) and
    tanh(cell), which is all a backward sweep needs.
    """
    d = pre.shape[-1] // 4
    acts = np.empty_like(pre)
    acts[..., :3 * d] = sigmoid(pre[..., :3 * d])
    acts[..., 3 * d:] = np.tanh(pre[..., 3 * d:])
    gate_in, gate_out, gate_forget, candidate = _gate_blocks(acts, d)
    c = c_prev * gate_forget + candidate * gate_in
    tanh_c = np.tanh(c)
    return gate_out * tanh_c, c, acts, tanh_c


def _gate_blocks(acts, d):
    """The (input, output, forget, candidate) blocks of packed gate activations."""
    return (acts[..., :d], acts[..., d:2 * d], acts[..., 2 * d:3 * d], acts[..., 3 * d:])


def _lstm_d_pre(acts, tanh_c, c_prev, g, dc):
    """Gradient of the packed pre-activations of LSTM steps.

    g is the gradient reaching the new hidden state and dc the one reaching
    the new cell state from later steps.  Returns (d_pre, dct) where dct is
    the whole gradient of the new cell state.
    """
    d = tanh_c.shape[-1]
    gate_in, gate_out, gate_forget, candidate = _gate_blocks(acts, d)
    dct = dc + g * gate_out * (1.0 - tanh_c * tanh_c)
    d_pre = np.concatenate([
        dct * candidate * gate_in * (1.0 - gate_in),
        g * tanh_c * gate_out * (1.0 - gate_out),
        dct * c_prev * gate_forget * (1.0 - gate_forget),
        dct * gate_in * (1.0 - candidate * candidate),
    ], axis=-1)
    return d_pre, dct


def squared_norm(array):
    """Sum of squares in numpy's own loop: BLAS splits a long dot product
    across threads, so its rounding would depend on the thread count."""
    flat = array.reshape(-1)
    return float(np.einsum("i,i->", flat, flat))


# Blocks of fixed_matmul.  OpenBLAS runs a product of more than 2^18
# multiply-adds on several threads, and for many shapes the result's bits
# then depend on the thread count; products of at most 256 inner terms and
# 64 columns came out identical at 1, 2 and 3 threads in a sweep of the
# shapes these ops use.
_THREADED_WORK = 1 << 18
_INNER_BLOCK = 256
_COLUMN_BLOCK = 64


def fixed_matmul(a, b):
    """a @ b for matrices, with the same bits at any BLAS thread count.

    A product large enough for BLAS to thread is summed over blocks of at
    most 256 inner terms and 64 columns in a fixed order.
    """
    (m, k), n = a.shape, b.shape[1]
    if m * n * k <= _THREADED_WORK:
        return a @ b
    out = np.empty((m, n))
    for lo in range(0, n, _COLUMN_BLOCK):
        cols = slice(lo, lo + _COLUMN_BLOCK)
        block = a[:, :_INNER_BLOCK] @ b[:_INNER_BLOCK, cols]
        for i in range(_INNER_BLOCK, k, _INNER_BLOCK):
            block += a[:, i:i + _INNER_BLOCK] @ b[i:i + _INNER_BLOCK, cols]
        out[:, cols] = block
    return out


def row_view(whole, index):
    """A Tensor whose value and gradient are views of one row of another's.

    It needs no tape entry: whatever reaches the row's gradient lands in
    the whole tensor's gradient, which the whole's own op reads.
    """
    row = Tensor.__new__(Tensor)
    row.value = whole.value[index]
    row.grad = whole.grad[index]
    return row


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


def _add_outer(outer_terms, target, left, right):
    """target.grad += outer(left, right), deferred into outer_terms for a Param."""
    if not isinstance(target, Param):
        target.grad += np.outer(left, right)
        return
    terms = outer_terms.get(id(target))
    if terms is None:
        terms = outer_terms[id(target)] = (target, [], [])
    terms[1].append(left)
    terms[2].append(right)


class Graph:
    """Tape of primitive applications supporting one-call reverse sweeps.

    With recording=False the same primitives run forward-only (used for
    decoding, where gradients are never needed).
    """

    def __init__(self, recording=True):
        self._tape = []
        self._outer_terms = {}  # id(param) -> (param, left vectors, right vectors)
        self.recording = recording

    def _forward_matmul(self, a, b):
        """a @ b for an op's forward pass.

        A recording graph's values feed gradients, so large products go
        through fixed_matmul; a forward-only graph keeps plain BLAS, whose
        single call is faster for the small products of decoding.
        """
        return fixed_matmul(a, b) if self.recording else a @ b

    def _emit(self, out, backward_fn, more_outs=()):
        if self.recording:
            self._tape.append(((out, *more_outs), backward_fn))
        return out

    def backward(self, root, seed=1.0):
        """Accumulate d(root)/d(leaf) into every leaf gradient, scaled by seed."""
        if not self.recording:
            raise NumericError("cannot backpropagate through a non-recording graph")
        # Op outputs hold per-pass scratch gradients; leaves keep accumulating.
        for outs, _ in self._tape:
            for out in outs:
                out.grad[...] = 0.0
        self._outer_terms.clear()
        root.grad += seed
        for _, backward_fn in reversed(self._tape):
            backward_fn()
        # Nothing reads a parameter's gradient during the sweep, so the outer
        # products deferred by lstm_step are summed here in one GEMM per
        # weight.
        for param, lefts, rights in self._outer_terms.values():
            param.grad += np.stack(lefts).T @ np.stack(rights)
        self._outer_terms.clear()

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

    def lstm_step(self, x, h_prev, c_prev, w, b):
        """One LSTM transition as a single op; returns the new (hidden, cell).

        w is the ([x; h_prev], 4d) weight matrix and b the 4d bias, gates
        packed (input, output, forget, candidate).  Forward and backward do
        the same float operations in the same order as composing concat,
        matmul, add, narrow, sigmoid, tanh and mul, so values and the
        gradients of x, h_prev, c_prev and b are bit-identical to that
        composition.  When w is a Param, its per-step outer products are
        summed in one GEMM at the end of backward(), which rounds
        differently from adding them one at a time.
        """
        xv, hv, cv, wv, bv = x.value, h_prev.value, c_prev.value, w.value, b.value
        if xv.ndim != 1 or hv.ndim != 1 or cv.shape != hv.shape:
            raise ShapeError(f"lstm_step expects vectors x, h, c with h and c alike, "
                             f"got {xv.shape}, {hv.shape}, {cv.shape}")
        k, d = xv.shape[0], hv.shape[0]
        if wv.shape != (k + d, 4 * d) or bv.shape != (4 * d,):
            raise ShapeError(f"lstm_step weights {wv.shape} and bias {bv.shape} do not fit "
                             f"input {k} and state {d}")
        xh = np.concatenate([xv, hv])
        h_value, c_value, acts, tanh_c = lstm_cell(xh @ wv + bv, cv)
        h, c = Tensor(h_value), Tensor(c_value)
        # The closure holds the dict, not the graph: a graph -> tape ->
        # closure -> graph cycle would keep every graph alive until the
        # cyclic garbage collector happens to run.
        outer_terms = self._outer_terms

        def backward_fn():
            d_pre, dc = _lstm_d_pre(acts, tanh_c, cv, h.grad, c.grad)
            c_prev.grad += dc * acts[2 * d:3 * d]
            b.grad += d_pre
            d_xh = wv @ d_pre
            _add_outer(outer_terms, w, xh, d_pre)
            x.grad += d_xh[:k]
            h_prev.grad += d_xh[k:]

        return self._emit(h, backward_fn, (c,)), c

    def lstm_sequence(self, x, lengths, h0, c0, w, b, keep_hidden=True):
        """An LSTM run over a batch of ragged sequences as a single op.

        x holds the input vectors of S sequences one after another, a
        (sum(lengths), k) matrix; sequence s is lengths[s] >= 1 rows long
        and starts from row s of the (S, d) states h0 and c0.  w and b are
        as in lstm_step.  One GEMM projects every input; then each time
        index advances the rows still inside their sequence in one batched
        step, and a row keeps its state once its sequence ends.  Returns
        (hidden, final_h, final_c): the hidden state after every input,
        row-aligned with x, and each sequence's last hidden and cell
        states as (S, d) matrices.  With keep_hidden false, hidden is None
        and is never stored.

        Only the gate activations and cell states of each step are stored;
        backward() recomputes the rest from them, runs the recurrence back
        by hand, and adds the weight gradient as [x; h_prev]^T @ d_pre and
        the bias gradient as one column sum.  Large products go through
        fixed_matmul.  Values round differently from a chain of lstm_step
        calls (the projection splits the [x; h_prev] @ w product in two).
        """
        xv, hv, cv, wv, bv = x.value, h0.value, c0.value, w.value, b.value
        if xv.ndim != 2:
            raise ShapeError(f"lstm_sequence expects a matrix of input rows, got {xv.shape}")
        lengths, offsets = _segments(lengths, xv.shape[0], "lstm_sequence")
        rows_total, (n, k) = len(lengths), xv.shape
        if hv.ndim != 2 or hv.shape[0] != rows_total or cv.shape != hv.shape:
            raise ShapeError(f"lstm_sequence expects ({rows_total}, d) states h0 and c0, "
                             f"got {hv.shape} and {cv.shape}")
        d = hv.shape[1]
        if wv.shape != (k + d, 4 * d) or bv.shape != (4 * d,):
            raise ShapeError(f"lstm_sequence weights {wv.shape} and bias {bv.shape} do not "
                             f"fit input {k} and state {d}")

        w_input, w_hidden = wv[:k], wv[k:]
        projected = self._forward_matmul(xv, w_input) + bv
        h, c = hv.copy(), cv.copy()
        acts_all = np.empty((n, 4 * d)) if self.recording else None
        c_all = np.empty((n, d)) if self.recording else None
        h_all = np.empty((n, d)) if keep_hidden else None
        steps = []
        for t in range(lengths.max()):
            rows = np.flatnonzero(lengths > t)
            flat = offsets[rows] + t
            h_new, c_new, acts, _ = lstm_cell(
                projected[flat] + self._forward_matmul(h[rows], w_hidden), c[rows])
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
            d_pre_all = np.empty((n, 4 * d))
            for t, (rows, flat) in reversed(list(enumerate(steps))):
                c_prev = cv[rows] if t == 0 else c_all[flat - 1]
                g = dh[rows] if hidden is None else hidden.grad[flat] + dh[rows]
                d_pre, dct = _lstm_d_pre(acts_all[flat], tanh_c_all[flat], c_prev, g, dc[rows])
                d_pre_all[flat] = d_pre
                dc[rows] = dct * acts_all[flat, 2 * d:3 * d]
                dh[rows] = fixed_matmul(d_pre, w_hidden.T)
            h0.grad += dh
            c0.grad += dc
            # The hidden state before each input: h0 for a sequence's first
            # row, else the previous row's output gate times tanh(cell).
            h_prev_all = np.empty((n, d))
            np.multiply(acts_all[:-1, d:2 * d], tanh_c_all[:-1], out=h_prev_all[1:])
            h_prev_all[offsets] = hv
            b.grad += d_pre_all.sum(axis=0)
            w.grad[:k] += fixed_matmul(xv.T, d_pre_all)
            w.grad[k:] += fixed_matmul(h_prev_all.T, d_pre_all)
            x.grad += fixed_matmul(d_pre_all, w_input.T)

        outs = (final_h, final_c) if hidden is None else (hidden, final_h, final_c)
        self._emit(outs[0], backward_fn, outs[1:])
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
        storing them.
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
            features = np.tanh(self._forward_matmul(
                x_padded[index].reshape(len(index), width * k), w.value) + b.value)
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
                w.grad += fixed_matmul(windows.T, d_features)
                d_windows = fixed_matmul(d_features, w.value.T)
                np.add.at(x_grad, index, d_windows.reshape(len(index), width, k))
                lo = hi
            x.grad += x_grad[:n]

        return self._emit(out, backward_fn)

    def pointer_log_probs(self, keys, slots, queries, targets, w, v):
        """Teacher-forced log-likelihood of a batch of pointer sequences, as one op.

        Row b of the batch chooses among the slots slots[b] (row indices
        into the (K, h) keys, padded with -1 after the row's last slot);
        targets[b] lists the slot chosen at each step (padded with -1
        after the row's last step).  queries holds one (Q, h) row per step,
        row b's steps one after another following row b - 1's.  At a step
        with query q, slot j scores v . tanh(w[:h]^T key_j + w[h:]^T q);
        slots chosen at earlier steps of the row are hidden, and the step's
        log-probability is the target's masked log-softmax.  Returns the
        (B,) vector of each row's summed step log-probabilities.

        Keys and queries are each projected by one GEMM; the steps run one
        at a time over a (B, slots, h) array, and backward() recomputes
        its tanh instead of storing it.
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
        if np.any(slots >= kv.shape[0]):
            raise IndexRangeError(f"pointer_log_probs slot outside {kv.shape[0]} keys")
        for b, (row_slots, row_targets) in enumerate(zip(present.sum(axis=1), targets)):
            chosen = row_targets[:steps[b]]
            if (chosen.size == 0 or chosen.min() < 0 or chosen.max() >= row_slots
                    or np.unique(chosen).size != chosen.size):
                raise IndexRangeError(f"pointer_log_probs row {b}: targets {chosen.tolist()} "
                                      f"are not distinct slots of {row_slots}")
        batch = len(steps)
        first_query = np.cumsum(steps) - steps
        key_proj = self._forward_matmul(kv, wv[:h])[np.where(present, slots, 0)]
        query_proj = self._forward_matmul(qv, wv[h:])
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
            d_keys = np.zeros(kv.shape)
            np.add.at(d_keys, slots[present], d_key_proj[present])
            w.grad[:h] += fixed_matmul(kv.T, d_keys)
            keys.grad += fixed_matmul(d_keys, wv[:h].T)
            w.grad[h:] += fixed_matmul(qv.T, d_query_proj)
            queries.grad += fixed_matmul(d_query_proj, wv[h:].T)

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
        on the BLAS thread count.
        """
        tensors = list(tensors)
        out = Tensor(sum(squared_norm(t.value) for t in tensors))

        def backward_fn():
            twice = 2.0 * out.grad
            for t in tensors:
                t.grad += twice * t.value

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
        accumulates into the table row it came from."""
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
                np.add.at(table.grad, index, out.grad)

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
