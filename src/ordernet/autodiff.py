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
    hidden state, the new cell state, and the (input, output, forget,
    candidate, tanh(cell)) activations a backward sweep needs.
    """
    d = pre.shape[-1] // 4
    gates = sigmoid(pre[..., :3 * d])
    gate_in, gate_out, gate_forget = gates[..., :d], gates[..., d:2 * d], gates[..., 2 * d:]
    candidate = np.tanh(pre[..., 3 * d:])
    c = c_prev * gate_forget + candidate * gate_in
    tanh_c = np.tanh(c)
    return gate_out * tanh_c, c, (gate_in, gate_out, gate_forget, candidate, tanh_c)


def _view(whole, index):
    """A Tensor whose value and gradient are views of one row of another's."""
    row = Tensor(whole.value[index])
    row.grad = whole.grad[index]
    return row


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
        h_value, c_value, (gate_in, gate_out, gate_forget, candidate, tanh_c) = \
            lstm_cell(xh @ wv + bv, cv)
        h, c = Tensor(h_value), Tensor(c_value)
        # The closure holds the dict, not the graph: a graph -> tape ->
        # closure -> graph cycle would keep every graph alive until the
        # cyclic garbage collector happens to run.
        outer_terms = self._outer_terms

        def backward_fn():
            g = h.grad
            c.grad += g * gate_out * (1.0 - tanh_c * tanh_c)
            dc = c.grad
            c_prev.grad += dc * gate_forget
            d_pre = np.concatenate([
                dc * candidate * gate_in * (1.0 - gate_in),
                g * tanh_c * gate_out * (1.0 - gate_out),
                dc * cv * gate_forget * (1.0 - gate_forget),
                dc * gate_in * (1.0 - candidate * candidate),
            ])
            b.grad += d_pre
            d_xh = wv @ d_pre
            _add_outer(outer_terms, w, xh, d_pre)
            x.grad += d_xh[:k]
            h_prev.grad += d_xh[k:]

        return self._emit(h, backward_fn, (c,)), c

    def lstm_sequence(self, sequences, h0, c0, w, b):
        """An LSTM run over a batch of ragged sequences as a single op.

        sequences is a list of S non-empty lists of input vectors, h0 and c0
        the (S, d) starting states, w and b as in lstm_step.  The inputs of
        every step are projected by one GEMM; then each time index advances
        the rows still inside their sequence in one batched step, and a row
        keeps its state once its own sequence ends.  Returns (hidden,
        finals): hidden[s][t] is row s's hidden state after input t, and
        finals[s] its last (hidden, cell) pair, all vectors.

        backward() runs the recurrence back by hand, adds the weight
        gradient as one [x; h_prev]^T @ d_pre GEMM and the bias gradient as
        one column sum, and adds each input's gradient to that input's own
        tensor.  Values round differently from a chain of lstm_step calls
        (the projection splits the [x; h_prev] @ w product in two).
        """
        sequences = [list(seq) for seq in sequences]
        if not sequences:
            raise EmptyInputError("lstm_sequence of no sequences")
        if not all(sequences):
            raise EmptyInputError("lstm_sequence over an empty sequence")
        inputs = [x for seq in sequences for x in seq]
        shapes = {x.value.shape for x in inputs}
        if len(shapes) != 1 or len(inputs[0].value.shape) != 1:
            raise ShapeError(f"lstm_sequence expects input vectors of one length, got "
                             f"{sorted(shapes)}")
        k = inputs[0].value.shape[0]
        hv, cv, wv, bv = h0.value, c0.value, w.value, b.value
        rows_total = len(sequences)
        if hv.ndim != 2 or hv.shape[0] != rows_total or cv.shape != hv.shape:
            raise ShapeError(f"lstm_sequence expects ({rows_total}, d) states h0 and c0, "
                             f"got {hv.shape} and {cv.shape}")
        d = hv.shape[1]
        if wv.shape != (k + d, 4 * d) or bv.shape != (4 * d,):
            raise ShapeError(f"lstm_sequence weights {wv.shape} and bias {bv.shape} do not "
                             f"fit input {k} and state {d}")

        # Sequence s occupies rows offsets[s] .. offsets[s] + len - 1 of the
        # flat per-input arrays.
        lengths = np.array([len(seq) for seq in sequences])
        offsets = np.cumsum(lengths) - lengths
        x_all = np.stack([x.value for x in inputs])
        projected = x_all @ wv[:k] + bv
        w_hidden = wv[k:]
        h_prev_all = np.empty((len(inputs), d))
        h_all = np.empty((len(inputs), d))
        h, c = hv.copy(), cv.copy()
        steps = []
        for t in range(lengths.max()):
            rows = np.flatnonzero(lengths > t)
            flat = offsets[rows] + t
            h_prev, c_prev = h[rows], c[rows]
            h_new, c_new, acts = lstm_cell(projected[flat] + h_prev @ w_hidden, c_prev)
            h[rows], c[rows] = h_new, c_new
            h_prev_all[flat] = h_prev
            h_all[flat] = h_new
            steps.append((rows, flat, c_prev, acts))

        # The per-step vectors are views into two op outputs, so backward()
        # zeroes and reads their gradients as whole arrays.
        hidden_out, cell_out = Tensor(h_all), Tensor(c)
        views = [_view(hidden_out, n) for n in range(len(inputs))]
        hidden = [views[o:o + n] for o, n in zip(offsets, lengths)]
        finals = [(row[-1], _view(cell_out, s)) for s, row in enumerate(hidden)]

        def backward_fn():
            d_hidden = hidden_out.grad
            dh = np.zeros_like(hv)
            dc = cell_out.grad.copy()
            d_pre_all = np.empty((len(inputs), 4 * d))
            for rows, flat, c_prev, (gate_in, gate_out, gate_forget, candidate, tanh_c) \
                    in reversed(steps):
                g = d_hidden[flat] + dh[rows]
                dct = dc[rows] + g * gate_out * (1.0 - tanh_c * tanh_c)
                d_pre = np.concatenate([
                    dct * candidate * gate_in * (1.0 - gate_in),
                    g * tanh_c * gate_out * (1.0 - gate_out),
                    dct * c_prev * gate_forget * (1.0 - gate_forget),
                    dct * gate_in * (1.0 - candidate * candidate),
                ], axis=1)
                d_pre_all[flat] = d_pre
                dc[rows] = dct * gate_forget
                dh[rows] = d_pre @ w_hidden.T
            h0.grad += dh
            c0.grad += dc
            b.grad += d_pre_all.sum(axis=0)
            w.grad += np.concatenate([x_all, h_prev_all], axis=1).T @ d_pre_all
            d_x = d_pre_all @ wv[:k].T
            for x, g in zip(inputs, d_x):
                x.grad += g

        self._emit(hidden_out, backward_fn, (cell_out,))
        return hidden, finals

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
        """Stack equal-length vectors into a (len(parts), dim) matrix."""
        parts = list(parts)
        if not parts:
            raise EmptyInputError("stack_rows of no parts")
        dim = parts[0].value.shape
        for p in parts:
            if p.value.ndim != 1 or p.value.shape != dim:
                raise ShapeError(f"stack_rows expects equal vectors, got {p.shape} vs {dim}")
        out = Tensor(np.stack([p.value for p in parts]))

        def backward_fn():
            for i, p in enumerate(parts):
                p.grad += out.grad[i]

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
        """Row of an embedding table; the gradient accumulates into that row."""
        index = int(index)
        if table.value.ndim != 2:
            raise ShapeError(f"lookup expects a matrix table, got {table.shape}")
        if not 0 <= index < table.value.shape[0]:
            raise IndexRangeError(f"lookup index {index} outside table of {table.value.shape[0]} rows")
        out = Tensor(table.value[index].copy())

        def backward_fn():
            table.grad[index] += out.grad

        return self._emit(out, backward_fn)

    def mean_rows(self, x):
        """Average the rows of a (rows, dim) matrix."""
        if x.value.ndim != 2:
            raise ShapeError(f"mean_rows expects a matrix, got {x.shape}")
        rows = x.value.shape[0]
        if rows == 0:
            raise EmptyInputError("mean_rows over zero rows")
        out = Tensor(x.value.mean(axis=0))

        def backward_fn():
            x.grad += out.grad[None, :] / rows

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
