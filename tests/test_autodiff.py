"""Tests for the reverse-mode tensor engine.

Every primitive is checked against central finite differences (the
independent oracle for derivatives), plus hand-computed closed forms where
the math is small enough to do on paper.  Property loops run with fixed
seeds so failures replay exactly.
"""

import numpy as np
import pytest

from ordernet.autodiff import Graph, Param, Tensor, grad_check, lstm_cell, sigmoid
from ordernet.encoders import LstmCell, lstm_step
from ordernet.errors import (
    EmptyInputError,
    IndexRangeError,
    MaskError,
    NumericError,
    ShapeError,
)

TRIALS = 100

# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_tensor_holds_float64_and_zero_grad():
    t = Tensor([[1, 2], [3, 4]])
    assert t.value.dtype == np.float64
    assert t.shape == (2, 2)
    assert np.array_equal(t.grad, np.zeros((2, 2)))


def test_param_keeps_its_name():
    p = Param("w", np.ones(3))
    assert p.name == "w"
    assert "w" in repr(p)


def test_matmul_matches_numpy_for_all_rank_combinations():
    rng = np.random.default_rng(0)
    shapes = [((2, 3), (3, 4)), ((3,), (3, 4)), ((2, 3), (3,)), ((3,), (3,))]
    for sa, sb in shapes:
        a, b = Tensor(rng.normal(size=sa)), Tensor(rng.normal(size=sb))
        out = Graph().matmul(a, b)
        assert np.array_equal(out.value, a.value @ b.value)


def test_elementwise_forward_values():
    g = Graph()
    a = Tensor([1.0, -2.0, 3.0])
    b = Tensor([4.0, 5.0, -6.0])
    assert np.array_equal(g.add(a, b).value, [5.0, 3.0, -3.0])
    assert np.array_equal(g.mul(a, b).value, [4.0, -10.0, -18.0])
    assert np.array_equal(g.scale(a, -2.0).value, [-2.0, 4.0, -6.0])


def test_scalar_operand_combines_with_any_shape():
    g = Graph()
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    s = Tensor(10.0)
    assert np.array_equal(g.add(m, s).value, [[11.0, 12.0], [13.0, 14.0]])
    assert np.array_equal(g.mul(s, m).value, [[10.0, 20.0], [30.0, 40.0]])


def test_sigmoid_is_stable_for_large_magnitudes():
    g = Graph()
    out = g.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out.value))
    assert out.value[0] == 0.0
    assert out.value[1] == 0.5
    assert out.value[2] == 1.0


def test_tanh_sigmoid_stays_within_an_ulp_of_the_sign_split_form():
    def split_sigmoid(v):
        e = np.exp(-np.abs(v))
        return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    rng = np.random.default_rng(22)
    for scale in (0.1, 1.0, 3.0, 10.0, 30.0):
        v = rng.normal(scale=scale, size=(64, 600))
        assert np.abs(sigmoid(v) - split_sigmoid(v)).max() <= 2.3e-16, scale
    limits = np.array([0.0, -0.0, 1000.0, -1000.0, np.inf, -np.inf, np.nan])
    assert np.array_equal(sigmoid(limits), split_sigmoid(limits), equal_nan=True)
    assert np.array_equal(sigmoid(limits), [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, np.nan],
                          equal_nan=True)


def strided_lstm_cell(pre, c_prev):
    """lstm_cell as four strided in-place passes over the sigmoid blocks and
    one over the candidate: the formula the whole-row passes replaced."""
    d = pre.shape[-1] // 4
    gates, candidate = pre[..., :3 * d], pre[..., 3 * d:]
    np.multiply(gates, 0.5, out=gates)
    np.tanh(gates, out=gates)
    gates += 1.0
    gates *= 0.5
    np.tanh(candidate, out=candidate)
    h = np.multiply(candidate, pre[..., :d])
    c = np.multiply(c_prev, pre[..., 2 * d:3 * d])
    c += h
    np.tanh(c, out=h)
    h *= pre[..., d:2 * d]
    return h, c, pre


def test_lstm_cell_keeps_the_bits_of_the_strided_formula():
    # Halving is exact and t * 0.5 + 0.5 == (t + 1) * 0.5, so the whole-row
    # passes must equal the strided ones exactly, signed zeros included,
    # even at inputs that saturate, underflow or overflow the halving.
    rng = np.random.default_rng(40)
    extremes = np.array([0.0, -0.0, 40.0, -40.0, 1e-300, -1e-300, 1e300, -1e300])
    for rows in (1, 2, 35, 64, 160):
        for d in (1, 3, 8, 50, 200):
            pre = rng.normal(scale=4.0, size=(rows, 4 * d))
            spots = rng.integers(0, pre.size, size=max(len(extremes), pre.size // 4))
            pre.flat[spots] = rng.choice(extremes, size=len(spots))
            pre.flat[:len(extremes)] = extremes[:pre.size]
            c_prev = rng.normal(size=(rows, d))
            got = lstm_cell(pre.copy(), c_prev)
            want = strided_lstm_cell(pre.copy(), c_prev)
            for mine, theirs in zip(got, want):
                assert np.array_equal(mine, theirs), (rows, d)
                assert np.array_equal(np.signbit(mine), np.signbit(theirs)), (rows, d)
    pre, c_prev = rng.normal(size=12), rng.normal(size=3)  # one unbatched row
    for mine, theirs in zip(lstm_cell(pre.copy(), c_prev), strided_lstm_cell(pre.copy(), c_prev)):
        assert np.array_equal(mine, theirs)


def test_masked_softmax_zeroes_hidden_entries_and_sums_to_one():
    g = Graph()
    probs = g.masked_softmax(Tensor([1.0, 2.0, 3.0, 4.0]),
                             np.array([False, True, False, True]))
    assert probs.value[1] == 0.0
    assert probs.value[3] == 0.0
    assert probs.value.sum() == pytest.approx(1.0, abs=1e-15)
    # Unmasked entries follow the two-way softmax closed form.
    expected = np.exp([1.0, 3.0]) / np.exp([1.0, 3.0]).sum()
    assert np.allclose(probs.value[[0, 2]], expected, atol=1e-15)


def test_masked_softmax_survives_extreme_logits():
    g = Graph()
    probs = g.masked_softmax(Tensor([1e6, -1e6, 1e6 - 1.0]),
                             np.zeros(3, dtype=bool))
    assert np.all(np.isfinite(probs.value))
    assert probs.value.sum() == pytest.approx(1.0, abs=1e-12)


def test_max_over_time_takes_columnwise_maxima():
    g = Graph()
    out = g.max_over_time(Tensor([[1.0, 5.0], [3.0, 2.0], [2.0, 4.0]]))
    assert np.array_equal(out.value, [3.0, 5.0])


def test_concat_stack_narrow_lookup_pick_values():
    g = Graph()
    a, b = Tensor([1.0, 2.0]), Tensor([3.0])
    assert np.array_equal(g.concat([a, b]).value, [1.0, 2.0, 3.0])
    assert np.array_equal(g.stack_rows([a, Tensor([4.0, 5.0])]).value,
                          [[1.0, 2.0], [4.0, 5.0]])
    m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(g.narrow(m, 1, 3).value, [[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(g.lookup(m, 2).value, [5.0, 6.0])
    assert np.array_equal(g.mean_rows(m).value, [3.0, 4.0])
    assert g.pick(Tensor([7.0, 8.0, 9.0]), 1).value == 8.0
    assert np.array_equal(g.add_rowvec(m, Tensor([10.0, 20.0])).value,
                          [[11.0, 22.0], [13.0, 24.0], [15.0, 26.0]])


# ---------------------------------------------------------------------------
# error conditions
# ---------------------------------------------------------------------------


def test_shape_mismatches_raise_shape_error():
    g = Graph()
    with pytest.raises(ShapeError):
        g.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        g.mul(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0]))  # no broadcasting
    with pytest.raises(ShapeError):
        g.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        g.matmul(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        g.masked_softmax(Tensor(np.ones((2, 2))), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ShapeError):
        g.masked_softmax(Tensor(np.ones(3)), np.zeros(4, dtype=bool))
    with pytest.raises(ShapeError):
        g.add_rowvec(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))
    with pytest.raises(ShapeError):
        g.stack_rows([Tensor([1.0]), Tensor([1.0, 2.0])])


def test_index_and_domain_errors():
    g = Graph()
    with pytest.raises(MaskError):
        g.masked_softmax(Tensor([1.0, 2.0]), np.array([True, True]))
    with pytest.raises(NumericError):
        g.log(Tensor([1.0, 0.0]))
    with pytest.raises(NumericError):
        g.log(Tensor([-1.0]))
    with pytest.raises(IndexRangeError):
        g.narrow(Tensor(np.ones(4)), 2, 6)
    with pytest.raises(IndexRangeError):
        g.lookup(Tensor(np.ones((3, 2))), 3)
    with pytest.raises(IndexRangeError):
        g.pick(Tensor(np.ones(3)), -1)
    with pytest.raises(EmptyInputError):
        g.concat([])
    with pytest.raises(EmptyInputError):
        g.stack_rows([])
    with pytest.raises(EmptyInputError):
        g.mean_rows(Tensor(np.ones((0, 3))))
    with pytest.raises(EmptyInputError):
        g.max_over_time(Tensor(np.ones((0, 3))))


def test_non_recording_graph_refuses_backward():
    g = Graph(recording=False)
    out = g.tanh(Tensor([1.0]))
    assert g._tape == []
    with pytest.raises(NumericError):
        g.backward(out)


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_repeated_backward_doubles_leaf_gradients_exactly():
    w = Tensor(np.array([[0.3, -0.2], [0.1, 0.4]]))
    x = Tensor(np.array([0.5, -0.7]))
    g = Graph()
    out = g.sum(g.tanh(g.matmul(w, x)))
    g.backward(out)
    first_w, first_x = w.grad.copy(), x.grad.copy()
    g.backward(out)
    assert np.array_equal(w.grad, 2.0 * first_w)
    assert np.array_equal(x.grad, 2.0 * first_x)


def test_backward_seed_scales_gradients():
    x = Tensor([1.0, 2.0])
    g = Graph()
    out = g.sum(g.mul(x, x))
    g.backward(out, seed=-0.5)
    assert np.allclose(x.grad, -0.5 * 2.0 * x.value, atol=1e-15)


def test_diamond_reuse_accumulates_both_paths():
    # y = sum(x*x) + sum(x) uses x twice; dy/dx = 2x + 1.
    x = Tensor([1.0, -3.0])
    g = Graph()
    out = g.add(g.sum(g.mul(x, x)), g.sum(x))
    g.backward(out)
    assert np.allclose(x.grad, 2.0 * x.value + 1.0, atol=1e-15)


def test_scalar_operand_gradient_reduces_over_the_array():
    s = Tensor(2.0)
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    g = Graph()
    g.backward(g.sum(g.mul(m, s)))
    assert s.grad == m.value.sum()
    assert np.array_equal(m.grad, np.full((2, 2), 2.0))


def test_lookup_gradients_accumulate_per_row():
    table = Tensor(np.zeros((3, 2)))
    g = Graph()
    a = g.lookup(table, 1)
    b = g.lookup(table, 1)
    g.backward(g.sum(g.add(a, b)))
    assert np.array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])


def test_lookup_rows_scatter_as_add_at_from_a_zero_gradient():
    rng = np.random.default_rng(70)
    index = [2, 0, 2, 2, 4, 0, 2]
    weights = rng.normal(size=(len(index), 3))
    table = Tensor(rng.normal(size=(5, 3)))
    g = Graph()
    g.backward(_weighted_sum(g, g.lookup(table, index), weights))
    want = np.zeros((5, 3))
    np.add.at(want, index, weights)
    assert np.array_equal(table.grad, want)
    # Onto a gradient already held, the rows' sum is added once.
    held = rng.normal(size=(5, 3))
    table.grad[...] = held
    g = Graph()
    g.backward(_weighted_sum(g, g.lookup(table, index), weights))
    assert np.allclose(table.grad, held + want, rtol=1e-15, atol=0.0)


def _windows(lengths, width, pad_row):
    """(segment, rows) of every width-long window of each segment, in
    order; a segment shorter than the width is one window ending in pad_row."""
    windows, offset = [], 0
    for s, length in enumerate(lengths):
        starts = range(max(length - width, 0) + 1)
        windows += [(s, [offset + j + i if j + i < length else pad_row for i in range(width)])
                    for j in starts]
        offset += length
    return windows


def _conv_max_input_gradient_by_add_at(xv, lengths, filters, out, weights):
    """conv_max's input gradient rebuilt from its output, scattered by one
    np.add.at over every window of each filter in turn."""
    n, k = xv.shape
    x_padded = np.vstack([xv, np.zeros((1, k))])
    x_grad = np.zeros_like(x_padded)
    lo = 0
    for width, w, b in filters:
        windows = _windows(lengths, width, n)
        segment = np.array([s for s, _ in windows])
        index = np.array([rows for _, rows in windows])
        features = np.tanh(x_padded[index].reshape(len(index), width * k) @ w.value + b.value)
        hi = lo + features.shape[1]
        d_pre = weights[:, lo:hi] * (1.0 - out[:, lo:hi] ** 2)
        d_features = np.zeros_like(features)
        columns = np.arange(features.shape[1])
        for s in range(len(lengths)):
            mine = np.flatnonzero(segment == s)
            d_features[mine[np.argmax(features[mine], axis=0)], columns] = d_pre[s]
        np.add.at(x_grad, index, (d_features @ w.value.T).reshape(len(index), width, k))
        lo = hi
    return x_grad[:n]


def test_conv_max_input_gradient_equals_add_at_bit_for_bit():
    # Widths 1-5 over one-word, short (padded) and long segments.
    rng = np.random.default_rng(71)
    k, features = 3, 8
    for trial in range(6):
        lengths = [1, int(rng.integers(2, 5)), 1, int(rng.integers(6, 12)),
                   int(rng.integers(1, 12)), 2]
        x = Tensor(rng.normal(size=(sum(lengths), k)))
        filters = [(width, Param(f"w{width}", rng.normal(size=(width * k, features))),
                    Tensor(rng.normal(size=features))) for width in (1, 2, 3, 4, 5)]
        weights = rng.normal(size=(len(lengths), 5 * features))
        g = Graph()
        out = g.conv_max(x, lengths, filters)
        g.backward(_weighted_sum(g, out, weights))
        want = _conv_max_input_gradient_by_add_at(x.value, lengths, filters, out.value, weights)
        assert np.array_equal(x.grad, want), trial


def test_the_shared_stop_key_gradient_is_the_in_order_sum_of_each_row_s():
    # Three variable-length rows share key 9 as their stop slot.  With the
    # key half of w the identity, the keys' gradient is the scattered
    # gradient of the projected keys itself, with no product after it.
    rng = np.random.default_rng(72)
    h = 4
    keys = Tensor(rng.normal(size=(10, h)))
    attn_w = Tensor(np.vstack([np.eye(h), rng.normal(size=(h, h))]))
    attn_v = Tensor(rng.normal(size=h))
    slots = [[0, 1, 2, 9], [3, 4, 5, 9], [6, 7, 8, 9]]
    targets = [[1, 3, -1, -1], [2, 0, 1, 3], [3, -1, -1, -1]]
    steps = [2, 4, 1]
    queries = rng.normal(size=(sum(steps), h))
    weights = rng.normal(size=3)
    first = np.cumsum(steps) - steps
    want = np.zeros(h)
    for b in range(3):
        g = Graph()
        rows = Tensor(queries[first[b]:first[b] + steps[b]])
        g.backward(_weighted_sum(g, g.pointer_log_probs(
            keys, [slots[b]], rows, [targets[b]], attn_w, attn_v), weights[b:b + 1]))
        want += keys.grad[9]
        keys.zero_grad()
    g = Graph()
    g.backward(_weighted_sum(g, g.pointer_log_probs(
        keys, slots, Tensor(queries), targets, attn_w, attn_v), weights))
    assert np.array_equal(keys.grad[9], want)


@pytest.mark.parametrize("slots", [[[0, -1, 2]], [[0, -2, 2]]])
def test_pointer_log_probs_rejects_unpacked_or_negative_slots(slots):
    keys = Tensor(np.ones((3, 2)))
    queries = Tensor(np.ones((2, 2)))
    with pytest.raises(IndexRangeError):
        Graph().pointer_log_probs(keys, slots, queries, [[1, 0]],
                                  Tensor(np.ones((4, 2))), Tensor(np.ones(2)))


def test_max_over_time_ties_route_gradient_to_first_row():
    x = Tensor([[2.0, 1.0], [2.0, 3.0]])  # column 0 ties between rows
    g = Graph()
    g.backward(g.sum(g.max_over_time(x)))
    assert np.array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])


def test_masked_softmax_backward_leaves_hidden_logits_untouched():
    logits = Tensor([1.0, 5.0, 2.0])
    g = Graph()
    probs = g.masked_softmax(logits, np.array([False, True, False]))
    g.backward(g.pick(probs, 0))
    assert logits.grad[1] == 0.0
    assert logits.grad[0] != 0.0


def test_masked_softmax_closed_form_gradient():
    # For p = softmax(z) and objective p_k: dp_k/dz_j = p_k (delta_kj - p_j).
    z = np.array([0.3, -0.4, 1.1])
    logits = Tensor(z)
    g = Graph()
    probs = g.masked_softmax(logits, np.zeros(3, dtype=bool))
    g.backward(g.pick(probs, 1))
    p = np.exp(z - z.max())
    p /= p.sum()
    expected = p[1] * (np.eye(3)[1] - p)
    assert np.allclose(logits.grad, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# finite-difference checks, one primitive at a time
# ---------------------------------------------------------------------------


def _weighted_sum(graph, out, weights):
    """Reduce any output to a scalar through fixed mixing weights."""
    return graph.sum(graph.mul(out, Tensor(weights)))


def _well_scaled(rng, shape):
    sign = rng.choice([-1.0, 1.0], size=shape)
    return sign * rng.uniform(0.2, 1.0, size=shape)


def _sequence_outputs(graph, result):
    """Every hidden state of an lstm_sequence result, then the final states."""
    hidden, final_h, final_c = result
    return graph.stack_rows([hidden, final_h, final_c])


def test_grad_check_every_primitive_under_1e_5():
    rng = np.random.default_rng(42)
    lstm_rng = np.random.default_rng(44)  # keeps the other cases' draws as they were
    seq_rng = np.random.default_rng(45)
    batch_rng = np.random.default_rng(46)
    worst = {}
    for trial in range(TRIALS):
        a = Tensor(_well_scaled(rng, (3, 4)))
        b = Tensor(_well_scaled(rng, (4, 2)))
        v = Tensor(_well_scaled(rng, (4,)))
        u = Tensor(_well_scaled(rng, (3,)))
        s = Tensor(_well_scaled(rng, ()))
        pos = Tensor(rng.uniform(0.5, 2.0, size=4))
        w_m = rng.normal(size=(3, 2))
        w_v2 = rng.normal(size=2)
        w_v3 = rng.normal(size=3)
        w_v4 = rng.normal(size=4)
        w_v7 = rng.normal(size=7)
        w_24 = rng.normal(size=(2, 4))
        w_34 = rng.normal(size=(3, 4))
        mask = np.array([False, True, False, False])
        pos3 = Tensor(lstm_rng.uniform(0.5, 2.0, size=3))
        lstm_w = Param("lstm_w", _well_scaled(lstm_rng, (7, 12)))
        lstm_b = Tensor(_well_scaled(lstm_rng, (12,)))
        w_v6 = lstm_rng.normal(size=6)
        # lstm_sequence: rows of lengths 3, 1 and 2 from a nonzero state.
        seq_x = Tensor(_well_scaled(seq_rng, (6, 3)))
        seq_h0 = Tensor(_well_scaled(seq_rng, (3, 2)))
        seq_c0 = Tensor(_well_scaled(seq_rng, (3, 2)))
        seq_w = Param("seq_w", _well_scaled(seq_rng, (5, 8)))
        seq_b = Tensor(_well_scaled(seq_rng, (8,)))
        w_12_2 = seq_rng.normal(size=(12, 2))
        # The batched ops: segments of 1 and 4 rows, filters of widths 2
        # and 3, and two pointer rows (the second stops at once) sharing
        # key 3 as their stop slot.
        conv_x = Tensor(_well_scaled(batch_rng, (5, 2)))
        conv_filters = [(width, Param(f"conv_w{width}", _well_scaled(batch_rng, (2 * width, 2))),
                         Tensor(_well_scaled(batch_rng, (2,)))) for width in (2, 3)]
        keys = Tensor(_well_scaled(batch_rng, (4, 3)))
        queries = Tensor(_well_scaled(batch_rng, (4, 3)))
        attn_w = Param("attn_w", _well_scaled(batch_rng, (6, 3)))
        attn_v = Tensor(_well_scaled(batch_rng, (3,)))
        slots = [[0, 1, 3], [2, 3, -1]]
        targets = [[1, 0, 2], [1, -1, -1]]
        w_44 = batch_rng.normal(size=(4, 4))
        w_24b = batch_rng.normal(size=(2, 4))
        w_v2b = batch_rng.normal(size=2)

        cases = {
            "matmul_mm": lambda g: _weighted_sum(g, g.matmul(a, b), w_m),
            "matmul_vm": lambda g: _weighted_sum(g, g.matmul(v, b), w_v2),
            "matmul_mv": lambda g: _weighted_sum(g, g.matmul(a, v), w_v3),
            "matmul_vv": lambda g: g.matmul(v, v),
            "add": lambda g: _weighted_sum(g, g.add(v, pos), w_v4),
            "add_scalar": lambda g: _weighted_sum(g, g.add(a, s), w_34),
            "mul": lambda g: _weighted_sum(g, g.mul(v, pos), w_v4),
            "mul_scalar": lambda g: _weighted_sum(g, g.mul(s, v), w_v4),
            "scale": lambda g: _weighted_sum(g, g.scale(v, -1.7), w_v4),
            "tanh": lambda g: _weighted_sum(g, g.tanh(v), w_v4),
            "sigmoid": lambda g: _weighted_sum(g, g.sigmoid(v), w_v4),
            "log": lambda g: _weighted_sum(g, g.log(pos), w_v4),
            "sum": lambda g: g.sum(a),
            "masked_softmax": lambda g: _weighted_sum(g, g.masked_softmax(v, mask), w_v4),
            "concat": lambda g: _weighted_sum(g, g.concat([v, u]), w_v7),
            "stack_rows": lambda g: _weighted_sum(g, g.stack_rows([v, pos]), w_24),
            "narrow": lambda g: _weighted_sum(g, g.narrow(a, 1, 3), w_24),
            "add_rowvec": lambda g: _weighted_sum(g, g.add_rowvec(a, v), w_34),
            "lookup": lambda g: _weighted_sum(g, g.lookup(a, 2), w_v4),
            "mean_rows": lambda g: _weighted_sum(g, g.mean_rows(a), w_v4),
            "pick": lambda g: g.pick(v, 1),
            "lstm_step": lambda g: _weighted_sum(
                g, g.concat(lstm_step(g, v, u, pos3, LstmCell(lstm_w, lstm_b, 3))), w_v6),
            "lstm_sequence": lambda g: _weighted_sum(g, _sequence_outputs(
                g, g.lstm_sequence(seq_x, (3, 1, 2), seq_h0, seq_c0, seq_w, seq_b)), w_12_2),
            "lstm_sequence_finals": lambda g: _weighted_sum(g, g.stack_rows(
                g.lstm_sequence(seq_x, (3, 1, 2), seq_h0, seq_c0, seq_w, seq_b,
                                keep_hidden=False)[1:]), w_12_2[:6]),
            "lookup_rows": lambda g: _weighted_sum(g, g.lookup(a, [2, 0, 2]), w_34),
            "mean_rows_segments": lambda g: _weighted_sum(g, g.mean_rows(a, [1, 2]), w_24),
            "stack_rows_matrix": lambda g: _weighted_sum(g, g.stack_rows([v, a]), w_44),
            "sum_squares": lambda g: g.sum_squares([a, v]),
            "conv_max": lambda g: _weighted_sum(
                g, g.conv_max(conv_x, [1, 4], conv_filters), w_24b),
            "pointer_log_probs": lambda g: _weighted_sum(
                g, g.pointer_log_probs(keys, slots, queries, targets, attn_w, attn_v), w_v2b),
        }
        leaves = {
            "matmul_mm": [a, b], "matmul_vm": [v, b], "matmul_mv": [a, v],
            "matmul_vv": [v], "add": [v, pos], "add_scalar": [a, s],
            "mul": [v, pos], "mul_scalar": [s, v], "scale": [v], "tanh": [v],
            "sigmoid": [v], "log": [pos], "sum": [a], "masked_softmax": [v],
            "concat": [v, u], "stack_rows": [v, pos], "narrow": [a],
            "add_rowvec": [a, v], "lookup": [a], "mean_rows": [a], "pick": [v],
            "lstm_step": [v, u, pos3, lstm_w, lstm_b],
            "lstm_sequence": [seq_x, seq_h0, seq_c0, seq_w, seq_b],
            "lstm_sequence_finals": [seq_x, seq_h0, seq_c0, seq_w, seq_b],
            "lookup_rows": [a], "mean_rows_segments": [a], "stack_rows_matrix": [v, a],
            "sum_squares": [a, v],
            "conv_max": [conv_x] + [t for _, w, b in conv_filters for t in (w, b)],
            "pointer_log_probs": [keys, queries, attn_w, attn_v],
        }
        for name, fn in cases.items():
            err = grad_check(fn, leaves[name])
            worst[name] = max(worst.get(name, 0.0), err)
    for name, err in sorted(worst.items()):
        assert err <= 1e-5, f"{name}: worst finite-difference error {err:.3e}"


def test_grad_check_max_over_time_with_safe_margins():
    # Ties make the maximum non-differentiable, so redraw until every
    # column's top two entries are separated by more than the probe step.
    rng = np.random.default_rng(43)
    worst = 0.0
    for trial in range(TRIALS):
        while True:
            m = rng.normal(size=(4, 3))
            top_two = np.sort(m, axis=0)[-2:]
            if np.all(top_two[1] - top_two[0] > 1e-3):
                break
        x = Tensor(m)
        weights = rng.normal(size=3)
        err = grad_check(lambda g: _weighted_sum(g, g.max_over_time(x), weights), [x])
        worst = max(worst, err)
    assert worst <= 1e-5, f"max_over_time: worst error {worst:.3e}"


def test_grad_check_composite_expression():
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(20):
        w = Tensor(_well_scaled(rng, (5, 5)))
        x = Tensor(_well_scaled(rng, (5,)))

        def f(g):
            hidden = g.tanh(g.matmul(w, x))
            probs = g.masked_softmax(hidden, np.zeros(5, dtype=bool))
            return g.log(g.pick(probs, 2))

        worst = max(worst, grad_check(f, [w, x]))
    assert worst <= 1e-5, f"composite: worst error {worst:.3e}"


def test_grad_check_rejects_non_scalar_objectives():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ShapeError):
        grad_check(lambda g: g.tanh(x), [x])


def test_grad_check_flags_a_broken_derivative(monkeypatch):
    # Sanity-check the checker itself: corrupt tanh's backward rule and the
    # reported error must become large.
    original = Graph.tanh

    def broken_tanh(self, x):
        out = Tensor(np.tanh(x.value))

        def backward_fn():
            x.grad += out.grad * 0.5  # wrong on purpose

        return self._emit(out, backward_fn)

    monkeypatch.setattr(Graph, "tanh", broken_tanh)
    x = Tensor([0.3, -0.8])
    err = grad_check(lambda g: g.sum(g.tanh(x)), [x])
    monkeypatch.setattr(Graph, "tanh", original)
    assert err > 1e-2


def test_grad_check_reports_non_finite_objective():
    x = Tensor([2.0])

    def f(g):
        return g.log(g.add(x, Tensor([-2.0])))  # log(0) at the base point

    with pytest.raises(NumericError):
        grad_check(f, [x])
