"""Tests for the three sentence encoders and the shared LSTM cell."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    composed_cnn_vector,
    log_products,
    ref_lstm_step,
    ref_lstm_update,
    stepwise_lstm_sequence,
)

from ordernet.autodiff import Graph, Param, Tensor, grad_check
from ordernet.encoders import (
    LstmCell,
    cbow_vector,
    cnn_vector,
    create_cnn_filters,
    lstm_step,
    lstm_vector,
)
from ordernet.errors import EmptyInputError, ShapeError
from ordernet.training import TrainConfig


def _bounded(rng, shape):
    sign = rng.choice([-1.0, 1.0], size=shape)
    return sign * rng.uniform(0.1, 0.5, size=shape)


# ---------------------------------------------------------------------------
# the LSTM cell
# ---------------------------------------------------------------------------


def test_lstm_cell_create_initializes_forget_bias_open():
    cell = LstmCell.create("c", 3, 4, np.random.default_rng(0))
    assert cell.w.value.shape == (7, 16)
    assert np.all(np.abs(cell.w.value) <= 0.08)
    b = cell.b.value
    assert np.array_equal(b[8:12], np.ones(4))  # forget slice
    assert np.array_equal(b[:8], np.zeros(8))
    assert np.array_equal(b[12:], np.zeros(4))


# ---------------------------------------------------------------------------
# LSTM step semantics
# ---------------------------------------------------------------------------


def test_lstm_step_matches_flat_reference():
    rng = np.random.default_rng(1)
    for trial in range(20):
        cell = LstmCell.create("c", 4, 3, rng)
        cell.w.value[...] = rng.normal(size=cell.w.value.shape)
        cell.b.value[...] = rng.normal(size=cell.b.value.shape)
        x, h0, c0 = rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
        g = Graph(recording=False)
        h, c = lstm_step(g, Tensor(x), Tensor(h0), Tensor(c0), cell)
        rh, rc = ref_lstm_step(x, h0, c0, cell.w.value, cell.b.value)
        assert np.array_equal(h.value, rh)
        assert np.array_equal(c.value, rc)


def test_a_graph_with_lstm_steps_is_freed_without_the_cycle_collector():
    # A backward closure that referenced its graph made every training graph
    # wait for gc, which raised peak memory by tens of MB.
    cell = LstmCell.create("c", 3, 2, np.random.default_rng(0))
    gc.disable()
    try:
        g = Graph()
        h, c = lstm_step(g, Tensor(np.ones(3)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), cell)
        hidden, final_h, final_c = g.lstm_sequence(
            Tensor(np.ones((2, 3))), [2], Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))),
            cell.w, cell.b)
        g.backward(g.add(g.sum(h), g.sum(final_c)))
        ref = weakref.ref(g)
        del g, h, c, hidden, final_h, final_c
        assert ref() is None
    finally:
        gc.enable()


def test_fused_lstm_step_rejects_mismatched_shapes():
    # encoders.lstm_step, composed of primitives; each one checks its shapes.
    cell = LstmCell.create("c", 3, 2, np.random.default_rng(0))
    g = Graph()
    h, c = Tensor(np.zeros(2)), Tensor(np.zeros(2))
    with pytest.raises(ShapeError):
        lstm_step(g, Tensor(np.zeros(4)), h, c, cell)
    with pytest.raises(ShapeError):
        lstm_step(g, Tensor(np.zeros(3)), h, Tensor(np.zeros(3)), cell)
    with pytest.raises(ShapeError):
        lstm_step(g, Tensor(np.zeros(3)), h, c, LstmCell(cell.w, Tensor(np.zeros(7)), 2))


def _run_lstm_sequence(run, seed, keep_hidden):
    """A random ragged batch through `run`; every hidden state and both final
    states feed the objective.  Returns the values, then the gradients of the
    inputs, h0, c0, w and b."""
    rng = np.random.default_rng(seed)
    k, d, rows = (int(v) for v in rng.integers(1, 6, size=3))
    lengths = rng.integers(1, 7, size=rows)
    cell = LstmCell.create("c", k, d, rng)
    cell.w.value[...] = rng.normal(scale=0.7, size=cell.w.value.shape)
    cell.b.value[...] = rng.normal(size=cell.b.value.shape)
    x = Param("x", rng.normal(size=(int(lengths.sum()), k)))
    h0 = Param("h0", rng.normal(size=(rows, d)))
    c0 = Param("c0", rng.normal(size=(rows, d)))
    g = Graph()
    hidden, final_h, final_c = run(g, x, lengths, h0, c0, cell.w, cell.b, keep_hidden)
    outputs = [final_h, final_c] + ([hidden] if keep_hidden else [])
    total = None
    for out in outputs:
        term = g.sum(g.mul(out, Tensor(rng.normal(size=out.shape))))
        total = term if total is None else g.add(total, term)
    g.backward(total)
    values = [out.value.copy() for out in outputs]
    return values, [leaf.grad.copy() for leaf in (x, h0, c0, cell.w, cell.b)]


def test_lstm_sequence_matches_a_chain_of_lstm_steps():
    # The op splits [x; h] @ w into an input projection and a recurrent
    # product, sums the weight gradient in one GEMM and recomputes the
    # hidden states backward() needs, so it agrees with the step-by-step
    # chain up to rounding.
    worst = 0.0
    for trial in range(40):
        keep_hidden = trial % 4 != 3
        values, grads = _run_lstm_sequence(Graph.lstm_sequence, trial, keep_hidden)
        ref_values, ref_grads = _run_lstm_sequence(stepwise_lstm_sequence, trial, keep_hidden)
        assert len(values) == len(ref_values) and len(grads) == len(ref_grads)
        for a, b in zip(values + grads, ref_values + ref_grads):
            scale = max(np.abs(b).max(), 1e-300)
            worst = max(worst, np.abs(a - b).max() / scale)
    assert worst <= 1e-12, f"lstm_sequence differs from the chain by {worst:.3e}"


def _run_from_zero(seed, explicit):
    """A random ragged batch from zero states, passed as zero tensors when
    explicit and as None otherwise.  Returns the values, the gradients of x,
    w and b, and the operand shapes of every product with w."""
    rng = np.random.default_rng(seed)
    k, d, rows = int(rng.integers(1, 6)), int(rng.integers(6, 9)), int(rng.integers(1, 6))
    lengths = rng.integers(1, 7, size=rows)
    keep_hidden = seed % 3 != 2
    cell = LstmCell.create("c", k, d, rng)
    cell.w.value[...] = rng.normal(scale=0.7, size=cell.w.value.shape)
    cell.b.value[...] = rng.normal(size=cell.b.value.shape)
    products = log_products(cell.w)
    x = Param("x", rng.normal(size=(int(lengths.sum()), k)))
    h0, c0 = (Param(name, np.zeros((rows, d))) for name in ("h0", "c0"))
    g = Graph()
    hidden, final_h, final_c = g.lstm_sequence(
        x, lengths, h0 if explicit else None, c0 if explicit else None, cell.w, cell.b,
        keep_hidden)
    outputs = [final_h, final_c] + ([hidden] if keep_hidden else [])
    total = None
    for out in outputs:
        term = g.sum(g.mul(out, Tensor(rng.normal(size=out.shape))))
        total = term if total is None else g.add(total, term)
    g.backward(total)
    arrays = [out.value for out in outputs] + [x.grad, cell.w.grad, cell.b.grad]
    return arrays, products, (k, d, int(lengths.max()))


def test_a_zero_start_equals_explicit_zero_states_without_the_first_product():
    # With no initial state the first step adds no h0 @ W_h and backward
    # forms no d_pre @ W_h^T for it; every value and gradient keeps its bits.
    for trial in range(24):
        explicit, explicit_products, (k, d, steps) = _run_from_zero(trial, True)
        free, free_products, _ = _run_from_zero(trial, False)
        assert len(explicit) == len(free)
        for a, b in zip(explicit, free):
            assert np.array_equal(a, b), trial
        for products, skipped in ((explicit_products, 0), (free_products, 1)):
            forward = [shapes for shapes in products if shapes[1] == (d, 4 * d)]
            backward = [shapes for shapes in products if shapes[1] == (4 * d, d)]
            assert len(forward) == len(backward) == steps - skipped, trial
            assert sum(shapes[1] == (k, 4 * d) for shapes in products) == 1


def test_lstm_sequence_backward_allocates_less_than_one_gate_gradient_matrix():
    # 64 sequences of 64 steps, input and state width 16: the (n, 4d)
    # gradient of the gate pre-activations alone would take 2 MiB.  It is
    # written over the saved activations instead (a separate one peaked at
    # 3.62 MiB).
    rng = np.random.default_rng(5)
    cell = LstmCell.create("c", 16, 16, rng)
    g = Graph()
    x = Tensor(rng.normal(size=(64 * 64, 16)))
    hidden, _, _ = g.lstm_sequence(x, [64] * 64, None, None, cell.w, cell.b)
    total = g.sum(hidden)
    tracemalloc.start()
    try:
        g.backward(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 64 * 4 * 16 * 8, peak
    assert x.grad.any() and cell.w.grad.any()


def test_lstm_sequence_rejects_bad_shapes_and_empty_sequences():
    cell = LstmCell.create("c", 3, 2, np.random.default_rng(0))
    g = Graph()
    x = Tensor(np.zeros((2, 3)))
    state = Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError):  # inputs of the wrong length
        g.lstm_sequence(Tensor(np.zeros((2, 4))), [1, 1], state, state, cell.w, cell.b)
    with pytest.raises(ShapeError):  # vector inputs
        g.lstm_sequence(Tensor(np.zeros(3)), [1], state, state, cell.w, cell.b)
    with pytest.raises(ShapeError):  # lengths that do not cover the rows
        g.lstm_sequence(x, [1, 2], state, state, cell.w, cell.b)
    with pytest.raises(ShapeError):  # one state row per sequence
        g.lstm_sequence(x, [2], state, state, cell.w, cell.b)
    with pytest.raises(ShapeError):  # h0 and c0 alike
        g.lstm_sequence(x, [1, 1], state, Tensor(np.zeros((2, 3))), cell.w, cell.b)
    with pytest.raises(ShapeError):
        g.lstm_sequence(x, [1, 1], state, state, cell.w, Tensor(np.zeros(7)))
    with pytest.raises(ShapeError):  # both states or neither
        g.lstm_sequence(x, [1, 1], state, None, cell.w, cell.b)
    with pytest.raises(ShapeError):  # one index entry per input row
        g.lstm_sequence(x, [1, 1], None, None, cell.w, cell.b, index=[3])
    with pytest.raises(EmptyInputError):
        g.lstm_sequence(x, [2, 0], state, state, cell.w, cell.b)
    with pytest.raises(EmptyInputError):
        g.lstm_sequence(Tensor(np.zeros((0, 3))), [], Tensor(np.zeros((0, 2))),
                        Tensor(np.zeros((0, 2))), cell.w, cell.b)
    with pytest.raises(EmptyInputError):  # from zero states too
        g.lstm_sequence(x, [2, 0], None, None, cell.w, cell.b)


def test_lstm_with_zero_weights_and_biases_stays_at_zero():
    cell = LstmCell.create("c", 2, 3, np.random.default_rng(0))
    cell.w.value[...] = 0.0
    cell.b.value[...] = 0.0
    g = Graph(recording=False)
    h, c = Tensor(np.zeros(3)), Tensor(np.zeros(3))
    for _ in range(4):
        h, c = lstm_step(g, Tensor([1.0, -1.0]), h, c, cell)
    # The candidate gate is tanh(0) = 0, so the cell never accumulates.
    assert np.array_equal(c.value, np.zeros(3))
    assert np.array_equal(h.value, np.zeros(3))


def test_saturated_forget_gate_preserves_the_cell_state():
    d = 3
    cell = LstmCell.create("c", 2, d, np.random.default_rng(0))
    cell.w.value[...] = 0.0
    b = np.zeros(4 * d)
    b[:d] = -50.0          # input gate shut
    b[2 * d:3 * d] = 50.0  # forget gate fully open
    cell.b.value[...] = b
    g = Graph(recording=False)
    c = Tensor(np.array([0.3, -0.7, 1.1]))
    h = Tensor(np.zeros(d))
    c0 = c.value.copy()
    for _ in range(10):
        h, c = lstm_step(g, Tensor([5.0, -5.0]), h, c, cell)
    assert np.allclose(c.value, c0, atol=1e-12)


# ---------------------------------------------------------------------------
# sentence vectors: closed forms
# ---------------------------------------------------------------------------


def test_cbow_vector_is_the_word_average():
    g = Graph(recording=False)
    words = [Tensor([1.0, 2.0]), Tensor([3.0, 4.0]), Tensor([5.0, 0.0])]
    assert np.array_equal(cbow_vector(g, words).value, [3.0, 2.0])


def test_cnn_vector_hand_computed_single_filter():
    # One width-2 filter with weights summing the window: feature k is
    # tanh(x_k + x_{k+1}); the pooled value is the max over windows.
    config = TrainConfig(encoder="cnn", embed_dim=1, filter_lengths=(2,),
                         feature_maps=1)
    filters = create_cnn_filters("f", config, np.random.default_rng(0))
    filters[0].w.value[...] = 1.0
    filters[0].b.value[...] = 0.0
    g = Graph(recording=False)
    words = [Tensor([0.5]), Tensor([-0.2]), Tensor([0.9])]
    out = cnn_vector(g, words, filters)
    assert out.value == pytest.approx(max(np.tanh(0.3), np.tanh(0.7)), abs=1e-15)


def test_cnn_vector_zero_pads_short_sentences():
    config = TrainConfig(encoder="cnn", embed_dim=1, filter_lengths=(3,),
                         feature_maps=1)
    filters = create_cnn_filters("f", config, np.random.default_rng(0))
    filters[0].w.value[...] = 1.0
    filters[0].b.value[...] = 0.0
    g = Graph(recording=False)
    out = cnn_vector(g, [Tensor([0.4])], filters)
    # One word against a width-3 filter leaves exactly one zero-padded window.
    assert out.value == pytest.approx(np.tanh(0.4), abs=1e-15)


def test_cnn_vector_concatenates_filter_blocks_in_order():
    config = TrainConfig(encoder="cnn", embed_dim=2, filter_lengths=(2, 3),
                         feature_maps=3)
    rng = np.random.default_rng(4)
    filters = create_cnn_filters("f", config, rng)
    g = Graph(recording=False)
    words = [Tensor(rng.normal(size=2)) for _ in range(4)]
    out = cnn_vector(g, words, filters)
    assert out.value.shape == (6,)
    only_first = cnn_vector(g, words, filters[:1])
    assert np.array_equal(out.value[:3], only_first.value)


def test_cnn_vectors_send_a_tied_maximum_to_the_earliest_window():
    # In "a b a b" the width-2 windows 0 and 2 are equal, so a feature that
    # peaks there ties; its gradient must reach the words of window 0, as it
    # does through max_over_time in the one-op-per-window encoder.
    config = TrainConfig(encoder="cnn", embed_dim=2, filter_lengths=(2,), feature_maps=4)
    rng = np.random.default_rng(7)
    filters = create_cnn_filters("f", config, rng)
    a, b = rng.normal(size=2), rng.normal(size=2)
    values = np.array([a, b, a, b, b])
    mixing = rng.normal(size=(2, 4))

    words = Tensor(values)
    g = Graph()
    g.backward(g.sum(g.mul(g.conv_max(words, [4, 1], filters), Tensor(mixing))))

    rows = [Tensor(v) for v in values]
    g = Graph()
    first = g.sum(g.mul(composed_cnn_vector(g, rows[:4], filters), Tensor(mixing[0])))
    second = g.sum(g.mul(composed_cnn_vector(g, rows[4:], filters), Tensor(mixing[1])))
    g.backward(g.add(first, second))
    assert np.abs(words.grad[0]).max() > 0.0  # some feature's maximum is the tie
    assert np.allclose(words.grad, [r.grad for r in rows], rtol=1e-12, atol=1e-15)


def test_lstm_vector_is_the_final_hidden_state():
    rng = np.random.default_rng(5)
    cell = LstmCell.create("c", 2, 3, rng)
    words = [rng.normal(size=2) for _ in range(3)]
    g = Graph(recording=False)
    out = lstm_vector(g, [Tensor(w) for w in words], cell)
    # lstm_vector runs Graph.lstm_sequence, which splits [x; h] @ w into one
    # input projection (bias included) and a recurrent product per step.
    # The reference splits it the same way: one [x; h] @ w product rounds
    # differently, and matched this seed's bits only by chance.
    w, b = cell.w.value, cell.b.value
    projected = np.array(words) @ w[:2] + b
    h = np.zeros((1, 3))
    c = np.zeros((1, 3))
    for t in range(len(words)):
        h, c = ref_lstm_update(projected[t:t + 1] + h @ w[2:], c)
    assert np.array_equal(out.value, h[0])


def test_encoders_reject_empty_sentences():
    g = Graph(recording=False)
    cell = LstmCell.create("c", 2, 3, np.random.default_rng(0))
    config = TrainConfig(encoder="cnn", embed_dim=2, filter_lengths=(2,),
                         feature_maps=1)
    filters = create_cnn_filters("f", config, np.random.default_rng(0))
    with pytest.raises(EmptyInputError):
        cbow_vector(g, [])
    with pytest.raises(EmptyInputError):
        cnn_vector(g, [], filters)
    with pytest.raises(EmptyInputError):
        lstm_vector(g, [], cell)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradients_of_each_encoder_match_finite_differences():
    rng = np.random.default_rng(6)
    worst = {"cbow": 0.0, "cnn": 0.0, "lstm": 0.0}
    for trial in range(10):
        words = [Param(f"w{i}", _bounded(rng, (5,)))
                 for i in range(int(rng.integers(1, 5)))]

        worst["cbow"] = max(worst["cbow"], grad_check(
            lambda g: g.sum(cbow_vector(g, words)), words))

        config = TrainConfig(encoder="cnn", embed_dim=5, filter_lengths=(2, 3),
                             feature_maps=3)
        filters = create_cnn_filters("f", config, rng)
        for f in filters:
            f.w.value[...] = _bounded(rng, f.w.value.shape)
            f.b.value[...] = _bounded(rng, f.b.value.shape)
        leaves = words + [t for f in filters for t in f.params()]
        worst["cnn"] = max(worst["cnn"], grad_check(
            lambda g: g.sum(cnn_vector(g, words, filters)), leaves))

        cell = LstmCell.create("c", 5, 4, rng)
        cell.w.value[...] = _bounded(rng, cell.w.value.shape)
        cell.b.value[...] = _bounded(rng, cell.b.value.shape)
        worst["lstm"] = max(worst["lstm"], grad_check(
            lambda g: g.sum(lstm_vector(g, words, cell)), words + cell.params()))
    for kind, err in worst.items():
        assert err <= 1e-5, f"{kind}: worst finite-difference error {err:.3e}"
