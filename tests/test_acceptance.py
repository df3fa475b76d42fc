"""Acceptance suite: nine end-to-end checks, one verdict line each.

Each test prints `criterion N (label): PASS` on success, and with -v the
pytest status line itself doubles as the per-criterion verdict.  The two
training criteria run real desk-scale fits and dominate the suite's runtime.
"""

import math
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    all_fixed_orders,
    all_stop_orders,
    overwrite_well_scaled,
    random_sentences,
    start_state,
    tiny_params,
)

from ordernet import cli, synthetic
from ordernet.autodiff import Graph, Param, Tensor, grad_check
from ordernet.corpus import build_instances, build_vocab, ingest_corpus
from ordernet.decoding import (
    beam_decode,
    exhaustive_decode,
    greedy_decode,
    oracle_in_beam,
    rescore,
)
from ordernet.encoders import (
    LstmCell,
    cbow_vector,
    cnn_vector,
    create_cnn_filters,
    lstm_vector,
)
from ordernet.metrics import lcs_length, lsr_scores, pm_scores
from ordernet.model import (
    START,
    advance_decoder,
    decode_step,
    encode_document,
    saliency,
    sequence_log_prob,
)
from ordernet.training import (
    AdaGradState,
    Model,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    decode_instances,
    evaluate,
    train,
)

# Training-criterion knobs.  The optimizer epsilon is raised from the module
# default so AdaGrad's early steps are not oversized while the squared-grad
# accumulators are still near zero, and batch 32 follows the stated
# desk-scale reduction.  The noise criterion trains a leaner model: the
# exclusion decision needs many more epochs than plain ordering, and the
# smaller network keeps that long run stable and affordable on one core.
DESK_EPSILON = 0.3
DESK_BATCH = 32
NOISE_DIMS = dict(hidden_dim=96, embed_dim=48, recurrent_dim=96)
NOISE_EPOCH_CAP = 100


@contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException as exc:
        print(f"\ncriterion {number} ({label}): FAIL [{type(exc).__name__}: {exc}]")
        raise
    print(f"\ncriterion {number} ({label}): PASS")


# ---------------------------------------------------------------------------
# criterion 1: metric fidelity on the worked example
# ---------------------------------------------------------------------------


def test_criterion_1_metric_worked_example():
    with verdict(1, "metric fidelity"):
        pred, gold = (2, 3, 1, 4), (1, 3, 4)
        assert lcs_length(pred, gold) == 2
        pm = pm_scores(pred, gold)
        assert abs(pm.p - float(Fraction(1, 6))) <= 1e-12
        assert abs(pm.r - float(Fraction(1, 3))) <= 1e-12
        assert abs(pm.f - float(Fraction(2, 9))) <= 1e-12
        lsr = lsr_scores(pred, gold)
        assert abs(lsr.p - 0.5) <= 1e-12
        assert abs(lsr.r - float(Fraction(2, 3))) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 2: gradient integrity
# ---------------------------------------------------------------------------


def _primitive_cases(rng):
    """One scalar objective per differentiable graph primitive."""
    def bounded(*shape):
        sign = rng.choice([-1.0, 1.0], size=shape)
        return sign * rng.uniform(0.1, 0.5, size=shape)

    a = Param("a", bounded(3, 4))
    b = Param("b", bounded(3, 4))
    m = Param("m", bounded(4, 3))
    v = Param("v", bounded(4))
    t = Param("t", bounded(5, 4))
    w_34 = bounded(3, 4)
    w_33 = bounded(3, 3)
    w_54 = bounded(5, 4)
    w_4 = bounded(4)
    w_12 = bounded(12)
    mask = np.array([False, True, False, False])
    leaves = [a, b, m, v, t]

    def weighted(g, out, w):
        return g.sum(g.mul(out, Tensor(w)))

    return leaves, {
        "matmul": lambda g: weighted(g, g.matmul(a, m), w_33),
        "add": lambda g: weighted(g, g.add(a, b), w_34),
        "mul": lambda g: weighted(g, g.mul(a, b), w_34),
        "scale": lambda g: weighted(g, g.scale(a, -1.7), w_34),
        "tanh": lambda g: weighted(g, g.tanh(a), w_34),
        "sigmoid": lambda g: weighted(g, g.sigmoid(a), w_34),
        "log": lambda g: weighted(
            g, g.log(g.add(g.mul(a, a), g.scale(g.mul(a, a), 0.5))), w_34),
        "sum": lambda g: g.sum(a),
        "masked_softmax": lambda g: weighted(g, g.masked_softmax(v, mask), w_4),
        "max_over_time": lambda g: weighted(g, g.max_over_time(t), w_4),
        "concat": lambda g: weighted(g, g.concat([v, v, v]), w_12),
        "stack_rows": lambda g: weighted(g, g.stack_rows([v, v, v, v, v]), w_54),
        "narrow": lambda g: weighted(g, g.narrow(t, 1, 4), w_34),
        "add_rowvec": lambda g: weighted(g, g.add_rowvec(a, v), w_34),
        "lookup": lambda g: weighted(g, g.stack_rows(
            [g.lookup(t, 2), g.lookup(t, 0), g.lookup(t, 2)]), w_34),
        "mean_rows": lambda g: weighted(g, g.mean_rows(t), w_4),
        "pick": lambda g: g.pick(g.masked_softmax(v, mask), 2),
    }


def test_criterion_2_gradient_integrity():
    with verdict(2, "gradient integrity"):
        worst = 0.0
        # (a) every primitive against central differences
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            leaves, cases = _primitive_cases(rng)
            for name, objective in cases.items():
                err = grad_check(objective, leaves)
                assert err <= 1e-4, f"primitive {name}: {err:.3e}"
                worst = max(worst, err)

        # (b) each encoder's output sum against central differences
        for seed in (2, 3):
            rng = np.random.default_rng(seed)
            words = [Param(f"w{i}", rng.uniform(0.1, 0.5, size=5) *
                           rng.choice([-1.0, 1.0], size=5)) for i in range(3)]
            err = grad_check(lambda g: g.sum(cbow_vector(g, words)), words)
            assert err <= 1e-4, f"cbow encoder: {err:.3e}"
            worst = max(worst, err)

            config = TrainConfig(encoder="cnn", embed_dim=5,
                                 filter_lengths=(2, 3), feature_maps=3)
            filters = create_cnn_filters("f", config, rng)
            leaves = words + [p for f in filters for p in f.params()]
            err = grad_check(lambda g: g.sum(cnn_vector(g, words, filters)), leaves)
            assert err <= 1e-4, f"cnn encoder: {err:.3e}"
            worst = max(worst, err)

            cell = LstmCell.create("c", 5, 4, rng)
            err = grad_check(lambda g: g.sum(lstm_vector(g, words, cell)),
                             words + cell.params())
            assert err <= 1e-4, f"lstm encoder: {err:.3e}"
            worst = max(worst, err)

        # (c) the full regularized sequence loss, one model per encoder kind
        rng = np.random.default_rng(4)
        for kind in ("cbow", "cnn", "lstm"):
            params = tiny_params(kind, seed=7)
            overwrite_well_scaled(params, seed=8)
            sentences = random_sentences(rng, 12, 3)
            target = [2, 0, 1]
            leaves = params.all_params()

            def loss(g):
                nll = g.scale(
                    sequence_log_prob(g, sentences, target, params), -1.0)
                sq = None
                for p in leaves:
                    term = g.sum(g.mul(p, p))
                    sq = term if sq is None else g.add(sq, term)
                return g.add(nll, g.scale(sq, 1e-2 / 2.0))

            err = grad_check(loss, leaves)
            assert err <= 1e-4, f"{kind} loss: {err:.3e}"
            worst = max(worst, err)
        print(f"\n  worst relative gradient error: {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 3: probability normalization
# ---------------------------------------------------------------------------


def test_criterion_3_probability_normalization():
    with verdict(3, "probability normalization"):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5):
            for seed in (10, 11):
                params = tiny_params(("cbow", "lstm")[seed % 2], seed=seed)
                sentences = random_sentences(rng, 12, n)
                total = 0.0
                for order in all_fixed_orders(n):
                    g = Graph(recording=False)
                    total += math.exp(float(
                        sequence_log_prob(g, sentences, order, params).value))
                assert abs(total - 1.0) <= 1e-9, f"fixed n={n}: sum={total!r}"
        for n in (2, 3, 4):
            for seed in (12, 13):
                params = tiny_params(("cnn", "lstm")[seed % 2], seed=seed)
                sentences = random_sentences(rng, 12, n)
                total = 0.0
                for order in all_stop_orders(n):
                    g = Graph(recording=False)
                    total += math.exp(float(
                        sequence_log_prob(g, sentences, order, params).value))
                assert abs(total - 1.0) <= 1e-9, f"stop n={n}: sum={total!r}"


# ---------------------------------------------------------------------------
# criterion 4: decoding oracles
# ---------------------------------------------------------------------------


def test_criterion_4_decoding_oracles():
    with verdict(4, "decoding oracles"):
        rng = np.random.default_rng(1)
        for trial in range(200):
            kind = ("cbow", "cnn", "lstm")[trial % 3]
            variable = bool(trial % 2)
            params = tiny_params(kind, seed=trial)
            sentences = random_sentences(rng, 12, int(rng.integers(2, 6)))
            greedy = greedy_decode(sentences, params, variable)
            best, _ = beam_decode(sentences, params, 1, variable)
            assert best.positions == greedy.positions
            assert abs(best.log_prob - greedy.log_prob) <= 1e-12
            assert abs(rescore(sentences, params, greedy, variable)
                       - greedy.log_prob) <= 1e-10

        for trial in range(100):
            variable = bool(trial % 2)
            params = tiny_params("cbow", seed=3000 + trial)
            n = int(rng.integers(2, 5))
            sentences = random_sentences(rng, 12, n)
            width = (sum(math.perm(n, k) for k in range(n + 1))
                     if variable else math.factorial(n))
            best, _ = beam_decode(sentences, params, width, variable)
            brute = exhaustive_decode(sentences, params, variable)
            assert best.positions == brute.positions
            assert abs(best.log_prob - brute.log_prob) <= 1e-10
            assert abs(rescore(sentences, params, best, variable)
                       - best.log_prob) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 5: oracle monotonicity on a trained toy model
# ---------------------------------------------------------------------------


def test_criterion_5_oracle_monotonicity(tmp_path):
    with verdict(5, "oracle monotonicity"):
        paths = synthetic.generate_splits(tmp_path, train=60, test=25, seed=17)
        train_docs = ingest_corpus(paths["train"]).documents
        test_docs = ingest_corpus(paths["test"]).documents
        # Two epochs on purpose: a partially trained model keeps the decoded
        # exact match below 1.0, which is what makes the gap clause bite.
        config = TrainConfig(encoder="cbow", hidden_dim=16, embed_dim=8,
                             recurrent_dim=16, batch_size=8, epochs=2,
                             adagrad_epsilon=DESK_EPSILON, seed=3)
        model = Model.create(config, build_vocab(train_docs))
        train(model, train_docs, test_docs)

        instances = build_instances(test_docs, model.vocab, config.seed, 0)
        decoded_exact = 0.0
        oracle_curve = []
        for b in (1, 2, 4, 8, 16, 32, 64):
            oracle_sum = 0.0
            decoded_sum = 0.0
            for inst in instances:
                best, beam = beam_decode(inst.inputs, model.params, b)
                _, score = oracle_in_beam(beam, inst.gold_positions, "pmr")
                oracle_sum += score
                if list(best.positions) == inst.gold_positions:
                    decoded_sum += 1.0
            oracle_curve.append(oracle_sum / len(instances))
            if b == 64:
                decoded_exact = decoded_sum / len(instances)

        print("\n  oracle PMR over beams 1..64: "
              + " ".join(f"{x:.3f}" for x in oracle_curve)
              + f"; decoded PMR at 64: {decoded_exact:.3f}")
        for lo, hi in zip(oracle_curve, oracle_curve[1:]):
            assert hi >= lo - 1e-12, f"oracle curve decreased: {oracle_curve}"
        if decoded_exact < 1.0:
            assert oracle_curve[-1] > decoded_exact, (
                "oracle at beam 64 should exceed decoded exact match "
                f"({oracle_curve[-1]:.3f} vs {decoded_exact:.3f})")


# ---------------------------------------------------------------------------
# criterion 6: desk-scale learning with the standard hyper-parameters
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    paths = synthetic.generate_splits(out, train=500, test=100, seed=7)
    return (ingest_corpus(paths["train"]).documents,
            ingest_corpus(paths["test"]).documents)


def _desk_config(encoder, **overrides):
    base = dict(encoder=encoder, batch_size=DESK_BATCH,
                adagrad_epsilon=DESK_EPSILON, epochs=30, seed=1)
    return TrainConfig(**{**base, **overrides})


def test_criterion_6_desk_scale_learning(desk_corpus):
    with verdict(6, "desk-scale learning"):
        train_docs, test_docs = desk_corpus
        config = _desk_config("lstm")
        vocab = build_vocab(train_docs)
        model = Model.create(config, vocab)

        started = time.monotonic()
        history = train(model, train_docs, test_docs,
                        stop_when=lambda rec: rec.pmr >= 0.95)
        elapsed = time.monotonic() - started
        epochs_used = history[-1].epoch

        train_instances = build_instances(train_docs, vocab, config.seed, 0)
        heldout_instances = build_instances(test_docs, vocab, config.seed, 0)
        train_pmr = evaluate(model, train_instances).pmr
        heldout_pmr = evaluate(model, heldout_instances).pmr

        print(f"\n  lstm: train PMR {train_pmr:.3f}, held-out PMR "
              f"{heldout_pmr:.3f}, {epochs_used} epochs, {elapsed:.0f}s")
        assert epochs_used <= 30
        assert elapsed < 900.0, f"training took {elapsed:.0f}s"
        assert train_pmr >= 0.95
        assert heldout_pmr >= 0.80

        # Soft expectation, logged but not asserted: at an equal epoch budget
        # the held-out exact match should tend toward lstm >= cnn >= cbow.
        soft = {"lstm": heldout_pmr}
        for encoder in ("cnn", "cbow"):
            other = Model.create(_desk_config(encoder), vocab)
            train(other, train_docs, test_docs, epochs=epochs_used)
            soft[encoder] = evaluate(other, heldout_instances).pmr
        ordering = " >= ".join(f"{k}:{soft[k]:.3f}" for k in ("lstm", "cnn", "cbow"))
        holds = soft["lstm"] >= soft["cnn"] >= soft["cbow"]
        print(f"  encoder ordering (soft, not asserted): {ordering}"
              f" -> {'holds' if holds else 'violated at this budget'}")


# ---------------------------------------------------------------------------
# criterion 7: noise handling in variable-length mode
# ---------------------------------------------------------------------------


def test_criterion_7_noise_handling(desk_corpus):
    with verdict(7, "noise handling"):
        train_docs, test_docs = desk_corpus
        config = _desk_config("lstm", noise_mode="always_one",
                              fixed_length=False, epochs=NOISE_EPOCH_CAP,
                              **NOISE_DIMS)
        vocab = build_vocab(train_docs)
        model = Model.create(config, vocab)
        history = train(model, train_docs, test_docs,
                        stop_when=lambda rec: rec.pmr >= 0.84)

        instances = build_instances(test_docs, vocab, config.seed, 0,
                                    noise_mode="always_one", fixed_length=False)
        orders = decode_instances(model, instances)

        excluded = 0
        for inst, order in zip(instances, orders):
            assert len(set(order.positions)) == len(order.positions), (
                f"repeated position in {order.positions}")
            if inst.noise_position not in order.positions:
                excluded += 1
            if len(order.positions) == len(inst.gold_positions):
                pm = pm_scores(order.positions, inst.gold_positions)
                lsr = lsr_scores(order.positions, inst.gold_positions)
                assert pm.p == pm.r, "pairwise P != R despite equal lengths"
                assert lsr.p == lsr.r, "subsequence P != R despite equal lengths"

        exclusion = excluded / len(instances)
        print(f"\n  noise exclusion {exclusion:.3f} after "
              f"{history[-1].epoch} epochs (dev PMR {history[-1].pmr:.3f})")
        assert exclusion >= 0.80, f"exclusion {exclusion:.3f} below 0.80"


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence
# ---------------------------------------------------------------------------


def _load_arrays(path):
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name].copy() for name in data.files}


def test_criterion_8_determinism_and_persistence(tmp_path):
    with verdict(8, "determinism and persistence"):
        paths = synthetic.generate_splits(tmp_path / "corpus", train=24,
                                          test=8, seed=23, sentences_per_doc=4)
        train_docs = ingest_corpus(paths["train"]).documents
        dev_docs = ingest_corpus(paths["test"]).documents
        config = TrainConfig(encoder="lstm", hidden_dim=10, embed_dim=6,
                             recurrent_dim=10, batch_size=6, epochs=4,
                             adagrad_epsilon=0.1, seed=29)

        # (a) two identically seeded runs give bit-identical checkpoints
        checkpoints = []
        for run in ("a", "b"):
            model = Model.create(config, build_vocab(train_docs))
            state = AdaGradState(model.params.all_params(),
                                 config.learning_rate, config.adagrad_epsilon)
            train(model, train_docs, dev_docs, opt_state=state, epochs=2)
            path = tmp_path / f"run_{run}.npz"
            checkpoint_save(path, model, state, meta={"epoch": 2})
            checkpoints.append(_load_arrays(path))
        assert set(checkpoints[0]) == set(checkpoints[1])
        for name in checkpoints[0]:
            assert np.array_equal(checkpoints[0][name], checkpoints[1][name]), name

        # (b) save/load round-trips the evaluation report exactly
        model = Model.create(config, build_vocab(train_docs))
        train(model, train_docs, dev_docs, epochs=2)
        instances = build_instances(dev_docs, model.vocab, config.seed, 0)
        before = evaluate(model, instances).to_dict()
        path = tmp_path / "round.npz"
        checkpoint_save(path, model)
        loaded, _, _ = checkpoint_load(path)
        after = evaluate(loaded, instances).to_dict()
        assert before == after

        # (c) resumed training matches uninterrupted training bit for bit
        straight = Model.create(config, build_vocab(train_docs))
        train(straight, train_docs, dev_docs, epochs=4)

        half = Model.create(config, build_vocab(train_docs))
        half_state = AdaGradState(half.params.all_params(),
                                  config.learning_rate, config.adagrad_epsilon)
        train(half, train_docs, dev_docs, opt_state=half_state, epochs=2)
        mid = tmp_path / "mid.npz"
        checkpoint_save(mid, half, half_state, meta={"epoch": 2})
        resumed, resumed_state, meta = checkpoint_load(mid)
        train(resumed, train_docs, dev_docs, opt_state=resumed_state,
              start_epoch=meta["epoch"] + 1, epochs=4)

        for p, q in zip(straight.params.all_params(),
                        resumed.params.all_params()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value), p.name


# ---------------------------------------------------------------------------
# criterion 9: saliency validity
# ---------------------------------------------------------------------------


def _step_probability(params, sentences, prefix, choice):
    """Forward-only probability of `choice` after a teacher-forced prefix."""
    g = Graph(recording=False)
    encoded = encode_document(g, sentences, params)
    state = start_state(g, encoded)
    mask = np.zeros(len(sentences), dtype=bool)
    previous = START
    for p in prefix:
        state = advance_decoder(g, state, previous, encoded, params)
        mask[p] = True
        previous = p
    state = advance_decoder(g, state, previous, encoded, params)
    probs = decode_step(g, state[0], encoded, mask, params)
    return float(probs.value[choice])


def _word_gradient(inst, prefix, params, choice, j, k):
    """Gradient of the step probability for one word-embedding use."""
    g = Graph()
    encoded = encode_document(g, inst.inputs, params)
    state = start_state(g, encoded)
    mask = np.zeros(len(inst.inputs), dtype=bool)
    previous = START
    for p in prefix:
        state = advance_decoder(g, state, previous, encoded, params)
        mask[p] = True
        previous = p
    state = advance_decoder(g, state, previous, encoded, params)
    probs = decode_step(g, state[0], encoded, mask, params)
    g.backward(g.pick(probs, choice))
    return encoded.words.grad[sum(map(len, inst.inputs[:j])) + k].copy()


def test_criterion_9_saliency_validity(tmp_path):
    with verdict(9, "saliency validity"):
        paths = synthetic.generate_splits(tmp_path, train=30, test=10, seed=31,
                                          sentences_per_doc=4)
        docs = ingest_corpus(paths["train"]).documents
        vocab = build_vocab(docs)
        config = TrainConfig(encoder="lstm", hidden_dim=12, embed_dim=8,
                             recurrent_dim=12, batch_size=8, epochs=2,
                             adagrad_epsilon=0.1, seed=37)
        model = Model.create(config, vocab)
        train(model, docs[:20], docs[20:], epochs=2)
        params = model.params

        rng = np.random.default_rng(41)
        instances = build_instances(docs[:6], vocab, config.seed, 0)

        probes = 0
        worst = 0.0
        first_result = None
        while probes < 10:
            inst = instances[int(rng.integers(len(instances)))]
            step = int(rng.integers(0, len(inst.inputs) - 1))
            prefix = inst.gold_positions[:step]
            choice = inst.gold_positions[step]
            result = saliency(inst, prefix, params, choice)
            if first_result is None:
                first_result = (inst, result)
            assert all(v >= 0.0 for row in result.scores for v in row)

            # Probe a word whose token occurs exactly once in the document,
            # so perturbing its embedding row perturbs exactly this use.
            flat = [(j, k) for j, s in enumerate(inst.inputs)
                    for k in range(len(s))]
            rng.shuffle(flat)
            for j, k in flat:
                token = inst.inputs[j][k]
                uses = sum(s.count(token) for s in inst.inputs)
                grad_norm = result.scores[j][k]
                if uses != 1 or grad_norm < 1e-7:
                    continue
                direction = _word_gradient(inst, prefix, params, choice, j, k)
                unit = direction / np.linalg.norm(direction)
                row = params.embeddings.value[token].copy()
                eps = 1e-5
                params.embeddings.value[token] = row + eps * unit
                up = _step_probability(params, inst.inputs, prefix, choice)
                params.embeddings.value[token] = row - eps * unit
                down = _step_probability(params, inst.inputs, prefix, choice)
                params.embeddings.value[token] = row
                fd = (up - down) / (2 * eps)
                rel = abs(fd - grad_norm) / max(abs(fd), grad_norm, 1e-8)
                assert rel <= 1e-4, (f"directional probe: fd={fd:.6e} "
                                     f"norm={grad_norm:.6e} rel={rel:.2e}")
                worst = max(worst, rel)
                probes += 1
                break

        # Rendered report intensities stay within [0, 1].
        inst, result = first_result
        html_text = cli._saliency_html(inst, [result], config)
        values = [float(m) for m in
                  re.findall(r"rgba\(255,120,0,([0-9.]+)\)", html_text)]
        assert values and all(0.0 <= v <= 1.0 for v in values)
        print(f"\n  10 directional probes, worst relative error {worst:.3e}")
