"""Tests for the optimizer, the training loop, and checkpoint persistence."""

import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import CHECKPOINT_DAMAGE, damaged_checkpoint, overwrite_well_scaled

from ordernet import autodiff, decoding, training
from ordernet import model as ptr_model
from ordernet.autodiff import Graph, Param
from ordernet.corpus import Document, Vocab, build_instances, build_vocab, tokenize
from ordernet.errors import (
    CheckpointError,
    ConfigError,
    EmptyInputError,
    IndexRangeError,
    InvalidOrderError,
    NumericError,
)
from ordernet.metrics import aggregate
from ordernet.model import Order, batch_loss, saliency
from ordernet.synthetic import generate_documents
from ordernet.training import (
    AdaGradState,
    EpochRecord,
    Model,
    TrainConfig,
    adagrad_step,
    checkpoint_load,
    checkpoint_save,
    clip_gradients,
    decode_instances,
    evaluate,
    train,
    train_epoch,
)

TINY_CONFIG = dict(
    hidden_dim=8, embed_dim=6, recurrent_dim=8, feature_maps=3,
    filter_lengths=(2, 3), batch_size=4, learning_rate=0.2,
    adagrad_epsilon=0.1, encoder="cbow", epochs=2,
)

WORDS = ("north", "south", "east", "west", "up", "down", "left", "right")


def tiny_docs(count, seed, n_sentences=3):
    """Small documents whose sentences start with an index cue word."""
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(count):
        sentences = []
        for i in range(n_sentences):
            extra = WORDS[int(rng.integers(len(WORDS)))]
            sentences.append([f"cue{i}", extra])
        docs.append(Document(f"doc{d}", sentences))
    return docs


def tiny_model(seed=1, **overrides):
    docs = tiny_docs(16, seed=99)
    config = TrainConfig(seed=seed, **{**TINY_CONFIG, **overrides})
    return Model.create(config, build_vocab(docs)), docs


def params_of(model):
    return {p.name: p.value.copy() for p in model.params.all_params()}


# ---------------------------------------------------------------------------
# AdaGrad arithmetic
# ---------------------------------------------------------------------------


def test_adagrad_first_and_second_step_closed_forms():
    p = Param("w", np.array([1.0]))
    state = AdaGradState([p], learning_rate=0.5, epsilon=1e-6)
    p.grad[...] = 2.0
    adagrad_step([p], state)
    # theta <- 1 - 0.5 * 2 / (sqrt(4) + 1e-6)
    assert p.value[0] == pytest.approx(0.500000249999875, abs=1e-15)
    assert state.accumulators["w"][0] == 4.0
    assert p.grad[0] == 0.0
    p.grad[...] = 2.0
    adagrad_step([p], state)
    # The second identical gradient steps by lr / sqrt(2), epsilon aside.
    assert p.value[0] == pytest.approx(0.14644698440655712, abs=1e-15)
    assert state.accumulators["w"][0] == 8.0


def test_adagrad_zero_gradient_changes_nothing():
    p = Param("w", np.array([3.0, -2.0]))
    state = AdaGradState([p], learning_rate=0.5, epsilon=1e-6)
    adagrad_step([p], state)
    assert np.array_equal(p.value, [3.0, -2.0])
    assert np.array_equal(state.accumulators["w"], [0.0, 0.0])


def test_adagrad_rejects_non_finite_gradients_by_name():
    p = Param("embeddings", np.ones(2))
    state = AdaGradState([p], 0.5, 1e-6)
    p.grad[...] = [np.nan, 0.0]
    with pytest.raises(NumericError, match="embeddings"):
        adagrad_step([p], state)


def test_a_non_finite_gradient_stops_the_step_before_anything_changes():
    a, b = Param("a", np.ones(3)), Param("b", np.ones(2))
    state = AdaGradState([a, b], 0.5, 1e-6)
    state.accumulators["a"][...] = 0.25
    a.grad[...] = [1.0, -2.0, 0.5]
    b.grad[...] = [0.0, np.nan]
    with pytest.raises(NumericError, match="'b'"):
        adagrad_step([a, b], state)
    assert np.array_equal(a.value, np.ones(3)) and np.array_equal(b.value, np.ones(2))
    assert np.array_equal(state.accumulators["a"], np.full(3, 0.25))
    assert not state.accumulators["b"].any()
    assert np.array_equal(a.grad, [1.0, -2.0, 0.5])
    assert np.array_equal(b.grad, [0.0, np.nan], equal_nan=True)


def test_the_optimizer_passes_allocate_no_parameter_sized_temporary():
    # A million float64 entries take 8 MB; the whole-array formulas peaked
    # at 15.6 MB (AdaGrad) and 7.8 MB (the penalty's backward).
    p = Param("w", np.ones(1_000_000))
    state = AdaGradState([p], 0.5, 1e-6)
    graph = Graph()
    penalty = graph.sum_squares([p])
    tracemalloc.start()
    try:
        graph.backward(penalty)
        _, penalty_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adagrad_step([p], state)
        _, adagrad_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert penalty_peak < 1_000_000 and adagrad_peak < 1_000_000, (penalty_peak, adagrad_peak)
    assert np.all(p.value == 1.0 - 0.5 * 2.0 / (2.0 + 1e-6))


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
def test_clip_rejects_a_gradient_norm_that_is_not_finite(entry):
    # 1e200 is finite, but its square overflows: scaling by 5 / inf would
    # zero every gradient and the update would silently do nothing.
    a, b, c = Param("a", np.zeros(2)), Param("b", np.zeros(2)), Param("c", np.zeros(2))
    a.grad[...] = [3.0, 4.0]
    b.grad[...] = [1.0, entry]
    c.grad[...] = [np.nan, 0.0]
    with pytest.raises(NumericError, match="'b'"):
        clip_gradients([a, b, c], max_norm=5.0)
    assert np.array_equal(a.grad, [3.0, 4.0])
    assert np.array_equal(b.grad, [1.0, entry], equal_nan=True)


def test_clip_rescales_only_when_norm_exceeds_the_bound():
    a = Param("a", np.zeros(2))
    b = Param("b", np.zeros(2))
    a.grad[...] = [3.0, 0.0]
    b.grad[...] = [0.0, 4.0]
    norm = clip_gradients([a, b], max_norm=2.5)
    assert norm == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(a.grad, [1.5, 0.0]) and np.allclose(b.grad, [0.0, 2.0])

    a.grad[...] = [0.3, 0.0]
    b.grad[...] = [0.0, 0.4]
    norm = clip_gradients([a, b], max_norm=2.5)
    assert norm == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(a.grad, [0.3, 0.0]) and np.allclose(b.grad, [0.0, 0.4])


# ---------------------------------------------------------------------------
# training loop behavior
# ---------------------------------------------------------------------------


def test_training_reduces_the_loss():
    model, docs = tiny_model()
    state = AdaGradState(model.params.all_params(),
                         model.config.learning_rate, model.config.adagrad_epsilon)
    losses = [train_epoch(model, docs, epoch, state) for epoch in range(1, 7)]
    assert losses[-1] < losses[0]


def test_identical_seeds_train_bit_identically():
    model_a, docs = tiny_model(seed=5)
    model_b, _ = tiny_model(seed=5)
    for model in (model_a, model_b):
        state = AdaGradState(model.params.all_params(),
                             model.config.learning_rate,
                             model.config.adagrad_epsilon)
        train_epoch(model, docs, 1, state)
        train_epoch(model, docs, 2, state)
    for name, value in params_of(model_a).items():
        assert np.array_equal(value, params_of(model_b)[name]), name


def test_an_epoch_after_saliency_trains_as_one_without_it():
    # saliency backpropagates through the live parameters; an epoch that
    # found its gradients there would fold them into its first update.
    trained = []
    for probe in (False, True):
        model, docs = tiny_model(seed=3)
        params = model.params.all_params()
        state = AdaGradState(params, model.config.learning_rate, model.config.adagrad_epsilon)
        if probe:
            inst = build_instances(docs, model.vocab, 3, 0)[0]
            saliency(inst, [1], model.params, choice=0)
            assert all(not p.grad.any() for p in params)
        train_epoch(model, docs, 1, state)
        trained.append(params_of(model))
    for name, value in trained[0].items():
        assert np.array_equal(value, trained[1][name]), name


def test_an_epoch_over_no_documents_is_refused():
    # The mean of no batch losses was a NaN epoch loss, which train recorded.
    model, docs = tiny_model()
    state = AdaGradState(model.params.all_params(),
                         model.config.learning_rate, model.config.adagrad_epsilon)
    with pytest.raises(EmptyInputError):
        train_epoch(model, [], 1, state)
    with pytest.raises(EmptyInputError):
        train(model, [], docs[:4], state, epochs=1)


def test_a_non_finite_log_probability_stops_training_naming_the_document():
    model, docs = tiny_model()
    model.params.embeddings.value[model.vocab.id_of("cue1")] = np.nan
    state = AdaGradState(model.params.all_params(),
                         model.config.learning_rate, model.config.adagrad_epsilon)
    before = params_of(model)
    with pytest.raises(NumericError, match=r"doc\d+: log-probability is nan"):
        train_epoch(model, docs, 1, state)
    # The error comes before any backward pass or update.
    for p in model.params.all_params():
        assert not p.grad.any(), p.name
        assert np.array_equal(p.value, before[p.name], equal_nan=True), p.name


# Trains a small lstm model and saves it with its AdaGrad state, then prints
# the norms clip_gradients reports for eight random 73,728-entry gradients.
# OpenBLAS splits a dot product longer than 10,000 entries across threads,
# which changes its rounding about every other time; inside training such a
# change rarely survives the sum over parameters, so the norms are checked
# directly as well.
_THREAD_RUN = """
import sys
import numpy as np
from ordernet.autodiff import Param
from ordernet.corpus import Document, build_vocab
from ordernet.training import (
    AdaGradState, Model, TrainConfig, checkpoint_save, clip_gradients, train_epoch)
docs = [Document(f"d{i}", [[f"cue{j}", f"w{(i * 7 + j) % 11}"] for j in range(4)])
        for i in range(12)]
config = TrainConfig(encoder="lstm", hidden_dim=8, embed_dim=20, recurrent_dim=64,
                     batch_size=3, adagrad_epsilon=0.1, clip_norm=1e-4, seed=3)
model = Model.create(config, build_vocab(docs))
state = AdaGradState(model.params.all_params(), config.learning_rate, config.adagrad_epsilon)
losses = [train_epoch(model, docs, epoch, state) for epoch in (1, 2)]
checkpoint_save(sys.argv[1], model, state)
rng = np.random.default_rng(0)
norms = []
for _ in range(8):
    gradient = Param("g", np.zeros(73728))
    gradient.grad[...] = rng.normal(size=73728)
    norms.append(clip_gradients([gradient], 1.0))
print(" ".join(float(v).hex() for v in losses + norms))
"""


def test_training_is_bit_identical_at_one_and_two_blas_threads(tmp_path):
    src = str(Path(training.__file__).resolve().parents[1])
    saved, printed = {}, {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        path = tmp_path / f"threads{threads}.npz"
        run = subprocess.run([sys.executable, "-c", _THREAD_RUN, str(path)], env=env,
                             check=True, timeout=300, capture_output=True, text=True)
        printed[threads] = run.stdout.split()
        with np.load(path) as data:
            saved[threads] = {name: data[name] for name in data.files
                              if name.startswith(("param/", "opt/"))}
    assert len(printed["1"]) == 10
    assert printed["1"] == printed["2"]
    assert saved["1"].keys() == saved["2"].keys()
    assert any(name.startswith("opt/") for name in saved["1"])
    for name, value in saved["1"].items():
        assert np.array_equal(value, saved["2"][name]), name


def test_train_epoch_reports_the_batch_loss():
    model, docs = tiny_model(batch_size=16)  # the 16 documents make one batch
    instances = build_instances(docs, model.vocab, model.config.seed, 1)
    want = float(batch_loss(Graph(), instances, model.params, model.config.reg_lambda).value)
    state = AdaGradState(model.params.all_params(),
                         model.config.learning_rate, model.config.adagrad_epsilon)
    assert train_epoch(model, docs, 1, state) == pytest.approx(want, rel=1e-12)


# Two one-batch epochs of 32 documents at the standard dimensions, for the
# lstm and the cnn encoder, then the saliency of one step of a document.
# Batched products that big are threaded by OpenBLAS, and for many shapes a
# threaded product rounds differently.
_STANDARD_THREAD_RUN = """
import sys
import numpy as np
from ordernet.corpus import Document, build_instances, build_vocab, tokenize
from ordernet.model import saliency
from ordernet.synthetic import generate_documents
from ordernet.training import AdaGradState, Model, TrainConfig, checkpoint_save, train_epoch
texts = generate_documents(32, np.random.default_rng(5), sentences_per_doc=5)
docs = [Document(f"d{i}", [tokenize(s) for s in text]) for i, text in enumerate(texts)]
losses, saliencies = [], []
for encoder in ("lstm", "cnn"):
    config = TrainConfig(encoder=encoder, batch_size=32, adagrad_epsilon=0.3, seed=3)
    model = Model.create(config, build_vocab(docs))
    state = AdaGradState(model.params.all_params(), config.learning_rate,
                         config.adagrad_epsilon)
    losses += [train_epoch(model, docs, epoch, state) for epoch in (1, 2)]
    checkpoint_save(f"{sys.argv[1]}.{encoder}.npz", model, state)
    step = saliency(build_instances(docs[:1], model.vocab, 3, 0)[0], [1], model.params)
    saliencies.append([step.probability] + [s for row in step.scores for s in row])
print(" ".join(float(v).hex() for v in losses))
for values in saliencies:
    print(" ".join(float(v).hex() for v in values))
"""


def test_batched_training_at_standard_dimensions_is_bit_identical_at_1_2_and_3_blas_threads(
        tmp_path):
    src = str(Path(training.__file__).resolve().parents[1])
    saved, printed = {}, {}
    for threads in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        stem = tmp_path / f"threads{threads}"
        run = subprocess.run([sys.executable, "-c", _STANDARD_THREAD_RUN, str(stem)], env=env,
                             check=True, timeout=300, capture_output=True, text=True)
        printed[threads] = run.stdout.splitlines()
        saved[threads] = {}
        for encoder in ("lstm", "cnn"):
            with np.load(f"{stem}.{encoder}.npz") as data:
                saved[threads].update({f"{encoder}:{name}": data[name] for name in data.files
                                       if name.startswith(("param/", "opt/"))})
    losses, *saliencies = printed["1"]
    assert len(losses.split()) == 4 and len(saliencies) == 2
    for threads in ("2", "3"):
        assert printed[threads] == printed["1"], threads
        assert saved[threads].keys() == saved["1"].keys()
        for name, value in saved["1"].items():
            assert np.array_equal(value, saved[threads][name]), (threads, name)


# Reads the OpenBLAS thread count before, inside single_blas_thread, after a
# training epoch and after an epoch that stops with NumericError.
_RESTORE_RUN = """
import numpy as np
from ordernet import autodiff
from ordernet.corpus import Document, build_vocab
from ordernet.errors import NumericError
from ordernet.training import AdaGradState, Model, TrainConfig, train_epoch
get_threads = autodiff._openblas_threads()[0]
docs = [Document(f"d{i}", [[f"cue{j}", f"w{(i * 7 + j) % 11}"] for j in range(4)])
        for i in range(8)]
config = TrainConfig(encoder="lstm", hidden_dim=8, embed_dim=6, recurrent_dim=8,
                     batch_size=4, seed=3)
model = Model.create(config, build_vocab(docs))
state = AdaGradState(model.params.all_params(), config.learning_rate, config.adagrad_epsilon)
counts = [get_threads()]
with autodiff.single_blas_thread():
    counts.append(get_threads())
train_epoch(model, docs, 1, state)
counts.append(get_threads())
model.params.embeddings.value[model.vocab.id_of("cue1")] = np.nan
try:
    train_epoch(model, docs, 2, state)
except NumericError:
    counts.append(get_threads())
print(*counts)
"""


def test_training_restores_the_callers_blas_thread_count():
    if autodiff._openblas_threads() is None:
        pytest.skip("numpy's BLAS exports no thread-count control")
    src = str(Path(training.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    run = subprocess.run([sys.executable, "-c", _RESTORE_RUN], env=env,
                         check=True, timeout=300, capture_output=True, text=True)
    assert run.stdout.split() == ["2", "1", "2", "2"]


def test_training_without_blas_thread_control_matches_the_pinned_epoch(monkeypatch):
    control = autodiff._openblas_threads()
    if control is not None:
        assert control[0]() == 1  # the test process runs BLAS on one thread
    texts = generate_documents(32, np.random.default_rng(5), sentences_per_doc=5)
    docs = [Document(f"d{i}", [tokenize(s) for s in text]) for i, text in enumerate(texts)]
    config = TrainConfig(encoder="lstm", batch_size=32, adagrad_epsilon=0.3, seed=3)

    def one_epoch():
        model = Model.create(config, build_vocab(docs))
        state = AdaGradState(model.params.all_params(), config.learning_rate,
                             config.adagrad_epsilon)
        train_epoch(model, docs, 1, state)
        return params_of(model)

    pinned = one_epoch()
    lookups = []
    monkeypatch.setattr(autodiff, "_openblas_threads", lambda: lookups.append(1))
    unpinned = one_epoch()
    assert lookups == [1]  # one batch, one lookup that found nothing
    for name, value in pinned.items():
        assert np.array_equal(value, unpinned[name]), name


def test_train_returns_history_and_honors_stop_when():
    model, docs = tiny_model()
    history = train(model, docs, docs[:4], epochs=5,
                    stop_when=lambda rec: rec.epoch == 2)
    assert [rec.epoch for rec in history] == [1, 2]
    line = history[0].line()
    assert line.startswith("1\t") and len(line.split("\t")) == 6


def test_evaluate_scores_every_instance():
    model, docs = tiny_model()
    instances = build_instances(docs[:6], model.vocab, model.config.seed, 0)
    report = evaluate(model, instances)
    assert report.count == 6
    assert 0.0 <= report.pmr <= 1.0


def test_decoding_with_a_nan_weight_raises_instead_of_scoring_nan():
    # A NaN logit would sort last and could empty a beam; every search
    # fails loudly instead.
    model, docs = tiny_model()
    instances = build_instances(docs[:3], model.vocab, model.config.seed, 0)
    model.params.attn_v.value[0] = np.nan
    sentences = instances[0].inputs
    with pytest.raises(NumericError):
        decoding.greedy_decode(sentences, model.params)
    with pytest.raises(NumericError):
        decoding.beam_decode(sentences, model.params, 4, True)
    for strategy in ("greedy", "beam"):
        with pytest.raises(NumericError):
            evaluate(model, instances, strategy, beam_size=4)


def test_evaluate_rejects_a_fixed_length_order_that_is_no_permutation(monkeypatch):
    model, docs = tiny_model()
    instances = build_instances(docs[:2], model.vocab, model.config.seed, 0)
    monkeypatch.setattr(training, "greedy_decode",
                        lambda sentences, params, variable, **_: Order((0, 0, 0, 0, 0), False, 0.0))
    with pytest.raises(InvalidOrderError, match=instances[0].doc_id):
        evaluate(model, instances)


@pytest.mark.parametrize("count", [2.5, 2.0, np.float64(2.0), True, False, "2", 0, -1])
def test_beam_widths_and_job_counts_are_integers_of_at_least_one(count):
    # A float width reached np.partition as a raw TypeError, True decoded as
    # width 1, and a float job count failed inside the process pool.
    model, docs = tiny_model()
    instances = build_instances(docs[:8], model.vocab, model.config.seed, 0)
    with pytest.raises(IndexRangeError, match="beam size"):
        decoding.beam_decode(instances[0].inputs, model.params, count)
    with pytest.raises(IndexRangeError, match="beam size"):
        evaluate(model, instances, "beam", count)
    with pytest.raises(ConfigError, match="jobs"):
        decode_instances(model, instances, jobs=count)


def test_numpy_integer_widths_and_job_counts_are_accepted():
    model, docs = tiny_model()
    instances = build_instances(docs[:8], model.vocab, model.config.seed, 0)
    plain = decode_instances(model, instances, "beam", 3)
    numpy_ints = decode_instances(model, instances, "beam", np.int64(3), jobs=np.uint8(2))
    assert plain == numpy_ints


def test_parallel_decoding_matches_serial():
    model, docs = tiny_model()
    instances = build_instances(docs[:8], model.vocab, model.config.seed, 0)
    serial = decode_instances(model, instances, jobs=1)
    parallel = decode_instances(model, instances, jobs=2)
    assert [o.positions for o in serial] == [o.positions for o in parallel]
    for a, b in zip(serial, parallel):
        assert a.log_prob == b.log_prob


def refuse(*args, **kwargs):
    raise AssertionError("this function must not be called")


def recording(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends (args, result) to calls."""
    real = getattr(module, name)

    def record(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, record)


@pytest.mark.parametrize("strategy", ["greedy", "beam"])
def test_decoding_calls_one_search_per_instance_and_encodes_once_per_chunk(monkeypatch, strategy):
    # What a caller that wraps training.greedy_decode / beam_decode (as the
    # benchmark's capture does) relies on: one call per instance, in input
    # order, whose result is what decode_instances returns.
    model, docs = tiny_model(batch_size=3)
    instances = build_instances(docs[:7], model.vocab, model.config.seed, 0)
    searches, encodings = [], []
    recording(monkeypatch, training, f"{strategy}_decode", searches)
    recording(monkeypatch, decoding, "encode_batch", encodings)
    other = "beam_decode" if strategy == "greedy" else "greedy_decode"
    monkeypatch.setattr(training, other, refuse)
    monkeypatch.setattr(ptr_model, "encode_document", refuse)
    monkeypatch.setattr(decoding, "encode_document", refuse)

    def outputs():
        results = [result for _, result in searches]
        return results if strategy == "greedy" else [best for best, _ in results]

    orders = decode_instances(model, instances, strategy, beam_size=4)
    assert len(searches) == len(instances)
    assert all(args[0] is inst.inputs for (args, _), inst in zip(searches, instances))
    assert len(orders) == len(instances)
    assert all(order is output for order, output in zip(orders, outputs()))
    assert [len(args[1]) for args, _ in encodings] == [3, 3, 1]

    searches.clear()
    encodings.clear()
    report = evaluate(model, instances, strategy, beam_size=4)
    assert len(searches) == len(instances)
    assert all(args[0] is inst.inputs for (args, _), inst in zip(searches, instances))
    assert report == aggregate([(list(order.positions), inst.gold_positions)
                                for order, inst in zip(outputs(), instances)])
    assert [len(args[1]) for args, _ in encodings] == [3, 3, 1]


def mixed_instances(model, docs):
    """Fixed-length and noised variable-length instances, alternating."""
    seed = model.config.seed
    fixed = build_instances(docs, model.vocab, seed, 0)
    noised = build_instances(docs, model.vocab, seed, 0, noise_mode="always_one",
                             fixed_length=False)
    return [f if i % 2 else v for i, (f, v) in enumerate(zip(fixed, noised))]


@pytest.mark.parametrize("encoder", ["cbow", "cnn", "lstm"])
def test_chunked_decoding_equals_one_document_decoding(monkeypatch, encoder):
    # Chunks of 3 over 7 instances, the last one alone; documents of 2 to 5
    # inputs, with and without the stop slot, share each encoding.
    model, _ = tiny_model(encoder=encoder, batch_size=3)
    overwrite_well_scaled(model.params, seed=41, low=0.05, high=0.3)
    docs = tiny_docs(4, seed=7, n_sentences=4) + tiny_docs(3, seed=8, n_sentences=2)
    instances = mixed_instances(model, [docs[i] for i in (0, 4, 1, 5, 2, 6, 3)])
    assert {inst.has_stop for inst in instances} == {False, True}
    params = model.params

    greedy = decode_instances(model, instances, "greedy")
    for inst, order in zip(instances, greedy):
        alone = training.greedy_decode(inst.inputs, params, inst.has_stop)
        assert (order.positions, order.stopped) == (alone.positions, alone.stopped)
        assert abs(order.log_prob - alone.log_prob) <= 1e-12

    beams = []
    recording(monkeypatch, training, "beam_decode", beams)
    best = decode_instances(model, instances, "beam", beam_size=5)
    monkeypatch.undo()
    assert len(beams) == len(instances)
    for inst, order, (_, (_, beam)) in zip(instances, best, beams):
        _, alone = decoding.beam_decode(inst.inputs, params, 5, inst.has_stop)
        assert order is beam[0]
        assert [(o.positions, o.stopped) for o in beam] == [(o.positions, o.stopped) for o in alone]
        assert max(abs(a.log_prob - b.log_prob) for a, b in zip(beam, alone)) <= 1e-10


def test_parallel_decoding_over_several_chunks_matches_serial():
    model, docs = tiny_model(batch_size=3)
    instances = build_instances(docs[:8], model.vocab, model.config.seed, 0)
    for strategy in ("greedy", "beam"):
        serial = decode_instances(model, instances, strategy, beam_size=4, jobs=1)
        parallel = decode_instances(model, instances, strategy, beam_size=4, jobs=2)
        assert serial == parallel


def test_worker_pool_maps_the_chunks_of_serial_decoding(monkeypatch):
    # A document's encoding may differ in its last bit with the chunk it is
    # encoded in, so the pool must get the chunks a single process decodes.
    mapped = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            mapped.extend(chunks)
            return map(fn, chunks)

    monkeypatch.setattr(training.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(training, "_WORKER_MODEL", None)
    model, docs = tiny_model(batch_size=3)
    instances = build_instances(docs[:8], model.vocab, model.config.seed, 0)
    for jobs in (2, 5):
        mapped.clear()
        assert decode_instances(model, instances, jobs=jobs) == decode_instances(model, instances)
        assert mapped == [instances[0:3], instances[3:6], instances[6:8]]


def test_no_instances_decode_to_nothing_and_evaluate_to_an_error(monkeypatch):
    model, _ = tiny_model()
    monkeypatch.setattr(decoding, "encode_batch", refuse)
    for strategy in ("greedy", "beam"):
        for jobs in (1, 2):
            assert decode_instances(model, [], strategy, jobs=jobs) == []
    with pytest.raises(EmptyInputError):
        evaluate(model, [])


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_noise_settings():
    with pytest.raises(ConfigError):
        TrainConfig(noise_mode="sometimes")
    with pytest.raises(ConfigError):
        TrainConfig(noise_mode="always_one", fixed_length=True)


@pytest.mark.parametrize("setting", [
    dict(seed="abc"), dict(seed=1.5), dict(seed=True), dict(min_count=2.5),
    dict(min_count=0), dict(fixed_length="off"), dict(fixed_length=1),
    dict(learning_rate=10**400), dict(filter_lengths=5), dict(filter_lengths=None),
])
def test_config_rejects_what_a_checkpoint_could_not_restore(setting):
    # Each of these once built a config whose checkpoint then failed to
    # load; fixed_length="off" even trained in fixed-length mode.  The last
    # three once escaped as OverflowError (an int too large for a float)
    # or TypeError (filter_lengths that are not a sequence).
    (key,) = setting
    with pytest.raises(ConfigError, match=key):
        TrainConfig(**setting)


def test_float_settings_are_stored_as_floats_and_survive_a_checkpoint(tmp_path):
    # An int above 2**53 in a float field once built a config that its own
    # checkpoint restored as a different, unequal float.
    model, _ = tiny_model(learning_rate=2**60 + 1, reg_lambda=0, clip_norm=3, adagrad_epsilon=1)
    config = model.config
    for name in ("learning_rate", "reg_lambda", "clip_norm", "adagrad_epsilon"):
        assert type(getattr(config, name)) is float, name
    assert config.learning_rate == float(2**60 + 1)
    assert TrainConfig.from_dict(config.to_dict()) == config
    checkpoint_save(tmp_path / "model.npz", model)
    assert checkpoint_load(tmp_path / "model.npz")[0].config == config


def test_config_rejects_an_unknown_encoder():
    with pytest.raises(ConfigError, match="transformer"):
        TrainConfig(encoder="transformer")


def test_sentence_dim_per_kind():
    assert TrainConfig(encoder="cbow", embed_dim=7).sentence_dim == 7
    assert TrainConfig(encoder="cnn", feature_maps=4,
                       filter_lengths=(2, 3)).sentence_dim == 8
    assert TrainConfig(encoder="lstm", recurrent_dim=11).sentence_dim == 11
    # The all-defaults convolutional encoder concatenates three 128-wide maps.
    assert TrainConfig(encoder="cnn").sentence_dim == 384


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"Config keys mirror `TrainConfig`:(.*?)\.\s", readme, re.S)
    assert listing, "README has no config key list"
    listed = re.findall(r"`(\w+)`", listing.group(1))
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == {f.name for f in dataclasses.fields(TrainConfig)}


def test_config_dict_round_trip_and_unknown_keys():
    config = TrainConfig(**TINY_CONFIG)
    assert TrainConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError, match="momentum"):
        TrainConfig.from_dict({"momentum": 0.9})


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_preserves_everything(tmp_path):
    model, docs = tiny_model()
    state = AdaGradState(model.params.all_params(),
                         model.config.learning_rate, model.config.adagrad_epsilon)
    train_epoch(model, docs, 1, state)
    path = tmp_path / "model.npz"
    checkpoint_save(path, model, state, meta={"epoch": 1})

    loaded, loaded_state, meta = checkpoint_load(path)
    assert meta == {"epoch": 1}
    assert loaded.config == model.config
    assert loaded.vocab.id_to_token == model.vocab.id_to_token
    for p, q in zip(model.params.all_params(), loaded.params.all_params()):
        assert p.name == q.name and np.array_equal(p.value, q.value)
    for name, acc in state.accumulators.items():
        assert np.array_equal(acc, loaded_state.accumulators[name])


def test_resumed_training_is_bitwise_identical(tmp_path):
    model_a, docs = tiny_model(seed=7)
    train(model_a, docs, docs[:4], epochs=4)

    model_b, _ = tiny_model(seed=7)
    state_b = AdaGradState(model_b.params.all_params(),
                           model_b.config.learning_rate,
                           model_b.config.adagrad_epsilon)
    train(model_b, docs, docs[:4], opt_state=state_b, epochs=2)
    path = tmp_path / "mid.npz"
    checkpoint_save(path, model_b, state_b, meta={"epoch": 2})

    resumed, resumed_state, meta = checkpoint_load(path)
    train(resumed, docs, docs[:4], opt_state=resumed_state,
          start_epoch=meta["epoch"] + 1, epochs=4)

    for name, value in params_of(model_a).items():
        assert np.array_equal(value, params_of(resumed)[name]), name


def test_train_writes_the_best_checkpoint(tmp_path):
    model, docs = tiny_model()
    path = tmp_path / "best.npz"
    train(model, docs, docs[:4], epochs=2, checkpoint_path=path)
    assert path.exists()
    loaded, _, meta = checkpoint_load(path)
    assert set(meta) == {"epoch", "dev_pm_f"}


def test_checkpoint_load_rejects_garbage(tmp_path):
    missing = tmp_path / "nope.npz"
    with pytest.raises(CheckpointError):
        checkpoint_load(missing)

    not_npz = tmp_path / "text.npz"
    not_npz.write_text("not a checkpoint")
    with pytest.raises(CheckpointError):
        checkpoint_load(not_npz)

    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, other=np.ones(3))
    with pytest.raises(CheckpointError, match="not a recognized checkpoint"):
        checkpoint_load(foreign)

    one_array = tmp_path / "array.npy"  # np.load reads it as an array, not an archive
    np.save(one_array, np.ones(3))
    with pytest.raises(CheckpointError, match="not a recognized checkpoint"):
        checkpoint_load(one_array)


@pytest.mark.parametrize("damage", CHECKPOINT_DAMAGE)
def test_checkpoint_load_names_a_damaged_file(tmp_path, damage):
    model, _ = tiny_model()
    path = tmp_path / "good.npz"
    checkpoint_save(path, model, AdaGradState(model.params.all_params(), 0.1, 0.1))
    bad = damaged_checkpoint(path, damage)
    expected = {"truncated": "", "bit-flipped": "CRC", "meta-not-json": "",
                "unknown-encoder": "encoder must be one of .*'transformer'",
                "repeated-token": "duplicate tokens"}[damage]
    with pytest.raises(CheckpointError, match=re.escape(str(bad)) + ".*" + expected):
        checkpoint_load(bad)


def _doctor(path, out, drop=None, reshape=None):
    data = dict(np.load(path, allow_pickle=False))
    if drop:
        del data[drop]
    if reshape:
        data[reshape] = data[reshape].reshape(-1)[:-1]
    np.savez(out, **data)


def test_checkpoint_load_rejects_doctored_files(tmp_path):
    model, _ = tiny_model()
    path = tmp_path / "good.npz"
    checkpoint_save(path, model)

    dropped = tmp_path / "dropped.npz"
    _doctor(path, dropped, drop="param/attn.v")
    with pytest.raises(CheckpointError, match="attn.v"):
        checkpoint_load(dropped)

    misshaped = tmp_path / "misshaped.npz"
    _doctor(path, misshaped, reshape="param/attn.w")
    with pytest.raises(CheckpointError, match="shape"):
        checkpoint_load(misshaped)
