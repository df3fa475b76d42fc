"""Tests for the optimizer, the training loop, and checkpoint persistence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ordernet import training
from ordernet.autodiff import Graph, Param
from ordernet.corpus import Document, Vocab, build_instances, build_vocab
from ordernet.errors import CheckpointError, ConfigError, InvalidOrderError, NumericError
from ordernet.model import Order, batch_loss
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
# lstm and the cnn encoder.  Batched products that big are threaded by
# OpenBLAS, and for many shapes a threaded product rounds differently.
_STANDARD_THREAD_RUN = """
import sys
import numpy as np
from ordernet.corpus import Document, build_vocab, tokenize
from ordernet.synthetic import generate_documents
from ordernet.training import AdaGradState, Model, TrainConfig, checkpoint_save, train_epoch
texts = generate_documents(32, np.random.default_rng(5), sentences_per_doc=5)
docs = [Document(f"d{i}", [tokenize(s) for s in text]) for i, text in enumerate(texts)]
losses = []
for encoder in ("lstm", "cnn"):
    config = TrainConfig(encoder=encoder, batch_size=32, adagrad_epsilon=0.3, seed=3)
    model = Model.create(config, build_vocab(docs))
    state = AdaGradState(model.params.all_params(), config.learning_rate,
                         config.adagrad_epsilon)
    losses += [train_epoch(model, docs, epoch, state) for epoch in (1, 2)]
    checkpoint_save(f"{sys.argv[1]}.{encoder}.npz", model, state)
print(" ".join(float(v).hex() for v in losses))
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
        printed[threads] = run.stdout.split()
        saved[threads] = {}
        for encoder in ("lstm", "cnn"):
            with np.load(f"{stem}.{encoder}.npz") as data:
                saved[threads].update({f"{encoder}:{name}": data[name] for name in data.files
                                       if name.startswith(("param/", "opt/"))})
    assert len(printed["1"]) == 4
    for threads in ("2", "3"):
        assert printed[threads] == printed["1"], threads
        assert saved[threads].keys() == saved["1"].keys()
        for name, value in saved["1"].items():
            assert np.array_equal(value, saved[threads][name]), (threads, name)


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


def test_evaluate_rejects_a_fixed_length_order_that_is_no_permutation(monkeypatch):
    model, docs = tiny_model()
    instances = build_instances(docs[:2], model.vocab, model.config.seed, 0)
    monkeypatch.setattr(training, "greedy_decode",
                        lambda sentences, params, variable: Order((0, 0, 0, 0, 0), False, 0.0))
    with pytest.raises(InvalidOrderError, match=instances[0].doc_id):
        evaluate(model, instances)


def test_parallel_decoding_matches_serial():
    model, docs = tiny_model()
    instances = build_instances(docs[:8], model.vocab, model.config.seed, 0)
    serial = decode_instances(model, instances, jobs=1)
    parallel = decode_instances(model, instances, jobs=2)
    assert [o.positions for o in serial] == [o.positions for o in parallel]
    for a, b in zip(serial, parallel):
        assert a.log_prob == b.log_prob


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_noise_settings():
    with pytest.raises(ConfigError):
        TrainConfig(noise_mode="sometimes")
    with pytest.raises(ConfigError):
        TrainConfig(noise_mode="always_one", fixed_length=True)


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
