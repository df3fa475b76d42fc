"""Training loop, AdaGrad updates, evaluation, and checkpoint files.

Every source of randomness is keyed by (run seed, purpose, epoch), never by a
continuing stream, so an interrupted run resumed from a checkpoint replays
the remaining epochs bit for bit.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import time
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import BLOCK, Graph, blocks, single_blas_thread, squared_norm
from .corpus import NOISE_MODES, Vocab, build_instances, noise_pool_of, stable_seed
from .encoders import ENCODER_KINDS
from .errors import (CheckpointError, ConfigError, CorpusError, EmptyInputError,
                     InvalidOrderError, NumericError)
from .decoding import BatchDecoder, beam_decode, greedy_decode, is_count
from .metrics import aggregate
from .model import PtrNetParams, batch_loss

# Not called here (training runs batch_loss), but bound so that a profiler
# can wrap it in this namespace (bench/tracing.py does).
from .model import sequence_log_prob  # noqa: F401

CHECKPOINT_FORMAT = "ordernet-checkpoint-v1"

# Names a config file or flag may give a noise mode.
_NOISE_ALIASES = {"none": "none", "one": "always_one", "always_one": "always_one",
                 "half": "half"}

_SIZES = ("hidden_dim", "feature_maps", "recurrent_dim", "embed_dim", "beam_size",
          "batch_size", "epochs", "min_count")
_POSITIVE_RATES = ("learning_rate", "clip_norm", "adagrad_epsilon")
_REALS = _POSITIVE_RATES + ("reg_lambda",)  # stored as float


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_float(value):
    """A real number as a finite float, else None (also for an int too
    large for a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class TrainConfig:
    """The one description of the model and its training, checked when built;
    the numeric defaults are the standard table."""

    learning_rate: float = 0.5
    reg_lambda: float = 1e-5
    hidden_dim: int = 200
    filter_lengths: tuple = (3, 4, 5)
    feature_maps: int = 128
    recurrent_dim: int = 200
    embed_dim: int = 100
    beam_size: int = 64
    batch_size: int = 128
    epochs: int = 10
    seed: int = 1
    encoder: str = "lstm"
    noise_mode: str = "none"
    fixed_length: bool = True
    min_count: int = 1
    adagrad_epsilon: float = 1e-6
    clip_norm: float = 5.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "filter_lengths", tuple(self.filter_lengths))
        except TypeError:
            raise ConfigError(f"filter_lengths must be integers >= 1, "
                              f"got {self.filter_lengths!r}") from None
        for name in _SIZES:
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.fixed_length, bool):
            raise ConfigError(f"fixed_length must be True or False, got {self.fixed_length!r}")
        if not (self.filter_lengths and all(_is_int(w) and w >= 1 for w in self.filter_lengths)):
            raise ConfigError(f"filter_lengths must be integers >= 1, got {self.filter_lengths!r}")
        for name in _REALS:
            value = getattr(self, name)
            number, positive = _finite_float(value), name in _POSITIVE_RATES
            if number is None or not (number > 0 if positive else number >= 0):
                raise ConfigError(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                                  f"got {value!r}")
            object.__setattr__(self, name, number)
        for name, choices in (("encoder", ENCODER_KINDS), ("noise_mode", NOISE_MODES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {', '.join(choices)}, "
                                  f"got {getattr(self, name)!r}")
        if self.fixed_length and self.noise_mode != "none":
            raise ConfigError("noise injection requires variable-length mode")

    @property
    def sentence_dim(self):
        """Width of the sentence vectors the encoder makes."""
        if self.encoder == "cbow":
            return self.embed_dim
        if self.encoder == "cnn":
            return self.feature_maps * len(self.filter_lengths)
        return self.recurrent_dim

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["filter_lengths"] = list(self.filter_lengths)
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"a config maps keys to values, got {type(d).__name__}")
        return cls(**{key: parse_config_value(key, value) for key, value in d.items()})


def _parse_int(value):
    if isinstance(value, str):
        return int(value.strip())
    if not _is_int(value):
        raise ValueError("not an integer")
    return value


def _parse_float(value):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError("not a number")
    return float(value)


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    lowered = str(value).strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError("expected on/off")


def _parse_filter_lengths(value):
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    return tuple(_parse_int(v) for v in value)


def _parse_noise_mode(value):
    if value not in _NOISE_ALIASES:
        raise ValueError("expected none, one or half")
    return _NOISE_ALIASES[value]


_FIELD_KINDS = {f.name: f.type for f in fields(TrainConfig)}  # annotations, as text
_FIELD_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool, "str": str}
_KEY_PARSERS = {"filter_lengths": _parse_filter_lengths, "noise_mode": _parse_noise_mode}


def parse_config_value(key, value):
    """One TrainConfig setting from config-file text or a stored value.

    Config files, command-line flags and checkpoints all read settings
    through this function; text that does not parse raises ConfigError
    naming the key.  Ranges are checked when the TrainConfig is built.
    """
    if key not in _FIELD_KINDS:
        raise ConfigError(f"unknown config key {key!r}")
    parse = _KEY_PARSERS.get(key) or _FIELD_PARSERS[_FIELD_KINDS[key]]
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r} ({exc})") from None


@dataclass
class Model:
    """A parameter set plus everything needed to apply it to raw text."""

    config: TrainConfig
    vocab: Vocab
    params: PtrNetParams

    @classmethod
    def create(cls, config, vocab, pretrained=None):
        return cls(config, vocab, PtrNetParams.create(config, len(vocab), pretrained))


class AdaGradState:
    """Per-parameter squared-gradient accumulators."""

    def __init__(self, params, learning_rate, epsilon):
        self.learning_rate = learning_rate
        self.epsilon = epsilon
        self.accumulators = {p.name: np.zeros_like(p.value) for p in params}


def adagrad_step(params, state):
    """One update: G += g^2, theta -= lr * g / (sqrt(G) + eps); grads reset.

    Every gradient is checked first: a non-finite entry raises NumericError
    naming its parameter, and no value, accumulator or gradient changes.
    Each parameter is then updated in blocks of autodiff.BLOCK entries
    through two block-sized scratch arrays, in the formula's per-element
    order of operations.
    """
    for p in params:
        for (grad,) in blocks([], [p.grad]):
            if not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient in {p.name!r}")
    scratch = np.empty((2, BLOCK))
    for p in params:
        for value, grad, acc in blocks([p.value, p.grad, state.accumulators[p.name]]):
            t, u = scratch[:, :grad.size]
            np.multiply(grad, grad, out=t)
            acc += t
            np.sqrt(acc, out=t)
            t += state.epsilon
            np.multiply(state.learning_rate, grad, out=u)
            u /= t
            value -= u
            grad[...] = 0.0


def clip_gradients(params, max_norm):
    """Scale all gradients so their global norm is at most max_norm.

    A squared norm that is not finite (a NaN or infinite entry, or squares
    that overflow) raises NumericError naming the parameter at which the
    running total stopped being finite, before any gradient is scaled.
    """
    total = 0.0
    for p in params:
        total += squared_norm(p.grad)
        if not math.isfinite(total):
            raise NumericError(f"gradient norm is not finite at {p.name!r}")
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm


def train_epoch(model, documents, epoch, opt_state, noise_pool=None):
    """One pass over fresh instances of every document; returns mean batch loss.

    Instance permutations are keyed by (seed, epoch, document), and the batch
    order by (seed, epoch), so any epoch can be replayed in isolation.  Each
    batch step runs on one BLAS thread (single_blas_thread).
    """
    if not documents:
        raise EmptyInputError("train_epoch over no documents")
    cfg = model.config
    params = model.params.all_params()
    instances = build_instances(
        documents, model.vocab, cfg.seed, epoch,
        noise_mode=cfg.noise_mode, fixed_length=cfg.fixed_length,
        noise_pool=noise_pool)
    order = np.random.default_rng(
        stable_seed(cfg.seed, "batch_order", epoch)).permutation(len(instances))

    batch_losses = []
    for lo in range(0, len(order), cfg.batch_size):
        batch = [instances[i] for i in order[lo:lo + cfg.batch_size]]
        with single_blas_thread():
            graph = Graph()
            loss = batch_loss(graph, batch, model.params, cfg.reg_lambda)
            graph.backward(loss)
            batch_losses.append(float(loss.value))
            clip_gradients(params, cfg.clip_norm)
            adagrad_step(params, opt_state)
    return float(np.mean(batch_losses))


# ----- evaluation -----

_WORKER_MODEL = None


def _worker_init(model, strategy, beam_size):
    global _WORKER_MODEL
    _WORKER_MODEL = (model, strategy, beam_size)


def _worker_decode(chunk):
    model, strategy, beam_size = _WORKER_MODEL
    return _decode_chunk(model, chunk, strategy, beam_size)


def instance_chunks(model, instances):
    """Consecutive chunks of model.config.batch_size instances.  Decoding
    encodes each chunk once, so the boundaries depend on batch_size alone."""
    size = model.config.batch_size
    return [instances[lo:lo + size] for lo in range(0, len(instances), size)]


def chunk_decoders(model, chunk):
    """One BatchDecoder per instance of a chunk, from one encoding of its documents."""
    return BatchDecoder.for_documents(
        [inst.inputs for inst in chunk], model.params, [inst.has_stop for inst in chunk])


def _decode_chunk(model, chunk, strategy, beam_size):
    """Decode a chunk of instances from one encoding of all their documents."""
    decoders = chunk_decoders(model, chunk)
    if strategy == "greedy":
        return [greedy_decode(inst.inputs, model.params, inst.has_stop, decoder=decoder)
                for inst, decoder in zip(chunk, decoders)]
    return [beam_decode(inst.inputs, model.params, beam_size, inst.has_stop, decoder=decoder)[0]
            for inst, decoder in zip(chunk, decoders)]


def decode_instances(model, instances, strategy="greedy", beam_size=None, jobs=1):
    """Predicted orders for a list of instances, in input order.

    Instances are decoded in the chunks of instance_chunks, each from one
    forward-only encoding of its documents.  With jobs > 1 the chunks (the
    same ones whatever jobs is) are spread over worker processes, so there
    is work to split only when there is more than one.
    """
    if strategy not in ("greedy", "beam"):
        raise ConfigError(f"unknown decode strategy {strategy!r}")
    if not is_count(jobs):
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    if beam_size is None:
        beam_size = model.config.beam_size
    chunks = instance_chunks(model, instances)
    if jobs > 1 and len(chunks) > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(chunks)), initializer=_worker_init,
                initargs=(model, strategy, beam_size)) as pool:
            decoded = list(pool.map(_worker_decode, chunks))
    else:
        decoded = [_decode_chunk(model, chunk, strategy, beam_size) for chunk in chunks]
    return [order for orders in decoded for order in orders]


def evaluate(model, instances, strategy="greedy", beam_size=None, jobs=1):
    """Decode every instance and aggregate the order metrics."""
    orders = decode_instances(model, instances, strategy, beam_size, jobs)
    pairs = []
    for inst, order in zip(instances, orders):
        if not inst.has_stop and sorted(order.positions) != list(range(inst.n_inputs)):
            raise InvalidOrderError(
                f"{inst.doc_id}: fixed-length decoding emitted {list(order.positions)}, "
                f"not a permutation of {inst.n_inputs} positions")
        pairs.append((list(order.positions), inst.gold_positions))
    return aggregate(pairs)


# ----- checkpoints -----

def checkpoint_save(path, model, opt_state=None, meta=None):
    """Write a self-describing npz checkpoint (parameters, optimizer, config)."""
    arrays = {
        "meta/format": np.array(CHECKPOINT_FORMAT),
        "meta/config": np.array(json.dumps(model.config.to_dict(), sort_keys=True)),
        "meta/vocab": np.array(model.vocab.id_to_token),
        "meta/extra": np.array(json.dumps(meta or {}, sort_keys=True)),
    }
    for p in model.params.all_params():
        arrays[f"param/{p.name}"] = p.value
    if opt_state is not None:
        for name, acc in opt_state.accumulators.items():
            arrays[f"opt/{name}"] = acc
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def checkpoint_load(path):
    """Rebuild (model, opt_state, meta) from a checkpoint file.

    A file that is not a whole checkpoint (truncated, failing a CRC check,
    with metadata that does not parse or that TrainConfig or Vocab rejects)
    raises CheckpointError naming it; a parameter mismatch lists the difference.
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CheckpointError(f"{path} is not a recognized checkpoint")
        with data:
            return _read_checkpoint(path, data)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, ConfigError,
            CorpusError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(path, data):
    names = set(data.files)
    if "meta/format" not in names or str(data["meta/format"]) != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a recognized checkpoint")
    config = TrainConfig.from_dict(json.loads(str(data["meta/config"])))
    tokens = [str(t) for t in data["meta/vocab"]]
    meta = json.loads(str(data["meta/extra"]))
    model = Model.create(config, Vocab(tokens[2:]))

    expected = {f"param/{p.name}": p for p in model.params.all_params()}
    stored = {n for n in names if n.startswith("param/")}
    if stored != set(expected):
        raise CheckpointError(
            f"{path} parameter names disagree: missing {sorted(set(expected) - stored)}, "
            f"unexpected {sorted(stored - set(expected))}")
    for name, p in expected.items():
        value = data[name]
        if value.shape != p.value.shape:
            raise CheckpointError(
                f"{path}: {name} has shape {value.shape}, expected {p.value.shape}")
        p.value[...] = value

    opt_state = None
    if any(n.startswith("opt/") for n in names):
        opt_state = AdaGradState(model.params.all_params(),
                                 config.learning_rate, config.adagrad_epsilon)
        for pname, acc in opt_state.accumulators.items():
            key = f"opt/{pname}"
            value = data[key] if key in names else None
            if value is None or value.shape != acc.shape:
                raise CheckpointError(f"{path}: optimizer state for {pname!r} is missing or misshaped")
            acc[...] = value
    return model, opt_state, meta


# ----- full run -----

@dataclass
class EpochRecord:
    epoch: int
    loss: float
    pm_f: float
    lsr_f: float
    pmr: float
    seconds: float

    def line(self):
        return (f"{self.epoch}\t{self.loss:.6f}\t{self.pm_f:.4f}"
                f"\t{self.lsr_f:.4f}\t{self.pmr:.4f}\t{self.seconds:.2f}")


def train(model, train_docs, dev_docs, opt_state=None, start_epoch=1,
          epochs=None, on_epoch=None, checkpoint_path=None, stop_when=None):
    """Run training epochs with per-epoch dev evaluation.

    Keeps the checkpoint of the best dev pairwise F when checkpoint_path is
    given.  stop_when(record) may end the run early.  Returns the list of
    EpochRecord entries.
    """
    cfg = model.config
    if opt_state is None:
        opt_state = AdaGradState(model.params.all_params(),
                                 cfg.learning_rate, cfg.adagrad_epsilon)
    noise_pool = noise_pool_of(train_docs) if cfg.noise_mode != "none" else None
    end_epoch = (epochs if epochs is not None else cfg.epochs)

    dev_instances = build_instances(dev_docs, model.vocab, cfg.seed, 0,
                                    noise_mode=cfg.noise_mode, fixed_length=cfg.fixed_length)

    history = []
    best_f = -1.0
    for epoch in range(start_epoch, end_epoch + 1):
        started = time.monotonic()
        loss = train_epoch(model, train_docs, epoch, opt_state, noise_pool)
        report = evaluate(model, dev_instances)
        record = EpochRecord(epoch, loss, report.pm.f, report.lsr.f, report.pmr,
                             time.monotonic() - started)
        history.append(record)
        if checkpoint_path is not None:
            if report.pm.f > best_f:
                best_f = report.pm.f
                checkpoint_save(checkpoint_path, model, opt_state,
                                meta={"epoch": epoch, "dev_pm_f": report.pm.f})
        if on_epoch is not None:
            on_epoch(record)
        if stop_when is not None and stop_when(record):
            break
    return history
