"""Workloads, timed phases and reporting for bench/run.py.

One run sets up a workload (synthetic corpus from the seed, ingestion,
vocabulary, model), trains it for a fixed number of epochs with
training.train_epoch, then decodes and scores the held-out split with
training.evaluate in whole passes until --seconds of measured time have
gone by.  Checks of every output run between the timed calls.  A traced run
(--trace 1) first repeats the untraced run, then runs the same work again
with every layer wrapped, and reports the per-layer numbers of the second.
"""

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import checks
from ordernet import corpus, decoding, synthetic, training
from reference import ReferenceModel
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

BEAM_SIZE = 64
SETUP_REPEATS = 5        # setup_s is the median over this many set-ups
MIN_DECODE_PASSES = 2
BEAM_ONE_SAMPLE = 2      # held-out documents checked for beam(1) == greedy


@dataclass(frozen=True)
class Workload:
    encoder: str
    sentences: int        # per document, before noise
    fixed_length: bool
    noise_mode: str
    search: str
    train_docs: int
    test_docs: int
    epochs: int


# Sized so that training takes about half of a 30 s run on a 2-core
# x86-64 machine and decoding repeats whole passes over the rest.  Each
# epoch is one batch.  cbow-noise-beam64 stops after 16 updates: after 8 and
# after 16 its beam took the same number of attention steps on each of ten
# seeds, while after 28 some seeds learn early stops that cut them by 3x.
WORKLOADS = {
    "lstm-greedy": Workload(
        "lstm", 5, True, "none", "greedy", train_docs=32, test_docs=48, epochs=12),
    "cbow-noise-beam64": Workload(
        "cbow", 5, False, "always_one", "beam", train_docs=32, test_docs=16, epochs=16),
    "cnn-long-beam64": Workload(
        "cnn", 8, True, "none", "beam", train_docs=32, test_docs=6, epochs=10),
}


def train_config(w, seed):
    """Standard dimensions with the desk settings (batch 32, AdaGrad eps 0.3)."""
    return training.TrainConfig(
        encoder=w.encoder, noise_mode=w.noise_mode, fixed_length=w.fixed_length,
        batch_size=32, adagrad_epsilon=0.3, beam_size=BEAM_SIZE, seed=seed)


@dataclass
class Setup:
    model: training.Model
    opt_state: training.AdaGradState
    train_docs: list
    noise_pool: list | None
    test_instances: list


def timed_set_up(w, seed):
    """(Setup, seconds); the corpus files are removed once ingested."""
    workdir = WORK_DIR / str(os.getpid())
    try:
        start = time.perf_counter()
        s = set_up(w, seed, workdir)
        return s, time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(w, seed, workdir):
    paths = synthetic.generate_splits(workdir, train=w.train_docs, test=w.test_docs,
                                      seed=seed, sentences_per_doc=w.sentences)
    train_docs = corpus.ingest_corpus(paths["train"]).documents
    test_docs = corpus.ingest_corpus(paths["test"]).documents
    cfg = train_config(w, seed)
    model = training.Model.create(cfg, corpus.build_vocab(train_docs))
    noisy = w.noise_mode != "none"
    test_instances = corpus.build_instances(
        test_docs, model.vocab, cfg.seed, 0, noise_mode=cfg.noise_mode,
        fixed_length=cfg.fixed_length,
        noise_pool=corpus.noise_pool_of(test_docs) if noisy else None)
    opt_state = training.AdaGradState(model.params.all_params(), cfg.learning_rate,
                                      cfg.adagrad_epsilon)
    return Setup(model, opt_state, train_docs,
                 corpus.noise_pool_of(train_docs) if noisy else None, test_instances)


class DecodeCapture:
    """Keeps what evaluate's decoder calls return, so the orders can be checked."""

    def __init__(self):
        self.outputs = []
        for name in ("greedy_decode", "beam_decode"):
            setattr(training, name, self._wrap(getattr(decoding, name)))

    def _wrap(self, fn):
        outputs = self.outputs

        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            outputs.append(result)
            return result

        return capture

    def take(self):
        taken = list(self.outputs)
        self.outputs.clear()
        return taken


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, operations, problems):
        """Count `operations` attempted; all of them fail if there are problems."""
        self.attempted += operations
        if problems:
            self.failed += operations
            self.messages += problems[:3]


@dataclass
class Phase:
    setup_s: float = 0.0
    epoch_s: list = field(default_factory=list)
    decode_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    orders: list = field(default_factory=list)

    @property
    def timed_s(self):
        return self.setup_s + sum(self.epoch_s) + sum(self.decode_s)


def run_phase(w, seed, seconds, capture, tally, tracer=None, decode_passes=None):
    """Set up, train and decode once; checks run between the timed calls.

    Decoding repeats until `decode_passes` passes, or when that is None,
    until the timed training and decoding reach `seconds`.
    """
    clock = time.perf_counter
    untimed = tracer.paused if tracer else nullcontext
    rng = np.random.default_rng(seed)
    phase = Phase()
    s, phase.setup_s = timed_set_up(w, seed)
    params, instances = s.model.params, s.test_instances
    with untimed():
        tally.add(1, checks.check_gradient(ReferenceModel.of(s.model), params, instances[0], rng))

    n_train = len(s.train_docs)
    for epoch in range(1, w.epochs + 1):
        start = clock()
        loss = training.train_epoch(s.model, s.train_docs, epoch, s.opt_state, s.noise_pool)
        phase.epoch_s.append(clock() - start)
        with untimed():
            problems = checks.check_finite(params)
            if not (np.isfinite(loss) and loss > 0.0):
                problems.append(f"epoch {epoch} loss {loss!r}")
            tally.add(n_train, problems)
    with untimed():
        ref = ReferenceModel.of(s.model)
        tally.add(1, checks.check_gradient(ref, params, instances[0], rng))

    first = None
    while True:
        capture.take()
        start = clock()
        report = training.evaluate(s.model, instances, w.search, BEAM_SIZE)
        phase.decode_s.append(clock() - start)
        with untimed():
            first = check_pass(w, ref, instances, report, capture.take(), first, tally)
        done = len(phase.decode_s)
        if decode_passes is not None:
            if done >= decode_passes:
                break
        elif done >= MIN_DECODE_PASSES and sum(phase.epoch_s) + sum(phase.decode_s) >= seconds:
            break
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with untimed():
        for inst in instances[:BEAM_ONE_SAMPLE]:
            tally.add(1, checks.check_beam_one_is_greedy(params, inst))
    phase.orders = [output for output, _ in first]
    return phase


def check_pass(w, ref, instances, report, outputs, first, tally):
    """Check one decoding pass; returns the first pass's (output, problems) list.

    The first pass is checked in full.  A later pass must repeat it exactly
    and then shares its verdicts; it is dropped once compared, so memory
    stays flat however many passes run.
    """
    if len(outputs) != len(instances):
        tally.add(len(instances) + 1, [f"evaluate decoded {len(outputs)} of {len(instances)}"])
        return first
    orders = outputs if w.search == "greedy" else [best for best, _ in outputs]
    tally.add(1, checks.check_report(report, instances, orders))
    if first is None:
        if w.search == "greedy":
            verdicts = [checks.check_order(ref, inst, out, greedy=True)
                        for inst, out in zip(instances, outputs)]
        else:
            verdicts = [checks.check_beam(ref, inst, *out, BEAM_SIZE)
                        for inst, out in zip(instances, outputs)]
        first = list(zip(outputs, verdicts))
    for inst, output, (earlier, problems) in zip(instances, outputs, first):
        tally.add(1, problems if output == earlier else
                  [f"{inst.doc_id}: pass differs from the first"])
    return first


def blas_threads():
    """Thread count the numpy wheel's OpenBLAS reports, else the pinned value."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(args, started):
    w = WORKLOADS[args.workload]
    imports_s = time.perf_counter() - started
    capture = DecodeCapture()
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "workload_spec": asdict(w)}
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    plain = run_phase(w, args.seed, args.seconds, capture, tally)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(w, args.seed, args.seconds, capture, tally, tracer,
                               decode_passes=len(plain.decode_s))
        finally:
            tracer.remove()
        same = [] if traced.orders == plain.orders else ["traced outputs differ from untraced"]
        tally.add(1, same)
        metrics = tracer.metrics(traced.timed_s - plain.timed_s)
        tracer.write_spans(RESULTS_DIR / f"{stem}-spans.json", started)
        record["phases"] = {"untraced": phase_record(plain), "traced": phase_record(traced)}
    else:
        setups = [plain.setup_s] + [timed_set_up(w, args.seed)[1]
                                    for _ in range(SETUP_REPEATS - 1)]
        metrics = {
            "train_docs_per_s": statistics.median(w.train_docs / s for s in plain.epoch_s),
            "decode_docs_per_s": statistics.median(w.test_docs / s for s in plain.decode_s),
            "setup_s": imports_s + statistics.median(setups),
            "peak_rss_mb": plain.peak_rss_mb,
        }
        units = {"train_docs_per_s": "docs/s", "decode_docs_per_s": "docs/s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        record["phases"] = {"untraced": phase_record(plain)}
        record["imports_s"] = imports_s
        record["setup_repeats_s"] = setups

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result, failures=tally.messages)
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


def phase_record(phase):
    return {"setup_s": phase.setup_s, "epoch_s": phase.epoch_s,
            "decode_pass_s": phase.decode_s, "peak_rss_mb": phase.peak_rss_mb}
