"""Per-layer timing of ordernet from outside the package.

Each public function is wrapped in the namespace of the module that calls
it (ordernet.model.lstm_step for context and decoder steps,
ordernet.encoders.lstm_step for word steps, and so on), so the program
itself is unchanged.  Calls above the autodiff layer are kept as spans
(name, start, end, parent) in memory and written out when the run ends.
Autodiff primitives are only counted and timed: a beam run makes millions
of them.
"""

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from ordernet import autodiff, corpus, decoding, encoders, model, training

AUTODIFF_OPS = (
    "matmul", "add", "mul", "scale", "tanh", "sigmoid", "log", "sum",
    "masked_softmax", "max_over_time", "concat", "stack_rows", "narrow",
    "add_rowvec", "lookup", "mean_rows", "pick",
)

SENTENCE_ENCODERS = ("lstm_vector", "cnn_vector", "cbow_vector")

# (layer metric name, [(module that calls it, attribute)]).  Every entry
# is kept as spans.
LAYER_TARGETS = (
    [("encoders.lstm_step", [(encoders, "lstm_step")])]
    + [(f"encoders.{f}", [(model, f)]) for f in SENTENCE_ENCODERS]
    + [
        ("model.encode_document", [(model, "encode_document"), (decoding, "encode_document")]),
        ("model.lstm_step", [(model, "lstm_step")]),
        ("model.advance_decoder", [(model, "advance_decoder"), (decoding, "advance_decoder")]),
        ("model.decode_step", [(model, "decode_step"), (decoding, "decode_step")]),
        ("model.sequence_log_prob", [(training, "sequence_log_prob")]),
        ("decoding.greedy_decode", [(training, "greedy_decode")]),
        ("decoding.beam_decode", [(training, "beam_decode")]),
        ("training.train_epoch", [(training, "train_epoch")]),
        ("training.clip_gradients", [(training, "clip_gradients")]),
        ("training.adagrad_step", [(training, "adagrad_step")]),
        ("training.evaluate", [(training, "evaluate")]),
        ("corpus.build_instances", [(corpus, "build_instances"), (training, "build_instances")]),
        ("corpus.ingest_corpus", [(corpus, "ingest_corpus")]),
        ("metrics.aggregate", [(training, "aggregate")]),
    ]
)

# Per-layer metrics reported by a traced run, with their units.  Counts end
# in .calls, seconds inside the call in .s.
PER_LAYER = (
    [(f"autodiff.{op}.{k}", u) for op in AUTODIFF_OPS + ("backward",)
     for k, u in (("calls", "count"), ("s", "s"))]
    + [("autodiff.tensors", "count")]
    + [(f"encoders.{f}.{k}", u) for f in ("lstm_step",) + SENTENCE_ENCODERS
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("encoders.words", "count")]
    + [(f"model.{f}.{k}", u)
       for f in ("encode_document", "lstm_step", "advance_decoder", "decode_step",
                 "sequence_log_prob")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("model.context_lstm.s", "s")]
    + [(f"decoding.{f}.{k}", u) for f in ("greedy_decode", "beam_decode")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("training.train_epoch.s", "s"),
       ("training.clip_gradients.calls", "count"), ("training.clip_gradients.s", "s"),
       ("training.adagrad_step.calls", "count"), ("training.adagrad_step.s", "s"),
       ("training.evaluate.s", "s"),
       ("corpus.build_instances.calls", "count"), ("corpus.build_instances.s", "s"),
       ("corpus.ingest_corpus.s", "s"),
       ("metrics.aggregate.calls", "count"), ("metrics.aggregate.s", "s"),
       ("trace.overhead_s", "s")]
)


class Tracer:
    """Installs timing wrappers on install() and removes them on remove()."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.words = 0
        self.tensors = 0
        self.span_names = []
        self._name_ids = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._open = [-1]
        self._originals = []

    def _counted(self, name, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1

        return wrapper

    def _spanned(self, name, fn):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.span_names):
            self.span_names.append(name)
        names, parents = self._span_name, self._span_parent
        starts, ends, open_spans = self._span_start, self._span_end, self._open
        count_words = name.endswith("_vector")

        def wrapper(*args, **kwargs):
            if count_words:
                self.words += len(args[1])
            start = clock()
            index = len(names)
            names.append(name_id)
            parents.append(open_spans[-1])
            starts.append(start)
            ends.append(start)
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                open_spans.pop()
                seconds[name] += end - start
                calls[name] += 1

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._originals:
            raise RuntimeError("tracer is already installed")
        graph = autodiff.Graph
        for op in AUTODIFF_OPS + ("backward",):
            self._patch(graph, op, self._counted(f"autodiff.{op}", graph.__dict__[op]))
        tensor_init = autodiff.Tensor.__dict__["__init__"]

        def counting_init(tensor, value):
            self.tensors += 1
            tensor_init(tensor, value)

        self._patch(autodiff.Tensor, "__init__", counting_init)
        for name, sites in LAYER_TARGETS:
            for owner, attr in sites:
                self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))

    def remove(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run a block (the output checks) with the program unwrapped."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    def metrics(self, overhead_s):
        values = {}
        for name, _ in PER_LAYER:
            if name.endswith(".calls"):
                values[name] = self.calls[name[:-len(".calls")]]
            elif name.endswith(".s"):
                values[name] = self.seconds[name[:-len(".s")]]
        values["autodiff.tensors"] = self.tensors
        values["encoders.words"] = self.words
        values["model.context_lstm.s"] = self.seconds["model.encode_document"] - sum(
            self.seconds[f"encoders.{f}"] for f in SENTENCE_ENCODERS)
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write_spans(self, path, origin):
        """Spans as columns; times in seconds from `origin`, parent -1 at the top."""
        data = {
            "names": self.span_names,
            "name": self._span_name.tolist(),
            "parent": self._span_parent.tolist(),
            "start": [round(t - origin, 7) for t in self._span_start],
            "end": [round(t - origin, 7) for t in self._span_end],
        }
        path.write_text(json.dumps(data, separators=(",", ":")))
