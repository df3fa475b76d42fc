"""The benchmark's per-layer tracer still finds every name it wraps.

bench/tracing.py patches functions and Graph ops by name from outside the
package, so renaming one of them under src/ would crash a traced benchmark
run.  This test loads the tracer as the benchmark does and installs it.
"""

import importlib.util
from pathlib import Path

import numpy as np

from helpers import random_sentences, tiny_params

from ordernet import model
from ordernet.autodiff import Graph, Tensor

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_the_benchmark_tracer_installs_counts_and_removes_cleanly():
    tracing = _load_tracing()
    sites = ([(Graph, op) for op in tracing.AUTODIFF_OPS + ("backward",)]
             + [(Tensor, "__init__")]
             + [site for _, layer_sites in tracing.LAYER_TARGETS for site in layer_sites])
    originals = [owner.__dict__[attr] for owner, attr in sites]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(sites, originals))
        params = tiny_params("lstm", seed=1)
        sentences = random_sentences(np.random.default_rng(0), 12, 3)
        model.encode_document(Graph(), sentences, params)
    finally:
        tracer.remove()

    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(sites, originals))
    assert tracer.calls["model.encode_document"] == 1
    # One lookup gathers the embedding of every word of the document.
    assert tracer.calls["autodiff.lookup"] == 1
    assert tracer.tensors > 0
