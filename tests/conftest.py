"""Shared fixtures: a small corpus on disk and a checkpoint trained on it."""

import os
import sys
from pathlib import Path

# One BLAS thread, as bench/run.py uses.  Set before numpy is imported: on a
# busy machine OpenBLAS worker threads spin and make small GEMMs and dot
# products tens of times slower, and the thread count changes how dot
# products round, so long training runs would follow a different path on
# each machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from ordernet import cli, synthetic  # noqa: E402


@pytest.fixture(scope="session")
def toy_corpus_dir(tmp_path_factory):
    """Synthetic train/test split small enough for quick CLI runs."""
    out = tmp_path_factory.mktemp("toycorpus")
    synthetic.generate_splits(out, train=40, test=12, seed=11,
                              sentences_per_doc=4)
    return out


@pytest.fixture(scope="session")
def toy_run_dir(tmp_path_factory, toy_corpus_dir):
    """Train a small fixed-length model through the CLI; returns its out dir."""
    out = tmp_path_factory.mktemp("toyrun")
    config = out / "train.cfg"
    config.write_text(
        "# small model for tests\n"
        "encoder = cbow\n"
        "hidden_dim = 16\n"
        "embed_dim = 8\n"
        "recurrent_dim = 16\n"
        "feature_maps = 4\n"
        "filter_lengths = 2 3\n"
        "batch_size = 8\n"
        "learning_rate = 0.5\n"
        "adagrad_epsilon = 0.3\n"
        "epochs = 5\n"
        "seed = 13\n",
        encoding="utf-8")
    rc = cli.main([
        "train", "--config", str(config),
        "--train", str(toy_corpus_dir / "train.txt"),
        "--dev", str(toy_corpus_dir / "test.txt"),
        "--out", str(out), "--log", str(out / "train.log"),
    ])
    assert rc == 0, "toy training run failed"
    assert (out / "model.npz").exists()
    return out


@pytest.fixture(scope="session")
def toy_checkpoint(toy_run_dir):
    return str(toy_run_dir / "model.npz")
