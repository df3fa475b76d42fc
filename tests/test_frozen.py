"""The frozen checkpoints of tests/data against the outputs recorded with them.

Each checkpoint must still load as ordernet-checkpoint-v1, decode the same
orders and beams, and train one more epoch to the same loss and parameters.
Floats may differ by rounding (1e-12); whether every bit is equal is printed.
tests/data/make_golden.py regenerates the files.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ordernet.training import checkpoint_load

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)
EXPECTED = json.loads((DATA / "expected.json").read_text(encoding="utf-8"))


def _orders_and_floats(outputs):
    """(positions and stop flags, every float) of frozen_outputs' result."""
    orders = outputs["greedy"] + [o for beam in outputs["beam"] for o in beam]
    floats = [o[2] for o in orders] + [outputs["loss"]]
    floats += [x for name in sorted(outputs["params"]) for x in outputs["params"][name]]
    return [o[:2] for o in orders], np.array(floats)


@pytest.mark.parametrize("encoder", sorted(make_golden.SETTINGS))
def test_a_frozen_checkpoint_decodes_and_trains_as_recorded(encoder):
    model, opt_state, meta = checkpoint_load(DATA / f"{encoder}.npz")
    assert opt_state is not None and meta == {"epoch": make_golden.EPOCHS}
    want = EXPECTED[encoder]
    got = make_golden.frozen_outputs(model, opt_state)
    assert sorted(got["params"]) == sorted(want["params"])
    got_orders, got_floats = _orders_and_floats(got)
    want_orders, want_floats = _orders_and_floats(want)
    assert got_orders == want_orders
    difference = float(np.max(np.abs(got_floats - want_floats)))
    print(f"\n  {encoder}: bit-identical {np.array_equal(got_floats, want_floats)}, "
          f"largest difference {difference:.3g}")
    assert difference <= 1e-12
