import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import serialsum
from serialsum import BudgetExceededError, series_oracle

ROOT = Path(__file__).resolve().parents[1]


def _snapshot_module():
    spec = importlib.util.spec_from_file_location(
        "snapshot", ROOT / "audit" / "snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_smoke():
    # 20 inputs as a fresh process, where nothing is kept yet, give the
    # lines of the oracle's outputs in this process, whatever it keeps
    snapshot = _snapshot_module()
    src = os.path.dirname(os.path.dirname(serialsum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "audit" / "snapshot.py"), "--count", "20"],
        capture_output=True, text=True, env=env, check=True).stdout
    lines = out.splitlines()
    assert lines == list(snapshot.snapshot(20, 0))
    assert len(lines) == 20
    rng = random.Random(0)
    for line in lines:
        lams, S, tol, budget = snapshot.draw_input(rng)
        assert line.startswith(f"{lams!r} {S} {tol!r} {budget}|")
        try:
            got = series_oracle(lams, S, tol, budget=budget)
        except BudgetExceededError:
            assert line.endswith("|refused")
        else:
            assert line.endswith(f"|{got!r}|{got.truncation}")
