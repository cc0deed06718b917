import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import serialsum
from serialsum import (BudgetExceededError, FiniteSumSpec, RootMultiset,
                       f_general, linear_coefficient, series_oracle)
from serialsum.lambda_sums import finite_sum_with_error

ROOT = Path(__file__).resolve().parents[1]


def _snapshot_module():
    spec = importlib.util.spec_from_file_location(
        "snapshot", ROOT / "audit" / "snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


snapshot = _snapshot_module()

#: each evaluator of the snapshot: its call on a drawn input, the errors
#: it refuses that input with, and its line's output for a value
CALLS = {
    "series": (
        lambda lams, S, tol, budget: series_oracle(lams, S, tol, budget=budget),
        BudgetExceededError, lambda got: f"{got!r}|{got.truncation}"),
    "general": (
        lambda lams, S: f_general(RootMultiset.from_lambdas(lams), S), (), repr),
    "finite": (
        lambda lams, shifts, n, adjust: finite_sum_with_error(
            FiniteSumSpec(lams, shifts, n, adjust)), (), repr),
    "linear": (linear_coefficient, ValueError, repr),
    "cli": (snapshot.run_cli, (), lambda line: line),
}


def test_snapshot_smoke():
    # 20 inputs per evaluator as a fresh process, where nothing is kept
    # yet, give the lines of the evaluators' outputs in this process,
    # whatever it keeps
    src = os.path.dirname(os.path.dirname(serialsum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "audit" / "snapshot.py"), "--count", "20"],
        capture_output=True, text=True, env=env, check=True).stdout
    lines = out.splitlines()
    assert lines == list(snapshot.snapshot(20, 0))
    assert [line.split(" ", 1)[0] for line in lines] == [
        name for name in CALLS for _ in range(20)]
    for i, (name, (call, refusals, output)) in enumerate(CALLS.items()):
        draw = snapshot.EVALUATORS[name][0]
        rng = random.Random(0)
        for line in lines[20 * i : 20 * (i + 1)]:
            args = draw(rng)
            try:
                out = output(call(*args))
            except refusals as exc:
                out = snapshot.refusal(exc)
            assert line == f"{name} {' '.join(map(repr, args))}|{out}"
