"""The benchmark's own test.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

It runs every workload at a tiny size (``--smoke``), with and without
tracing, and checks that each metric named in BENCHMARK.json is emitted with
its unit.  It also checks the references and the refusal to run without
this checkout's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "closed_form", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_guard_rejects_another_serialsum():
    run.guard(str(run.PACKAGE_INIT))
    with pytest.raises(run.BenchError):
        run.guard("/elsewhere/site-packages/serialsum/__init__.py")


def _printed_double(lam, S):
    return lam**S * (1 + S + (1 - S) * lam**2) / (1 - lam**2)


def _printed_triple(lam, S):
    return (lam**S * (2 + 3 * S + S * S + 2 * (4 - S * S) * lam**2
                      + (2 - 3 * S + S * S) * lam**4) / (2 * (1 - lam**2) ** 2))


def _contour(lams, S, points):
    """Trapezoidal rule for the divided difference on the unit circle."""
    with mpmath.workdps(reference.DPS):
        ls = [mpmath.mpc(complex(v).real, complex(v).imag) for v in lams]
        total = 0
        for k in range(points):
            z = mpmath.expjpi(mpmath.mpf(2 * k) / points)
            term = z ** (S + len(ls))
            for lam in ls:
                term *= (1 - lam * lam) / ((1 - z * lam) * (z - lam))
            total += term
        return total / points


def test_reference_agrees_with_printed_formulas_and_contour():
    with mpmath.workdps(reference.DPS):
        for lam in (mpmath.mpf("0.5"), mpmath.mpf("-0.9")):
            for S in (0, 3):
                double = reference.limit_reference([float(lam)] * 2, S)
                triple = reference.limit_reference([float(lam)] * 3, S)
                assert abs(double - _printed_double(mpmath.mpf(float(lam)), S)) < 1e-50
                assert abs(triple - _printed_triple(mpmath.mpf(float(lam)), S)) < 1e-50
        for lams, S in [([0.6, 0.6, 0.6, -0.4, -0.4, 0.1], 4),
                        ([0.3 + 0.2j, 0.3 - 0.2j, 0.7, 0.7], 1),
                        (list(inputs.KNOWN_UNDERESTIMATES[0][0]), 0)]:
            ref = reference.limit_reference(lams, S)
            assert abs(ref - _contour(lams, S, 3000)) < 1e-50 * (1 + abs(ref))


def test_seed_changes_values_not_shapes():
    def shape(ops):
        return [(op["kind"], len(op["lambdas"]), op.get("n_base"), op.get("tol"))
                for op in ops]

    for make in (inputs.closed_form_ops, inputs.oracle_ops):
        assert make(3) == make(3)
        assert make(3) != make(4)
        assert shape(make(3)) == shape(make(4))
    assert [run._label(c["argv"]) for c in inputs.cli_ops(3)] == [
        run._label(c["argv"]) for c in inputs.cli_ops(4)]
