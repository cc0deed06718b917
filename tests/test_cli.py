import cmath
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import serialsum
from serialsum.ar_model import (
    ARModel,
    _burn_in,
    _write_rows,
    char_roots,
    empirical_acf,
    simulate,
)
from serialsum.cli import main
from _references import mp_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    envelope = json.loads(out) if out.strip() else None
    return code, envelope, err


def _src_env():
    """The environment with this package's source directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(serialsum.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestEval:
    def test_distinct_pair(self, capsys):
        code, env, _ = run_json(capsys, "eval", "--lambdas", "0.5,0.3", "--S", "0")
        assert code == 0
        assert env["result"]["value"]["re"] == pytest.approx(1.3529411764705883)
        assert env["result"]["is_real_certified"] is True
        assert list(env) == ["command", "inputs", "result", "err_estimate", "elapsed_ms"]

    def test_confluent_via_mult(self, capsys):
        code, env, _ = run_json(
            capsys, "eval", "--lambdas", "0.5", "--mult", "2", "--S", "1"
        )
        assert code == 0
        assert env["result"]["value"]["re"] == pytest.approx(4 / 3)
        assert env["result"]["route"] == "confluent"

    def test_shifts_instead_of_s(self, capsys):
        code, env, _ = run_json(
            capsys, "eval", "--lambdas", "0.5,0.3", "--shifts", "2,-1"
        )
        assert code == 0
        assert env["inputs"]["S"] == 1
        assert env["result"]["value"]["re"] == pytest.approx(16 / 17)

    def test_single_lambda_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "--lambdas", "0.95", "--S", "0")
        assert code == 2
        assert "2" in err or "root count" in err

    def test_root_outside_disk_rejected(self, capsys):
        code, _, _ = run(capsys, "eval", "--lambdas", "1.5,0.3", "--S", "0")
        assert code == 2

    def test_both_s_and_shifts_rejected(self, capsys):
        code, _, _ = run(
            capsys, "eval", "--lambdas", "0.5,0.3", "--S", "0", "--shifts", "0,0"
        )
        assert code == 2

    def test_conjugate_closure_enforced(self, capsys):
        code, _, err = run(
            capsys, "eval", "--lambdas", "0.3+0.2i,0.1", "--S", "0"
        )
        assert code == 2
        assert "conjugation" in err
        code, env, _ = run_json(
            capsys,
            "eval", "--lambdas", "0.3+0.2i,0.1", "--S", "0",
            "--allow-complex-result",
        )
        assert code == 0
        assert env["result"]["is_real_certified"] is False

    def test_conjugate_pair_accepted(self, capsys):
        code, env, _ = run_json(
            capsys, "eval", "--lambdas", "0.3+0.2i,0.3-0.2i", "--S", "1"
        )
        assert code == 0
        assert env["result"]["value"]["im"] == pytest.approx(0.0, abs=1e-12)


class TestOracle:
    def test_series(self, capsys):
        code, env, _ = run_json(
            capsys,
            "oracle", "series", "--lambdas", "0.5,0.3", "--S", "1",
            "--tol", "1e-12",
        )
        assert code == 0
        assert env["result"]["value"]["re"] == pytest.approx(16 / 17, abs=1e-11)
        assert env["result"]["truncation_J"] > 0
        assert env["err_estimate"] < 1e-12

    def test_finite(self, capsys):
        code, env, _ = run_json(
            capsys,
            "oracle", "finite", "--lambdas", "0.5,0.3", "--shifts", "0,0",
            "--n", "2",
        )
        assert code == 0
        assert env["result"]["value"]["re"] == pytest.approx(2.3)
        assert env["result"]["exact"] is True

    def test_finite_adjusted(self, capsys):
        code, env, _ = run_json(
            capsys,
            "oracle", "finite", "--lambdas", "0.5,0.3", "--shifts", "0,0",
            "--n", "2", "--adjust", "0,-1",
        )
        assert code == 0
        assert env["result"]["value"]["re"] == pytest.approx(1.15)

    def test_finite_err_estimate_bounds_exact_sum(self, capsys):
        lams = [Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4)]
        shifts, n, adjust = [1, 0, -2], 20, [0, -1, 0]
        exact = Fraction(0)
        ranges = (range(1, n + d + 1) for d in adjust)
        for idx in itertools.product(*ranges):
            term = Fraction(1)
            for m, lam in enumerate(lams):
                term *= lam ** abs(idx[m] - idx[(m + 1) % 3] + shifts[m])
            exact += term
        code, env, _ = run_json(
            capsys,
            "oracle", "finite", "--lambdas", "0.5,-0.25,0.75",
            "--shifts", "1,0,-2", "--n", str(n), "--adjust", "0,-1,0",
        )
        assert code == 0
        assert list(env) == ["command", "inputs", "result", "err_estimate", "elapsed_ms"]
        assert list(env["result"]) == ["value", "exact"]
        got = Fraction(env["result"]["value"]["re"])
        assert env["result"]["value"]["im"] == 0
        # the double result is rounded here, so an err_estimate of 0 fails
        assert 0 < abs(got - exact) <= env["err_estimate"]

    def test_finite_budget_exceeded(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(
            capsys,
            "oracle", "finite", "--lambdas", "0.1,0.2,0.3,0.4,0.5,0.6",
            "--shifts", "0,0,0,0,0,0", "--n", "100000", "--json",
        )
        assert time.perf_counter() - started < 1.0
        assert code == 1
        # strict RFC 8259 parsing: a bare Infinity would raise here
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["error"] == "BudgetExceeded"
        assert payload["achievable_bound"] is None

    def test_series_budget_exceeded(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "series", "--lambdas", "0.9,0.9,0.9,0.9", "--S", "0",
            "--tol", "1e-12", "--budget", "500", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "BudgetExceeded"
        assert payload["achievable_bound"] > 0

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SERIALSUM_BUDGET", "500")
        code, out, _ = run(
            capsys,
            "oracle", "series", "--lambdas", "0.9,0.9,0.9,0.9", "--S", "0",
            "--tol", "1e-12", "--json",
        )
        assert code == 1
        assert json.loads(out)["error"] == "BudgetExceeded"

    @pytest.mark.parametrize("budget", ["inf", "-inf", "nan", "1e400", "abc"])
    def test_non_finite_budget_env_var_is_a_usage_error(
        self, capsys, monkeypatch, budget
    ):
        monkeypatch.setenv("SERIALSUM_BUDGET", budget)
        code, out, err = run(capsys, "ar", "roots", "--alpha", "0.5", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("source", ["option", "env"])
    def test_negative_budget_is_a_usage_error(self, capsys, monkeypatch, source):
        def budget(value):
            if source == "option":
                return ["--budget", value]
            monkeypatch.setenv("SERIALSUM_BUDGET", value)
            return []

        argv = ["oracle", "series", "--lambdas", "0.5,0.3", "--S", "0", "--json"]
        code, out, err = run(capsys, *argv, *budget("-5"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "must be >= 0" in err
        # a budget of 0 is valid: the work is over it, not the command
        code, out, _ = run(capsys, *argv, *budget("0"))
        assert code == 1
        assert json.loads(out)["error"] == "BudgetExceeded"

    @pytest.mark.parametrize("source", ["option", "env"])
    def test_budget_is_one_whole_number_from_either_source(
        self, capsys, monkeypatch, source
    ):
        name = {"option": "--budget", "env": "SERIALSUM_BUDGET"}[source]

        def budget(value):
            if source == "option":
                return ["--budget", value]
            monkeypatch.setenv("SERIALSUM_BUDGET", value)
            return []

        argv = ["oracle", "series", "--lambdas", "0.5,0.3", "--S", "1", "--json"]
        # the help's default, 2e8, is the default budget in either form
        for value in ["2e8", "200000000.0", "200000000"]:
            code, out, _ = run(capsys, *argv, *budget(value))
            assert code == 0 and json.loads(out)["result"]["truncation_J"] == 64
        # a float literal with a whole value is that integer: S = 1 and two
        # roots charge 4 units before the first node count
        for value in ["3e0", "3.0", "3"]:
            code, out, _ = run(capsys, *argv, *budget(value))
            assert code == 1
            assert json.loads(out)["message"] == (
                "the series oracle at S=1 needs 4 work units, over the budget of 3")
        # a fraction is not truncated, to 0 or to 12 say, nor is any other
        # value that is not a whole number >= 0, also by eval, which
        # charges no work
        eval_argv = ["eval", "--lambdas", "0.5,0.3", "--S", "1", "--json"]
        for value in ["0.5", "12.9", "inf", "nan", "1e400", "-5.0", "abc"]:
            for command in (argv, eval_argv):
                code, out, err = run(capsys, *command, *budget(value))
                assert (code, out) == (2, ""), (command[0], value)
                assert err.startswith(f"error: {name} must be "), (value, err)


class TestConjecture:
    def test_small_probe_passes(self, capsys):
        code, env, _ = run_json(
            capsys,
            "conjecture", "--ell", "5", "--trials", "5", "--seed", "42",
            "--tol", "1e-8",
        )
        assert code == 0
        assert env["result"]["passed"] == 5
        assert env["result"]["failed"] == 0

    def test_ell4_rejected(self, capsys):
        code, _, _ = run(capsys, "conjecture", "--ell", "4")
        assert code == 2

    def test_unachievable_tolerance(self, capsys):
        # tolerance below the oracle's rounding floor: fail or skip, never pass
        code, env, _ = run_json(
            capsys,
            "conjecture", "--ell", "5", "--trials", "1", "--seed", "7",
            "--tol", "1e-16",
        )
        if code == 0:
            assert env["result"]["passed"] == 0
            assert env["result"]["skipped"] == 1
        else:
            assert code == 1

    def test_skip_says_why(self, capsys):
        # the oracle's rounding floor is above tol: the trial names that
        # err_estimate, in the JSON trial and on the text row
        argv = ["conjecture", "--ell", "5", "--trials", "1", "--seed", "7",
                "--tol", "1e-16"]
        code, env, _ = run_json(capsys, *argv)
        (trial,) = env["result"]["trials"]
        assert code == 0 and trial["status"] == "skip"
        assert list(trial)[-2:] == ["oracle_err", "detail"]
        assert trial["detail"] == (
            f"oracle err_estimate {trial['oracle_err']:g} is not below 1e-16")
        code, out, _ = run(capsys, *argv)
        assert f"({trial['detail']})" in out.splitlines()[1]


class TestAr:
    def test_roots(self, capsys):
        code, env, _ = run_json(capsys, "ar", "roots", "--alpha", "0.5,-0.06")
        assert code == 0
        res = sorted(r["re"] for r in env["result"]["roots"])
        assert res == pytest.approx([0.2, 0.3])
        assert env["result"]["stationary"] is True

    def test_roots_of_huge_coefficients(self, capsys):
        # the residual check once overflowed here: a traceback under
        # -W error::RuntimeWarning
        code, env, _ = run_json(capsys, "ar", "roots", "--alpha", "1e308,1e308")
        assert code == 0
        res = [r["re"] for r in env["result"]["roots"]]
        assert res == pytest.approx([1e308, -1.0], rel=1e-12)
        assert env["result"]["stationary"] is False

    def test_roots_of_widely_scaled_coefficients(self, capsys):
        # one companion matrix lost the unit-modulus pair next to the root
        # near 1e300
        code, env, _ = run_json(capsys, "ar", "roots", "--alpha", "1e300,-1e300,1e300")
        assert code == 0
        roots = [complex(r["re"], r["im"]) for r in env["result"]["roots"]]
        assert len(roots) == 3
        assert roots[0] == pytest.approx(1e300, rel=1e-12)
        for z, want in zip(roots[1:], (cmath.exp(1j * math.pi / 3),
                                       cmath.exp(-1j * math.pi / 3))):
            assert abs(z - want) <= 1e-10

    def test_acf_markov(self, capsys):
        code, env, _ = run_json(
            capsys, "ar", "acf", "--alpha", "0.6", "--jmax", "3"
        )
        assert code == 0
        assert env["result"]["rho"] == pytest.approx([1.0, 0.6, 0.36, 0.216])

    def test_acf_repeated_root(self, capsys):
        # the double root 0.5: no mixture weights, exact correlations
        code, env, _ = run_json(
            capsys, "ar", "acf", "--alpha", "1.0,-0.25", "--jmax", "5"
        )
        assert code == 0
        assert env["result"]["coefficients"] is None
        assert env["result"]["rho"] == pytest.approx(
            [(1 + 0.6 * h) * 0.5**h for h in range(6)], abs=1e-14)

    def test_check_repeated_root_reaches_verdict(self, capsys):
        code, env, _ = run_json(
            capsys,
            "ar", "check", "--alpha", "1.0,-0.25", "--n", "20000", "--seed",
            "1", "--jmax", "3", "--seeds", "5",
        )
        assert code == (0 if env["result"]["ok"] else 1)
        assert env["result"]["rho_theoretical"] == pytest.approx(
            [1.0, 0.8, 0.55, 0.35], abs=1e-14)

    @pytest.mark.parametrize("command", ["roots", "acf", "simulate", "check"])
    def test_order_budget_exceeded(self, capsys, monkeypatch, tmp_path, command):
        # 600**3 units: finding the roots of an AR(600) model takes seconds
        def work_started(*args, **kwargs):
            raise AssertionError("root finding started before the budget check")

        monkeypatch.setattr(serialsum.ar_model, "char_roots", work_started)
        argv = ["ar", command, "--alpha", ",".join(["0.001"] * 600)]
        if command in ("simulate", "check"):
            argv += ["--n", "10", "--burn-in", "0"]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "x.csv")]
        started = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["command"] == f"ar {command}"
        assert payload["error"] == "BudgetExceeded"
        assert payload["achievable_bound"] is None

    def test_simulate_csv(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, env, _ = run_json(
            capsys,
            "ar", "simulate", "--alpha", "0.6", "--sigma", "1", "--n", "100",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 101
        # full-precision serialization: values re-parse exactly
        assert all(repr(float(v)) == v for v in lines[1:])

    def test_simulate_non_stationary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "ar", "simulate", "--alpha", "1.2", "--n", "10",
            "--out", str(tmp_path / "x.csv"), "--json",
        )
        assert code == 1
        assert json.loads(out)["error"] == "NotStationaryError"

    def test_non_stationary_is_refused_before_the_budget(self, capsys, monkeypatch,
                                                         tmp_path):
        # an explicit burn-in and an n far over the budget: the model is
        # refused first, and no noise is drawn
        def work_started(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(serialsum.ar_model, "_stream", work_started)
        out = tmp_path / "x.csv"
        code, stdout, _ = run(
            capsys, "ar", "simulate", "--alpha", "1.2", "--burn-in", "5",
            "--n", "1000000000000", "--out", str(out), "--json")
        assert code == 1
        assert json.loads(stdout)["error"] == "NotStationaryError"
        assert not out.exists()

    def test_check_small(self, capsys):
        code, env, _ = run_json(
            capsys,
            "ar", "check", "--alpha", "0.6", "--n", "20000", "--seed", "1",
            "--jmax", "3", "--seeds", "5",
        )
        assert code == 0
        assert env["result"]["ok"] is True
        assert all(abs(z) <= 4 for z in env["result"]["z_scores"])

    @pytest.mark.parametrize("argv", [
        ["ar", "simulate", "--alpha", "0.6", "--n", "100000000000"],
        # the default burn-in alone is 276,310,198 samples
        ["ar", "simulate", "--alpha", "0.9999999", "--n", "10"],
        ["ar", "check", "--alpha", "0.6", "--n", "1000000", "--seeds", "21"],
        ["ar", "check", "--alpha", "0.6", "--n", "1000", "--seeds", "2",
         "--budget", "20000"],
        # 100,000 generators of about 30 us each, for 41 samples apiece
        ["ar", "check", "--alpha", "0.5", "--n", "1", "--seeds", "100000",
         "--jmax", "0"],
        # 19,999,944 CSV rows at 1.1-1.6 us each to format
        ["ar", "simulate", "--alpha", "0.6", "--n", "19999944"],
    ])
    def test_simulation_budget_exceeded(self, capsys, monkeypatch, tmp_path, argv):
        def work_started(*args, **kwargs):
            raise AssertionError("simulation started before the budget check")

        monkeypatch.setattr(serialsum.ar_model, "simulate", work_started)
        monkeypatch.setattr(serialsum.ar_model, "_stream", work_started)
        if argv[1] == "simulate":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        started = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["command"] == f"ar {argv[1]}"
        assert payload["error"] == "BudgetExceeded"
        assert payload["achievable_bound"] is None
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["ar", "acf", "--alpha", "0.6", "--jmax", "1000000000"],
        # 1,000 lags of 20 seeds x 200,000 samples
        ["ar", "check", "--alpha", "0.5,-0.06", "--n", "200000", "--jmax", "1000"],
        ["conjecture", "--ell", "5", "--trials", "1000000000"],
        ["conjecture", "--ell", "6", "--trials", "801"],
    ])
    def test_lags_and_trials_budget_exceeded(self, capsys, monkeypatch, argv):
        def work_started(*args, **kwargs):
            raise AssertionError("work started before the budget check")

        monkeypatch.setattr(serialsum.ar_model, "acf", work_started)
        monkeypatch.setattr(serialsum.ar_model, "simulate", work_started)
        monkeypatch.setattr(serialsum.ar_model, "_stream", work_started)
        monkeypatch.setattr(serialsum.lambda_sums, "conjecture_probe", work_started)
        started = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["command"] == " ".join(argv[:2 if argv[0] == "ar" else 1])
        assert payload["error"] == "BudgetExceeded"
        assert payload["achievable_bound"] is None

    def test_budget_counts_ten_units_per_sample(self, capsys):
        # one total: no unit for the root of an AR(1) model, read off; 2
        # seeds x (4,000 for the seed + 10 x (55 burn-in + 1000) samples) =
        # 2 x 14,550 = 29,100; and 1,100 + 1,000 for the ACF: 29,100 +
        # 2,100 = 31,200.  Acceptance criterion 7 runs the README check
        # (20 x 200,023 samples) at the default budget
        argv = ["ar", "check", "--alpha", "0.6", "--n", "1000", "--seeds", "2"]
        code, env, _ = run_json(capsys, *argv, "--budget", "31200")
        # two seeds give a noisy standard error, so the z-test may fail
        assert code in (0, 1)
        assert env["command"] == "ar check"
        assert "result" in env
        code, out, _ = run(capsys, *argv, "--budget", "31199", "--json")
        assert code == 1
        assert json.loads(out)["error"] == "BudgetExceeded"

    @pytest.mark.parametrize("argv", [
        ["ar", "check", "--alpha", "0.6", "--n", "1000", "--seeds", "1"],
        ["ar", "check", "--alpha", "0.6", "--n", "1000", "--seeds", "0"],
        ["ar", "simulate", "--alpha", "0.6", "--n", "10", "--burn-in", "-5",
         "--out", "{out}"],
        ["ar", "simulate", "--alpha", "0.6", "--n", "10", "--seed", "-1",
         "--out", "{out}"],
        ["ar", "check", "--alpha", "0.6", "--n", "1000", "--seed", "-1"],
    ])
    def test_bad_seeds_and_burn_in_exit_2(self, capsys, tmp_path, argv):
        out = tmp_path / "x.csv"
        argv = [str(out) if a == "{out}" else a for a in argv]
        started = time.perf_counter()
        code, _, _ = run(capsys, *argv, "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert not out.exists()

    def test_lags_from_n_up_are_refused_before_any_work(self, capsys, monkeypatch):
        def work_started(*args, **kwargs):
            raise AssertionError("work started before the lag range check")

        monkeypatch.setattr(serialsum.ar_model, "char_roots", work_started)
        monkeypatch.setattr(serialsum.ar_model, "_stream", work_started)
        code, out, err = run(capsys, "ar", "check", "--alpha", "0.6", "--n", "2",
                             "--jmax", "3", "--seeds", "2", "--json")
        assert code == 2
        assert out == ""
        assert err == "error: --jmax must be >= 0 and below --n (2), got 3\n"

    def test_n_below_one_is_blamed_on_n(self, capsys):
        # the lag range is checked against an n of at least 1 only, so a
        # bad --n is named as such, with the default --jmax 3
        code, out, err = run(capsys, "ar", "check", "--alpha", "0.6", "--n", "0",
                             "--json")
        assert code == 2
        assert out == ""
        assert err == "error: n must be >= 1\n"

    def test_error_envelope_names_subcommand(self, capsys):
        code, out, _ = run(
            capsys,
            "ar", "check", "--alpha", "1.2", "--n", "1000", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["command"] == "ar check"
        assert payload["error"] == "NotStationaryError"

        code, out, _ = run(
            capsys,
            "oracle", "series", "--lambdas", "0.9,0.9,0.9,0.9", "--S", "0",
            "--tol", "1e-12", "--budget", "500", "--json",
        )
        assert code == 1
        assert json.loads(out)["command"] == "oracle series"


class TestStreaming:
    """`ar simulate` and `ar check` make their series chunk by chunk, so
    their memory does not grow with --n or --seeds."""

    def test_simulate_csv_spans_chunks(self, capsys, tmp_path):
        # 70,000 rows: three chunks of one seed
        n, seed = 70_000, 5
        out = tmp_path / "x.csv"
        code, env, _ = run_json(
            capsys, "ar", "simulate", "--alpha", "0.5,-0.06", "--sigma", "2",
            "--n", str(n), "--seed", str(seed), "--out", str(out))
        assert code == 0
        burn_in = env["result"]["burn_in"]
        assert burn_in == _burn_in(char_roots([0.5, -0.06]))
        # an independent recursion of the same noise
        eps = 2 * np.random.default_rng(seed).standard_normal(burn_in + n)
        x1 = x2 = 0.0
        want = []
        for e in eps.tolist():
            x1, x2 = 0.5 * x1 - 0.06 * x2 + e, x1
            want.append(x1)
        want = np.array(want[burn_in:])
        lines = out.read_text().split()
        assert lines[0] == "x"
        got = np.array([float(v) for v in lines[1:]])
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        ref = tmp_path / "ref.csv"
        sample = simulate(ARModel((0.5, -0.06), 2.0), n, burn_in, seed)
        _write_rows(ref, [sample.values])
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("n, jmax, seeds", [
        # 64 seeds go in chunks of 512 samples
        (1000, 600, 64),
        (300, 299, 3),
    ])
    def test_check_means_the_per_seed_acfs(self, capsys, n, jmax, seeds):
        code, env, _ = run_json(
            capsys, "ar", "check", "--alpha", "0.5,-0.06", "--n", str(n),
            "--seed", "4", "--jmax", str(jmax), "--seeds", str(seeds),
            "--zmax", "1e9")
        assert code == 0
        model = ARModel((0.5, -0.06), 1.0)
        burn_in = _burn_in(char_roots(model.alphas))
        per_seed = [empirical_acf(simulate(model, n, burn_in, s), jmax)
                    for s in range(4, 4 + seeds)]
        got = np.array(env["result"]["rho_empirical"])
        assert np.max(np.abs(got - np.mean(per_seed, axis=0))) <= 1e-14

    @pytest.mark.parametrize("argv", [
        # the README check: 20 seeds of 200,023 samples
        ["ar", "check", "--alpha", "0.5,-0.06", "--n", "200000", "--seed", "1",
         "--jmax", "3"],
        ["ar", "simulate", "--alpha", "0.5,-0.06", "--n", "500000", "--seed",
         "1", "--out", "{out}"],
    ])
    def test_peak_memory_is_bounded(self, capsys, tmp_path, argv):
        # the series alone would take 1.6 and 4 MB
        argv = [str(tmp_path / "x.csv") if a == "{out}" else a for a in argv]
        small = list(argv)
        small[small.index("--n") + 1] = "1000"
        assert main(small) in (0, 1)  # imports and caches of a first run
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code in (0, 1)
        assert peak < 2_000_000


class TestCleanExits:
    """Inputs that once ran without limit, slipped past validation, raised
    a traceback or reported a false success."""

    @pytest.mark.parametrize("argv", [
        # --mult is checked before the roots are expanded
        ["eval", "--lambdas", "0.5", "--mult", "10000000", "--S", "0"],
        ["eval", "--lambdas", "0.5", "--mult", "1000000000", "--S", "0"],
        ["eval", "--lambdas", "0.5,0.3,0.2", "--mult", "1,1,0", "--S", "0"],
        ["eval", "--lambdas", "0.5,0.3", "--mult", "-1,3", "--S", "0"],
        ["oracle", "series", "--lambdas", "0.5,0.3", "--S", "0", "--tol", "nan"],
        ["conjecture", "--ell", "5", "--trials", "2", "--tol", "nan"],
        ["ar", "simulate", "--alpha", "0.6", "--n", "10", "--sigma", "nan",
         "--out", "{out}"],
        ["ar", "check", "--alpha", "0.6", "--n", "1000", "--seeds", "2",
         "--zmax", "nan"],
        ["ar", "acf", "--alpha", "0.6", "--jmax", "-5"],
        # lags at or above --n, refused before the budget is charged
        ["ar", "check", "--alpha", "0.6", "--n", "1000", "--jmax", "1000000000"],
        ["ar", "roots", "--alpha", "nan"],
        # a negative n must not take the lags' work off the one total: the
        # recursion over 1e30 lags would run without limit
        ["ar", "check", "--alpha", "0.5", "--n", "-1", "--jmax", str(10**30),
         "--seeds", "1000000000"],
        ["oracle", "finite", "--lambdas", "0.5,0.3",
         "--shifts", "100000000000000000000,0", "--n", "2"],
        # --tol inf once passed a conjecture trial with a discrepancy of 0.98
        ["conjecture", "--ell", "5", "--trials", "1", "--tol", "inf"],
        ["oracle", "series", "--lambdas", "0.5,0.3", "--S", "1", "--tol", "inf"],
    ])
    def test_refused_as_usage_errors(self, capsys, tmp_path, argv):
        out = tmp_path / "x.csv"
        argv = [str(out) if a == "{out}" else a for a in argv]
        started = time.perf_counter()
        code, stdout, err = run(capsys, *argv, "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 2, err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing directory", "a directory"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where):
        out = tmp_path / "no" / "x.csv" if where == "missing directory" else tmp_path
        code, stdout, err = run(capsys, "ar", "simulate", "--alpha", "0.5", "--n", "3",
                                "--out", str(out), "--json")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--lambdas", "0.5,0.3", "--S", str(2**1024)],
        ["eval", "--lambdas", "0.5", "--mult", "6", "--S", str(10**63)],
    ])
    def test_huge_S_gives_finite_numbers(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        env = json.loads(out, parse_constant=pytest.fail)
        assert env["result"]["value"] == {"re": 0.0, "im": 0.0}
        assert env["err_estimate"] == 0.0

    def test_overflowing_finite_sum_is_an_error(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "finite", "--lambdas", "2,0.5",
            "--shifts", "2000,0", "--n", "2", "--json",
        )
        assert code == 1
        payload = json.loads(out, parse_constant=pytest.fail)
        assert list(payload) == ["command", "error", "message"]
        assert payload["command"] == "oracle finite"
        assert payload["error"] == "OverflowError"

    @pytest.mark.parametrize("order", [1, -1])
    def test_near_coincident_roots_in_any_order(self, capsys, order):
        # 0.3 and 0.30000132 are 1.32e-6 apart, over the threshold of
        # 1e-6 * 1.30000132, but each is within it of 0.30000125
        lams = ["0.3", "0.30000125", "0.30000132"][::order]
        code, env, err = run_json(
            capsys, "eval", "--lambdas", ",".join(lams), "--S", "0")
        assert code == 0, err
        assert env["result"]["route"] == "distinct"
        want = mp_closed_form(lams, 0, 50)
        got = env["result"]["value"]["re"]
        assert abs(got - float(want.real)) <= 1e-9 * (1 + abs(got))

    def test_ar_acf_charges_roots_and_lags_as_one_total(self, capsys):
        # no unit for the root of an AR(1) model, read off, and none for a
        # Yule-Walker system of no unknowns; 25 * 11 * 4 for 4 lags
        argv = ["ar", "acf", "--alpha", "0.6", "--jmax", "3"]
        code, _, _ = run_json(capsys, *argv, "--budget", "1100")
        assert code == 0
        code, out, _ = run(capsys, *argv, "--budget", "1099", "--json")
        assert code == 1
        assert json.loads(out)["message"] == (
            "ar acf needs 1,100 work units, over the budget of 1,099")

    def test_roots_are_charged_at_the_iterations_worst(self, capsys, monkeypatch):
        # 70 units x 50 sweeps x k*(k-1): 7,000 for an AR(2) model
        argv = ["ar", "roots", "--alpha", "0.5,-0.06"]
        code, _, _ = run_json(capsys, *argv, "--budget", "7000")
        assert code == 0
        code, out, _ = run(capsys, *argv, "--budget", "6999", "--json")
        assert json.loads(out)["message"] == (
            "ar roots needs 7,000 work units, over the budget of 6,999")
        # the default budget admits k up to 239

        def found(alphas):
            raise RuntimeError("root finding started")

        monkeypatch.setattr(serialsum.ar_model, "char_roots", found)
        for k, error in [(239, "RuntimeError"), (240, "BudgetExceeded")]:
            code, out, _ = run(capsys, "ar", "roots", "--alpha",
                               ",".join(["0.001"] * k), "--json")
            assert json.loads(out)["error"] == error

    def test_envelope_data(self):
        from serialsum.cli import _plain

        data = {"z": (1 + 2j, complex(math.inf, 0)),
                "x": [math.nan, -math.inf, 1.5, True, None, 3]}
        assert _plain(data) == {
            "z": [{"re": 1.0, "im": 2.0}, {"re": None, "im": 0.0}],
            "x": [None, None, 1.5, True, None, 3],
        }
        assert list(_plain(data)) == ["z", "x"]


class TestNegativeLists:
    @pytest.mark.parametrize("argv", [
        ["eval", "--lambdas", "-0.9,0.1", "--S", "0"],
        ["eval", "--lambdas", "0.5,0.3", "--shifts", "-1,1"],
        ["oracle", "finite", "--lambdas", "-0.5,0.3", "--shifts", "0,0",
         "--n", "3", "--adjust", "-1,0"],
        ["ar", "acf", "--alpha", "-0.5,0.1"],
    ])
    def test_separate_value_parses_like_attached(self, capsys, argv):
        i = next(i for i, a in enumerate(argv) if a.startswith("-") and
                 a[1:2].isdigit())
        attached = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
        code, env, _ = run_json(capsys, *argv)
        code_ref, env_ref, _ = run_json(capsys, *attached)
        assert code == code_ref == 0
        env.pop("elapsed_ms")
        env_ref.pop("elapsed_ms")
        assert env == env_ref


class TestContracts:
    def test_malformed_invocations_exit_2(self, capsys):
        cases = [
            ["eval", "--lambdas", "abc", "--S", "0"],
            ["eval", "--lambdas", "0.5,0.3"],  # neither --S nor --shifts
            ["eval", "--lambdas", "0.5,0.3", "--S", "-1"],
            ["eval", "--lambdas", "0.5,0.3", "--mult", "2", "--S", "0"],
            ["oracle", "finite", "--lambdas", "0.5,0.3", "--shifts", "0",
             "--n", "2"],
            ["nonsense"],
        ]
        for argv in cases:
            code = main(argv)
            capsys.readouterr()
            assert code == 2, argv

    def test_determinism(self, capsys):
        argv = [
            "conjecture", "--ell", "5", "--trials", "3", "--seed", "9",
            "--tol", "1e-8", "--json",
        ]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert json.dumps(first) == json.dumps(second)

    def test_round_trip_numbers(self, capsys):
        _, env, _ = run_json(
            capsys, "eval", "--lambdas", "0.5123456789,0.3", "--S", "2"
        )
        text = json.dumps(env)
        assert json.loads(text) == env

    def test_import_loads_no_scipy(self):
        # importing scipy.signal takes over a second, more than any command
        # spends on its own work; the package depends on numpy alone
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, serialsum.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=_src_env(), check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_eval_loads_no_numpy(self):
        # importing numpy costs more than the closed form itself; eval, on
        # the distinct and the confluent route, and the AR(1) roots and ACF
        # need none
        script = (
            "import sys\n"
            "import serialsum, serialsum.cli\n"
            "from serialsum.cli import main\n"
            "assert main(['eval', '--lambdas', '0.5', '--mult', '2', '--S', '1',"
            " '--json']) == 0\n"
            "assert main(['eval', '--lambdas', '0.5,0.3', '--S', '0']) == 0\n"
            "assert main(['ar', 'acf', '--alpha', '0.6', '--json']) == 0\n"
            "assert main(['ar', 'roots', '--alpha', '0.6', '--json']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=_src_env(), check=True,
        ).stdout
        assert out.strip().splitlines()[-1] == "[]"

    def test_commands_load_only_what_they_run(self):
        # every command is a fresh process: `import serialsum` and the
        # parser load no library module, and dataclasses with its inspect
        # once took a third of a cold start; each command loads its own
        script = (
            "import json, sys\n"
            "loaded = [set(sys.modules)]\n"
            "def step():\n"
            "    loaded.append(set(sys.modules))\n"
            "    return sorted(loaded[-1] - loaded[-2])\n"
            "import serialsum, serialsum.cli\n"
            "serialsum.cli.build_parser()\n"
            "start = step()\n"
            "listed = sorted(set(serialsum.__all__) - set(dir(serialsum)))\n"
            "assert serialsum.cli.main(['eval', '--lambdas', '0.5,0.3',"
            " '--S', '1']) == 0\n"
            "ev = step()\n"
            "for argv in (['--S', '1000000000'],"
            " ['--lambdas', '0.99999999999999,0.5', '--S', '0', '--tol', '1e-3']):\n"
            "    assert serialsum.cli.main(['oracle', 'series', '--lambdas',"
            " '0.5,0.3', *argv]) == 1\n"
            "refused = step()\n"
            "assert serialsum.cli.main(['ar', 'acf', '--alpha', '0.6']) == 0\n"
            "acf = step()\n"
            "for name in serialsum.__all__:\n"
            "    getattr(serialsum, name)\n"
            "star = {}\n"
            "exec('from serialsum import *', star)\n"
            "print(json.dumps([start, listed, ev, refused, acf, sorted(star)]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=_src_env(), check=True,
        ).stdout
        start, listed, ev, refused, acf, star = json.loads(
            out.strip().splitlines()[-1]
        )

        def ours(names):
            return [m for m in names if m.split(".")[0] == "serialsum"]

        assert ours(start) == ["serialsum", "serialsum.cli"]
        assert "dataclasses" not in start and "inspect" not in start
        assert listed == []  # dir(serialsum) covers __all__ before any load
        assert ours(ev) == ["serialsum.lambda_sums"]
        # a series oracle refused by its budget or at its largest node
        # count never reaches the sampling, and loads no numpy
        assert refused == []
        assert ours(acf) == ["serialsum.ar_model"]
        assert set(star) - {"__builtins__"} == set(serialsum.__all__)
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            serialsum.nonexistent

    def test_public_names(self):
        assert set(serialsum.__all__) == {
            "ARModel", "AcfModel", "BadLagError",
            "BudgetExceededError", "CharRoots",
            "ConjectureReport", "DegenerateJetError", "DegenerateSampleError",
            "FiniteSumSpec", "Jet", "LimitValue",
            "NotStationaryError", "RootMultiset",
            "SeriesSample", "ShiftSpec", "acf", "ar_model", "char_roots",
            "conjecture_probe",
            "empirical_acf",
            "f_distinct", "f_general", "finite_sum",
            "lambda_sums", "linear_coefficient", "numerics", "series_oracle",
            "simulate",
        }

    def test_ar_commands_load_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from serialsum.cli import main\n"
            "assert main(['ar', 'simulate', '--alpha', '0.5,-0.06', '--n', '100',"
            " '--out', sys.argv[1]]) == 0\n"
            "assert main(['ar', 'check', '--alpha', '0.6', '--n', '2000',"
            " '--seeds', '3']) in (0, 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=_src_env(), check=True,
        ).stdout
        assert out.strip().splitlines()[-1] == "[]"
