"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import itertools

import numpy as np
import pytest

from serialsum import (
    FiniteSumSpec,
    RootMultiset,
    conjecture_probe,
    f_distinct,
    f_general,
    finite_sum,
    linear_coefficient,
    series_oracle,
)
from serialsum.cli import main
from _gen import draw_multiset, draw_roots
from _references import f2_equal_reference, f3_triple_reference, finite_sum_direct


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_vs_series_oracle():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for case in range(500):
        ell = int(rng.integers(2, 5))
        roots = draw_multiset(rng, ell, 0.8)
        S = int(rng.integers(0, 7))
        closed = f_general(roots, S)
        oracle = series_oracle(roots.lambdas, S, 1e-11)
        disc = abs(closed.value - oracle.value)
        allowed = 1e-10 + oracle.err_estimate
        worst = max(worst, disc / allowed)
        assert disc <= allowed, (case, roots, S, disc)
    report(
        "criterion 1: f_general vs series oracle, 500 random cases",
        True,
        f"worst discrepancy ratio {worst:.3g}",
    )


def test_criterion_2_paper_confluent_formulas():
    worst = 0.0
    for lam in [s * v for s in (1, -1) for v in (0.1, 0.3, 0.5, 0.7, 0.9)]:
        for S in range(6):
            got2 = f_general(RootMultiset(((lam, 2),)), S).value
            ref2 = f2_equal_reference(lam, S)
            got3 = f_general(RootMultiset(((lam, 3),)), S).value
            ref3 = f3_triple_reference(lam, S)
            for got, ref in ((got2, ref2), (got3, ref3)):
                err = abs(got - ref) / (1 + abs(ref))
                worst = max(worst, err)
                assert err <= 1e-12, (lam, S, got, ref)
    report(
        "criterion 2: double/triple-root printed formulas to 1e-12",
        True,
        f"worst relative error {worst:.3g}",
    )


def test_criterion_3_finite_sum_reduction():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(1000):
        ell = int(rng.integers(2, 5))
        lams = tuple(rng.uniform(-0.9, 0.9, size=ell).tolist())
        shifts = tuple(int(s) for s in rng.integers(-2, 3, size=ell))
        n = int(rng.integers(1, 13))
        adjust = tuple(int(d) for d in rng.integers(-min(2, n - 1), 1, size=ell))
        spec = FiniteSumSpec(lams, shifts, n, adjust)
        a, b = finite_sum(spec), finite_sum_direct(spec)
        assert abs(a - b) <= 1e-12 * (1 + abs(b)), spec
        checked += 1
    report(
        "criterion 3: reduced finite sum equals direct enumeration",
        checked == 1000,
        f"{checked} sampled cases",
    )


def test_criterion_4_n_slope_extraction():
    rng = np.random.default_rng(47)
    n_base = 200
    for case in range(100):
        ell = int(rng.integers(2, 4))
        roots = draw_multiset(rng, ell, 0.8)
        lams = roots.lambdas
        shifts = [int(s) for s in rng.integers(-2, 3, size=ell)]
        S = abs(sum(shifts))
        lc = linear_coefficient(lams, shifts, n_base)
        limit = f_general(roots, S)
        disc = abs(lc.value - limit.value)
        assert disc <= lc.err_estimate + limit.err_estimate, (case, lams, shifts, disc)
        if max(abs(v) for v in lams) <= 0.7:
            assert disc <= 1e-8, (case, lams, shifts, disc)
    report("criterion 4: n-slope at n_base=200 reproduces the limit", True)


def test_criterion_5_shift_and_adjust_invariance():
    rng = np.random.default_rng(59)
    for case in range(100):
        ell = int(rng.integers(2, 4))
        lams = draw_roots(rng, ell, 0.75)
        base_shifts = [int(s) for s in rng.integers(-2, 3, size=ell)]
        total = sum(base_shifts)
        # same |sum|: a rearrangement and the global sign flip
        alt = list(base_shifts)
        rng.shuffle(alt)
        variants = [tuple(base_shifts), tuple(alt),
                    tuple(-s for s in base_shifts)]
        adjusts = [(0,) * ell,
                   tuple(int(d) for d in rng.integers(-3, 1, size=ell))]
        results = [
            linear_coefficient(lams, shifts, 200, adj)
            for shifts in variants
            for adj in adjusts
        ]
        for a, b in itertools.combinations(results, 2):
            assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate, (
                case, lams, base_shifts, total,
            )
    report("criterion 5: slope depends on shifts only through |sum|", True)


def test_criterion_6_conjecture_probe():
    r5 = conjecture_probe(5, 50, seed=20260823, tol=1e-8)
    r6 = conjecture_probe(6, 10, seed=20260823, tol=1e-8)
    ok = (
        r5.passed == 50 and r5.failed == 0 and r5.skipped == 0
        and r6.passed == 10 and r6.failed == 0 and r6.skipped == 0
    )
    report(
        "criterion 6: conjecture probe at ell=5 (50 trials) and ell=6 (10 trials)",
        ok,
        f"ell=5: {r5.passed}/{len(r5.trials)}, ell=6: {r6.passed}/{len(r6.trials)}",
    )


def test_criterion_7_ar_bridge(capsys):
    from serialsum import acf

    _, rho = acf((0.5, -0.06), 3)
    assert rho[1] == pytest.approx(0.5 / 1.06, abs=1e-12)
    codes = {}
    for label, alpha in [("AR(1)", "0.6"), ("AR(2)", "0.5,-0.06")]:
        codes[label] = main(
            ["ar", "check", "--alpha", alpha, "--n", "200000", "--seed", "1",
             "--jmax", "3", "--seeds", "20", "--json"]
        )
        capsys.readouterr()
    with capsys.disabled():
        report(
            "criterion 7: ar check within 4 SE over 20 seeds, n=2e5",
            all(c == 0 for c in codes.values()),
            f"exit codes {codes}",
        )


def test_criterion_8_confluent_continuity():
    worst_seq = None
    for lam in (0.2, 0.5, 0.8):
        for S in (0, 2):
            target = f_general(RootMultiset(((lam, 2),)), S).value
            errs = []
            for eps in (1e-3, 1e-4, 1e-5):
                got = f_distinct(
                    RootMultiset(((lam, 1), (lam + eps, 1))), S
                ).value
                errs.append(abs(got - target))
            assert errs[0] > errs[1] > errs[2], (lam, S, errs)
            worst_seq = errs
    report(
        "criterion 8: confluent continuity, discrepancy monotone in eps",
        True,
        f"last sequence {[f'{e:.2e}' for e in worst_seq]}",
    )
