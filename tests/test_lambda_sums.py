import ast
import cmath
import importlib.util
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialsum import (
    BudgetExceededError,
    FiniteSumSpec,
    RootMultiset,
    ShiftSpec,
    conjecture_probe,
    f_distinct,
    f_general,
    finite_sum,
    linear_coefficient,
    series_oracle,
)
from serialsum.lambda_sums import (
    DEFAULT_BUDGET,
    _conjugate_closed,
    _diagonals,
    _mass,
    _power_column,
    _powers,
    _shell_sum,
    _shell_work,
    _span,
    _trace_sum,
    confluent_divided_difference_cond,
    finite_sum_with_error,
)
from serialsum import lambda_sums
from serialsum.cli import main
from serialsum.numerics import Jet
from _gen import draw_multiset, draw_roots
from _references import (f2_equal_reference, f3_triple_reference,
                         finite_sum_direct, mp_closed_form)

# Values frozen from independent brute-force summations (plain nested-loop
# lattice sums and hand enumeration) computed before the evaluators existed.
F3_053002_S2 = 0.8676122931442086      # F({0.5,0.3,0.2}; S=2)
F3_04_04_07_S0 = 3.5352733686067164    # F({0.4 x2, 0.7}; S=0)
F2EQ_09_S4 = 8.874615789473687         # two equal roots 0.9, S=4
F3EQ_05_S2 = 2.6666666666666665        # triple root 0.5, S=2
F5_05_S0 = 23.716049382716044          # F({0.5 x5}; S=0)
T50_SLOPE_CASE = 66.8605988600234      # finite sum, (0.5,0.3,0.2), s=(1,-1,1), n=50
T100_SLOPE_CASE = 135.74531586738303   # same at n=100


def mp_trace(spec, dps=50):
    """The finite sum tr(A_1 ... A_l) at ``dps`` digits, in O(l*n**2)
    operations: each factor is applied to the columns of the running
    product by the two first-order recursions of x -> sum_b lam**|p - b| x[b]
    (forward over b <= p, backward over b > p, p = a + s_m)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        zero = mpmath.mpf(0)
        ns = [spec.n + d for d in spec.upper_adjust]
        cols = [[mpmath.mpf(int(i == j)) for i in range(ns[0])]
                for j in range(ns[0])]
        for m in reversed(range(len(ns))):
            v, s, rows = spec.lambdas[m], spec.shifts[m], ns[m]
            lam = mpmath.mpf(v.real) if v.imag == 0 else mpmath.mpc(v)
            lo, hi = min(0, s), max(len(cols[0]), rows + s)
            new = []
            for x in cols:
                ext = [zero] * (hi - lo)
                ext[-lo : -lo + len(x)] = x
                fwd, acc = [], zero
                for e in ext:
                    acc = lam * acc + e
                    fwd.append(acc)
                out, acc = [zero] * (hi - lo), zero
                for p in range(hi - lo - 1, -1, -1):
                    out[p] = fwd[p] + acc
                    acc = lam * (acc + ext[p])
                new.append(out[s - lo : s - lo + rows])
            cols = new
        return mpmath.fsum(cols[i][i] for i in range(ns[0]))


def plain_powers(lam, lo, count, floor):
    """lam**lo .. lam**(lo + count - 1) by one cumulative product over the
    whole count, floored: the reference for `_powers`, which stops early."""
    base = lam.real if lam.imag == 0 else lam
    p = np.full(count, base)
    p[0] = np.power(base, lo)
    p = np.cumprod(p)
    p[np.abs(p) < floor] = 0
    return p


def gathered_diagonals(spec):
    """Each factor's diagonals gathered from its powers through an array of
    the exponents |d + s|: the reference for the cuts of `_trace_sum`."""
    ell = len(spec.lambdas)
    ns = [spec.n + d for d in spec.upper_adjust]
    floor = sys.float_info.min ** (1 / ell)
    diags = []
    for m, (lam, s) in enumerate(zip(spec.lambdas, spec.shifts)):
        exps = np.abs(np.arange(1 - ns[(m + 1) % ell], ns[m]) + s)
        lo, hi = int(exps.min()), int(exps.max())
        diags.append(plain_powers(lam, lo, hi - lo + 1, floor)[exps - lo])
    return diags


def oracle_linear_ops(seed):
    """The `linear` ops of the benchmark's oracles workload at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [
        (inputs.dec(op["lambdas"]), op["shifts"], op["n_base"], op["adjust"])
        for op in inputs.oracle_ops(seed) if op["kind"] == "linear"
    ]


def near_circle_roots(rng, ell):
    """ell roots, distinct apart from zeros: real roots of both signs with
    |lambda| up to 0.99999, conjugate pairs with rho up to 0.9999, complex
    roots without their conjugate (|lambda| up to 0.99) and zero roots."""
    def modulus(digits):  # 1 - 10**-u, u uniform in [0.05, digits]
        return 1 - 10 ** -rng.uniform(0.05, digits)

    while True:
        lams = []
        while len(lams) < ell:
            kind = rng.random()
            if kind < 0.35 and len(lams) + 2 <= ell:
                z = cmath.rect(modulus(4), rng.uniform(0.05, math.pi - 0.05))
                lams += [z, z.conjugate()]
            elif kind < 0.45:
                lams.append(cmath.rect(modulus(2), rng.uniform(-math.pi, math.pi)))
            elif kind < 0.55:
                lams.append(0j)
            else:
                lams.append(complex(rng.choice((-1, 1)) * modulus(5)))
        nonzero = [v for v in lams if v != 0]
        if nonzero and all(
            abs(a - b) > 1e-3 for a, b in itertools.combinations(nonzero, 2)
        ):
            return lams


#: log(rho) / log(1/r) tried by the reference aliasing bound below: one
#: minus a geometric sequence from 0.95 down to 1e-3.
LOG_RHO_FRACTIONS = tuple(1 - 0.95 * (1e-3 / 0.95) ** (i / 23) for i in range(24))


def doubling_node_count(lams, S, tol, budget=DEFAULT_BUDGET):
    """A reference node count for the series oracle: from the first power
    of two above 2S, doubled (up to budget // l) until the aliasing bound,
    minimised over a grid of 24 radii, is below tol.  Returns (N, bound),
    or (None, the achievable bound) when the budget refuses."""
    r = max(abs(v) for v in lams)
    log_rho = -math.log(r) * np.array(LOG_RHO_FRACTIONS)
    log_g = sum(
        math.log1p(-a * a) - np.log(-np.expm1(math.log(a) + log_rho))
        - np.log(-np.expm1(math.log(a) - log_rho))
        for a in (abs(v) for v in lams if v != 0)
    )

    def alias(N):
        log_bound = (
            log_g - (N - S) * log_rho + np.log1p(np.exp(-2 * S * log_rho))
            - np.log1p(-np.exp(-N * log_rho))
        )
        return float(np.exp(log_bound.min()))

    cap = budget // len(lams)
    if cap <= S:
        return None, math.inf
    N = min(1 << (2 * S).bit_length(), cap)
    while (bound := alias(N)) >= tol:
        if N == cap:
            return None, bound
        N = min(2 * N, cap)
    return N, bound


def plain_node_count(lams, S, tol, budget):
    """The series oracle's node count by the plain doubling loop over its
    own aliasing bound, with no N passed over: from the first power of two
    above 2S, doubled (up to budget // l) until the bound is below tol.
    Returns (N, bound, rises): N is None where the budget refuses, with the
    achievable bound, and rises counts the doublings on which the bound
    rose."""
    alias, _ = lambda_sums._aliasing([abs(v) for v in lams if v], S)
    cap = budget // len(lams)
    N = min(1 << (2 * S).bit_length(), cap)
    rises, last = 0, math.inf
    while (bound := alias(N)) >= tol:
        rises += bound > last
        if N == cap:
            return None, bound, rises
        N, last = min(2 * N, cap), bound
    return N, bound, rises + (bound > last)


def sweep_roots(rng, ell):
    """ell roots inside the disk of a random radius up to 0.999: reals,
    conjugate pairs, complex roots without their conjugate and zeros."""
    rmax = float(rng.choice([0.05, 0.5, 0.8, 0.95, 0.99, 0.999]))
    lams = []
    while len(lams) < ell:
        kind, rad = rng.random(), rng.uniform(0, rmax)
        if kind < 0.35 and len(lams) + 2 <= ell:
            z = cmath.rect(rad, rng.uniform(0.01, math.pi - 0.01))
            lams += [z, z.conjugate()]
        elif kind < 0.5:
            lams.append(cmath.rect(rad, rng.uniform(-math.pi, math.pi)))
        elif kind < 0.6:
            lams.append(0j)
        else:
            lams.append(complex(rng.choice((-1, 1)) * rad))
    return [lams[i] for i in rng.permutation(ell)]


def ms(*lams):
    return RootMultiset.from_lambdas(lams)


class TestRootMultiset:
    def test_near_roots_are_kept_as_given(self):
        r = RootMultiset.from_lambdas([0.5, 0.5 + 1e-9, 0.3])
        assert r.lambdas == (0.5, 0.5 + 1e-9, 0.3)
        assert r.ell == 3 and r.is_distinct()

    def test_rejects_roots_on_or_outside_disk(self):
        with pytest.raises(ValueError):
            ms(1.0, 0.3)
        with pytest.raises(ValueError):
            ms(0.8 + 0.7j, 0.3)

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            ms(0.5)
        with pytest.raises(ValueError):
            ms(*[0.1 * k for k in range(1, 8)])

    def test_accepts_near_duplicates_as_given(self):
        assert RootMultiset(((0.5, 1), (0.5 + 1e-9, 1))).lambdas == (0.5, 0.5 + 1e-9)

    @pytest.mark.parametrize("lams", [
        # each is within the threshold of 0.30000125 but not of the other
        [0.3, 0.30000125, 0.30000132],
        # a conjugate pair whose mean 0.5 is within the threshold of
        # 0.500001425 though neither member is
        [0.5 + 0.675e-6j, 0.5 - 0.675e-6j, 0.500001425],
    ])
    def test_near_coincident_roots_in_any_order(self, lams):
        ref = closed_form_reference([(v, 1) for v in lams], 0)
        for order in itertools.permutations(lams):
            r = ms(*order)
            assert r.lambdas == tuple(order)
            got = f_general(r, 0)
            assert abs(complex(got.value) - ref) <= got.err_estimate, order

    def test_equal_roots_keep_the_order_of_their_first_copies(self):
        r = ms(0.1, 0.5, 0.1, 0.5 + 1e-9, -0.2)
        assert r.entries == ((0.1, 2), (0.5, 1), (0.5 + 1e-9, 1), (-0.2, 1))

    def test_root_count_is_checked_before_clustering(self):
        # 20,000 roots 5e-5 apart: comparing every pair would take minutes
        started = time.perf_counter()
        with pytest.raises(ValueError, match="root count"):
            ms(*[k / 20_000 - 0.5 for k in range(20_000)])
        assert time.perf_counter() - started < 0.5

    def test_conjugate_closed(self):
        assert ms(0.3 + 0.2j, 0.3 - 0.2j).is_conjugate_closed()
        assert not ms(0.3 + 0.2j, 0.1).is_conjugate_closed()
        assert ms(0.5, 0.3).is_conjugate_closed()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_conjugate_chain_closer_than_tol(self, reverse, capsys):
        # z, z + d, z + 2d and their exact conjugates, d below the tolerance:
        # a greedy match can pair z + d with the conjugate of z and leave
        # z + 2d without a partner, in either order
        z = 0.3 + 0.4j
        d = 0.9e-12 * (1 + abs(z))
        lams = [z, z + d, z + 2 * d]
        lams += [v.conjugate() for v in lams]
        if reverse:
            lams.reverse()
        assert _conjugate_closed(lams)
        assert ms(*lams).is_conjugate_closed()
        assert f_general(ms(*lams), 2).is_real_certified
        assert series_oracle(lams, 2, 1e-10).is_real_certified
        assert linear_coefficient(lams, [2, 0, 0, 0, 0, 0], 60).is_real_certified
        arg = ",".join(f"{v.real!r}{v.imag:+}i" for v in lams)
        assert main(["eval", "--lambdas", arg, "--S", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["is_real_certified"]

    def test_conjugate_closure_of_the_roots_as_given(self):
        # The oracles and the multiset check the roots as given, with no
        # merge: near-real roots and near-coincident copies must give the
        # same answer.
        rng = np.random.default_rng(41)

        def tiny():
            return cmath.rect(10 ** rng.uniform(-16, -13), rng.uniform(0, 2 * math.pi))

        def offset():
            if rng.random() < 0.5:
                return tiny()
            return rng.choice([-1, 1]) * 10 ** rng.uniform(-10, -7)

        closed = 0
        for _ in range(3000):
            ell = int(rng.integers(2, 7))
            lams = []
            while len(lams) < ell:
                kind = int(rng.integers(0, 7))
                z = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0.1, math.pi - 0.1))
                if kind == 0:
                    lams.append(complex(rng.uniform(-0.95, 0.95)))
                elif kind == 1:  # near-real
                    lams.append(rng.uniform(-0.9, 0.9) + tiny())
                elif kind == 2 and len(lams) + 2 <= ell:
                    lams += [z, z.conjugate() + (offset() if rng.random() < 0.5 else 0)]
                elif kind == 3:  # unpaired
                    lams.append(z)
                elif kind == 4 and lams:  # repeated
                    lams.append(lams[rng.integers(len(lams))])
                elif kind == 5 and lams:  # near-coincident
                    lams.append(lams[rng.integers(len(lams))] + offset())
                elif kind == 6 and lams:
                    lams.append(lams[rng.integers(len(lams))].conjugate())
            rng.shuffle(lams)
            want = RootMultiset.from_lambdas(lams).is_conjugate_closed()
            assert _conjugate_closed(lams) == want, lams
            closed += want
        assert 500 < closed < 2500
        # two roots 1e-9 apart in real part, once merged into one real
        # double root, are not each other's conjugate as given
        lams = [0.5 + 1e-8j, 0.5 + 1e-9 - 1e-8j]
        assert not ms(*lams).is_conjugate_closed()
        assert not _conjugate_closed(lams)

    @pytest.mark.parametrize("lams", [
        [0.5], [0.1 * k for k in range(1, 8)], [1.0, 0.3], [0.8 + 0.7j, 0.3],
        [math.nan, 0.3], [complex(0.2, math.inf), 0.3],
    ])
    def test_oracles_reject_what_the_multiset_rejects(self, lams):
        with pytest.raises(ValueError) as want:
            ms(*lams)
        # the multiset names a non-finite root by its cluster's mean, which
        # turns (nan+0j) into (nan+nanj); the oracles name it as given
        def words(exc):
            return re.sub(r"\(.*?\)", "(root)", str(exc.value))

        for call in (
            lambda: series_oracle(lams, 0, 1e-8),
            lambda: linear_coefficient(lams, [0] * len(lams), 200),
        ):
            with pytest.raises(ValueError) as got:
                call()
            assert words(got) == words(want)


class TestShiftSpec:
    @pytest.mark.parametrize(
        "shifts,S", [((0, 0), 0), ((2, -1), 1), ((-1, 2), 1), ((-2, -1), 3)]
    )
    def test_aggregate(self, shifts, S):
        assert ShiftSpec(shifts).S == S


class TestFDistinct:
    def test_pair_s0(self):
        got = f_distinct(ms(0.5, 0.3), 0)
        assert got.value == pytest.approx((1 + 0.15) / (1 - 0.15), rel=1e-13)
        assert got.is_real_certified

    def test_pair_s1(self):
        assert f_distinct(ms(0.5, 0.3), 1).value == pytest.approx(16 / 17, rel=1e-13)

    @pytest.mark.parametrize("S", [2**64, 9106233685234741248, 10**20, 10**21,
                                   10**22, 10**63, 2**1024, 10**400])
    def test_huge_S_gives_zero_with_a_zero_bound(self, S):
        # lambda**S underflows to 0, with no OverflowError, non-finite value
        # or infinite bound on the way, which the three sets after the
        # sixfold root risk near S = 2**64, and moduli near 1 past it
        a, b = -0.30903989784319735, 0.1573422964467565
        c, d = -0.06666162408899125, 0.409610167941223
        quad = [0.029119746356463853 - 0.08375050692791008j,
                0.30529399083607345 - 0.12781156161439017j]
        quad += [v.conjugate() for v in quad]
        cases = [(f_distinct, ms(0.5, -0.3 + 0.2j, -0.3 - 0.2j)),
                 (f_general, ms(0.5, -0.3 + 0.2j, -0.3 - 0.2j)),
                 (f_general, RootMultiset(((0.9, 6),))),
                 (f_general, ms(*quad)),
                 (f_general, ms(complex(a, b), complex(a, -b), 0)),
                 (f_general, ms(complex(c, d), complex(c, -d)))]
        for r in (1 - 1e-7, 1 - 1e-8, 1 - 3e-8):
            z = cmath.rect(r, 1.1)
            cases += [(f_general, ms(r, 0.5)),
                      (f_general, ms(z, z.conjugate(), 0.5)),
                      (f_general, RootMultiset(((z, 2), (z.conjugate(), 2))))]
        for evaluate, roots in cases:
            got = evaluate(roots, S)
            assert got.value == 0 and got.err_estimate == 0

    def test_power_drift_below_the_zero_rule_stays_finite(self):
        # within a few units in the last place of 1, the squarings that take
        # x**(S+l-1) drift from r**(S+l-1) by up to about S * 2**-53 bits,
        # there about as many as r**S is below 1: a shift sized from r**S
        # overflows
        for k in (1, 2, 5, 20):
            r = 1 - k * 2.0**-53
            for angle in (0.0, 0.1, 1.1, 2.9):
                z = cmath.rect(r, angle)
                for roots in (ms(z, z.conjugate()), ms(z, z, 0.5),
                              ms(z, z * (1 - 1e-9), z.conjugate(), -0.3)):
                    for bits in (700, 3000, 8000):
                        got = f_general(roots, int(bits / -math.log2(r)))
                        assert all(map(math.isfinite, (
                            got.value.real, got.value.imag, got.err_estimate)))

    @pytest.mark.parametrize("S", [0, 1, 3])
    def test_absorbing_zero(self, S):
        got = f_distinct(ms(0.5, 0.0), S)
        assert got.value == pytest.approx(0.5**S, rel=1e-13)

    def test_triple_s2_frozen(self):
        got = f_distinct(ms(0.5, 0.3, 0.2), 2)
        assert got.value == pytest.approx(F3_053002_S2, rel=1e-12)

    @pytest.mark.parametrize("roots", [ms(0.5, 0.5), ms(0.5, 0.5, 0.3),
                                       RootMultiset(((-0.9, 3), (0.2, 1)))])
    def test_repeated_roots_are_f_general(self, roots):
        for S in (0, 1, 7):
            assert repr(f_distinct(roots, S)) == repr(f_general(roots, S))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ell = int(rng.integers(2, 5))
            roots = draw_roots(rng, ell, 0.8)
            S = int(rng.integers(0, 7))
            ref = f_distinct(RootMultiset.from_lambdas(roots), S).value
            rng.shuffle(roots)
            got = f_distinct(RootMultiset.from_lambdas(roots), S).value
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


class TestFGeneral:
    def test_double_root_half_s1(self):
        # printed two-equal-roots value at lambda=0.5, S=1 is 4/3
        got = f_general(ms(0.5, 0.5), 1)
        assert got.value == pytest.approx(4 / 3, rel=1e-13)

    @pytest.mark.parametrize("lam", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("S", range(6))
    def test_matches_f2_reference(self, lam, S):
        got = f_general(RootMultiset(((lam, 2),)), S)
        assert got.value == pytest.approx(f2_equal_reference(lam, S), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("S", range(6))
    def test_matches_f3_reference(self, lam, S):
        got = f_general(RootMultiset(((lam, 3),)), S)
        assert got.value == pytest.approx(f3_triple_reference(lam, S), rel=1e-12, abs=1e-12)

    def test_triple_zero_root(self):
        assert f_general(RootMultiset(((0.0, 3),)), 0).value == pytest.approx(1.0)
        for S in (1, 2, 5):
            assert abs(f_general(RootMultiset(((0.0, 3),)), S).value) < 1e-15

    def test_mixed_multiplicity_frozen(self):
        got = f_general(RootMultiset(((0.4, 2), (0.7, 1))), 0)
        assert got.value == pytest.approx(F3_04_04_07_S0, rel=1e-11)

    def test_mixed_multiplicity_is_distinct_limit(self):
        target = f_general(RootMultiset(((0.4, 2), (0.7, 1))), 0).value
        prev = None
        for eps in (1e-3, 1e-4, 1e-5):
            got = f_distinct(ms(0.4, 0.4 + eps, 0.7), 0).value
            err = abs(got - target)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-4

    def test_distinct_inputs_match_f_distinct(self):
        # the G-based confluent path must reproduce the direct formula
        rng = np.random.default_rng(23)
        for _ in range(40):
            ell = int(rng.integers(2, 5))
            roots = draw_multiset(rng, ell, 0.8)
            S = int(rng.integers(0, 7))
            a = f_distinct(roots, S).value
            b = f_general(roots, S).value
            assert abs(a - b) <= 1e-11 * (1 + abs(a))

    def test_permutation_invariance_confluent(self):
        entries = [(0.4, 2), (-0.3, 1), (0.6, 1)]
        S = 2
        ref = f_general(RootMultiset(tuple(entries)), S).value
        for perm in itertools.permutations(entries):
            got = f_general(RootMultiset(perm), S).value
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref))

    @pytest.mark.parametrize("lam", [-0.95, -0.8, 0.6])
    def test_real_double_root_at_large_S(self, lam):
        # power S + 1 = 301 is above the 100 up to which complex ** int
        # squares; a real root must still give a real, accurate value
        S = 300
        x = Fraction(lam)
        exact = float(x**S * (1 + S + (1 - S) * x * x) / (1 - x * x))
        got = f_general(RootMultiset(((lam, 2),)), S).value
        assert got.imag == 0
        assert abs(got.real - exact) <= 1e-13 * abs(exact)

    def test_realness_certified_for_conjugate_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            roots = draw_multiset(rng, 4, 0.8)
            S = int(rng.integers(0, 5))
            got = f_general(roots, S)
            assert abs(got.value.imag) <= 1e-10 * (1 + abs(got.value))
            assert got.is_real_certified

    @pytest.mark.parametrize("lams, S, want", [
        ([0.5, 0.3 + 0.2j, 0.3 - 0.2j], 3,  # lone roots, a conjugate pair
         (0.5653860185947982+0j, 6.696648635887431e-15)),
        ([0.5, 0.5], 1,  # equal nodes: Taylor coefficients
         (1.3333333333333333+0j, 1.1546319456101628e-14)),
        ([0.3, 0.30000125, 0.30000132], 0,  # a spread cluster: steps of J
         (1.6520996184398904+0j, 2.9355293841435155e-14)),
        ([0.9, 0.9000001], 5000,  # squares of J, with a shift
         (8.174562193619761e-226+0j, 1.8560722465309256e-237)),
        ([0.9] * 3, 4000,  # equal nodes, with a shift
         (7.520157600581372e-177+0j, 2.129781675709013e-188)),
        ([0.999, -0.999, 0.998, -0.998, 0.5, -0.5], 301,  # F = 0 exactly
         (5.421010862427522e-20+0j, 1.8569777763644634e-14)),
        ([0.0, 0.5, -0.4], 4,  # a zero root
         (0.03141666666666667+0j, 3.5228301757210073e-16)),
        ([0.7, -0.2], 2 ** 70,  # S above its cap
         (0j, 0.0)),
    ])
    def test_outputs_are_pinned(self, lams, S, want):
        # reference outputs of the residue pass, one input in each of
        # `_power_column`'s regimes; the value to a few eps, the bound to 1e-12
        got = f_general(ms(*lams), S)
        assert got.value == pytest.approx(want[0], rel=1e-14, abs=0)
        assert got.err_estimate == pytest.approx(want[1], rel=1e-12, abs=0)

    def test_numpy_integer_S_gives_python_numbers(self):
        # S goes through operator.index, so the exponent is an int and the
        # record holds a complex, a float and a bool, as for an int S
        roots = ms(0.5, -0.3, 0.2)
        got = f_general(roots, np.int64(2))
        assert repr(got) == repr(f_general(roots, 2))
        assert [type(v) for v in got[:3]] == [complex, float, bool]

    def test_float_S_is_refused_by_name(self):
        with pytest.raises(TypeError, match="^S must be an integer, got 2.0$"):
            f_general(ms(0.5, 0.3), 2.0)


Z = 0.35976219755658084 + 0.9297684371025245j
W = -0.07408632390563503 + 0.2387039428291079j


def closed_form_reference(entries, S):
    """F at high precision: the distinct-root closed form with the copies
    of a repeated root spread 1e-60 apart, at 60 digits per root and 60
    more, so that the cancellation among them leaves over 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    dps = 60 * sum(m for _, m in entries) + 60
    with mpmath.workdps(dps):
        nodes = [mpmath.mpc(v) + c * mpmath.mpf("1e-60")
                 for v, m in entries for c in range(m)]
    return mp_closed_form(nodes, S, dps)


class TestErrEstimate:
    """|value - reference| <= err_estimate, including the rounding of the
    power x**(S+l-1), which grows with S."""

    @staticmethod
    def assert_bounded(entries, S, *results):
        # one reference for all the evaluators' results
        ref = closed_form_reference(entries, S)
        for got in results:
            err = float(abs(complex(got.value) - ref))
            assert err <= got.err_estimate, (entries, S, err, got.err_estimate)

    @pytest.mark.parametrize("lams, S", [
        ([-0.8, 0.3], 50), ([-0.8, 0.3], 300), ([-0.9, 0.5, -0.2], 300),
        # repeats near the circle, whose column of powers underflowed to 0
        # unless scaled after each product
        ([1 - 2**-40] * 4 + [0.5], 495380200110551),
        ([1 - 2**-40] * 3 + [0.5], 685911046306917),
        ([1 - 2**-45] * 3 + [0.5], 15852166403544634),
        # S*eps = 54 near the circle, where the squarings' error compounds
        # past (S + l)*eps: the value misses F by more than F itself
        ([-0.5718849376544973 + 0.820333845506758j] * 2
         + [-0.5718849353068072 + 0.8203338421391406j], 241049493551667200),
    ])
    def test_large_S(self, lams, S):
        roots = ms(*lams)
        results = [f(roots, S) for f in (f_distinct, f_general)]
        if not any(complex(v).imag for v in lams):  # real roots, real values
            assert all(got.value.imag == 0 for got in results)
        self.assert_bounded(roots.entries, S, *results)

    def test_random_distinct_sets(self):
        # real roots and conjugate pairs, up to radius 0.99
        rng = np.random.default_rng(1)
        for _ in range(150):
            roots = draw_multiset(rng, int(rng.integers(2, 7)),
                                  float(rng.choice([0.5, 0.8, 0.95, 0.99])))
            S = int(rng.choice([0, 5, 50, 150, 400]))
            self.assert_bounded(roots.entries, S, f_distinct(roots, S),
                                f_general(roots, S))

    def test_random_repeated_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ell = int(rng.integers(2, 7))
            base = draw_roots(rng, int(rng.integers(1, ell)),
                              float(rng.choice([0.5, 0.8, 0.95, 0.99])))
            lams = base + [base[int(rng.integers(0, len(base)))]
                           for _ in range(ell - len(base))]
            roots = RootMultiset.from_lambdas(lams)
            S = int(rng.choice([0, 5, 50, 150, 400]))
            self.assert_bounded(roots.entries, S, f_general(roots, S))

    @pytest.mark.parametrize("m", [3, 5, 6])
    def test_exact_repeats_near_circle(self, m):
        # the error grows with the multiplicity, at S = 0 too
        roots = RootMultiset(((0.95, m),))
        self.assert_bounded(roots.entries, 0, f_general(roots, 0))

    @pytest.mark.parametrize("entries, S", [
        (((-0.9921463370434976, 3),), 3),
        (((Z, 2), (Z.conjugate(), 1), (-0.36518144784231454, 1),
          (W, 1), (W.conjugate(), 1)), 0),
    ])
    def test_repeated_roots_near_the_circle(self, entries, S):
        # 1 - x*l_j and 1 - l_j**2 err by eps*(1 + 2|x*l_j|) / |1 - x*l_j|
        # relative, raised to powers up to the multiplicity
        roots = RootMultiset(entries)
        self.assert_bounded(roots.entries, S, f_general(roots, S))

    @pytest.mark.parametrize("lams, S", [
        ((-0.7214951429234114 + 0.6922483076081796j,
          -0.7214951429234114 - 0.6922483076081796j,
          -0.7908180311779377 + 0.4781531477111359j,
          -0.7908180311779377 - 0.4781531477111359j), 1),
        ((0.14427070453273028, -0.9773951685258249 + 0.20434221471468766j,
          -0.9773951685258249 - 0.20434221471468766j, 0.052418458218955744,
          0.00682647636385747), 0),
    ])
    def test_distinct_roots_near_the_circle(self, lams, S):
        # 1 - l_i*l_j errs by eps*(1 + 2|l_i*l_j|) / |1 - l_i*l_j| relative,
        # which a bound from the term moduli alone under-claims
        roots = ms(*lams)
        self.assert_bounded(roots.entries, S, f_distinct(roots, S),
                            f_general(roots, S))

    @pytest.mark.parametrize("lams, S", [
        ([0.9, 0.9 + 1.8e-6, 0.9 - 1.8e-6, 0.1], 0),
        ([0.5, 0.5 + 1.4e-6], 0),
        ([0.5, 0.5 + 1.4e-6], 7),
        ([0.3, 0.30000125, 0.30000132], 0),
        ([0.95 + k * 1e-6 for k in range(6)], 0),
        ([0.95 + k * 1e-6 for k in range(6)], 3),
    ])
    def test_near_coincident_roots(self, lams, S):
        # roots closer than the clustering threshold, evaluated as given:
        # no root is replaced by its cluster's mean
        roots = ms(*lams)
        self.assert_bounded(roots.entries, S, f_distinct(roots, S),
                            f_general(roots, S))

    def test_random_clustered_sets(self):
        # near copies 1e-12 to 1e-5 apart (relative), chains of them, exact
        # repeats and conjugate pairs, some at powers that underflow
        rng = np.random.default_rng(24)
        for _ in range(200):
            ell = int(rng.integers(2, 7))
            rmax = float(rng.choice([0.3, 0.8, 0.99, 0.999]))
            lams = draw_roots(rng, int(rng.integers(1, ell)), rmax)
            while len(lams) < ell:
                v = lams[int(rng.integers(len(lams)))]
                step = 10 ** rng.uniform(-12, -5) * cmath.exp(
                    1j * rng.choice([0, math.pi, rng.uniform(0, 2 * math.pi)]))
                kind = rng.integers(3)
                if kind == 0:  # an exact repeat
                    lams.append(v)
                elif kind == 1 and v.imag and len(lams) + 2 <= ell:
                    lams += [v + step, (v + step).conjugate()]
                else:  # a chain from v
                    lams += [v + k * step for k in range(1, ell - len(lams) + 1)]
            roots = ms(*lams)
            S = int(rng.choice([0, 1, 3, 50, 400]))
            evaluators = (f_distinct, f_general) if roots.is_distinct() else (f_general,)
            self.assert_bounded(roots.entries, S, *(f(roots, S) for f in evaluators))

    @pytest.mark.parametrize("entries, S, want", [
        (((1e-301, 6),), 0, 1.0),  # G's 5th coefficient is x**0
        (((1e-100, 1), (2e-100, 1)), 3, 1.5e-299),  # x**4 underflows
    ])
    def test_tiny_roots(self, entries, S, want):
        got = f_general(RootMultiset(entries), S)
        assert abs(got.value - want) <= got.err_estimate

    def test_subnormal_value_has_a_nonzero_bound(self):
        roots = RootMultiset(((-0.16058983667950044, 3),))
        got = f_general(roots, 400)
        assert 0 < abs(got.value) < sys.float_info.min
        assert got.err_estimate > 0
        self.assert_bounded(roots.entries, 400, got)

    @pytest.mark.parametrize("entries", [
        ((-0.95, 1), (0.7, 1), (0.2, 1)),
        ((0.9, 2), (-0.5, 1)),
        ((-0.8, 3), (0.6, 2)),
    ])
    def test_real_roots_at_large_S(self, entries):
        roots = RootMultiset(entries)
        evaluators = (f_distinct, f_general) if roots.is_distinct() else (f_general,)
        results = [f(roots, 300) for f in evaluators]
        assert all(got.value.imag == 0 for got in results)
        self.assert_bounded(roots.entries, 300, *results)

    @pytest.mark.parametrize("lams, S", [
        ([0.999, -0.999, 0.998, -0.998, 0.5, -0.5], 301),
        ([0.999, -0.999, 0.998, -0.998, 0.5, -0.5], 3001),
        ([0.99, -0.99, 0.98, -0.98], 999),
    ])
    def test_negation_closed_roots_at_odd_S(self, lams, S):
        # the symbol is even under z -> -z, so F is exactly 0 at odd S: one
        # residue per cluster keeps the gaps 0.001 and 0.002 out of the
        # cancellation that one cluster for all roots under-claims by 1e10+
        got = f_general(ms(*lams), S)
        assert abs(got.value) <= got.err_estimate, (lams, S, got)
        if len(lams) == 4:
            got = series_oracle(lams, S, 1e-12)
            assert abs(got.value) <= got.err_estimate, (lams, S, got)


def g_jet_reference(x0, order, lams, power):
    """The jet of G(x) = x**power * prod_j (1-l_j^2)/(1-x*l_j) at x0 by Jet
    arithmetic; the reference for G's Taylor coefficients, each a lone
    cluster's residue in `confluent_divided_difference_cond`."""
    x = Jet.identity(x0, order)
    g = x**power
    for lam in lams:
        num = Jet.constant(1 - lam * lam, x0, order)
        den = Jet.constant(1.0, x0, order) - x * Jet.constant(lam, x0, order)
        g = g * (num / den)
    return g


class TestGJet:
    @pytest.mark.parametrize("x0", [0.5, -0.9, 0.3 + 0.6j, -0.2 - 0.7j, 0.0])
    @pytest.mark.parametrize("order", range(6))
    def test_matches_jet_arithmetic(self, x0, order):
        lams = [x0] * (order + 1) + [0.7, -0.4 + 0.3j, -0.4 + 0.3j, 0.0]
        for power in range(11):
            ref = g_jet_reference(x0, order, lams, power).coeffs
            for k, b in enumerate(ref):
                xs = (x0,) * (k + 1)  # G's k-th coefficient, no outside node
                (a,), _ = confluent_divided_difference_cond(
                    [xs], [_power_column(xs, power)], lams)
                assert abs(a - b) <= 1e-13 * abs(b), (power, k, a, b)

    def test_f_general_does_no_jet_arithmetic(self):
        # f_general takes its Taylor coefficients in closed form, so
        # lambda_sums neither imports numerics nor names Jet in any scope
        tree = ast.parse(Path(lambda_sums.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [
                    name for alias in node.names for name in (alias.name, alias.asname)
                    if name]
                assert not any("numerics" in name.split(".") for name in names)
                assert "Jet" not in names
            assert getattr(node, "id", None) != "Jet", ast.dump(node)
            assert getattr(node, "attr", None) != "Jet", ast.dump(node)
        assert "Jet" not in vars(lambda_sums)
        assert all(v is not Jet for v in vars(lambda_sums).values())


class TestReferences:
    def test_f2_trivials(self):
        assert f2_equal_reference(0.5, 1) == pytest.approx(4 / 3)
        assert f2_equal_reference(0.0, 0) == pytest.approx(1.0)

    def test_f2_frozen(self):
        assert f2_equal_reference(0.9, 4) == pytest.approx(F2EQ_09_S4, rel=1e-13)

    def test_f3_trivials(self):
        assert f3_triple_reference(0.0, 0) == pytest.approx(1.0)
        for S in (1, 2, 4):
            assert f3_triple_reference(0.0, S) == 0

    def test_f3_frozen(self):
        assert f3_triple_reference(0.5, 2) == pytest.approx(F3EQ_05_S2, rel=1e-13)


class TestSeriesOracle:
    def test_pair_s1(self):
        got = series_oracle([0.5, 0.3], 1, 1e-12)
        assert abs(got.value - 16 / 17) <= 1e-12 + got.err_estimate
        assert got.err_estimate < 1e-12

    def test_zero_root_pins_index(self):
        got = series_oracle([0.5, 0.0], 3, 1e-10)
        assert got.value == pytest.approx(0.5**3, rel=1e-13)

    def test_all_zero(self):
        assert series_oracle([0.0, 0.0], 0, 1e-10).value == pytest.approx(1.0)
        assert series_oracle([0.0, 0.0], 2, 1e-10).value == 0

    def test_ell5_conjecture_probe_value(self):
        got = series_oracle([0.5] * 5, 0, 1e-8)
        assert abs(got.value - F5_05_S0) <= 1e-8 + got.err_estimate
        closed = f_general(RootMultiset(((0.5, 5),)), 0)
        assert abs(got.value - closed.value) <= got.err_estimate + 1e-10

    def test_tail_bound_dominates(self):
        # doubling J never moves the value by more than the reported bound
        rng = np.random.default_rng(3)
        for _ in range(15):
            ell = int(rng.integers(2, 5))
            lams = draw_roots(rng, ell, 0.8)
            S = int(rng.integers(0, 5))
            a = series_oracle(lams, S, 1e-6)
            b = series_oracle(lams, S, 1e-13)
            assert abs(a.value - b.value) <= a.err_estimate

    def test_budget_exceeded_carries_achievable_bound(self):
        with pytest.raises(BudgetExceededError) as exc:
            series_oracle([0.9, 0.9, 0.9, 0.9], 0, 1e-12, budget=500)
        assert exc.value.achievable_bound > 1e-12

    def test_complex_conjugate_pair_is_real(self):
        got = series_oracle([0.3 + 0.2j, 0.3 - 0.2j, 0.4], 2, 1e-10)
        assert abs(got.value.imag) <= 1e-12
        assert got.is_real_certified

    def test_err_estimate_bounds_mpmath_closed_form(self):
        # random real roots and conjugate pairs, some with a zero root, l = 6
        # on the circle r = 0.95 and l = 4 within 0.003 of the unit circle;
        # the reference is the distinct-root closed form at 50 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(60):
            ell = int(rng.integers(2, 7))
            lams = draw_roots(rng, ell, float(rng.choice([0.5, 0.8, 0.95])))
            if lams[-1].imag == 0 and rng.random() < 0.3:
                lams[-1] = 0j
            cases.append((lams, int(rng.integers(0, 7))))
        ring = [0.95, -0.95] + [
            0.95 * np.exp(s * 1j * a) for a in (1.0, 2.0) for s in (1, -1)
        ]
        cases += [(ring, S) for S in range(7)]
        near = [0.999, -0.998] + [0.997 * np.exp(s * 1j) for s in (1, -1)]
        cases += [(near, S) for S in range(3)]
        for k, (lams, S) in enumerate(cases):
            tol = (1e-6, 1e-10, 1e-13)[k % 3]
            got = series_oracle(lams, S, tol)
            ref = mp_closed_form(lams, S, 50)
            with mpmath.workdps(50):
                err = float(abs(mpmath.mpc(got.value) - ref))
            assert err <= got.err_estimate, (lams, S, tol, err, got.err_estimate)

    def test_err_estimate_bounds_mpmath_near_circle(self):
        # real roots of both signs up to 0.99999, conjugate pairs up to
        # rho = 0.9999, complex roots without their conjugate, zero roots,
        # S up to 20; the reference is the closed form at 50 digits
        rng = np.random.default_rng(17)
        cases = [
            ([0.9999 * cmath.exp(1.3j), 0.9999 * cmath.exp(-1.3j), -0.99999], 4),
            ([0.6 + 0.7j, 0.3 - 0.5j, 0j, 0j], 3),
            ([-0.99999, 0.99, 0j], 20),
        ]
        for _ in range(25):
            ell, S = int(rng.integers(2, 7)), int(rng.integers(0, 21))
            cases.append((near_circle_roots(rng, ell), S))
        for k, (lams, S) in enumerate(cases):
            tol = (1e-6, 1e-10, 1e-13)[k % 3]
            got = series_oracle(lams, S, tol)
            err = float(abs(complex(got.value) - mp_closed_form(lams, S, 50)))
            assert err <= got.err_estimate, (lams, S, tol, err, got.err_estimate)

    @pytest.mark.parametrize("lam", [0.99999, -0.99999])
    def test_double_root_near_circle_is_accurate(self, lam):
        mpmath = pytest.importorskip("mpmath")
        got = series_oracle([lam, lam], 0, 1e-10)
        with mpmath.workdps(50):
            a = mpmath.mpf(lam)
            exact = (1 + a * a) / (1 - a * a)  # two equal roots, S = 0
            err = float(abs(mpmath.mpc(got.value) - exact))
        assert err <= got.err_estimate <= 1e-7

    def test_node_count_within_one_doubling_of_grid(self):
        # N doubles on the bound at one radius per N; against the bound
        # minimised over a grid of radii it refuses on the same inputs and
        # takes at most one doubling more
        rng = np.random.default_rng(23)
        for _ in range(300):
            ell = int(rng.integers(2, 7))
            lams = draw_roots(rng, ell, float(rng.choice([0.3, 0.8, 0.99, 0.9999])))
            if rng.random() < 0.2:
                lams[-1] = 0j
            S = int(rng.integers(0, 40))
            tol = float(10 ** -rng.uniform(1, 15))
            budget = int(10 ** rng.uniform(1, 6.5))
            want, bound = doubling_node_count(lams, S, tol, budget)
            case = (lams, S, tol, budget)
            if want is None:
                with pytest.raises(BudgetExceededError) as exc:
                    series_oracle(lams, S, tol, budget=budget)
                got = exc.value.achievable_bound
                if math.isinf(bound):  # no node count above S is affordable
                    assert math.isinf(got), case
                else:
                    assert tol <= got < math.inf, case
            else:
                got = series_oracle(lams, S, tol, budget=budget)
                assert got.truncation <= min(2 * want, budget // ell), case

    @pytest.mark.parametrize("lams, S, tol, budget", [
        # N = 64 on the grid, 128 here: conjecture_probe trials at l = 6
        ([-0.5630087572857818 + 0.07291529408351632j,
          -0.5630087572857818 - 0.07291529408351632j,
          0.08298931396627253 + 0.1080635548821649j,
          0.08298931396627253 - 0.1080635548821649j,
          -0.36076776647870923 + 0.43220094463512554j,
          -0.36076776647870923 - 0.43220094463512554j], 4, 1e-8, DEFAULT_BUDGET),
        ([0.5059253110782171 + 0.12251089725058144j,
          0.5059253110782171 - 0.12251089725058144j,
          -0.560413040301766 + 0.0809499703221354j,
          -0.560413040301766 - 0.0809499703221354j,
          0.13159544344348292 + 0.3635079910799414j,
          0.13159544344348292 - 0.3635079910799414j], 4, 1e-8, DEFAULT_BUDGET),
        # random draws as above: N = 32 -> 42 (the cap), 16 -> 32,
        # 16 -> 30 (the cap), 16 -> 32, 128 -> 256
        ([0.6297602299231018, 0.06833816093987743, -0.6202904108161191,
          -0.14039835434608638], 8, 0.03135237103560413, 171),
        ([0.1426437865168344 + 0.1599799066564393j,
          0.1426437865168344 - 0.1599799066564393j,
          -0.11933422406906477, -0.22754180648553846],
         6, 0.0006058245750216617, 6991),
        ([-0.036011788676336455 + 0.1513030094245079j,
          -0.036011788676336455 - 0.1513030094245079j,
          0.12143196876115425, -0.16874081237128524], 4, 1.3683057974629567e-06, 120),
        ([0.1634402732650465 + 0.22921637619388213j,
          0.1634402732650465 - 0.22921637619388213j,
          0.27084417126016835 + 0.036112611554606946j,
          0.27084417126016835 - 0.036112611554606946j,
          0.18285102962506272], 2, 0.0006662582241492957, 353),
        ([-0.7466995342143689, 0.16262955678788682, 0.7313084275212067,
          -0.5892793201886317], 34, 7.809993427385178e-08, 562625),
    ])
    def test_err_estimate_bounds_mpmath_where_node_count_moved(
        self, lams, S, tol, budget
    ):
        got = series_oracle(lams, S, tol, budget=budget)
        err = float(abs(complex(got.value) - mp_closed_form(lams, S, 50)))
        assert err <= got.err_estimate, (err, got.err_estimate)

    def test_root_near_circle_is_refused_without_warning(self):
        # 1 - |lambda| = 1e-14: near log(1/r), a*rho rounds to 1, and
        # log(1 - a*rho) must not become -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError) as exc:
                series_oracle([0.99999999999999, 0.5], 0, 1e-3)
        assert math.isfinite(exc.value.achievable_bound)

    def test_nan_tolerance_is_refused(self):
        with pytest.raises(ValueError, match="tol"):
            series_oracle([0.5, 0.3], 0, math.nan)

    def test_infinite_tolerance_is_refused(self):
        # an infinite tol would accept any N, and pass any discrepancy
        with pytest.raises(ValueError, match="tol must be finite"):
            series_oracle([0.5, 0.3], 0, math.inf)
        with pytest.raises(ValueError, match="tol must be finite"):
            conjecture_probe(5, 1, 0, math.inf)

    def test_huge_shift_exceeds_budget_quickly(self):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            series_oracle([0.5, 0.3], 10**9, 1e-10)
        assert time.perf_counter() - started < 0.5
        assert exc.value.achievable_bound == float("inf")

    def test_node_count_is_the_plain_doubling_loops(self):
        # the N with (N - S)*log(1/r) <= log(1/tol) are passed over without
        # the bound; over lone and zero roots, S up to 40,000 (N = 2**17 in
        # two blocks), tol up to 100, where the bound rises along the
        # doublings, and tight budgets, N and every refusal are unchanged
        rng = np.random.default_rng(26)
        rises = 0
        for i in range(2000):
            ell = int(rng.integers(2, 7))
            lams = sweep_roots(rng, ell)
            if not any(lams):
                continue
            S = int(rng.choice([0, 1, 2, 3, 5, 7, 20, 100, 1000])
                    if i % 20 != 1 else rng.integers(0, 40_001))
            tol = float(10 ** rng.uniform(-13, 2) if i % 4 else 10 ** rng.uniform(0, 2))
            budget = (DEFAULT_BUDGET if i % 5 else int(10 ** rng.uniform(1, 5)))
            case = (lams, S, tol, budget)
            if (S + 1) * ell > budget:
                continue
            want, bound, rose = plain_node_count(lams, S, tol, budget)
            rises += rose
            if want is None:
                with pytest.raises(BudgetExceededError) as exc:
                    series_oracle(lams, S, tol, budget=budget)
                assert exc.value.achievable_bound == bound, case
            else:
                got = series_oracle(lams, S, tol, budget=budget)
                assert got.truncation == want, case
        assert rises > 0  # the sweep reaches where the bound is not monotone

    @pytest.mark.parametrize("lams, S, tol, budget, want", [
        ([0.5, 0.3], 1, 1e-12, DEFAULT_BUDGET,
         (0.9411764705882354+0j, 1.4690890463909073e-14, 64)),
        ([0.9, -0.8, 0.3 + 0.4j, 0.3 - 0.4j], 3, 1e-10, DEFAULT_BUDGET,
         (0.2195121544537077+0j, 1.7049918199556515e-14, 512)),
        ([0.95, -0.95, 0.95j, -0.95j, 0.5132871905747327 + 0.7993974355675016j,
          0.5132871905747327 - 0.7993974355675016j], 5, 1e-13, DEFAULT_BUDGET,
         (0.14152601151365823+0j, 3.026106681645714e-13, 2048)),
        # complex roots without their conjugates, and zero roots
        ([0.6 + 0.7j, 0.3 - 0.5j, 0j, 0j], 3, 1e-10, DEFAULT_BUDGET,
         (-1.1198908296943226+1.1916812227074232j, 5.673749820338784e-13, 512)),
        # three blocks, at an N above every kept rule
        ([0.5, 0.3], 70000, 1e-10, DEFAULT_BUDGET,
         (-5.359156281454277e-17+0j, 1.4419837872778503e-14, 262144)),
        # two blocks, from a kept rule
        ([0.5, -0.3 + 0.2j, -0.3 - 0.2j], 40000, 1e-10, DEFAULT_BUDGET,
         (-2.7381187052942513e-17+0j, 2.8151760775360088e-14, 131072)),
        ([0.5, 0.3], 0, 100.0, DEFAULT_BUDGET,
         (5.571428571428571+0j, 38.369804022678316, 1)),
        ([0.999, -0.998], 2, 1e-8, DEFAULT_BUDGET,
         (0.0014972503763140965+0j, 1.6348806018391122e-17, 65536)),
        ([0.5, 0.0], 3, 1e-10, DEFAULT_BUDGET,
         (0.12499999999999999+0j, 7.207336551186202e-15, 64)),
        ([0.5] * 5, 0, 1e-8, DEFAULT_BUDGET,
         (23.716049382716143+0j, 8.142609423857221e-12, 64)),
        ([0.2648238403383415 + 0.953922603563021j,
          0.2648238403383415 - 0.953922603563021j, -0.999], 4, 1e-6, DEFAULT_BUDGET,
         (0.6112888073377734+0j, 1.0589706673201645e-12, 65536)),
        # N at the budget's cap, no power of two: no kept rule
        ([0.9] * 4, 0, 1e-12, 1984,
         (2147.0099139816316+0j, 3.9223341642204045e-11, 496)),
        ([0.7 + 0.1j, 0.2], 9, 1e-12, 222,
         (0.02190156799999978+0.06479257600000059j, 2.5229251872794266e-13, 111)),
    ])
    def test_outputs_are_pinned(self, lams, S, tol, budget, want):
        # bit for bit what the oracle returned before it kept any rule or
        # passed over any N
        got = series_oracle(lams, S, tol, budget=budget)
        assert repr((got.value, got.err_estimate, got.truncation)) == repr(want)

    def test_numpy_integer_S(self):
        want = series_oracle([0.5, 0.3], 2, 1e-10)
        assert repr(series_oracle([0.5, 0.3], np.int64(2), 1e-10)) == repr(want)

    def test_float_S_is_refused_by_name(self):
        with pytest.raises(TypeError, match="^S must be an integer, got 2.0$"):
            series_oracle([0.5, 0.3], 2.0, 1e-10)

    def test_float_budget_is_refused_by_name(self):
        # both oracles take the budget as an integer, numpy's too; a float
        # one is refused by name before any work
        with pytest.raises(TypeError, match="^budget must be an integer"):
            series_oracle([0.9] * 4, 0, 1e-12, budget=1984.0)
        got = series_oracle([0.9] * 4, 0, 1e-12, budget=np.int64(1984))
        assert got.truncation == 496
        spec = FiniteSumSpec((0.5, 0.3), (0, 0), 3)
        with pytest.raises(TypeError, match="^budget must be an integer"):
            finite_sum_with_error(spec, 1e9)
        assert finite_sum_with_error(spec, np.int64(10**9)) == finite_sum_with_error(spec)

    def test_floor_is_below_the_bound(self):
        # the floor that passes over N without the bound is below the log of
        # the bound, by its margins, at every N > S where the bound is a
        # normal float, near the circle and with repeated top moduli too
        rng = np.random.default_rng(30)
        for _ in range(3000):
            r = float(rng.choice([0.05, 0.5, 0.9, 0.99, 0.999]))
            mods = [r] * int(rng.integers(1, 4))
            mods += [float(rng.uniform(1e-3, r)) for _ in range(rng.integers(0, 4))]
            S = int(rng.choice([0, 1, 5, 100, 10_000]))
            alias, floor = lambda_sums._aliasing(mods, S)
            for N in (S + 1, 2 * S + 1, 1 << (2 * S).bit_length(), 4 * S + 64):
                bound = alias(N)
                if sys.float_info.min < bound < math.inf:
                    assert floor(N) < math.log(bound) - 1e-7, (mods, S, N)

    def test_kept_rules_are_bounded(self):
        # one entry of nodes and end-fixed weights per power of two
        # N <= 2**12 and S mod N, keyed by those alone; a larger N, or one
        # at the budget's cap, keeps nothing
        lams = [0.5, 0.3]
        kept = lambda_sums._kept_nodes
        kept.cache_clear()
        assert lambda_sums._KEEP_MAX == 1 << 12
        assert list(inspect.signature(kept).parameters) == ["N", "s"]
        alias, _ = lambda_sums._aliasing(lams, 0)
        tol = 1.5 * alias(2)
        assert alias(1) >= tol
        Ns = [series_oracle(lams, 0, 100.0).truncation,
              series_oracle(lams, 0, tol).truncation]
        Ns += [series_oracle(lams, 1 << j, 100.0).truncation for j in range(11)]
        assert Ns == [1 << j for j in range(13)]
        info = kept.cache_info()
        assert info.currsize == 13  # N = 2**0 .. 2**12
        assert series_oracle(lams, 1 << 11, 100.0).truncation == 1 << 13
        assert series_oracle(lams, 1 << 16, 100.0).truncation == 1 << 18
        assert series_oracle([0.9] * 4, 0, 1e-12, budget=1984).truncation == 496
        assert kept.cache_info() == info
        # other roots and tol at the same N and S read the same entry
        assert series_oracle([-0.4, 0.2j, -0.2j], 1 << 10, 1e-3).truncation == 1 << 12
        assert kept.cache_info()[:2] == (info.hits + 1, info.misses)
        # at most 64 entries of six arrays of N/2 + 1 <= 2,049 numbers,
        # 6.3 MB, read-only
        for S in range(1 << 10, (1 << 10) + 200):
            assert series_oracle(lams, S, 100.0).truncation == 1 << 12
        assert kept.cache_info().currsize == kept.cache_info().maxsize == 64
        nodes = kept(1 << 12, (1 << 10) + 199)
        assert [t.size for t in nodes] == [(1 << 11) + 1] * 6
        assert 64 * sum(t.nbytes for t in nodes) <= 6.3e6
        w = nodes[-1]
        assert (w[0], w[-1]) == (1.0, -1.0)
        for t in nodes:
            with pytest.raises(ValueError, match="read-only"):
                t[1] = 0
        script = ("import sys\n"
                  "from serialsum.lambda_sums import RootMultiset, f_general\n"
                  "f_general(RootMultiset.from_lambdas([0.5, 0.3]), 1)\n"
                  "print('numpy' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(lambda_sums.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert out.split() == ["False"]


class TestFiniteSum:
    def test_hand_enumeration_n2(self):
        spec = FiniteSumSpec((0.5, 0.3), (0, 0), 2)
        assert finite_sum(spec) == pytest.approx(2.3, rel=1e-13)
        assert finite_sum_direct(spec) == pytest.approx(2.3, rel=1e-13)

    def test_adjusted_upper_limit(self):
        spec = FiniteSumSpec((0.5, 0.3), (0, 0), 2, (0, -1))
        assert finite_sum(spec) == pytest.approx(1.15, rel=1e-13)
        assert finite_sum_direct(spec) == pytest.approx(1.15, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_zero_partner_counts_diagonal(self, n):
        spec = FiniteSumSpec((0.5, 0.0), (0, 0), n)
        assert finite_sum(spec) == pytest.approx(float(n), rel=1e-13)

    def test_slope_approaches_limit(self):
        s50 = FiniteSumSpec((0.5, 0.3, 0.2), (1, -1, 1), 50)
        s100 = FiniteSumSpec((0.5, 0.3, 0.2), (1, -1, 1), 100)
        t50, t100 = finite_sum(s50), finite_sum(s100)
        assert t50 == pytest.approx(T50_SLOPE_CASE, rel=1e-12)
        assert t100 == pytest.approx(T100_SLOPE_CASE, rel=1e-12)
        slope = (t100 - t50) / 50
        limit = f_distinct(ms(0.5, 0.3, 0.2), 1).value
        assert abs(slope - limit) < 0.02

    def test_reduction_matches_enumeration_sampled(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            ell = int(rng.integers(2, 5))
            lams = tuple(rng.uniform(-0.9, 0.9, size=ell).tolist())
            shifts = tuple(int(s) for s in rng.integers(-2, 3, size=ell))
            n = int(rng.integers(1, 13))
            adjust = tuple(
                int(d) for d in rng.integers(-min(2, n - 1), 1, size=ell)
            )
            spec = FiniteSumSpec(lams, shifts, n, adjust)
            a, b = finite_sum(spec), finite_sum_direct(spec)
            assert abs(a - b) <= 1e-12 * (1 + abs(b))

    def test_reduction_matches_enumeration_long_cycles(self):
        # l = 5 and 6, conjugate pairs, exact zero roots, upper adjustments
        rng = np.random.default_rng(23)
        for case in range(40):
            ell = 5 + case % 2
            lams = draw_roots(rng, ell, 0.9)
            reals = [i for i, v in enumerate(lams) if v.imag == 0]
            if reals and case % 3 == 0:
                lams[reals[0]] = 0j
            shifts = tuple(int(s) for s in rng.integers(-2, 3, size=ell))
            n = int(rng.integers(1, 11 - ell))
            adjust = tuple(
                int(d) for d in rng.integers(-min(2, n - 1), 1, size=ell)
            )
            spec = FiniteSumSpec(tuple(lams), shifts, n, adjust)
            a, b = finite_sum(spec), finite_sum_direct(spec)
            assert abs(a - b) <= 1e-12 * abs(b), (case, spec)

    @pytest.mark.parametrize("n_cap", [2, 128])
    def test_every_rotation_matches_enumeration(self, n_cap):
        # the rotations of each cycle put its complex factors in every
        # position of the chain of products; n capped at 2 lowers n to the
        # least the adjustments allow, so a factor has a single row or column
        z, w = cmath.rect(0.8, 2.0), cmath.rect(0.6, 0.7)
        cycles = [
            ((z, z.conjugate(), 0.7), 15),
            ((z, -0.6, w, z.conjugate()), 9),
            ((w, 0.5, z, z.conjugate(), 0j), 6),
            ((z, 0.4, w.conjugate(), -0.8, z.conjugate(), w), 5),
        ]
        for lams, n in cycles:
            ell = len(lams)
            shifts = (1, -2, 0, 2, -1, 1)[:ell]
            adjust = (0, -1, 0, -2, 0, -1)[:ell]
            n = max(min(n, n_cap), 1 - min(adjust))
            for k in range(ell):
                spec = FiniteSumSpec(
                    lams[k:] + lams[:k], shifts[k:] + shifts[:k], n,
                    adjust[k:] + adjust[:k],
                )
                value, err = finite_sum_with_error(spec)
                assert abs(value - finite_sum_direct(spec)) <= err, (lams, k)

    @pytest.mark.parametrize("lams", [
        (0.9, -0.7, 0.5),
        (cmath.rect(0.85, 1.2), cmath.rect(0.85, -1.2), 0.6),
        (cmath.rect(0.8, 2.5), 0.7j, -0.3 + 0.6j),
        (0.5, cmath.rect(0.7, 0.4), -0.8, -0.5j),  # a real factor after a complex one
    ])
    def test_row_blocks_match_dense_trace(self, lams):
        # n = 300, against the explicit matrices multiplied out
        ell, n = len(lams), 300
        shifts, adjust = (2, -1, 0, 1)[:ell], (0, -3, -1, 0)[:ell]
        ns = [n + d for d in adjust]
        prod = np.eye(ns[0])
        for m in range(ell):
            gap = np.subtract.outer(np.arange(ns[m]), np.arange(ns[(m + 1) % ell]))
            prod = prod @ complex(lams[m]) ** np.abs(gap + shifts[m])
        value, err = finite_sum_with_error(FiniteSumSpec(lams, shifts, n, adjust))
        assert abs(value - np.trace(prod)) <= err

    def test_budget_exceeded_before_allocation(self):
        lams = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        spec = FiniteSumSpec(lams, (0,) * 6, 100_000)
        with pytest.raises(BudgetExceededError) as exc:
            finite_sum(spec)
        assert exc.value.achievable_bound == float("inf")
        with pytest.raises(BudgetExceededError):  # six roots stop at 2,873
            linear_coefficient(lams, (0,) * 6, 2_874)

    def test_large_shift_costs_nothing(self):
        # only the rows + cols - 1 exponents a matrix reads are computed
        started = time.perf_counter()
        spec = FiniteSumSpec((0.5, 0.3), (10**9, -(10**9)), 3)
        assert finite_sum(spec) == finite_sum_direct(spec) == 0
        # (-1)**|e| is exact, and the sum sees the shift only mod 2 here
        far = FiniteSumSpec((-1.0, 0.5, 0.25), (10**9 + 4, 0, -1), 3)
        near = FiniteSumSpec((-1.0, 0.5, 0.25), (4, 0, -1), 3)
        assert finite_sum(far) == finite_sum(near) == finite_sum_direct(near)
        assert time.perf_counter() - started < 1.0

    def test_cut_diagonals_equal_the_gather(self, monkeypatch):
        # each cut of the power tables (a slice, a reversed slice, a reversed
        # head joined to a slice) against the exponent gather, bit for bit,
        # with the trace and bound they give; the closed-form mass and peak
        # (`_mass`) bound the gathered moduli's sum and max, which fall short
        # only by the floored terms and rounding
        rng = np.random.default_rng(41)
        cuts, dropped, moduli = set(), 0, set()
        for _ in range(500):
            ell = int(rng.integers(2, 5))
            n = int(rng.integers(1, 300 if ell == 2 else 30))
            adjust = tuple(int(d) for d in rng.integers(-min(3, n - 1), 1, size=ell))
            lams, shifts = [], []
            for m in range(ell):
                rows, cols = n + adjust[m], n + adjust[(m + 1) % ell]
                r = (rng.uniform(0.3, 1), rng.uniform(1, 1.05),
                     10 ** -rng.uniform(10, 40), 0.0, 1.0)[rng.integers(5)]
                lams.append(complex(r * rng.choice((-1, 1))) if rng.random() < 0.5
                            else cmath.rect(r, rng.uniform(-math.pi, math.pi)))
                s = (int(rng.integers(-3, 4)),
                     cols - 1 + int(rng.integers(-1, 30)),  # the V at and above 0
                     1 - rows - int(rng.integers(-1, 30)),  # at and below 0
                     int(rng.choice((-1, 1)) * rng.integers(300, 800)),
                     int(rng.choice((-1, 1)) * 10**9 + rng.integers(-3, 4)))
                shifts.append(s[rng.integers(5)])
                a, b = shifts[-1] + 1 - cols, shifts[-1] + rows - 1
                cuts.add("rising" if a >= 0 else "falling" if b <= 0 else "V")
            spec = FiniteSumSpec(tuple(lams), tuple(shifts), n, adjust)
            floor = sys.float_info.min ** (1 / ell)
            with np.errstate(over="ignore", invalid="ignore"):
                _, ends, cut = _diagonals(spec)
                ref = gathered_diagonals(spec)
                for lam, (a, b), c, g in zip(lams, ends, cut, ref):
                    assert c.dtype == g.dtype and np.array_equal(c, g, equal_nan=True)
                    dropped += lam != 0 and not g.all()
                    mass, peak = _mass(abs(lam), a, b)
                    if math.isinf(mass):  # a power overflows, and so does the table
                        assert peak == math.inf and not np.isfinite(g).all()
                        continue
                    # rounding: below 4*k*eps in a power lam**k of the table, and
                    # about eps/|1 - rho| where the closed form cancels near rho = 1
                    tol = 1 + 1e-12 + 4 * (_span(a, b)[1] + 1) * sys.float_info.epsilon
                    total, top = np.abs(g).sum(), np.abs(g).max()
                    assert total <= mass * tol <= (total + g.size * floor) * tol**2
                    assert top <= peak * tol <= max(top, floor) * tol**2
                    rho = abs(lam)
                    moduli.add("0" if rho == 0 else "tiny" if rho < 1e-9 else
                               "<1" if rho < 1 else "=1" if rho == 1 else ">1")
                got = _trace_sum(spec)
                # the same sum over the gathered diagonals in place of its cuts
                gathered = iter(ref)
                with monkeypatch.context() as patch:
                    patch.setattr(lambda_sums, "_cut", lambda *_: next(gathered))
                    assert repr(got) == repr(_trace_sum(spec)), spec
        assert cuts == {"rising", "falling", "V"} and dropped > 100
        assert moduli == {"0", "tiny", "<1", "=1", ">1"}

    @pytest.mark.parametrize("rho, a, b", [
        (1 - 1.1e-16, -3, 3),  # 7, where rho**lo - rho**(hi + 1) cancels to 8
        (1 - 6.1e-14, 10**9, 10**9),
        (1 - 1e-15, -5000, 200),
        (1 - 3e-12, -(10**6), -17),
        (1 - 1e-9, 0, 10**8),
        (0.999, 5, 40),
    ])
    def test_mass_near_one_matches_mpmath(self, rho, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            r = mpmath.mpf(rho)

            def arm(lo, c):  # r**lo + ... + r**(lo + c - 1)
                return r**lo * (1 - r**c) / (1 - r)

            lo, hi = _span(a, b)
            exact = arm(0, 1 - a) + arm(1, b) if a < 0 < b else arm(lo, hi - lo + 1)
            mass, _ = _mass(rho, a, b)
            assert abs(mass - exact) <= 4 * sys.float_info.epsilon * exact

    @pytest.mark.parametrize("lam, lo, count, ell", [
        (0.9, 0, 5000, 2),  # below the floor past k = 3,360, stalls in subnormals
        (-0.95, 7, 20000, 3),
        (cmath.rect(0.9, 1.0), 0, 5000, 2),
        (cmath.rect(0.999, 2.0), 40, 300_000, 6),
        (0.3, 0, 2000, 2),  # underflows to zero
        (0.9, 3355, 2000, 2),  # starts just above the floor
        (0.5, 0, 1025, 2),  # the shortest table that is cut
        (0.9, 6800, 1024, 2),  # too short to cut: stalls from the start
        (cmath.rect(0.9, 1.0), 10**9, 10, 2),  # starts at zero
        (1e-30, 0, 50, 4),
        (0.0, 0, 5, 2),
        (1.0, 0, 1000, 2),
        (cmath.rect(1.01, 0.5), 0, 100_000, 3),  # overflows
    ], ids=lambda v: f"{v:.3g}" if isinstance(v, complex) else None)
    def test_powers_stop_past_the_floor(self, lam, lo, count, ell):
        floor = sys.float_info.min ** (1 / ell)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _powers(complex(lam), lo, count, floor)
            want = plain_powers(complex(lam), lo, count, floor)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)

    def test_powers_short_stop_takes_the_whole_product(self, monkeypatch):
        # a stop estimated short of the floor (here by halving the log of the
        # fall to it) continues the one product over the whole table
        log = math.log
        monkeypatch.setattr(math, "log", lambda x: log(x) / 2 if x < 0.5 else log(x))
        floor = sys.float_info.min ** (1 / 2)
        for lam in (0.9, cmath.rect(0.95, 2.0)):
            got = _powers(complex(lam), 3, 20000, floor)
            assert np.array_equal(got, plain_powers(complex(lam), 3, 20000, floor))

    def test_pair_is_linear_in_n(self):
        # l = 2 builds no matrix; an n x n one would take 160 GB here
        started = time.perf_counter()
        lams, shifts, n = (0.5, -0.3), (2, -1), 10**5
        t1 = finite_sum(FiniteSumSpec(lams, shifts, n))
        t2 = finite_sum(FiniteSumSpec(lams, shifts, 2 * n))
        limit = f_distinct(RootMultiset.from_lambdas(lams), 1).value
        assert abs((t2 - t1) / n - limit) <= 1e-9
        assert time.perf_counter() - started < 2.0

    def test_rejects_shifts_beyond_int64_and_non_finite_roots(self):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            FiniteSumSpec((0.5, 0.3), (10**20, 0), 2)
        with pytest.raises(ValueError, match="finite"):
            FiniteSumSpec((math.nan, 0.3), (0, 0), 2)
        # a non-integer shift, n or adjustment is refused by name, not
        # truncated (a shift of 0.5 summed as 0) or left to fail in numpy
        for make, name in [
            (lambda: FiniteSumSpec((0.5, 0.3), (0.5, 0), 3), "shifts"),
            (lambda: FiniteSumSpec((0.5, 0.3), (0, 0), 3, (-0.5, 0)), "upper_adjust"),
            (lambda: FiniteSumSpec((0.5, 0.3), (0, 0), 3.0), "n"),
            (lambda: ShiftSpec((1.9,)), "shifts"),
            (lambda: linear_coefficient([0.5, 0.3], [0, 0], 200.0), "n_base"),
            (lambda: linear_coefficient([0.5, 0.3], [0, 0.5], 200), "shifts"),
        ]:
            with pytest.raises(TypeError, match=f"^{name} must be"):
                make()
        # numpy integers are integers
        spec = FiniteSumSpec((0.5, 0.3), np.array([1, -1]), np.int64(3), np.array([0, -1]))
        assert spec == FiniteSumSpec((0.5, 0.3), (1, -1), 3, (0, -1))
        assert type(spec.n) is int and {type(v) for v in spec.shifts} == {int}

    @pytest.mark.parametrize("lams, shifts", [
        ((2.0, 0.5), (2000, 0)),
        ((2.0, 0.5, 0.25), (2000, 0, 0)),
    ])
    def test_overflow_is_an_error_not_a_value(self, lams, shifts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                finite_sum(FiniteSumSpec(lams, shifts, 3))

    def test_rejects_positive_adjust(self):
        with pytest.raises(ValueError):
            FiniteSumSpec((0.5, 0.3), (0, 0), 2, (1, 0))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            FiniteSumSpec((0.5, 0.3), (0, 0), 2, (0, -2))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_err_bounds_enumeration(self, data):
        # shifts, adjustments, zero and complex roots, and |lambda| > 1; n
        # stops at 5 and 4 for l = 5 and 6, where n**l terms are enumerated
        ell = data.draw(st.integers(2, 6), label="ell")
        n = data.draw(st.integers(1, {5: 5, 6: 4}.get(ell, 8)), label="n")
        root = st.one_of(
            st.floats(-1.1, 1.1),
            st.just(0.0),
            st.builds(cmath.rect, st.floats(0, 1.05), st.floats(-math.pi, math.pi)),
        )
        lams = tuple(data.draw(st.lists(root, min_size=ell, max_size=ell)))
        shifts = tuple(data.draw(st.lists(
            st.integers(-3, 3), min_size=ell, max_size=ell)))
        adjust = tuple(data.draw(st.lists(
            st.integers(-min(3, n - 1), 0), min_size=ell, max_size=ell)))
        spec = FiniteSumSpec(lams, shifts, n, adjust)
        value, err = finite_sum_with_error(spec)
        assert abs(value - finite_sum_direct(spec)) <= err

    @pytest.mark.parametrize("lams, shifts, n, adjust", [
        ((0.99, -0.985, 0.975), (1, -2, 0), 60, (0, -1, -2)),
        ((cmath.rect(0.999, 0.3), cmath.rect(0.999, -0.3), -0.97, 0.98),
         (0, 1, -1, 2), 50, (0, -1, 0, -2)),
        ((cmath.rect(0.95, 2.0), cmath.rect(0.95, -2.0), 1.02, -0.99, 0.0),
         (2, 0, -1, 1, -3), 40, (-1, 0, 0, -3, 0)),
        ((cmath.rect(0.99, 1.1), cmath.rect(0.99, -1.1), cmath.rect(0.97, -2.5),
          cmath.rect(0.97, 2.5), 1.01, -0.995), (1, -1, 0, 2, -2, 3), 40,
         (0, -2, 0, -1, 0, 0)),
    ])
    def test_err_bounds_mpmath_near_circle(self, lams, shifts, n, adjust):
        # roots within 0.03 of +-1, pairs at modulus 0.95-0.999 and roots
        # up to 1.02, against the trace at 50 digits
        mpmath = pytest.importorskip("mpmath")
        spec = FiniteSumSpec(lams, shifts, n, adjust)
        value, err = finite_sum_with_error(spec)
        assert float(abs(mpmath.mpc(value) - mp_trace(spec))) <= err

    def test_memory_is_linear_in_n(self):
        # l = 3 at n = 2000 holds O(l*n) numbers; one n x n matrix is 32 MB
        spec = FiniteSumSpec((cmath.rect(0.9, 1.0), cmath.rect(0.9, -1.0), 0.6),
                             (1, -1, 2), 2000)
        tracemalloc.start()
        try:
            finite_sum_with_error(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestLinearCoefficient:
    def test_pair_matches_limit(self):
        got = linear_coefficient([0.5, 0.3], [0, 0], 200)
        assert abs(got.value - (1 + 0.15) / (1 - 0.15)) <= 1e-10
        assert got.err_estimate < 1e-10

    def test_zero_partner_slope_one(self):
        got = linear_coefficient([0.5, 0.0], [1, -1], 200)
        assert got.value == pytest.approx(1.0, abs=1e-12)

    def test_depends_only_on_aggregated_shift(self):
        results = [
            linear_coefficient([0.6, 0.4], shifts, 200)
            for shifts in [(2, -1), (-1, 2), (0, 1)]
        ]
        for a, b in itertools.combinations(results, 2):
            assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate

    def test_adjustment_invariance(self):
        base = linear_coefficient([0.5, 0.3, 0.2], (1, 0, 0), 200)
        for adjust in [(-1, 0, 0), (0, -2, -1), (-3, -3, -3)]:
            other = linear_coefficient([0.5, 0.3, 0.2], (1, 0, 0), 200, adjust)
            assert abs(base.value - other.value) <= (
                base.err_estimate + other.err_estimate
            )

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_benchmark_shapes_take_the_shell(self, seed):
        # the value is the shell sum as it stands, T(n_base + 1) - T(n_base)
        # within the bounds of the shell and of both traces, and the limit
        # within err_estimate, which adds the residue to the shell's bound
        for lams, shifts, n_base, adjust in oracle_linear_ops(seed):
            got = linear_coefficient(lams, shifts, n_base, adjust)
            value, err = _shell_sum(FiniteSumSpec(lams, shifts, n_base, adjust))
            assert got.value == value and got.err_estimate >= err
            t1, e1 = finite_sum_with_error(FiniteSumSpec(lams, shifts, n_base, adjust))
            t2, e2 = finite_sum_with_error(
                FiniteSumSpec(lams, shifts, n_base + 1, adjust))
            assert abs(value - (t2 - t1)) <= err + e1 + e2
            S = abs(sum(shifts))
            ref = closed_form_reference([(complex(v), 1) for v in lams], S)
            assert float(abs(got.value - ref)) <= got.err_estimate

    @pytest.mark.parametrize("lams, shifts, n_base", [
        ((0.1, -0.2), (30, -25), 18),
        ((0.05, -0.04, 0.03), (15, -3, 1), 10),
    ])
    def test_shifted_span_start_stays_within_the_bound(self, lams, shifts, n_base):
        # a shift moves the power tables of n_base + 1 off the zeroth power,
        # and past the box: the shell is the difference of the direct sums
        # within its rounding bound alone, while the limit, F = -2.04e-4 for
        # the pair, is off by more than that and within the residue's bound
        spec = FiniteSumSpec(lams, shifts, n_base)
        assert any(_span(*ends)[0] > 0 for ends in _diagonals(spec, 1)[1])
        value, err = _shell_sum(spec)
        t1 = finite_sum_direct(spec)
        t2 = finite_sum_direct(FiniteSumSpec(lams, shifts, n_base + 1))
        assert abs(value - (t2 - t1)) <= err
        got = linear_coefficient(lams, shifts, n_base)
        ref = mp_closed_form(lams, abs(sum(shifts)), 50)
        assert err < float(abs(got.value - ref)) <= got.err_estimate

    def test_rejects_insufficient_n_base(self):
        with pytest.raises(ValueError):
            linear_coefficient([0.9, 0.3], [0, 0], 50)

    def test_pair_budget_limit(self, monkeypatch):
        # the shell is charged l*(l - 2)*(n + 1)**2 + 100*l*(n + 1) units, so
        # two roots stop at n_base = 999,999; the work past the charge is not
        # run here
        class Admitted(Exception):
            pass

        def admitted(spec):
            raise Admitted

        assert _shell_work(2, 999_999) <= DEFAULT_BUDGET < _shell_work(2, 1_000_000)
        monkeypatch.setattr(lambda_sums, "_shell_sum", admitted)
        with pytest.raises(Admitted):
            linear_coefficient((0.5, -0.3), (0, 0), 999_999)
        with pytest.raises(BudgetExceededError):
            linear_coefficient((0.5, -0.3), (0, 0), 1_000_000)

    @pytest.mark.parametrize("lams, shifts, n, adjust", [
        ((0.5, 0.3), (0, 0), 6, (0, 0)),  # real roots
        ((0.6 + 0.3j, 0.6 - 0.3j, -0.4), (2, -3, 1), 5, (0, -1, 0)),  # a pair
        ((0.5 + 0.4j, 0.2), (1, 1), 7, (-2, 0)),  # a lone complex root
        ((0.0, 0.7, -0.5), (-1, 0, 3), 5, (0, 0, -2)),  # a zero root
        ((0.0, 0.0), (0, 1), 4, (0, 0)),
        ((0.6, 0.6, 0.6, -0.3), (0, 0, 0, 0), 4, (0, -1, -1, 0)),  # repeats
        ((0.9, -0.8, 0.5 + 0.5j, 0.5 - 0.5j), (-5, 4, -2, 6), 4, (-3, 0, -1, -2)),
        ((0.99, 0.3, -0.97, 0.2, 0.95), (7, -9, 1, 0, -2), 3, (0, -2, 0, -1, 0)),
        ((0.9, 0.4), (-40, 35), 8, (0, -7)),  # each diagonal on one arm
    ])
    def test_shell_is_the_first_difference(self, lams, shifts, n, adjust):
        # shifts whose exponents cross zero or stay on one side, adjustments
        # down to ranges of one, against direct enumeration at n and n + 1
        spec = FiniteSumSpec(lams, shifts, n, adjust)
        value, err = _shell_sum(spec)
        t1 = finite_sum_direct(spec)
        t2 = finite_sum_direct(FiniteSumSpec(lams, shifts, n + 1, adjust))
        assert abs(value - (t2 - t1)) <= err

    def test_rounding_bound_takes_one_peak_for_all_parts(self):
        # each part of the shell fixes one index, so any one factor's peak
        # times the others' masses bounds it, and the bound takes the least
        # such product for all l parts: 7.6e-9 here, where a sum of each
        # part's own product gave 1.8e-7 (the real error is 2.4e-14)
        spec = FiniteSumSpec((0.99, 0.98, -0.5), (2, 0, -1), 2750, (-1, 0, -2))
        assert _shell_sum(spec)[1] < 1e-8

    @pytest.mark.parametrize("spec, trace_err, shell_err", [
        (FiniteSumSpec((0.99, -0.6), (1, -2), 2750, (0, -3)),
         1.8147e-07, 4.4009e-11),
        (FiniteSumSpec((0.99, 0.98, -0.5), (2, 0, -1), 2750, (-1, 0, -2)),
         3.4909e-05, 7.6221e-09),
        (FiniteSumSpec((cmath.rect(0.97, 2.0), cmath.rect(0.97, -2.0),
                        cmath.rect(0.97, 0.5), cmath.rect(0.97, -0.5)),
                       (0, 1, 0, -2), 908, (0, 0, -2, 0)),
         6.9072e-03, 4.3517e-06),
    ])
    def test_rounding_bounds_are_pinned(self, spec, trace_err, shell_err):
        # both bounds are taken from the moduli alone, so they hold on any
        # host; the pins see either half of the rounding count, or the
        # shell's l parts, dropped (each moves a bound by over 10%)
        assert finite_sum_with_error(spec)[1] == pytest.approx(trace_err, rel=0.05)
        assert _shell_sum(spec)[1] == pytest.approx(shell_err, rel=0.05)

    @pytest.mark.parametrize("lams, shifts, n, adjust, linear, finite", [
        ((0.5, 0.3), (0, 0), 40, (0, 0),
         (1.352941176470588+0j, 3.0432799152394537e-13),
         (53.70242214532871+0j, 1.78143214465568e-11)),
        ((cmath.rect(0.8, 1.1), cmath.rect(0.8, -1.1)), (1, -2), 130, (0, -3),  # a pair
         (2.0159827618914554+5.551115123125783e-17j, 4.776179455042005e-12),
         (251.55832128395912-6.178079470272422j, 9.243406040577387e-10)),
        ((0.98, -0.6), (2, -1), 1500, (-2, 0),  # tables of 1,501 powers
         (0.23929471032745608+0j, 2.3996804543543768e-11),
         (358.18920988014645+0j, 5.38848965447869e-08)),
        ((0.6 + 0.5j, -0.4, 0.2), (1, 0, -2), 160, (0, 0, 0),  # a lone complex root
         (0.3468785100305633+0.38973490693801455j, 5.311084905201824e-12),
         (55.06436786834581+61.683320390530405j, 1.4075851595407585e-09)),
        ((0.0, 0.7, -0.5), (-1, 2, 1), 80, (0, -1, 0),  # a zero root
         (0.1981481481481481+0j, 2.2901680876220704e-12),
         (15.610631001371747+0j, 3.0162539133016253e-10)),
        ((0.1, -0.2, 0.05), (30, -25, 3), 20, (0, 0, 0),  # spans off zero
         (-5.894235299971032e-17+0j, 4.842105263157896),
         (1.1557324117590255e-18+0j, 1.1169233179667548e-26)),
        ((cmath.rect(0.7, 2.0), cmath.rect(0.7, -2.0), cmath.rect(0.6, 0.5),
          cmath.rect(0.6, -0.5)), (0, 1, 0, -2), 80, (0, 0, -2, 0),
         (0.6483291116426254-3.400058012914542e-16j, 1.2650996352158452e-10),
         (51.116876161921205-0.26681695590951904j, 1.74971622375931e-08)),
        ((0.5, -0.375, 0.25, 0.125), (-1, 0, 0, 2), 40, (-3, -1, -1, -1),
         (0.45324046756274416+0j, 3.3191019139851973e-12),
         (15.981987365121647+0j, 2.0957302560020702e-10)),
        ((0.5, -0.4, cmath.rect(0.45, 1.0), cmath.rect(0.45, -1.0), 0.0),
         (1, -1, 2, 0, -3), 40, (0, -1, 0, -2, 0),
         (0.5930282604303586-9.71445146547012e-17j, 1.9874270270716076e-11),
         (20.949485300846742-0.3993215756311049j, 1.3223009464236244e-09)),
        ((0.3 + 0.3j, 0.3 + 0.3j, -0.5, 0.2, 0.45), (0, 0, 1, 0, 0), 41, (0, 0, 0, -1, 0),
         (0.42164463507627553+0.6860153696445433j, 2.7621048664174312e-11),
         (16.294474654815282+26.625646386894818j, 1.9908165557575382e-09)),
    ])
    def test_kernels_are_pinned(self, lams, shifts, n, adjust, linear, finite):
        # reference outputs of the shell and the trace, recorded on one host
        # (numpy 2.4.6, OpenBLAS, AVX-512); the value is held to a few eps,
        # as np.convolve's dot order may differ between BLAS builds, and the
        # bound, from the moduli alone, to 1e-12
        got = linear_coefficient(lams, shifts, n, adjust)
        value, err = finite_sum_with_error(FiniteSumSpec(lams, shifts, n, adjust))
        for (v, e), (want_v, want_e) in [((got.value, got.err_estimate), linear),
                                         ((value, err), finite)]:
            assert v == pytest.approx(want_v, rel=1e-13, abs=1e-15)
            assert e == pytest.approx(want_e, rel=1e-12)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_shell_bounds_enumeration(self, data):
        ell = data.draw(st.integers(2, 5), label="ell")
        n = data.draw(st.integers(1, {4: 4, 5: 3}.get(ell, 7)), label="n")
        root = st.one_of(
            st.floats(-0.999, 0.999),
            st.just(0.0),
            st.builds(cmath.rect, st.floats(0, 0.999), st.floats(-math.pi, math.pi)),
        )
        lams = tuple(data.draw(st.lists(root, min_size=ell, max_size=ell)))
        shifts = tuple(data.draw(st.lists(
            st.integers(-6, 6), min_size=ell, max_size=ell)))
        adjust = tuple(data.draw(st.lists(
            st.integers(-min(3, n - 1), 0), min_size=ell, max_size=ell)))
        spec = FiniteSumSpec(lams, shifts, n, adjust)
        value, err = _shell_sum(spec)
        t1 = finite_sum_direct(spec)
        t2 = finite_sum_direct(FiniteSumSpec(lams, shifts, n + 1, adjust))
        assert abs(value - (t2 - t1)) <= err

    @pytest.mark.parametrize("entries, shifts, n_base, adjust", [
        (((0.5, 1), (0.3, 1)), (0, 0), 40, (0, 0)),  # 0.5**40 = 9.1e-13
        (((0.99, 1), (-0.6, 1)), (1, -2), 2750, (0, -3)),  # 0.99**2750 = 9.9e-13
        (((0.99, 1), (0.98, 1), (-0.5, 1)), (2, 0, -1), 2750, (-1, 0, -2)),
        (((cmath.rect(0.97, 1.2), 1), (cmath.rect(0.97, -1.2), 1), (0.4, 1)),
         (-1, 2, 0), 908, (0, -1, -1)),  # 0.97**908 = 9.8e-13
        (((cmath.rect(0.97, 2.0), 1), (cmath.rect(0.97, -2.0), 1),
          (cmath.rect(0.97, 0.5), 1), (cmath.rect(0.97, -0.5), 1)),
         (0, 1, 0, -2), 908, (0, 0, -2, 0)),
        (((cmath.rect(0.8, 0.7), 1), (-0.3, 1)), (1, 0), 124, (0, 0)),  # lone
        (((0.0, 1), (0.7, 1), (-0.5, 1)), (-1, 2, 1), 78, (0, -1, 0)),
        (((0.6, 3), (-0.3, 1)), (1, -1, 2, 0), 55, (0, 0, -2, -1)),  # repeats
        (((0.9, 2), (0.5, 2)), (0, 0, 0, 0), 263, (0, 0, 0, 0)),
        (((0.5, 1), (0.3, 1)), (30, -31), 40, (0, 0)),  # the residue shows
        (((0.1, 1), (-0.2, 1)), (30, -25), 18, (0, 0)),  # past the box
    ])
    def test_err_bounds_mpmath_slope(self, entries, shifts, n_base, adjust):
        # against the limit at high precision, with roots near the circle and
        # n_base just above the 1e-12 floor, where rounding and the residue
        # bound must both hold
        mpmath = pytest.importorskip("mpmath")
        lams = [v for v, m in entries for _ in range(m)]
        got = linear_coefficient(lams, shifts, n_base, adjust)
        ref = closed_form_reference(entries, abs(sum(shifts)))
        assert float(abs(mpmath.mpc(got.value) - ref)) <= got.err_estimate


class TestConjectureProbe:
    def test_all_equal_half(self):
        # the oracle itself supplies the value; the closed form must track it
        got = series_oracle([0.5] * 5, 0, 1e-8)
        closed = f_general(RootMultiset(((0.5, 5),)), 0)
        assert abs(got.value - closed.value) <= 1e-8 + got.err_estimate

    def test_zero_slot_still_passes(self):
        # a zero root pins its lattice index; both paths must still agree
        lams = [0.0, 0.3, -0.2, 0.45, 0.1]
        for S in (0, 2):
            got = series_oracle(lams, S, 1e-10)
            closed = f_distinct(RootMultiset.from_lambdas(lams), S)
            assert abs(got.value - closed.value) <= 1e-10 + got.err_estimate

    def test_ell6_with_conjugate_pair(self):
        lams = [0.3 + 0.2j, 0.3 - 0.2j, 0.1, -0.25, 0.45, -0.4]
        got = series_oracle(lams, 1, 1e-8)
        closed = f_distinct(RootMultiset.from_lambdas(lams), 1)
        assert abs(got.value - closed.value) <= 1e-8 + got.err_estimate
        assert abs(closed.value.imag) <= 1e-10 * (1 + abs(closed.value))

    def test_probe_report(self):
        report = conjecture_probe(5, 8, seed=42, tol=1e-8)
        assert report.passed == 8
        assert report.failed == 0
        assert report.skipped == 0
        assert report.ok

    def test_probe_rejects_proven_cases(self):
        with pytest.raises(ValueError):
            conjecture_probe(4, 1, seed=0, tol=1e-8)

    def test_budget_exhaustion_is_skip_not_pass(self):
        report = conjecture_probe(6, 3, seed=1, tol=1e-8, budget=100)
        assert report.passed == 0
        assert report.skipped == 3
        assert report.ok  # skips do not fail the probe, they just never pass
