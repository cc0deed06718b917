import cmath
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from serialsum import (
    BudgetExceededError,
    CollisionError,
    FiniteSumSpec,
    RootMultiset,
    ShiftSpec,
    conjecture_probe,
    f2_equal_reference,
    f3_triple_reference,
    f_distinct,
    f_general,
    finite_sum,
    finite_sum_direct,
    linear_coefficient,
    series_oracle,
)
from serialsum.lambda_sums import DEFAULT_BUDGET, _LOG_RHO_FRACTIONS, _g_jet
from serialsum.numerics import Jet
from _gen import draw_multiset, draw_roots

# Values frozen from independent brute-force summations (plain nested-loop
# lattice sums and hand enumeration) computed before the evaluators existed.
F3_053002_S2 = 0.8676122931442086      # F({0.5,0.3,0.2}; S=2)
F3_04_04_07_S0 = 3.5352733686067164    # F({0.4 x2, 0.7}; S=0)
F2EQ_09_S4 = 8.874615789473687         # two equal roots 0.9, S=4
F3EQ_05_S2 = 2.6666666666666665        # triple root 0.5, S=2
F5_05_S0 = 23.716049382716044          # F({0.5 x5}; S=0)
T50_SLOPE_CASE = 66.8605988600234      # finite sum, (0.5,0.3,0.2), s=(1,-1,1), n=50
T100_SLOPE_CASE = 135.74531586738303   # same at n=100


def mp_limit(lams, S, dps=50):
    """F(lams; S) from the distinct-root closed form at ``dps`` digits.
    A zero root contributes the factor 1 to the symbol, so zeros are
    dropped; the remaining roots must be distinct."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        ls = [mpmath.mpc(v) for v in lams if v != 0]
        if not ls:
            return mpmath.mpf(1 if S == 0 else 0)
        return mpmath.fsum(
            li ** (S + len(ls) - 1) * mpmath.fprod(
                (1 - lj**2) / ((li - lj) * (1 - li * lj))
                for j, lj in enumerate(ls) if j != i
            )
            for i, li in enumerate(ls)
        )


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


def doubling_node_count(lams, S, tol, budget=DEFAULT_BUDGET):
    """The series oracle's node count as a doubling finds it: from the
    first power of two above 2S, doubled (up to budget // l) until the
    aliasing bound is below tol.  Returns (N, bound), or (None, the
    achievable bound) when the budget refuses."""
    r = max(abs(v) for v in lams)
    log_rho = -math.log(r) * np.array(_LOG_RHO_FRACTIONS)
    log_g = sum(
        math.log1p(-a * a) - np.log1p(-np.exp(math.log(a) + log_rho))
        - np.log1p(-np.exp(math.log(a) - log_rho))
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


def ms(*lams):
    return RootMultiset.from_lambdas(lams)


class TestRootMultiset:
    def test_clustering_merges_close_roots(self):
        r = RootMultiset.from_lambdas([0.5, 0.5 + 1e-9, 0.3])
        assert sorted(m for _, m in r.entries) == [1, 2]
        assert r.ell == 3

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

    def test_rejects_unmerged_near_duplicates(self):
        with pytest.raises(ValueError):
            RootMultiset(((0.5, 1), (0.5 + 1e-9, 1)))

    def test_conjugate_closed(self):
        assert ms(0.3 + 0.2j, 0.3 - 0.2j).is_conjugate_closed()
        assert not ms(0.3 + 0.2j, 0.1).is_conjugate_closed()
        assert ms(0.5, 0.3).is_conjugate_closed()


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

    @pytest.mark.parametrize("S", [0, 1, 3])
    def test_absorbing_zero(self, S):
        got = f_distinct(ms(0.5, 0.0), S)
        assert got.value == pytest.approx(0.5**S, rel=1e-13)

    def test_triple_s2_frozen(self):
        got = f_distinct(ms(0.5, 0.3, 0.2), 2)
        assert got.value == pytest.approx(F3_053002_S2, rel=1e-12)

    def test_rejects_repeated_roots(self):
        with pytest.raises(CollisionError):
            f_distinct(ms(0.5, 0.5), 1)

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


def closed_form_reference(entries, S):
    """F at high precision: the distinct-root closed form with the copies
    of a repeated root spread 1e-60 apart, at 60 digits per root and 60
    more, so that the cancellation among them leaves over 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    ell = sum(m for _, m in entries)
    with mpmath.workdps(60 * ell + 60):
        nodes = [mpmath.mpc(v) + c * mpmath.mpf("1e-60")
                 for v, m in entries for c in range(m)]
        return mpmath.fsum(
            li ** (S + ell - 1) * mpmath.fprod(
                (1 - lj**2) / ((li - lj) * (1 - li * lj))
                for j, lj in enumerate(nodes) if j != i
            )
            for i, li in enumerate(nodes)
        )


class TestErrEstimate:
    """|value - reference| <= err_estimate, including the rounding of the
    power x**(S+l-1), which grows with S."""

    @staticmethod
    def assert_bounded(got, entries, S):
        ref = closed_form_reference(entries, S)
        err = float(abs(complex(got.value) - ref))
        assert err <= got.err_estimate, (entries, S, err, got.err_estimate)

    @pytest.mark.parametrize("lams, S", [
        ([-0.8, 0.3], 50), ([-0.8, 0.3], 300), ([-0.9, 0.5, -0.2], 300),
    ])
    def test_large_S(self, lams, S):
        roots = ms(*lams)
        for f in (f_distinct, f_general):
            got = f(roots, S)
            assert got.value.imag == 0
            self.assert_bounded(got, roots.entries, S)

    def test_random_distinct_sets(self):
        # real roots and conjugate pairs, up to radius 0.99
        rng = np.random.default_rng(1)
        for _ in range(150):
            roots = draw_multiset(rng, int(rng.integers(2, 7)),
                                  float(rng.choice([0.5, 0.8, 0.95, 0.99])))
            S = int(rng.choice([0, 5, 50, 150, 400]))
            for f in (f_distinct, f_general):
                self.assert_bounded(f(roots, S), roots.entries, S)

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
            self.assert_bounded(f_general(roots, S), roots.entries, S)

    @pytest.mark.parametrize("m", [3, 5, 6])
    def test_exact_repeats_near_circle(self, m):
        # the error grows with the multiplicity, at S = 0 too
        roots = RootMultiset(((0.95, m),))
        self.assert_bounded(f_general(roots, 0), roots.entries, 0)

    @pytest.mark.parametrize("entries", [
        ((-0.95, 1), (0.7, 1), (0.2, 1)),
        ((0.9, 2), (-0.5, 1)),
        ((-0.8, 3), (0.6, 2)),
    ])
    def test_real_roots_at_large_S(self, entries):
        roots = RootMultiset(entries)
        evaluators = (f_distinct, f_general) if roots.is_distinct() else (f_general,)
        for f in evaluators:
            got = f(roots, 300)
            assert got.value.imag == 0
            self.assert_bounded(got, roots.entries, 300)


def g_jet_reference(x0, order, lams, power):
    """The jet of G(x) = x**power * prod_j (1-l_j^2)/(1-x*l_j) at x0 by Jet
    arithmetic; the reference for the closed-form coefficients of `_g_jet`."""
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
            got = _g_jet(x0, order, lams, power)
            ref = g_jet_reference(x0, order, lams, power)
            assert got.center == ref.center
            assert len(got.coeffs) == order + 1
            for a, b in zip(got.coeffs, ref.coeffs):
                assert abs(a - b) <= 1e-13 * abs(b), (power, got, ref)

    def test_f_general_does_no_jet_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Jet arithmetic in f_general")

        for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__"):
            monkeypatch.setattr(Jet, op, refuse)
        got = f_general(RootMultiset(((0.5, 3), (-0.2, 2), (0.1, 1))), 2)
        assert abs(got.value) > 0


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
            with mpmath.workdps(50):
                ls = [mpmath.mpc(v) for v in lams]
                ref = mpmath.fsum(
                    li ** (S + len(ls) - 1) * mpmath.fprod(
                        (1 - lj**2) / ((li - lj) * (1 - li * lj))
                        for j, lj in enumerate(ls) if j != i
                    )
                    for i, li in enumerate(ls)
                )
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
            err = float(abs(complex(got.value) - mp_limit(lams, S)))
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

    def test_node_count_matches_doubling(self):
        # N is solved for from the aliasing bound; it must be the N that
        # doubling finds, and a refusal must carry the same bound
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
            if want is None:
                with pytest.raises(BudgetExceededError) as exc:
                    series_oracle(lams, S, tol, budget=budget)
                assert exc.value.achievable_bound == pytest.approx(bound, rel=1e-12)
            else:
                got = series_oracle(lams, S, tol, budget=budget)
                assert got.truncation == want, (lams, S, tol, budget)

    def test_huge_shift_exceeds_budget_quickly(self):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            series_oracle([0.5, 0.3], 10**9, 1e-10)
        assert time.perf_counter() - started < 0.5
        assert exc.value.achievable_bound == float("inf")


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

    def test_budget_exceeded_before_allocation(self):
        lams = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        spec = FiniteSumSpec(lams, (0,) * 6, 100_000)
        with pytest.raises(BudgetExceededError) as exc:
            finite_sum(spec)
        assert exc.value.achievable_bound == float("inf")
        with pytest.raises(BudgetExceededError):
            linear_coefficient(lams, (0,) * 6, 400)

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

    def test_pair_is_linear_in_n(self):
        # l = 2 builds no matrix; an n x n one would take 160 GB here
        started = time.perf_counter()
        lams, shifts, n = (0.5, -0.3), (2, -1), 10**5
        t1 = finite_sum(FiniteSumSpec(lams, shifts, n))
        t2 = finite_sum(FiniteSumSpec(lams, shifts, 2 * n))
        limit = f_distinct(RootMultiset.from_lambdas(lams), 1).value
        assert abs((t2 - t1) / n - limit) <= 1e-9
        assert time.perf_counter() - started < 2.0

    def test_rejects_positive_adjust(self):
        with pytest.raises(ValueError):
            FiniteSumSpec((0.5, 0.3), (0, 0), 2, (1, 0))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            FiniteSumSpec((0.5, 0.3), (0, 0), 2, (0, -2))


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

    def test_rejects_insufficient_n_base(self):
        with pytest.raises(ValueError):
            linear_coefficient([0.9, 0.3], [0, 0], 50)


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
