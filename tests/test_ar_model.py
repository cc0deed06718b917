import cmath
import csv
import math
import random
from collections import Counter

import numpy as np
import pytest

from serialsum import (
    ARModel,
    BadLagError,
    DegenerateSampleError,
    FiniteSumSpec,
    NotStationaryError,
    SeriesSample,
    acf,
    char_roots,
    empirical_acf,
    simulate,
)
from serialsum import ar_model
from serialsum.ar_model import (
    _BLOCK,
    _burn_in,
    _sample_acfs,
    _stream,
    _write_rows,
)
from _gen import draw_roots
from _references import finite_sum_direct

AR2_ALPHAS = (0.5, -0.06)  # roots 0.3 and 0.2
AR2_RHO1 = 0.5 / 1.06


def yule_walker_reference(alphas, j_max, dps=50):
    """rho_0..rho_{j_max} at ``dps`` digits: the Yule-Walker equations
    rho_j = sum_i alpha_i * rho_{|j-i|}, j = 1..k-1, then the recursion."""
    mpmath = pytest.importorskip("mpmath")
    k = len(alphas)
    with mpmath.workdps(dps):
        a = [mpmath.mpf(x) for x in alphas]
        rho = [mpmath.mpf(1)]
        if k > 1:
            m = mpmath.eye(k - 1)
            b = mpmath.matrix(k - 1, 1)
            for j in range(1, k):
                for i in range(1, k + 1):
                    if i == j:
                        b[j - 1] += a[i - 1]
                    else:
                        m[j - 1, abs(j - i) - 1] -= a[i - 1]
            rho += list(mpmath.lu_solve(m, b))
        for j in range(k, j_max + 1):
            rho.append(mpmath.fsum(a[i] * rho[j - 1 - i] for i in range(k)))
        return rho[: j_max + 1]


def mixture_weights_reference(alphas, dps=50):
    """[(root, A)] at ``dps`` digits: the exact roots of the characteristic
    polynomial and the Vandermonde solve sum_i A_i * root_i**j = rho_j,
    j = 0..k-1."""
    mpmath = pytest.importorskip("mpmath")
    k = len(alphas)
    rho = yule_walker_reference(alphas, k - 1, dps)
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([1] + [-mpmath.mpf(x) for x in alphas],
                                 maxsteps=200, extraprec=2 * dps)
        vand = mpmath.matrix([[r**j for r in roots] for j in range(k)])
        weights = mpmath.lu_solve(vand, mpmath.matrix(rho))
        return [(complex(r), complex(w)) for r, w in zip(roots, weights)]


def draw_product(rng):
    """2..8 roots closed under conjugation, and the float coefficients of
    their product, highest power first: reals and conjugate pairs, exact
    repeats, radii up to 0.999 or moduli log-uniform over up to 300
    decades; drawn again until every coefficient is a normal float with
    room to spare, so that Horner's rule resolves every root."""
    mpmath = pytest.importorskip("mpmath")
    while True:
        k = rng.randint(2, 8)
        spread = rng.choice((0.0, 0.0, 20.0, 300.0))
        roots = []
        while len(roots) < k:
            if spread:
                r = 10 ** rng.uniform(-spread / 2, spread / 2)
            else:
                r = rng.choice((0.5, 0.9, 0.99, 0.999)) * rng.uniform(0.05, 1.0)
            if roots and rng.random() < 0.25:
                z = rng.choice(roots)
                copies = [z, z.conjugate()] if z.imag else [z]
            elif rng.random() < 0.4:
                z = cmath.rect(r, rng.uniform(0.1, 3.0))
                copies = [z, z.conjugate()]
            else:
                copies = [complex(rng.choice((-r, r)))]
            if len(roots) + len(copies) <= k:
                roots += copies
        with mpmath.workdps(60):
            poly = [mpmath.mpc(1)]
            for z in roots:
                poly = [a - z * b for a, b in zip(poly + [0], [0] + poly)]
            coeffs = [float(c.real) for c in poly]
        if all(1e-290 < abs(c) < 1e290 for c in coeffs):
            return roots, coeffs


class TestCharRoots:
    def test_roots_agree_with_mpmath_polyroots(self):
        # each root found lies within the first-order bound
        # eta*S(|xi|)/|p'(xi)| of mpmath's root xi, eta = 2k*eps the
        # backward error where the iteration stops and S(r) = sum_i |c_i| *
        # r**(k-i); an m-fold drawn root c is found m times, each within
        # (m! * eta*S(|c|)/|p^(m)(c)|)**(1/m) of c, which bounds the float
        # polynomial's own roots there too.  mpmath's Durand-Kerner
        # iteration starts from the roots found, turned off the real axis
        # by 1e-3 radians, so that it converges in few steps, at a
        # precision that holds the smallest and the largest root
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(1)
        for _ in range(80):
            roots, coeffs = draw_product(rng)
            k, eta = len(roots), 2 * len(roots) * 2.0**-52
            found = char_roots([-c for c in coeffs[1:]]).roots
            nearest = [min(roots, key=lambda c: abs(c - z)) for z in found]
            assert Counter(nearest) == Counter(roots), (roots, found)
            dps = 30 + int(max(abs(math.log10(abs(z))) for z in found))
            with mpmath.workdps(dps):
                starts = [z * cmath.exp(1e-3j * (i + 1)) for i, z in enumerate(found)]
                ref = mpmath.polyroots(coeffs, maxsteps=500, extraprec=4 * dps,
                                       roots_init=starts, cleanup=False)

                def S(r):
                    return sum(abs(c) * mpmath.mpf(r) ** (k - i)
                               for i, c in enumerate(coeffs))

                def deriv(x, m):  # |p^(m)(x)|
                    top = coeffs[: k - m + 1]
                    return abs(mpmath.polyval(
                        [c * mpmath.ff(k - i, m) for i, c in enumerate(top)], x))

                for z, c in zip(found, nearest):
                    m = roots.count(c)
                    if m == 1:
                        xi = min(ref, key=lambda w: abs(w - z))
                        assert abs(z - xi) <= eta * S(abs(xi)) / deriv(xi, 1), (roots, z)
                    else:
                        c = mpmath.mpc(c)
                        bound = (math.factorial(m) * eta * S(abs(c)) / deriv(c, m))
                        assert abs(z - c) <= bound ** (mpmath.mpf(1) / m), (roots, z)

    def test_real_roots_are_real_and_pairs_conjugate_exactly(self):
        rng = random.Random(2)
        for _ in range(200):
            roots, coeffs = draw_product(rng)
            found = char_roots([-c for c in coeffs[1:]]).roots
            assert Counter(found) == Counter(z.conjugate() for z in found), found
            for c in roots:
                if not c.imag and roots.count(c) == 1:  # a simple real root
                    assert min(found, key=lambda z: abs(z - c)).imag == 0, (roots, found)

    def test_triple_root(self):
        # (lambda - 0.9)**3: split by about eps**(1/3), within the bound
        # (3! * eta*S(0.9)/3!)**(1/3) = 2.0e-5, eta = 6*eps, into exactly
        # real roots and exact conjugate pairs; the correlations stay exact
        alphas = (2.7, -2.43, 0.729)
        roots = char_roots(alphas).roots
        assert all(abs(z - 0.9) <= 2.0e-5 for z in roots)
        assert Counter(roots) == Counter(z.conjugate() for z in roots)
        _, rho = acf(alphas, 60)
        ref = yule_walker_reference(alphas, 60)
        assert max(abs(a - float(b)) for a, b in zip(rho, ref)) <= 1e-12

    def test_quadratic_factorization(self):
        cr = char_roots(AR2_ALPHAS)
        got = sorted(z.real for z in cr.roots)
        assert got == pytest.approx([0.2, 0.3], abs=1e-12)
        assert all(abs(z.imag) < 1e-12 for z in cr.roots)
        assert cr.stationary

    @pytest.mark.parametrize("alphas", [[float("nan")], [0.5, float("inf")]])
    def test_non_finite_coefficients_are_refused(self, alphas):
        with pytest.raises(ValueError, match="finite"):
            char_roots(alphas)

    def test_order_one_reads_coefficient(self):
        cr = char_roots([1.2])
        assert cr.roots == (1.2 + 0j,)
        assert not cr.stationary

    def test_pure_lag_two(self):
        cr = char_roots([0.0, 0.25])
        assert sorted(z.real for z in cr.roots) == pytest.approx([-0.5, 0.5])
        assert cr.stationary

    def test_residuals_small(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            alphas = rng.uniform(-0.4, 0.4, size=k)
            alphas[-1] = alphas[-1] or 0.1
            cr = char_roots(alphas.tolist())  # residual bound checked inside
            assert len(cr.roots) == k

    def test_wrong_roots_of_high_degree_are_refused(self, monkeypatch):
        # near the circle, (1 + |lam|)**k overflows once k is above 1,023;
        # a scale that overflows lets every residual pass
        k = 1100
        wrong = (0.999 * np.exp(2j * np.pi * (np.arange(k) + 0.5) / k)).tolist()
        monkeypatch.setattr(ar_model, "_aberth", lambda coeffs: list(wrong))
        with pytest.raises(RuntimeError, match="residual"):
            char_roots([0.5 / k] * k)
        wrong[:] = [3 + 0j] * k  # outside the circle, checked on the reversed polynomial
        with pytest.raises(RuntimeError, match="residual"):
            char_roots([0.5 / k] * k)

    @pytest.mark.parametrize("alphas, roots", [
        ([1e308, 1e308], [1e308, -1.0]),
        ([-1e308, 1e308], [-1e308, 1.0]),
    ])
    def test_huge_coefficients_do_not_overflow_the_check(self, alphas, roots):
        # sum_i |c_i| * |lam|**(k-i) overflowed to inf at these, so any
        # residual passed; an overflow warning is an error under pytest
        cr = char_roots(alphas)
        assert [z.real for z in cr.roots] == pytest.approx(roots, rel=1e-12)
        assert all(z.imag == 0 for z in cr.roots)
        assert not cr.stationary

    @pytest.mark.parametrize("alphas", [[1e308, 1e308], [-1e308, 1e308]])
    @pytest.mark.parametrize("which", [0, 1])  # outside the circle, inside it
    def test_perturbed_root_with_huge_coefficients_is_refused(
            self, monkeypatch, alphas, which):
        # the root near 1e308 or the one near 1, moved by 1e-6 relative
        aberth = ar_model._aberth

        def perturbed(coeffs):
            found = sorted(aberth(coeffs), key=abs, reverse=True)
            found[which] *= 1 + 1e-6
            return found

        monkeypatch.setattr(ar_model, "_aberth", perturbed)
        with pytest.raises(RuntimeError, match="residual"):
            char_roots(alphas)

    @pytest.mark.parametrize("roots", [
        (1e300, cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)),
        (-3e200, 0.5, -0.25),
        (2e150, 0.9j, -0.9j, 1e-100),
        (7e60, 5e20, 0.3, -0.2),
    ])
    def test_roots_of_widely_scaled_coefficients(self, roots):
        # one scaling of lambda cannot hold both 1e300 and a unit root:
        # alpha = (1e300, -1e300, 1e300) needs 1e-600 in the scaled
        # polynomial; each scale's roots are found on their own
        alphas = [-float(c.real) for c in np.poly(roots)[1:]]
        got = char_roots(alphas).roots
        want = sorted(map(complex, roots), key=lambda z: (-abs(z), -z.real, -z.imag))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * abs(w), (got, want)


class TestAcf:
    def test_negative_lag_count_is_refused(self):
        with pytest.raises(ValueError, match="j_max"):
            acf([0.6], -5)

    def test_markov_case(self):
        model, rho = acf([0.6], 3)
        assert rho == pytest.approx([1.0, 0.6, 0.36, 0.216], abs=1e-14)
        assert model.coeffs[0] == pytest.approx(1.0)

    def test_ar2_hand_values(self):
        model, rho = acf(AR2_ALPHAS, 5)
        assert rho[1] == pytest.approx(AR2_RHO1, abs=1e-12)
        # 2x2 Vandermonde by hand: A1 = (rho1 - 0.2)/0.1
        a1 = (AR2_RHO1 - 0.2) / 0.1
        coeffs = sorted(c.real for c in model.coeffs)
        assert coeffs == pytest.approx([1 - a1, a1], abs=1e-9)

    def test_correlations_bounded(self):
        for alphas in [(0.6,), AR2_ALPHAS, (0.3, 0.2, 0.1)]:
            _, rho = acf(alphas, 20)
            assert rho[0] == 1.0
            assert all(abs(r) <= 1.0 + 1e-12 for r in rho)

    def test_recursion_consistency(self):
        alphas = (0.4, 0.15, -0.1)
        _, rho = acf(alphas, 30)
        for j in range(1, 31):
            expect = sum(
                alphas[i] * rho[abs(j - 1 - i)] for i in range(len(alphas))
            )
            assert rho[j] == pytest.approx(expect, abs=1e-12)

    def test_mixture_reproduces_recursion_far_out(self):
        model, rho = acf(AR2_ALPHAS, 50)
        for j in range(51):
            mix = sum(a * lam**j for a, lam in zip(model.coeffs, model.roots))
            assert abs(mix - rho[j]) <= 1e-9

    def test_repeated_roots_flagged(self):
        # lambda^2 = lambda - 0.25 has the double root 0.5, whose ACF is
        # (1 + 0.6h) * 0.5**h; equal roots have no geometric-mixture weights
        model, rho = acf([1.0, -0.25], 5)
        assert model.coeffs is None
        for h, r in enumerate(rho):
            assert abs(r - (1 + 0.6 * h) * 0.5**h) <= 1e-14

    @pytest.mark.parametrize("roots, double", [
        ((0.4, 0.4), 0.4),
        ((0.9, 0.9, 0.0, 0.0), 0.9),  # beside the double zero, read off
        ((0.5j, 0.5j, -0.5j, -0.5j), 0.5j),  # a double conjugate pair
        ((-0.7, -0.7, 0.3 + 0.4j, 0.3 - 0.4j), -0.7),
        ((0.5, 0.5, 0.501), 0.5),  # beside a distinct root 1e-3 away
    ])
    def test_double_roots_found_equal(self, roots, double):
        # the iteration splits a double root by about sqrt(eps); the two
        # roots are one where their mean is a root to rounding, and the
        # other roots stay as they were
        alphas = (-np.poly(roots)[1:].real).tolist()
        found = char_roots(alphas).roots
        for c in {double, double.conjugate()}:
            near = [z for z in found if abs(z - c) <= 1e-6]
            assert len(near) == 2 and near[0] == near[1], found
        assert len(set(found)) == len(set(roots)), found
        assert acf(alphas, 3)[0].coeffs is None

    def test_triple_root_matches_yule_walker_reference(self):
        # (lambda - 0.5)**3: the iteration splits the triple root by about 5e-6
        alphas = (1.5, -0.75, 0.125)
        model, rho = acf(alphas, 60)
        assert len(set(model.roots)) == 3
        ref = yule_walker_reference(alphas, 60)
        assert max(abs(a - float(b)) for a, b in zip(rho, ref)) <= 1e-13

    def test_weights_match_high_precision_weights(self):
        # roots at least 0.05 apart; the 50-digit weights solve the
        # Vandermonde system on the exact roots of the float coefficients
        rng = np.random.default_rng(21)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            lams = draw_roots(rng, k, 0.9)
            alphas = (-np.poly(lams)[1:].real).tolist()
            model, _ = acf(alphas, 3)
            want = mixture_weights_reference(alphas)
            for lam, a in zip(model.roots, model.coeffs):
                ref = min(want, key=lambda p: abs(p[0] - lam))[1]
                assert abs(a - ref) <= 1e-12, (alphas, lam, a, ref)

    @pytest.mark.parametrize("k", range(7, 11))
    def test_weights_beyond_six_roots(self, k):
        # the weights take each root as given, with no cap on their number
        rng = np.random.default_rng(k)
        lams = draw_roots(rng, k, 0.9)
        alphas = (-np.poly(lams)[1:].real).tolist()
        model, _ = acf(alphas, 3)
        want = mixture_weights_reference(alphas)
        assert len(model.coeffs) == k
        for lam, a in zip(model.roots, model.coeffs):
            ref = min(want, key=lambda p: abs(p[0] - lam))[1]
            assert abs(a - ref) <= 1e-12, (alphas, lam, a, ref)

    def test_weights_are_pinned(self):
        # reference weights of the residue pass for one AR(3) model with a
        # conjugate pair, matched by root, whatever order the roots take
        want = [(0.9461655037747716, 0.8629077371436814 - 1.4853405122611115e-18j),
                (-0.32308275188738567 + 0.32710402754140644j,
                 0.06854613142815932 + 0.01858948110638981j),
                (-0.32308275188738567 - 0.32710402754140644j,
                 0.06854613142815932 - 0.018589481106389808j)]
        model, _ = acf([0.3, 0.4, 0.2], 3)
        assert len(model.coeffs) == 3
        for lam, a in zip(model.roots, model.coeffs):
            ref = min(want, key=lambda p: abs(p[0] - lam))[1]
            assert a == pytest.approx(ref, rel=1e-12), (lam, a, ref)

    def test_non_stationary_rejected(self):
        with pytest.raises(NotStationaryError):
            acf([1.2], 3)


class TestSimulate:
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            ARModel((0.6,), sigma)

    def test_noiseless_is_zero(self):
        sample = simulate(ARModel((0.6,), 0.0), 100, seed=4)
        assert np.all(sample.values == 0)

    def test_deterministic_per_seed(self):
        model = ARModel(AR2_ALPHAS, 1.0)
        a = simulate(model, 500, seed=12)
        b = simulate(model, 500, seed=12)
        assert np.array_equal(a.values, b.values)
        c = simulate(model, 500, seed=13)
        assert not np.array_equal(a.values, c.values)

    def test_non_stationary_rejected(self):
        with pytest.raises(NotStationaryError):
            simulate(ARModel((1.2,), 1.0), 10, seed=0)

    def test_simulate_rejects_negative_burn_in(self):
        with pytest.raises(ValueError):
            simulate(ARModel((0.6,), 1.0), 10, burn_in=-5, seed=0)

    def test_default_burn_in_forgets_start(self):
        b = _burn_in(char_roots([0.6]))
        assert 0.6**b < 1e-12
        assert 0.6 ** (b - 1) >= 1e-12

    def test_lag1_autocorrelation_near_theory(self):
        n = 100_000
        sample = simulate(ARModel((0.6,), 1.0), n, seed=2)
        r1 = empirical_acf(sample, 1)[1]
        band = 3 * (1 - 0.6**2) / np.sqrt(n)
        assert abs(r1 - 0.6) < band


def _plain_recursion(alphas, eps):
    x = []
    for t, e in enumerate(eps):
        x.append(float(e) + sum(
            a * x[t - i] for i, a in enumerate(alphas, 1) if t - i >= 0
        ))
    return np.array(x)


#: X_t = 0.3 X_{t-1} + 0.5 X_{t-k}: an order above the block length
K_ABOVE_BLOCK = (0.3,) + (0.0,) * (_BLOCK + 40) + (0.5,)


class TestStream:
    """`simulate` and the per-seed ACFs of `ar check` are made chunk by
    chunk by `_stream`: against the plain recursion of each seed's noise,
    and against `empirical_acf` of the whole series."""

    @pytest.fixture(params=["two-block chunks", "default chunks"])
    def small_chunks(self, request, monkeypatch):
        """True when one seed's chunk is cut to two blocks of 256."""
        if request.param == "two-block chunks":
            monkeypatch.setattr(ar_model, "_IN_FLIGHT", 2 * _BLOCK)
        return request.param == "two-block chunks"

    @staticmethod
    def reference(alphas, sigma, seed, total):
        eps = sigma * np.random.default_rng(seed).standard_normal(total)
        return _plain_recursion(alphas, eps)

    @staticmethod
    def check_simulate(alphas, cases):
        # the first values of a longer draw are the values of a shorter one
        want = TestStream.reference(alphas, 1.7, 11, max(n + b for n, b in cases))
        for n, burn_in in cases:
            got = simulate(ARModel(alphas, 1.7), n, burn_in, seed=11)
            ref = want[burn_in : burn_in + n]
            assert got.n == n and got.burn_in == burn_in
            assert np.max(np.abs(got.values - ref)) <= 1e-10 * np.max(np.abs(ref)), (
                n, burn_in)

    @pytest.mark.parametrize("alphas", [
        (0.6,),
        (2 * 0.99 * np.cos(0.3), -0.99**2),  # complex pair at radius 0.99
        (0.5, -0.0625),  # double root at 0.25
        AR2_ALPHAS,
    ])
    def test_simulate_matches_plain_recursion(self, small_chunks, alphas):
        # n and burn-in at block and chunk edges, +-1: a chunk is two
        # blocks of 256, or the whole series; and a length off every edge
        B = _BLOCK
        self.check_simulate(alphas, [
            (1, 0), (B - 1, 0), (B, 0), (B + 1, 0), (2 * B - 1, 0), (2 * B, 0),
            (2 * B + 1, 0), (1, B - 1), (1, B), (1, B + 1), (B - 1, B + 1),
            (B + 1, 2 * B - 1), (2 * B + 1, 2 * B), (3 * B, B + 1),
            (2 * B + 37, 0)])

    def test_zero_noise_is_exactly_zero(self, small_chunks):
        model = ARModel((2 * 0.99 * np.cos(0.3), -0.99**2), 0.0)
        got = simulate(model, 3 * _BLOCK + 5, burn_in=_BLOCK + 1, seed=0)
        assert np.all(got.values == 0)

    def test_simulate_order_above_block(self, monkeypatch):
        # the block is k long, and a chunk one block; finding the 298 roots
        # takes 0.15-0.2 s per call, so two cases only
        monkeypatch.setattr(ar_model, "_IN_FLIGHT", 2 * _BLOCK)
        B = len(K_ABOVE_BLOCK)
        self.check_simulate(K_ABOVE_BLOCK, [(2 * B + 1, 0), (B - 1, B + 1)])

    def test_simulate_across_default_chunks(self):
        n = ar_model._IN_FLIGHT + 1
        got = simulate(ARModel((0.6,), 1.0), n, burn_in=2, seed=3)
        want = self.reference((0.6,), 1.0, 3, n + 2)[2:]
        assert np.max(np.abs(got.values - want)) <= 1e-10 * np.max(np.abs(want))

    def test_groups_of_seeds(self, small_chunks):
        # five seeds run as one group, or in two-block chunks as 2 + 2 + 1
        model, n, burn_in = ARModel(AR2_ALPHAS, 1.7), 3 * _BLOCK + 1, _BLOCK + 1
        seeds = [7, 8, 9, 10, 11]
        got = np.full((len(seeds), n), np.nan)
        groups = set()
        for rows, t0, x in _stream(model, n, burn_in, seeds):
            got[rows, t0 : t0 + x.shape[1]] = x
            groups.add((rows.start, rows.stop))
        assert len(groups) == (3 if small_chunks else 1)
        for row, seed in zip(got, seeds):
            want = self.reference(AR2_ALPHAS, 1.7, seed, burn_in + n)[burn_in:]
            assert np.max(np.abs(row - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, j_max", [
        (3 * _BLOCK, 2 * _BLOCK + 5),  # more lags than a two-block chunk
        (300, 299),
        (1, 0),
        (2000, 3),
    ])
    def test_sample_acfs_match_empirical_acf(self, small_chunks, n, j_max):
        model, burn_in, seeds = ARModel(AR2_ALPHAS, 1.0), 57, range(3, 8)
        got = _sample_acfs(model, n, burn_in, seeds, j_max)
        want = [empirical_acf(simulate(model, n, burn_in, s), j_max) for s in seeds]
        assert got.shape == (len(seeds), j_max + 1)
        assert np.max(np.abs(got - np.array(want))) <= 1e-14

    @pytest.mark.parametrize("n", [5, 50, 300, 1000, 3000])
    def test_one_chunk_is_empirical_acf_bit_for_bit(self, n):
        # a series that fits one chunk goes through the same lag sums as
        # the whole array, so the two agree in every bit
        model, j_max = ARModel(AR2_ALPHAS, 1.0), min(3, n - 1)
        for seed in range(5):
            got = _sample_acfs(model, n, 57, [seed], j_max)[0]
            assert got.tolist() == empirical_acf(simulate(model, n, 57, seed), j_max)

    def test_sample_acfs_refuse_as_empirical_acf_does(self):
        with pytest.raises(BadLagError):
            _sample_acfs(ARModel((0.6,), 1.0), 10, 0, [1, 2], 10)
        with pytest.raises(DegenerateSampleError):
            _sample_acfs(ARModel((0.6,), 0.0), 10, 0, [1, 2], 3)


class TestEmpiricalAcf:
    def test_r0_is_one(self):
        s = SeriesSample(np.array([0.5, -1.0, 2.0, 0.3]), seed=0, burn_in=0)
        assert empirical_acf(s, 2)[0] == 1.0

    def test_hand_enumeration(self):
        # Q_0 = 14, Q_1 = 8 and, at the boundary lag, the single term
        # Q_2 = X_1 * X_n = 3
        s = SeriesSample(np.array([1.0, 2.0, 3.0]), seed=0, burn_in=0)
        assert empirical_acf(s, 2) == [1.0, 8 / 14, 3 / 14]

    def test_bad_lag(self):
        s = SeriesSample(np.array([1.0, 2.0]), seed=0, burn_in=0)
        with pytest.raises(BadLagError):
            empirical_acf(s, 2)
        with pytest.raises(BadLagError):
            empirical_acf(s, -1)

    def test_lag_sums_within_rounding_bound(self):
        # every lag, the last included, against correctly rounded sums:
        # a sum of m products errs by at most about m*eps*sum|x_t*x_{t+j}|,
        # and r_j by that over Q_0 and one rounding more
        rng = np.random.default_rng(8)
        eps = np.finfo(float).eps
        for n in (1, 2, 7, 1000):
            x = rng.standard_normal(n) * 1e3
            got = empirical_acf(SeriesSample(x, seed=0, burn_in=0), n - 1)
            xs = x.tolist()
            q0 = math.fsum(v * v for v in xs)
            for j in range(n):
                products = [a * b for a, b in zip(xs, xs[j:])]
                want = math.fsum(products) / q0
                scale = math.fsum(map(abs, products)) / q0
                assert abs(got[j] - want) <= 2 * n * eps * scale, (n, j)

    def test_ar1_monte_carlo(self):
        sample = simulate(ARModel((0.6,), 1.0), 200_000, seed=3)
        r1 = empirical_acf(sample, 1)[1]
        assert abs(r1 - 0.6) < 0.01

    def test_noiseless_decay_matches_geometric(self):
        # deterministic recursion X_i = 0.5 X_{i-1} from a nonzero start
        lam, n = 0.5, 40
        x = lam ** np.arange(n)
        s = SeriesSample(x, seed=0, burn_in=0)
        r = empirical_acf(s, 3)
        # zero-mean estimator on the truncated geometric sequence
        for j in range(4):
            expect = lam**j * (1 - lam ** (2 * (n - j))) / (1 - lam ** (2 * n))
            assert r[j] == pytest.approx(expect, abs=1e-6)

    def test_degenerate_sample(self):
        s = SeriesSample(np.zeros(10), seed=0, burn_in=0)
        with pytest.raises(DegenerateSampleError):
            empirical_acf(s, 2)


class TestCsvExport:
    def test_bytes_match_csv_writer(self, tmp_path):
        # more rows than one write holds, so the block joins are covered
        sample = simulate(ARModel((0.5, -0.06), 2.0), 70_000, seed=4)
        path = tmp_path / "series.csv"
        _write_rows(path, [sample.values])
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x"])
            for v in sample.values:
                writer.writerow([repr(float(v))])
        assert path.read_bytes() == ref.read_bytes()

    def test_round_trip(self, tmp_path):
        sample = simulate(ARModel((0.6,), 1.0), 50, seed=8)
        path = tmp_path / "series.csv"
        _write_rows(path, [sample.values])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x"
        values = np.array([float(v) for v in lines[1:]])
        assert np.array_equal(values, sample.values)


class TestLatticeBridge:
    def test_rho_sum_equals_mixture_of_finite_sums(self):
        # sum over i1,i2 <= n of rho_{i1-i2}^2 equals the A_a A_b mixture of
        # the two-root cyclic finite sums, by linearity; exact for small n
        model, rho = acf(AR2_ALPHAS, 30)
        for n in (3, 7, 12):
            lhs = 0.0
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    lhs += rho[abs(i1 - i2)] ** 2
            rhs = 0j
            for aa, la in zip(model.coeffs, model.roots):
                for ab, lb in zip(model.coeffs, model.roots):
                    rhs += aa * ab * finite_sum_direct(
                        FiniteSumSpec((la, lb), (0, 0), n)
                    )
            assert rhs.imag == pytest.approx(0.0, abs=1e-10)
            assert lhs == pytest.approx(rhs.real, rel=1e-10)
