"""Limit values of cyclic geometric lattice sums and their oracles.

The central object is

    F(lambda_1..lambda_l; S) = lim (1/n) * sum over i_1..i_l in [1, n] of
        prod_m lambda_m ** |i_m - i_{m+1} + s_m|        (indices cyclic)

with S = |s_1 + ... + s_l|.  For pairwise-distinct roots the limit has the
closed form

    sum_i lambda_i**(S+l-1) * prod_{j != i}
        (1 - lambda_j**2) / ((lambda_i - lambda_j) * (1 - lambda_i*lambda_j))

(`f_distinct`).  Repeated roots are handled by `f_general`, which evaluates
the confluent divided difference of

    G(x) = x**(S+l-1) * prod_j (1 - lambda_j**2) / (1 - x*lambda_j)

over the root multiset; for distinct roots this reproduces the closed form
term by term, and it extends continuously to any multiplicities.  The
Taylor coefficients of G at a root of multiplicity m are built in closed
form to order m - 1 (binomials times geometric series, multiplied as
truncated Cauchy products; McCurdy, Ng & Parlett, Math. Comp. 43, 1984)
and handed to the divided-difference table as one `Jet`.

Two independent oracles back every closed form: `series_oracle` (the limit
as the S-th Fourier coefficient of prod_m (1 - lambda_m**2) /
((1 - lambda_m*z) * (1 - lambda_m/z)), by the trapezoidal rule on |z| = 1
with a proven aliasing bound; the symbol is even in the angle, so it is
sampled on the half circle, each factor in a positive real form with no
cancellation, and the rounding bound is a few dozen eps per root, with a
part growing as 1/(1 - |lambda|) for complex roots only) and `finite_sum`
(the exact finite-n sum, both as the trace of a product of l Toeplitz
matrices and as a direct enumerator), plus `linear_coefficient` which
extracts the n-slope from finite sums.

The closed forms need no numpy: the oracles and the root sampler import it
where they use it, so `import serialsum` and `f_general` load none.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .numerics import Jet, confluent_divided_difference_cond

#: Relative clustering threshold: roots closer than this are treated as one
#: repeated root.  Direct evaluation loses ~|log10(delta)| digits to
#: cancellation, so below 1e-6 the confluent path is strictly better.
CLUSTER_DELTA = 1e-6

#: Tolerance for certifying a result as real.
REALNESS_TOL = 1e-10

#: Default work budget of the series oracle (N*l symbol factors at N nodes)
#: and of the finite-sum oracle (multiply-adds).
DEFAULT_BUDGET = 200_000_000

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


class CollisionError(ValueError):
    """Roots too close for the distinct-root formula; use f_general."""


class BudgetExceededError(RuntimeError):
    """An oracle or an AR simulation needs more work than its budget allows.

    ``achievable_bound`` is the best error bound attainable at the budget:
    the series oracle's aliasing bound at the largest affordable node count
    (inf when that count is not above S), or inf for the finite-sum oracle,
    which is exact or nothing, and for an AR simulation.
    """

    def __init__(self, message: str, achievable_bound: float):
        super().__init__(message)
        self.achievable_bound = achievable_bound


def _sep_scale(values: Sequence[complex]) -> float:
    return 1.0 + max(abs(v) for v in values)


@dataclass(frozen=True)
class RootMultiset:
    """Roots with multiplicities, all strictly inside the unit disk.

    Distinct entries must be separated by more than ``CLUSTER_DELTA``
    (relative); build via :meth:`from_lambdas` to merge near-coincident
    values automatically.
    """

    entries: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        entries = tuple((complex(v), int(m)) for v, m in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(m < 1 for _, m in entries):
            raise ValueError("multiplicities must be >= 1")
        for v, _ in entries:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"non-finite root {v!r}")
            if abs(v) >= 1:
                raise ValueError(f"root {v} not strictly inside the unit disk")
        ell = sum(m for _, m in entries)
        if not 2 <= ell <= 6:
            raise ValueError(f"total root count must be in [2, 6], got {ell}")
        scale = _sep_scale([v for v, _ in entries])
        for (a, _), (b, _) in itertools.combinations(entries, 2):
            if abs(a - b) <= CLUSTER_DELTA * scale:
                raise ValueError(
                    f"entries {a} and {b} closer than the clustering threshold; "
                    "merge them before construction"
                )

    @classmethod
    def from_lambdas(cls, lambdas: Sequence[complex]) -> "RootMultiset":
        """Cluster a flat list of roots into a multiset, merging values
        within the clustering threshold (merged value: mean of the cluster)."""
        vals = [complex(v) for v in lambdas]
        if not vals:
            raise ValueError("no roots given")
        scale = _sep_scale(vals)
        clusters: list[list[complex]] = []
        for v in vals:
            for c in clusters:
                if abs(v - c[0]) <= CLUSTER_DELTA * scale:
                    c.append(v)
                    break
            else:
                clusters.append([v])
        return cls(tuple((sum(c) / len(c), len(c)) for c in clusters))

    @property
    def ell(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def lambdas(self) -> tuple[complex, ...]:
        """Flat root list, repeats expanded."""
        return tuple(
            v for v, m in self.entries for _ in range(m)
        )

    def is_distinct(self) -> bool:
        return all(m == 1 for _, m in self.entries)

    def is_conjugate_closed(self, tol: float = 1e-12) -> bool:
        remaining = list(self.entries)
        while remaining:
            v, m = remaining.pop()
            if abs(v.imag) <= tol * (1 + abs(v)):
                continue
            for i, (w, mw) in enumerate(remaining):
                if abs(w - v.conjugate()) <= tol * (1 + abs(v)) and mw == m:
                    del remaining[i]
                    break
            else:
                return False
        return True


@dataclass(frozen=True)
class ShiftSpec:
    """Integer shifts s_1..s_l; only |sum s_i| enters the limit."""

    shifts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))

    @property
    def S(self) -> int:
        return abs(sum(self.shifts))


@dataclass(frozen=True)
class LimitValue:
    """A computed limit with an error estimate and a realness flag.

    ``truncation`` is the series oracle's node count N (0 when every root
    is zero); the other evaluators leave it None.
    """

    value: complex
    err_estimate: float
    is_real_certified: bool
    truncation: int | None = None


@dataclass(frozen=True)
class FiniteSumSpec:
    """The finite cyclic sum: indices i_m each range over [1, n + d_m].

    ``upper_adjust`` holds the d_m <= 0 adjustments (default: none).
    """

    lambdas: tuple[complex, ...]
    shifts: tuple[int, ...]
    n: int
    upper_adjust: tuple[int, ...] = ()

    def __post_init__(self):
        lambdas = tuple(complex(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))
        adjust = self.upper_adjust or (0,) * len(lambdas)
        object.__setattr__(self, "upper_adjust", tuple(int(d) for d in adjust))
        ell = len(lambdas)
        if ell < 2:
            raise ValueError("need at least two lambdas")
        if len(self.shifts) != ell or len(self.upper_adjust) != ell:
            raise ValueError("shifts and upper_adjust must match lambdas in length")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if any(d > 0 for d in self.upper_adjust):
            raise ValueError("upper adjustments must be <= 0")
        if any(self.n + d < 1 for d in self.upper_adjust):
            raise ValueError("adjusted upper limits must stay >= 1")


def _certify(value: complex, roots_conjugate_closed: bool) -> tuple[complex, bool]:
    real_ok = roots_conjugate_closed and abs(value.imag) <= REALNESS_TOL * (
        1 + abs(value)
    )
    return value, real_ok


def _distinct_terms(lams: Sequence[complex], S: int) -> list[complex]:
    """The closed form's term for each of the pairwise-distinct roots,
    lambda_i**(S+l-1) * prod_{j != i} (1 - lambda_j**2) /
    ((lambda_i - lambda_j) * (1 - lambda_i*lambda_j))."""
    ell = len(lams)
    terms = []
    for i, li in enumerate(lams):
        term = _ipow(li, S + ell - 1)
        for j, lj in enumerate(lams):
            if j != i:
                term *= (1 - lj * lj) / ((li - lj) * (1 - li * lj))
        terms.append(term)
    return terms


def f_distinct(roots: RootMultiset, S: int) -> LimitValue:
    """Closed-form limit for pairwise-distinct roots.

    Raises CollisionError when any multiplicity exceeds 1; route such
    inputs to :func:`f_general`.  The power lambda_i**(S+l-1) carries a
    rounding error that grows with S, so err_estimate scales the sum of
    the term moduli by S + l.
    """
    if S < 0:
        raise ValueError("S must be >= 0")
    if not roots.is_distinct():
        raise CollisionError("repeated roots: use f_general")
    terms = _distinct_terms([v for v, _ in roots.entries], S)
    value, real_ok = _certify(sum(terms, 0j), roots.is_conjugate_closed())
    err = _EPS * ((S + len(terms)) * sum(map(abs, terms)) + abs(value))
    return LimitValue(value, err, real_ok)


def _ipow(z: complex, n: int) -> complex:
    """z**n by repeated squaring, for any n >= 0.  Python's complex ** int
    squares only up to n = 100; above that it goes through the polar form,
    whose error grows like n."""
    out = 1 + 0j
    while n:
        if n & 1:
            out *= z
        z *= z
        n >>= 1
    return out


def _g_jet(x0: complex, order: int, lams: Sequence[complex], power: int) -> Jet:
    """Jet of G(x) = x**power * prod_j (1-l_j^2)/(1-x*l_j) at x0.

    The Taylor coefficients in h = x - x0 are closed forms: x**power gives
    C(power, k) * x0**(power-k) (0**0 = 1), and each root l gives the
    geometric series c/d * (l/d)**k, with c = 1 - l**2 and d = 1 - x0*l.
    The factors are multiplied as truncated Cauchy products.
    """
    n = order + 1
    coeffs = [math.comb(power, k) * _ipow(x0, power - k) if k <= power else 0j
              for k in range(n)]
    for lam in lams:
        d = 1 - x0 * lam
        q = lam / d
        c = (1 - lam * lam) / d
        factor = [c * q**k for k in range(n)]
        coeffs = [sum(coeffs[i] * factor[k - i] for i in range(k + 1))
                  for k in range(n)]
    return Jet(x0, tuple(coeffs))


def f_general(roots: RootMultiset, S: int) -> LimitValue:
    """Limit value for any root multiplicities (the confluent evaluator).

    Evaluates the confluent divided difference of G(x) over the node
    multiset, from closed-form Taylor coefficients of G at each node;
    agrees with :func:`f_distinct` for all-distinct inputs and extends
    continuously to repeated roots.  As there, err_estimate scales the
    table's magnitude scale by S + l, for the rounding of x**(S+l-1).
    """
    if S < 0:
        raise ValueError("S must be >= 0")
    lams = roots.lambdas
    power = S + len(lams) - 1
    jets = [_g_jet(v, m - 1, lams, power) for v, m in roots.entries]
    value, cond = confluent_divided_difference_cond(
        list(roots.entries), jets, CLUSTER_DELTA
    )
    value, real_ok = _certify(value, roots.is_conjugate_closed())
    return LimitValue(value, _EPS * ((power + 1) * cond + abs(value)), real_ok)


def f2_equal_reference(lam: complex, S: int) -> complex:
    """Printed two-equal-roots closed form; test reference for f_general."""
    lam = complex(lam)
    if abs(lam) >= 1:
        raise ValueError("|lambda| must be < 1")
    return lam**S * (1 + S + (1 - S) * lam**2) / (1 - lam**2)


def f3_triple_reference(lam: complex, S: int) -> complex:
    """Printed triple-root closed form; test reference for f_general."""
    lam = complex(lam)
    if abs(lam) >= 1:
        raise ValueError("|lambda| must be < 1")
    return (
        lam**S
        * (
            2
            + 3 * S
            + S * S
            + 2 * (4 - S * S) * lam**2
            + (2 - 3 * S + S * S) * lam**4
        )
        / (2 * (1 - lam**2) ** 2)
    )


#: log(rho) / log(1/r) tried in the aliasing bound; the best rho nears 1/r
#: as N grows.  One minus a geometric sequence from 0.95 down to 1e-3.
_LOG_RHO_FRACTIONS = tuple(1 - 0.95 * (1e-3 / 0.95) ** (i / 23) for i in range(24))


def series_oracle(
    lambdas: Sequence[complex],
    S: int,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> LimitValue:
    """Infinite-lattice sum by the trapezoidal rule on |z| = 1.

    The limit is the S-th Fourier coefficient c_S of the symbol
    f(z) = prod_m (1 - lambda_m**2) / ((1 - lambda_m*z) * (1 - lambda_m/z)),
    whose coefficients are the convolution of the kernels lambda_m**|j|
    (Gray, Toeplitz and Circulant Matrices: A Review).  The mean of
    z**-S * f(z) over the N-th roots of unity is sum_p c_{S+pN}.  N is the
    first power of two above 2S at which the aliasing bound on the terms
    p != 0 is below ``tol``: it is solved for from the bound and confirmed
    on it.  The work is N*l: needing more than budget // l nodes raises
    BudgetExceededError.

    f is even in the angle theta, so the rule samples the half circle
    theta_k = 2*pi*k/N, k = 0..N//2, with weights 1, 2*cos(S*theta_k) and,
    at k = N/2, (-1)**S.  Each factor is taken in a form with no
    cancellation, built from B_rho(psi) = (1 - rho)**2 +
    4*rho*sin(psi/2)**2 > 0: a real root a gives (1 - a)*(1 + a) /
    B_a(theta), or B_|a|(pi - theta) for a < 0, with pi - theta_k taken as
    the node theta_{N/2-k}; a conjugate pair rho*exp(+-i*phi) gives
    |1 - lambda**2|**2 / (B_rho(theta - phi) * B_rho(theta + phi)).  Only a
    complex root without its conjugate keeps a complex factor, with
    1 - rho*exp(i*psi) = (1 - rho) + 2*rho*sin(psi/2)**2 - i*rho*sin(psi).
    A sample is then accurate to a few eps per real root, however near
    the circle the root lies.

    err_estimate adds a rounding bound to the aliasing bound, so the true
    limit lies within it of the returned value.  Only the aliasing part is
    held below ``tol``.  The rounding part is a few dozen eps per root
    times the mean sample modulus, and for a complex root it grows as
    1/(1 - |lambda|), from the rounding of theta -+ phi and of |lambda|.
    A zero root contributes the factor 1, the convention 0**0 = 1.
    """
    import numpy as np

    lams = [complex(v) for v in lambdas]
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if S < 0:
        raise ValueError("S must be >= 0")
    # RootMultiset rejects all but 2..6 finite roots strictly inside the disk
    conj_closed = RootMultiset.from_lambdas(lams).is_conjugate_closed()
    ell = len(lams)
    r = max(abs(v) for v in lams)
    if r == 0:
        value = 1.0 + 0j if S == 0 else 0j
        return LimitValue(value, 0.0, True, truncation=0)

    # Aliasing (Trefethen & Weideman, SIAM Rev. 56(3), 2014): |c_j| is at
    # most the j-th coefficient of g, the symbol built from the moduli
    # |lambda_m|, whose coefficients are positive and even in j, so
    # |c_j| <= g(rho) * rho**-|j| for 1 < rho < 1/r.  For N > S the terms
    # p != 0 sum to at most g(rho) * (rho**(S-N) + rho**(-S-N)) /
    # (1 - rho**-N), taken in logs so that nothing overflows.
    log_rho = -math.log(r) * np.array(_LOG_RHO_FRACTIONS)
    mods = [abs(v) for v in lams if v != 0]
    log_a = np.log(mods)[:, None]
    log_g = sum(math.log1p(-a * a) for a in mods) - (
        np.log1p(-np.exp(log_a + log_rho)) + np.log1p(-np.exp(log_a - log_rho))
    ).sum(axis=0)
    log_alias = log_g + np.log1p(np.exp(-2 * S * log_rho))

    def alias(N: int) -> float:
        log_bound = (
            log_alias - (N - S) * log_rho - np.log1p(-np.exp(-N * log_rho))
        )
        return float(np.exp(log_bound.min()))

    cap = budget // ell
    if cap <= S:  # no N above S fits
        raise BudgetExceededError(f"S={S} needs over {cap:,} nodes", math.inf)
    # Leaving out the factor 1/(1 - rho**-N) > 1, the bound at rho is below
    # tol only once N exceeds S + (log_alias - log(tol)) / log(rho), so no
    # power of two below the first one above the least of these passes.
    # The bound decreases in N: doubling from there until it passes gives
    # the N of a doubling from the first power of two above 2S.
    least = S + float(((log_alias - math.log(tol)) / log_rho).min())
    N = 1 << (2 * S).bit_length()
    if least >= N:
        N = 1 << int(min(least, cap) * (1 - 1e-9)).bit_length()
    N = min(N, cap)
    while (bound := alias(N)) >= tol:
        if N == cap:
            raise BudgetExceededError(
                f"tolerance {tol:g} at S={S} needs more than {cap:,} nodes; "
                f"achievable bound at N={cap} is {bound:g}",
                bound,
            )
        N = min(2 * N, cap)

    # Each factor's numerator goes into ``quot``, and its denominators
    # B_rho = q + p*sin(.)**2 into one product, or a complex one for a root
    # whose conjugate is not among the roots.
    reals, pairs, lone = [], [], []
    rest = [v for v in lams if v != 0]
    while rest:
        v = rest.pop()
        if v.imag == 0:
            reals.append(v.real)
        elif v.conjugate() in rest:
            rest.remove(v.conjugate())
            pairs.append(v)
        else:
            lone.append(v)
    quot = math.prod((1 - a) * (1 + a) for a in reals) * math.prod(
        (abs(1 - v) * abs(1 + v)) ** 2 for v in pairs
    ) * math.prod((1 - v) * (1 + v) for v in lone)
    rhos = [abs(a) for a in reals] + [abs(v) for v in pairs for _ in range(2)]
    q = np.array([(1 - rho) ** 2 for rho in rhos])[:, None]
    p = np.array([4 * rho for rho in rhos])[:, None]
    half_phases = [math.atan2(v.imag, v.real) / 2 for v in pairs]
    turns = [(math.cos(c), math.sin(c)) for c in half_phases]

    h = math.pi / N  # half the node spacing
    half = N // 2
    re, im = [], []
    abs_total = 0.0
    for lo in range(0, half + 1, 1 << 16):  # in blocks: memory stays bounded
        hi = min(lo + (1 << 16), half + 1)
        k = np.arange(lo, hi)
        # sin and cos of the half angle x = theta_k/2, the cosine as the
        # sine of the mirrored node's half angle, h*(N/2 - k) = pi/2 - x
        sin_x = np.sin(h * k)
        cos_x = np.sin(h * (N / 2 - k))
        rows = [sin_x if a > 0 else cos_x for a in reals]
        for cos_c, sin_c in turns:  # sin(x -+ phi/2)
            rows += [sin_x * cos_c - cos_x * sin_c, sin_x * cos_c + cos_x * sin_c]
        sines = np.array(rows).reshape(len(rows), len(k))
        f = quot / np.prod(q + p * (sines * sines), axis=0)
        for v in lone:
            rho, c = abs(v), math.atan2(v.imag, v.real) / 2
            for a in (c + h * k, c - h * k):
                s = np.sin(a)
                f = f / ((1 - rho) + 2 * rho * (s * s) - 2j * rho * (s * np.cos(a)))
        # S*k mod N, without int64 overflow for any N below 2**46
        j = (lo * S % N + (k - lo) * (S % N)) % N
        w = 2 * np.cos(2 * h * j)
        mod = np.abs(f)
        abs_total += 2 * float(mod.sum())
        if lo == 0:
            w[0] = 1.0
            abs_total -= float(mod[0])
        if hi == half + 1 and N % 2 == 0:
            w[-1] = -1.0 if S % 2 else 1.0
            abs_total -= float(mod[-1])
        terms = w * f
        re.append(math.fsum(terms.real.tolist()))
        if lone:
            im.append(math.fsum(terms.imag.tolist()))
    value = complex(math.fsum(re), math.fsum(im)) / N

    # Rounding, to first order in eps and relative to each sample, with
    # sin and cos within 4 ulps, atan2 and abs within 2.  A half angle
    # h*k carries 1.5*eps, so its sine 5.5*eps, and sin**2, B and the
    # product of the B at most 13*eps; (1 - a)*(1 + a) adds 2*eps, so a
    # real root costs 16*eps.  For a pair, sin(x -+ phi/2) is off by at
    # most 16*eps absolute (phi/2 by 3.1*eps, its cosine and sine by 4*eps
    # each) and rho by 2 ulps, which move B_rho by at most
    # (2*sqrt(rho)*16 + 4)*eps/(1 - rho) relative; with the rest,
    # 16*eps + 36*eps/(1 - rho) per root.  A root without its conjugate has
    # two complex denominators, whose half angles are off by 7.2*eps
    # absolute, each within 16.3*eps + 16.4*eps/(1 - rho), and with its
    # numerator and divisions costs 44*eps + 33*eps/(1 - rho).  Each weight
    # 2*cos(2*h*j) is off by 2*13.4*eps at most, and the product w*f, the
    # division by the denominators and the two levels of fsum add 2.5*eps,
    # so with abs_total counting every node of the full circle a sample
    # costs 16*eps more.  Dividing by N adds eps*|value|.
    per_sample = 16 + 16 * len(reals) + sum(
        2 * (16 + 36 / (1 - abs(v))) for v in pairs
    ) + sum(44 + 33 / (1 - abs(v)) for v in lone)
    err_round = per_sample * _EPS * abs_total / N + _EPS * abs(value)

    value, real_ok = _certify(value, conj_closed)
    return LimitValue(value, bound + err_round, real_ok, truncation=N)


def finite_sum(spec: FiniteSumSpec) -> complex:
    """Exact finite cyclic sum; see `finite_sum_with_error`."""
    return finite_sum_with_error(spec)[0]


def finite_sum_with_error(
    spec: FiniteSumSpec, budget: int = DEFAULT_BUDGET
) -> tuple[complex, float]:
    """The exact finite cyclic sum and a bound on its rounding error.

    The sum is the trace of a product of l Toeplitz matrices: O(n) work
    and memory for l = 2, O(n**2) memory and (l-2)*n**3 work above.
    Raises BudgetExceededError, before allocating anything, when that work
    exceeds ``budget``.
    """
    _check_finite_budget(_finite_sum_work(len(spec.lambdas), spec.n), budget)
    return _trace_sum(spec)


def _finite_sum_work(ell: int, n: int) -> int:
    # each of the l steps makes about a dozen passes over vectors of
    # length 2n; above l = 2, l - 1 gathered n x n matrices, l - 2 matrix
    # products and the diagonal sums of the last one
    return (ell - 2) * (n**3 + ell * n * n) + 24 * ell * n


def _check_finite_budget(work: int, budget: int) -> None:
    if work > budget:
        raise BudgetExceededError(
            f"finite sum needs {work:,} work units, over the budget of {budget:,}",
            math.inf,
        )


def _powers(lam: complex, lo: int, count: int, floor: float) -> np.ndarray:
    """lam**lo .. lam**(lo + count - 1) (0**0 = 1), in float64 when lam is
    real, with powers below ``floor`` in modulus set to zero."""
    import numpy as np

    base = lam.real if lam.imag == 0 else lam
    p = np.full(count, base)
    p[0] = np.power(base, lo)
    p = np.cumprod(p)
    p[np.abs(p) < floor] = 0
    return p


def _toeplitz(diag: np.ndarray, cols: int) -> np.ndarray:
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    # A[a, b] = diag[a - b + cols - 1]: row a is diag[a : a + cols] read
    # backwards
    return np.ascontiguousarray(sliding_window_view(diag[::-1], cols)[::-1])


def _trace_sum(spec: FiniteSumSpec) -> tuple[complex, float]:
    """tr(A_1 ... A_l) and a bound on its rounding error.

    (A_m)_{ab} = lambda_m**|a - b + s_m|, a < n_m and b < n_{m+1} (cyclic),
    weighs the step from i_m to i_{m+1}, so the trace sums every term of
    the cyclic lattice exactly once.  It is closed as
    sum_d c[d] * (A_l)_{b, b + d}, where c[d] sums the entries of
    P = A_1 ... A_{l-1} on its diagonal a - b = d.
    """
    import numpy as np

    lams = spec.lambdas
    ell = len(lams)
    ns = [spec.n + d for d in spec.upper_adjust]

    # A product of l powers above the floor stays a normal float: products
    # that underflow to subnormals run many times slower in the matrix
    # products, and the error bound counts every dropped term.
    floor = _TINY ** (1 / ell)
    diags = []
    masses = []
    peaks = []
    kmax = 0
    for m, (lam, s) in enumerate(zip(lams, spec.shifts)):
        rows, cols = ns[m], ns[(m + 1) % ell]
        # diag[d + cols - 1] = lam**|d + s| on the diagonal a - b = d; only
        # the rows + cols - 1 exponents it reads are computed, so a large
        # shift costs nothing
        exps = np.abs(np.arange(1 - cols, rows) + s)
        lo, hi = int(exps.min()), int(exps.max())
        diag = _powers(lam, lo, hi - lo + 1, floor)[exps - lo]
        diags.append(diag)
        mag = np.abs(diag)
        masses.append(float(mag.sum()))
        peaks.append(float(mag.max()))
        kmax = max(kmax, hi)

    n1, nl = ns[0], ns[-1]
    if ell == 2:
        # P = A_1 holds the same entry at each of the count[d] positions of
        # its diagonal d, so no matrix is built
        d = np.arange(1 - nl, n1)
        c = (np.minimum(n1, nl + d) - np.maximum(0, d)) * diags[0]
    else:
        prod = _toeplitz(diags[0], ns[1])
        for m in range(1, ell - 1):
            prod = prod @ _toeplitz(diags[m], ns[m + 1])
        bins = (np.subtract.outer(np.arange(n1), np.arange(nl)) + nl - 1).ravel()
        c = np.bincount(bins, prod.real.ravel(), n1 + nl - 1)
        if np.iscomplexobj(prod):
            c = c + 1j * np.bincount(bins, prod.imag.ravel(), n1 + nl - 1)
    # (A_l)_{b, b + d} = lambda_l**|s_l - d| is A_l's diagonal -d
    value = complex(c @ diags[-1][::-1])

    # A power lam**k computed from lam**lo and k - lo complex products
    # carries a relative error below 4*k*eps, and a term multiplies l of
    # them with one more rounding each.  Summation adds at most n_max
    # roundings in each of the l - 2 products and in the diagonal sums,
    # and 2*n_max in the final dot product (Higham 2002, sec. 3.5).  Fixing
    # one index and summing the others along the cycle bounds sum |terms|
    # by n_max times the largest entry of one step times the masses
    # sum |diag| of the others.  A dropped term has one factor below the
    # floor and the others at most their peaks.
    abs_sum = max(ns) * min(
        peaks[m] * math.prod(masses[:m] + masses[m + 1:]) for m in range(ell)
    )
    dropped = floor * math.prod(ns) * math.prod(max(1.0, p) for p in peaks)
    err = (ell * (4 * kmax + 3) + (ell + 1) * max(ns)) * _EPS * abs_sum + dropped
    return value, err


def finite_sum_direct(spec: FiniteSumSpec) -> complex:
    """Direct O(n**l) enumeration; the correctness oracle for the reduction."""
    lams = spec.lambdas
    ell = len(lams)
    ns = [spec.n + d for d in spec.upper_adjust]
    total = 0j
    for idx in itertools.product(*(range(1, nm + 1) for nm in ns)):
        t = 1 + 0j
        for m in range(ell):
            e = abs(idx[m] - idx[(m + 1) % ell] + spec.shifts[m])
            t *= lams[m] ** e if e else 1.0
        total += t
    return total


def linear_coefficient(
    lambdas: Sequence[complex],
    shifts: Sequence[int],
    n_base: int,
    upper_adjust: Sequence[int] = (),
) -> LimitValue:
    """Extract the n-proportional coefficient of the finite sum.

    Returns (T(2*n_base) - T(n_base)) / n_base, which cancels the constant
    part of T(n) exactly and leaves the slope plus an exponentially small
    residue.  err_estimate combines the geometric residue bound with the
    rounding bounds of both finite sums (the residue bound alone drops
    below machine precision for moderate n_base, where rounding dominates).
    Raises BudgetExceededError when the two finite sums together need more
    than DEFAULT_BUDGET work units.
    """
    lams = tuple(complex(v) for v in lambdas)
    r = max(abs(v) for v in lams)
    if r > 0 and r**n_base >= 1e-12:
        raise ValueError(
            f"n_base={n_base} too small for max|lambda|={r:g}: "
            "need max|lambda|**n_base < 1e-12"
        )
    ell = len(lams)
    spec1 = FiniteSumSpec(lams, tuple(shifts), n_base, tuple(upper_adjust))
    spec2 = FiniteSumSpec(lams, tuple(shifts), 2 * n_base, tuple(upper_adjust))
    _check_finite_budget(
        _finite_sum_work(ell, n_base) + _finite_sum_work(ell, 2 * n_base),
        DEFAULT_BUDGET,
    )
    t1, e1 = _trace_sum(spec1)
    t2, e2 = _trace_sum(spec2)
    value = (t2 - t1) / n_base

    if r > 0:
        err_exp = 100.0 * ell * n_base * r**n_base / (1 - r) ** ell
    else:
        err_exp = 0.0
    err_round = (e1 + e2) / n_base
    conj_closed = RootMultiset.from_lambdas(lams).is_conjugate_closed()
    value, real_ok = _certify(value, conj_closed)
    return LimitValue(value, err_exp + err_round, real_ok)


@dataclass(frozen=True)
class ProbeTrial:
    lambdas: tuple[complex, ...]
    S: int
    status: str  # "pass" | "fail" | "skip"
    discrepancy: float | None
    oracle_err: float | None
    detail: str = ""


@dataclass(frozen=True)
class ConjectureReport:
    ell: int
    tol: float
    trials: tuple[ProbeTrial, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> int:
        return sum(t.status == "pass" for t in self.trials)

    @property
    def failed(self) -> int:
        return sum(t.status == "fail" for t in self.trials)

    @property
    def skipped(self) -> int:
        return sum(t.status == "skip" for t in self.trials)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def draw_roots(rng: np.random.Generator, ell: int, rmax: float) -> list[complex]:
    """Random admissible roots: real values and conjugate pairs inside the
    disk of radius rmax, mutually separated by at least 0.05 (relative)."""
    import numpy as np

    while True:
        n_pairs = int(rng.integers(0, ell // 2 + 1))
        roots: list[complex] = []
        for _ in range(n_pairs):
            rad = rng.uniform(0.05, rmax)
            ang = rng.uniform(0.1, np.pi - 0.1)
            z = rad * complex(np.cos(ang), np.sin(ang))
            roots.extend([z, z.conjugate()])
        while len(roots) < ell:
            roots.append(complex(rng.uniform(-rmax, rmax)))
        scale = _sep_scale(roots)
        if all(
            abs(a - b) > 0.05 * scale
            for a, b in itertools.combinations(roots, 2)
        ):
            return roots


def conjecture_probe(
    ell: int,
    trials: int,
    seed: int,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> ConjectureReport:
    """Numerical support for the closed form at l in {5, 6}.

    Each trial draws random admissible roots from the disk |lambda| <= 0.95
    (`draw_roots`) and a random S in 0..4, and compares the closed-form
    evaluator against the series oracle.  A trial passes when the
    discrepancy is at most tol + oracle err_estimate; an oracle over the
    budget or with err_estimate >= tol makes a skip, never a pass.
    """
    if ell not in (5, 6):
        raise ValueError("the conjecture probe covers ell in {5, 6} only")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    import numpy as np

    rng = np.random.default_rng(seed)
    out: list[ProbeTrial] = []
    for _ in range(trials):
        lams = draw_roots(rng, ell, 0.95)
        S = int(rng.integers(0, 5))
        roots = RootMultiset.from_lambdas(lams)
        closed = f_general(roots, S)
        try:
            oracle = series_oracle(lams, S, tol, budget=budget)
        except BudgetExceededError as exc:
            out.append(ProbeTrial(tuple(lams), S, "skip", None, None, str(exc)))
            continue
        if oracle.err_estimate >= tol:
            # the oracle's rounding bound can exceed tol; never pass on it
            out.append(ProbeTrial(
                tuple(lams), S, "skip", None, oracle.err_estimate,
                f"oracle err_estimate {oracle.err_estimate:g} is not below {tol:g}",
            ))
            continue
        disc = abs(closed.value - oracle.value)
        status = "pass" if disc <= tol + oracle.err_estimate else "fail"
        out.append(ProbeTrial(tuple(lams), S, status, disc, oracle.err_estimate))
    return ConjectureReport(ell, tol, tuple(out))
