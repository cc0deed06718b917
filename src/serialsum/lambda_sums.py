"""Limit values of cyclic geometric lattice sums and their oracles.

The central object is

    F(lambda_1..lambda_l; S) = lim (1/n) * sum over i_1..i_l in [1, n] of
        prod_m lambda_m ** |i_m - i_{m+1} + s_m|        (indices cyclic)

with S = |s_1 + ... + s_l|.  It is the divided difference of

    G(x) = x**(S+l-1) * prod_j (1 - lambda_j**2) / (1 - x*lambda_j)

over the roots as given, which `f_general` takes as a sum of residues,
one per cluster of near-coincident roots (`confluent_divided_difference_cond`;
McCurdy, Ng & Parlett, Math. Comp. 43, 1984).  At a lone root the residue
is the closed form's term

    lambda_i**(S+l-1) * prod_{j != i}
        (1 - lambda_j**2) / ((lambda_i - lambda_j) * (1 - lambda_i*lambda_j)),

and `f_distinct` names `f_general` too.  One pass of first-order
recurrences over a cluster's nodes (a repeat's m times) applies the root
factors to x**(S+l-1)'s divided differences (`_power_column`) and divides
by the other clusters' nodes.

Two independent oracles back every closed form: `series_oracle` (the limit
as the S-th Fourier coefficient of prod_m (1 - lambda_m**2) /
((1 - lambda_m*z) * (1 - lambda_m/z)), by the trapezoidal rule on |z| = 1
with a proven aliasing bound; its node count N doubles from the first
power of two above 2S until that bound is below tol, passing over
without computing it the N that the bound's floor r**(N-S) rules out;
the symbol is even in the angle, so it is sampled on the half circle,
each factor in a positive real form with no cancellation, from sines and
weights kept per N up to 2**17 (`_rule`, 7 MB at most); and the rounding
bound is a few dozen eps per root, with a part growing as
1/(1 - |lambda|) for complex roots only) and `finite_sum`
(the exact finite-n sum, as the trace of a product of l Toeplitz
matrices, taken through the displacement structure of their partial
products as 1-D convolutions without forming any matrix), plus
`linear_coefficient`, which takes the n-slope as the first difference
T(n+1) - T(n): the sum over the shell of lattice points that growing
every range by one adds, one chain of Toeplitz matrix-vector products per
corner, with a bound on the residue left by the finite box.

The records (`RootMultiset`, `LimitValue`, ...) are named tuples, which
validate their fields in `__new__`: the module imports no `dataclasses`.
The closed forms need no numpy: the oracles and the root sampler import it
where they use it, so importing this module and `f_general` load none.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys
from collections import Counter, namedtuple
from collections.abc import Sequence

#: Relative clustering threshold: `f_general` takes roots this close as one
#: cluster, over whose own nodes it runs, so no residue divides by their
#: gap, which would cost ~|log10(delta)| digits.  It changes no value.
CLUSTER_DELTA = 1e-6

#: Tolerance for certifying a result as real.
REALNESS_TOL = 1e-10

_CONJUGATE_TOL = 1e-12  # relative, for `_conjugate_closed`

#: Default work budget of the series oracle (N*l symbol factors at N nodes)
#: and of the finite-sum oracle (multiply-adds).
DEFAULT_BUDGET = 200_000_000

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


class BudgetExceededError(RuntimeError):
    """An oracle or a CLI command needs more work than its budget allows.

    ``achievable_bound`` is the best error bound attainable at the budget:
    the series oracle's aliasing bound at the largest affordable node count,
    or inf for any work refused by `_charge` (the finite-sum oracle, for
    one, is exact or nothing).
    """

    def __init__(self, message: str, achievable_bound: float):
        super().__init__(message)
        self.achievable_bound = achievable_bound


def _charge(what: str, work: int, budget: int) -> None:
    """Refuse, before it starts, ``work`` units beyond ``budget``: the one
    budget check, but for the series oracle's at its largest node count."""
    if work > budget:
        raise BudgetExceededError(
            f"{what} needs {work:,} work units, over the budget of {budget:,}",
            math.inf,
        )


def _check_roots(values: Sequence[complex], ell: int) -> None:
    """Raise ValueError unless every value is finite and strictly inside
    the unit disk and the total root count ``ell`` is in [2, 6]."""
    for v in values:
        if not cmath.isfinite(v):
            raise ValueError(f"non-finite root {v!r}")
        if abs(v) >= 1:
            raise ValueError(f"root {v} not strictly inside the unit disk")
    if not 2 <= ell <= 6:
        raise ValueError(f"total root count must be in [2, 6], got {ell}")


def _conjugate_closed(values: Sequence[complex]) -> bool:
    """Whether each root v with |v.imag| > tol*(1 + |v|), tol =
    `_CONJUGATE_TOL`, pairs off with a root within tol*(1 + |v|) of its
    conjugate, none used twice: a repeat needs its conjugate as often."""
    rest = list(values)
    while rest:
        v = rest.pop()
        near = _CONJUGATE_TOL * (1 + abs(v))
        if abs(v.imag) <= near:
            continue
        for i, w in enumerate(rest):
            if abs(w - v.conjugate()) <= near:
                del rest[i]
                break
        else:
            return False
    return True


class RootMultiset(namedtuple("RootMultiset", "entries")):
    """Roots strictly inside the unit disk, as given: ``entries`` holds
    (root, multiplicity) pairs, a multiplicity counting exact repeats."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[complex, int], ...]):
        entries = tuple((complex(v), int(m)) for v, m in entries)
        if any(m < 1 for _, m in entries):
            raise ValueError("multiplicities must be >= 1")
        _check_roots([v for v, _ in entries], sum(m for _, m in entries))
        return super().__new__(cls, entries)

    @classmethod
    def from_lambdas(cls, lambdas: Sequence[complex]) -> "RootMultiset":
        """Count equal roots, each entry in the order of its first copy."""
        vals = [complex(v) for v in lambdas]
        _check_roots(vals, len(vals))
        return cls._make((tuple(Counter(vals).items()),))  # checked already

    @property
    def ell(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def lambdas(self) -> tuple[complex, ...]:
        """Flat root list, repeats expanded."""
        return tuple(v for v, m in self.entries for _ in range(m))

    def is_distinct(self) -> bool:
        return all(m == 1 for _, m in self.entries)

    def is_conjugate_closed(self) -> bool:
        return _conjugate_closed(self.lambdas)


class ShiftSpec(namedtuple("ShiftSpec", "shifts")):
    """Integer shifts s_1..s_l; only |sum s_i| enters the limit."""

    __slots__ = ()

    def __new__(cls, shifts: tuple[int, ...]):
        return super().__new__(cls, _integers("shifts", shifts))

    @property
    def S(self) -> int:
        return abs(sum(self.shifts))


class LimitValue(namedtuple(
        "LimitValue", "value err_estimate is_real_certified truncation",
        defaults=(None,))):
    """A computed limit with an error estimate and a realness flag.

    ``truncation`` is the series oracle's node count N (0 when every root
    is zero); the other evaluators leave it None.
    """

    __slots__ = ()


class FiniteSumSpec(namedtuple("FiniteSumSpec", "lambdas shifts n upper_adjust")):
    """The finite cyclic sum: indices i_m each range over [1, n + d_m].

    ``upper_adjust`` holds the d_m <= 0 adjustments (default: none).
    """

    __slots__ = ()

    def __new__(cls, lambdas: tuple[complex, ...], shifts: tuple[int, ...],
                n: int, upper_adjust: tuple[int, ...] = ()):
        lambdas = tuple(map(complex, lambdas))
        ell = len(lambdas)
        shifts = _integers("shifts", shifts)
        n = _integer("n", n)
        upper_adjust = _integers("upper_adjust", upper_adjust) or (0,) * ell
        if ell < 2:
            raise ValueError("need at least two lambdas")
        if not all(map(cmath.isfinite, lambdas)):
            raise ValueError("lambdas must be finite")
        if max(map(abs, shifts), default=0) >= 1 << 62:  # int64 exponents
            raise ValueError("shifts must be below 2**62 in magnitude")
        if len(shifts) != ell or len(upper_adjust) != ell:
            raise ValueError("shifts and upper_adjust must match lambdas in length")
        if n < 1:
            raise ValueError("n must be >= 1")
        if max(upper_adjust) > 0:
            raise ValueError("upper adjustments must be <= 0")
        if n + min(upper_adjust) < 1:
            raise ValueError("adjusted upper limits must stay >= 1")
        return super().__new__(cls, lambdas, shifts, n, upper_adjust)


def _integer(name: str, value) -> int:
    """``value`` as an int, by `operator.index`, so that numpy integers
    pass; a float or any other non-integer is a TypeError naming the
    argument, not a value truncated by ``int``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _integers(name: str, values) -> tuple[int, ...]:
    """`_integer` over a sequence."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise TypeError(f"{name} must be integers, got {values!r}") from None


def _certify(value: complex, roots_conjugate_closed: bool) -> tuple[complex, bool]:
    real_ok = roots_conjugate_closed and abs(value.imag) <= REALNESS_TOL * (
        1 + abs(value)
    )
    return value, real_ok


#: S is capped here: from S = 2**64, lambda**S * S**5 is 0 in float64 for every
#: |lambda| <= 1 - 2**-53, and neither S nor C(S + 5, k) then exceeds a float.
_S_CAP = 1 << 64


def f_distinct(roots: RootMultiset, S: int) -> LimitValue:
    """`f_general`, under the name of the distinct-root closed form, which
    is its residue at each lone root."""
    return f_general(roots, S)


def _ipow(z: complex, n: int) -> complex:
    """z**n by repeated squaring, for any n >= 0, as complex ** int does in
    C up to n = 100; above, it takes the polar form, whose error grows."""
    if n <= 100:
        return z ** n
    out = 1 + 0j
    while n:
        if n & 1:
            out *= z
        z *= z
        n >>= 1
    return out


def _power_column(xs: Sequence[complex], power: int, shift: int = 0) -> list:
    """2**shift * J**power e_1, J lower bidiagonal with the nodes ``xs`` on
    its diagonal and ones below: x**power's divided differences over
    xs[:k+1].  Where all nodes are equal and there is no shift they are its
    Taylor coefficients C(power, k)*x**(power-k) (0**0 = 1).  Else, up to
    power 8*m*m (m nodes), about the cost of log2(power) squares, it
    applies J, (J v)[k] = x_k*v[k] + v[k-1]; above, or with a shift, it
    squares J, held as its lower triangle's rows times 2**e."""
    if not shift and xs.count(xs[0]) == len(xs):
        return [math.comb(power, k) * _ipow(x, power - k) if k <= power else 0j
                for k, x in enumerate(xs)]
    col = [1 + 0j] + [0j] * (len(xs) - 1)
    if not shift and power <= 8 * len(xs) ** 2:
        for _ in range(power):
            col = [x * c + d for x, c, d in zip(xs, col, [0j] + col)]
        return col
    J = [[0] * (i - 1) + [1, x] if i else [x] for i, x in enumerate(xs)]
    e = 0
    while power:
        if power & 1:
            col, shift = [sum(map(operator.mul, r, col)) for r in J], shift + e
        power >>= 1
        if power:
            cols = [[r[j] for r in J[j:]] for j in range(len(J))]
            J = [[sum(map(operator.mul, r[j:], cols[j])) for j in range(len(r))]
                 for r in J]
            top = math.frexp(max(_TINY, *map(abs, itertools.chain(*J))))[1]
            J, e = [[v * 2.0 ** -top for v in r] for r in J], 2 * e + top
    return [complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift))
            for c in col]


def confluent_divided_difference_cond(
    clusters: Sequence[tuple[complex, ...]],
    coeffs: Sequence[Sequence[complex]],
    lams: Sequence[complex],
) -> tuple[list[complex], float]:
    """Each cluster's residue of f * prod_j (1 - l_j**2) / (1 - x*l_j) over
    the nodes, and a forward-error scale.

    ``clusters`` are tuples of nodes, finite and distinct across clusters,
    a repeat's node m times; ``coeffs[i]`` holds f's divided differences
    over cluster i's nodes, xs[:k+1] for each k (at one node, its Taylor
    coefficients).  Over each node x_k, one pass first applies each root's
    factor (Opitz 1964), b[k] = ((1 - l**2)*a[k] + l*b[k-1]) / (1 - x_k*l),
    then divides by each outside node y, b[k] = (a[k] - b[k-1]) / (x_k - y),
    and its moduli, summing those of the products, by |x_k - y|.  The
    residues sum to that product's Hermite divided difference over all nodes
    (McCurdy, Ng & Parlett, Math. Comp. 43, 1984), f's own with no ``lams``;
    l*eps times the moduli sums, l the node count, estimates its rounding
    error.
    """
    nodes = [x for xs in clusters for x in xs]
    residues, scale, start = [], 0.0, 0
    for xs, a in zip(clusters, coeffs):
        others = nodes[:start] + nodes[start + len(xs):]
        g = [0] * len(lams)  # each root factor's b[k-1]
        prev, prev_mag = [0] * len(others), [0] * len(others)
        for x, t in zip(xs, a):
            for j, lam in enumerate(lams):
                t = g[j] = ((1 - lam * lam) * t + lam * g[j]) / (1 - x * lam)
            u = abs(t)
            for j, y in enumerate(others):
                d = x - y
                t = prev[j] = (t - prev[j]) / d
                u = prev_mag[j] = (u + prev_mag[j]) / abs(d)
        residues.append(t)
        scale, start = scale + u, start + len(xs)
    return residues, scale * len(nodes)


def f_general(roots: RootMultiset, S: int) -> LimitValue:
    """Limit value for any roots, repeated or near-coincident included: the
    sum of G's residues (`confluent_divided_difference_cond`, on x**p's
    divided differences from `_power_column`) over each single-linkage
    cluster of entries within the clustering threshold, so no residue
    divides by a gap inside a cluster.  err_estimate scales their modulus
    scale by S + l, for the rounding of x**(S+l-1), plus kappa =
    2*m*sum_j (1 + 2r|l_j|)/(1 - r|l_j|), m the largest cluster and
    r = max |l_j|: 1 - x*l_j and 1 - l_j**2 err by eps*(1 + 2|x*l_j|) /
    |1 - x*l_j| relative, raised to powers up to m.  Where r**(S+l-m) <
    2**-600, G is taken 2**shift times too large, so no power underflows;
    scaling back rounds the value and the bound by half a subnormal unit
    at most, so the bound adds two.
    """
    if S < 0:
        raise ValueError("S must be >= 0")
    S = min(S, _S_CAP)
    lams = roots.lambdas
    power = S + len(lams) - 1
    mods = list(map(abs, lams))
    r = max(mods)
    entries, tol = roots.entries, CLUSTER_DELTA * (1 + r)
    gaps = list(map(abs, itertools.starmap(  # compared in C
        operator.sub, itertools.combinations([v for v, _ in entries], 2))))
    clusters = [(v,) * k for v, k in entries]  # a repeat's node m times
    if min(gaps, default=tol) <= tol:  # clusters are rare
        label = list(range(len(entries)))  # each entry's cluster, by index
        pairs = itertools.combinations(label, 2)
        for i, j in itertools.compress(pairs, map(tol.__ge__, gaps)):
            label = [label[i] if f == label[j] else f for f in label]
        clusters = [sum((xs for f, xs in zip(label, clusters) if f == c), ())
                    for c in dict.fromkeys(label)]  # in first-member order
    m = max(map(len, clusters))
    shift = max(0, math.ceil((m - 1 - power) * math.log2(r)) - 600) if r else 0
    residues, cond = confluent_divided_difference_cond(
        clusters, [_power_column(xs, power, shift) for xs in clusters], lams)
    value = functools.reduce(operator.add, residues, 0j)  # in cluster order
    kappa = 2 * m * sum((1 + 2 * r * a) / (1 - r * a) for a in mods)
    err = _EPS * ((power + 1 + kappa) * cond + abs(value))
    if shift:
        value = complex(math.ldexp(value.real, -shift),
                        math.ldexp(value.imag, -shift))
        err = math.ldexp(err, -shift)
    err += 2 * math.ulp(0.0) if value or err else 0.0
    value, real_ok = _certify(value, _conjugate_closed(lams))
    return LimitValue(value, err, real_ok)


def _aliasing(mods: Sequence[float], S: int):
    """The aliasing bound of the N-node rule as a function of N > S, for
    roots with the nonzero moduli ``mods`` (see `series_oracle`)."""
    # Aliasing (Trefethen & Weideman, SIAM Rev. 56(3), 2014): |c_j| is at
    # most the j-th coefficient of g, the symbol built from the moduli
    # |lambda_m|, whose coefficients are positive and even in j, so
    # |c_j| <= g(rho) * rho**-|j| for 1 < rho < 1/r.  For N > S the terms
    # p != 0 sum to at most g(rho) * (rho**(S-N) + rho**(-S-N)) /
    # (1 - rho**-N), taken in logs so that nothing overflows.  At each N,
    # r*rho = (N-S)/(N-S+k), with k roots of modulus r, minimises the part
    # k*log(1/(1 - r*rho)) - (N-S)*log(rho) that grows near 1/r; where that
    # rho is not above 1, log(rho) = log(1/r)/2.  log(rho) is kept strictly
    # inside (0, log(1/r)), so every a*rho stays below 1 in logs.
    r = max(mods)
    log_r = math.log(r)
    k_r = mods.count(r)
    log_g0 = sum(math.log1p(-a * a) for a in mods)
    log_mods = [math.log(a) for a in mods]
    top = math.nextafter(-log_r, 0)  # the largest float below log(1/r)

    def alias(N: int) -> float:
        log_rho = -log_r - math.log1p(k_r / (N - S))
        log_rho = min(log_rho, top) if log_rho > 0 else -log_r / 2
        log_g = log_g0 - sum([  # log((1 - a*rho)*(1 - a/rho)) per root
            math.log(math.expm1(a + log_rho) * math.expm1(a - log_rho))
            for a in log_mods
        ])
        return math.exp(
            log_g + math.log1p(math.exp(-2 * S * log_rho)) - (N - S) * log_rho
            - math.log(-math.expm1(-N * log_rho))
        )

    return alias


#: Nodes of the half circle sampled at once: memory stays bounded at any N.
_BLOCK = 1 << 16

#: The largest node count whose tables `_rule` keeps.
_RULE_MAX = 1 << 17


def _half_angles(N: int, k: np.ndarray) -> tuple:
    """sin and cos of the half angles x = pi*k/N at the nodes k of the
    N-node rule, and their squares.  The cosine is the sine of the mirrored
    node's half angle, pi*(N/2 - k)/N = pi/2 - x."""
    import numpy as np

    h = math.pi / N
    sin_x = np.sin(h * k)
    cos_x = np.sin(h * (N / 2 - k))
    return sin_x, cos_x, sin_x * sin_x, cos_x * cos_x


@functools.lru_cache(maxsize=18)
def _rule(N: int) -> tuple[tuple, np.ndarray]:
    """The tables of the N-node rule that depend on N alone, read-only: the
    nodes k = 0..N/2 of the half circle with their `_half_angles`, and the
    weights 2*cos(2*pi*m/N), m < N, which node k reads at m = S*k mod N.
    `series_oracle` keeps them for N = 2**j <= `_RULE_MAX` only: at most
    18 rules of about 28*N bytes, 7 MB if every one is built."""
    import numpy as np

    k = np.arange(N // 2 + 1)
    nodes = (k, *_half_angles(N, k))
    weights = 2 * np.cos(2 * (math.pi / N) * np.arange(N))
    for t in (*nodes, weights):
        t.flags.writeable = False
    return nodes, weights


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
    z**-S * f(z) over the N-th roots of unity is sum_p c_{S+pN}.  N starts
    at the first power of two above 2S and doubles until the aliasing bound
    on the terms p != 0 (`_aliasing`) is below ``tol``.  That bound exceeds
    r**(N-S), r = max |lambda|, so the N with (N-S)*log(1/r) <= log(1/tol)
    are doubled past without computing it.  The work is N*l: needing more
    than budget // l nodes raises BudgetExceededError, and ``tol`` must be
    finite and positive.

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
    the circle the root lies.  What depends on N alone, the half angles'
    sines and cosines and the weights 2*cos(2*pi*m/N), is built once per
    power of two N <= 2**17 and kept (`_rule`, at most 7 MB); a larger N
    builds it block by block in each call.

    err_estimate adds a rounding bound to the aliasing bound, so the true
    limit lies within it of the returned value.  Only the aliasing part is
    held below ``tol``.  The rounding part is a few dozen eps per root
    times the mean sample modulus, and for a complex root it grows as
    1/(1 - |lambda|), from the rounding of theta -+ phi and of |lambda|.
    A zero root contributes the factor 1, the convention 0**0 = 1.
    """
    lams = [complex(v) for v in lambdas]
    if not 0 < tol < math.inf:  # NaN too
        raise ValueError("tol must be finite and > 0")
    if S < 0:
        raise ValueError("S must be >= 0")
    ell = len(lams)
    _check_roots(lams, ell)
    conj_closed = _conjugate_closed(lams)
    # the nonzero roots' moduli in input order, which the bound's sums keep,
    # and the roots sorted into reals, conjugate pairs and complex roots
    # without their conjugate
    rest = [v for v in lams if v]
    mods = list(map(abs, rest))
    reals, pairs, lone = [], [], []
    while rest:
        v = rest.pop()
        if v.imag == 0:
            reals.append(v.real)
        elif v.conjugate() in rest:
            rest.remove(v.conjugate())
            pairs.append(v)
        else:
            lone.append(v)
    if not mods:
        value = 1.0 + 0j if S == 0 else 0j
        return LimitValue(value, 0.0, True, truncation=0)
    _charge(f"the series oracle at S={S}", (S + 1) * ell, budget)  # N > S

    # alias(N) > r**(N-S): each factor of g(rho) is at least 1 for
    # rho >= 1, the log1p and -log(1 - rho**-N) terms are at least 0, and
    # log(rho) < log(1/r), in floats too.  So every N with (N-S)*log(1/r)
    # <= log(1/tol) fails, and is doubled past without the bound; the
    # margins, 1e-9 relative and absolute, are far above the rounding of
    # either side, so no N that the bound accepts is passed over.  Then N
    # doubles until the bound is below tol, or is refused at the budget's
    # node count.
    alias = _aliasing(mods, S)
    cap = budget // ell
    N = min(1 << (2 * S).bit_length(), cap)
    slope, need = -math.log(max(mods)) * (1 + 1e-9), -math.log(tol) - 1e-9
    while N < cap and (N - S) * slope < need:
        N = min(2 * N, cap)
    while (bound := alias(N)) >= tol:
        if N == cap:
            raise BudgetExceededError(
                f"tolerance {tol:g} at S={S} needs more than {cap:,} nodes; "
                f"achievable bound at N={cap} is {bound:g}",
                bound,
            )
        N = min(2 * N, cap)

    import numpy as np

    # Each factor's numerator goes into ``quot``, and its denominators
    # B_rho = q + p*sin(.)**2 into one product, or a complex one for a root
    # whose conjugate is not among the roots.
    quot = math.prod((1 - a) * (1 + a) for a in reals) * math.prod(
        (abs(1 - v) * abs(1 + v)) ** 2 for v in pairs
    ) * math.prod((1 - v) * (1 + v) for v in lone)
    rhos = [abs(a) for a in reals] + [abs(v) for v in pairs for _ in range(2)]
    q, p = np.array([[(1 - rho) ** 2 for rho in rhos],
                     [4 * rho for rho in rhos]])[:, :, None]
    half_phases = [math.atan2(v.imag, v.real) / 2 for v in pairs]
    turns = [(math.cos(c), math.sin(c)) for c in half_phases]

    h = math.pi / N  # half the node spacing
    half = N // 2
    nodes, weights = (_rule(N) if N <= _RULE_MAX and not N & (N - 1)
                      else (None, None))
    re, im = [], []
    abs_total = 0.0
    for lo in range(0, half + 1, _BLOCK):
        hi = min(lo + _BLOCK, half + 1)
        if nodes:
            k, sin_x, cos_x, sin2, cos2 = (t[lo:hi] for t in nodes)
        else:
            k = np.arange(lo, hi)
            sin_x, cos_x, sin2, cos2 = _half_angles(N, k)
        rows = [sin2 if a > 0 else cos2 for a in reals]
        for cos_c, sin_c in turns:  # sin(x -+ phi/2), squared
            sc, cs = sin_x * cos_c, cos_x * sin_c
            rows += [(sc - cs) * (sc - cs), (sc + cs) * (sc + cs)]
        squares = np.array(rows).reshape(len(rows), len(k))
        f = quot / np.multiply.reduce(q + p * squares, axis=0)
        for v in lone:
            rho, c = abs(v), math.atan2(v.imag, v.real) / 2
            for a in (c + h * k, c - h * k):
                s = np.sin(a)
                f = f / ((1 - rho) + 2 * rho * (s * s) - 2j * rho * (s * np.cos(a)))
        if weights is None:  # S*k mod N, without int64 overflow below N = 2**46
            w = 2 * np.cos(2 * h * ((lo * S % N + (k - lo) * (S % N)) % N))
        else:  # S*k mod N, k*(S mod N) below 2**34
            w = weights[k * (S % N) % N]
        mod = np.abs(f)
        abs_total += 2 * float(mod.sum())
        if lo == 0:
            w[0] = 1.0
            abs_total -= float(mod[0])
        if hi == half + 1 and N % 2 == 0:
            w[-1] = -1.0 if S % 2 else 1.0
            abs_total -= float(mod[-1])
        terms = w * f  # a memoryview iterates its floats without a list
        re.append(math.fsum(memoryview(terms.real)))
        if lone:
            im.append(math.fsum(memoryview(terms.imag)))
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

    The sum is the trace of a product of l Toeplitz matrices, taken from
    their displacement structure without forming any matrix (`_trace_sum`):
    O(n) work for l = 2 and (l-2)*(2l-1)*n**2 multiply-adds above, in
    O(l*n) memory.  The bound (`_rounding_bound`) is taken from the roots'
    moduli in closed form, with no pass over the powers.
    Raises BudgetExceededError, before allocating anything, when that work
    exceeds ``budget``, and OverflowError when the sum or its bound is not
    finite in float64 (a root outside the unit disk, raised to a power).
    """
    import numpy as np

    _charge("finite sum", _finite_sum_work(len(spec.lambdas), spec.n), budget)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        value, err = _trace_sum(spec)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise OverflowError("the finite sum overflows float64")
    return value, err


def _finite_sum_work(ell: int, n: int) -> int:
    # each of the l factors makes several passes over vectors of length 2n
    # (its power table, the cut diagonals and the weighted generators, each
    # in fresh pages at large n), and
    # (l - 2)*(2l - 1) Toeplitz matrix-vector products take n**2 multiply-adds
    # each; at the largest n of the default budget a unit takes 0.5-1.5 ns
    # for l = 2 and 0.1-0.8 ns from l = 3 up on a 2-core Xeon, the most for
    # complex roots
    return (ell - 2) * (2 * ell - 1) * n * n + 60 * ell * n


def _shell_work(ell: int, n: int) -> int:
    # `_shell_sum` at n: l*(l - 2) Toeplitz matrix-vector products of about
    # (n + 1)**2 multiply-adds, and a few passes over each factor's power
    # table and diagonals of length 2n.  At the largest n of the default
    # budget a unit takes 0.1-0.6 ns from l = 3 up on a 2-core Xeon, the
    # most for complex roots, and at 100 units per root and n 0.2-0.8 ns
    # for l = 2, the most on a first call into fresh pages.
    return ell * (ell - 2) * (n + 1) ** 2 + 100 * ell * (n + 1)


def _floor(ell: int) -> float:
    # Powers below this are set to zero: a product of l powers above it stays
    # a normal float, products that underflow to subnormals run many times
    # slower in the convolutions, and `_rounding_bound` counts every dropped
    # term.
    return _TINY ** (1 / ell)


def _powers(lam: complex, lo: int, count: int, floor: float) -> np.ndarray:
    """lam**lo .. lam**(lo + count - 1) (0**0 = 1), in float64 when lam is
    real, with powers below ``floor`` in modulus set to zero."""
    import numpy as np

    base = lam.real if lam.imag == 0 else lam
    p = np.empty(count, type(base))
    p.fill(base)
    # lam**0 is 1 for every lam, and a scalar np.power costs as much as the
    # products over a table of a few hundred powers
    p[0] = first = np.power(base, lo) if lo else 1
    # For |lam| < 1, once a power is below half the floor every later one is
    # too: rounding, a few eps a product, cannot double a power within 10**15
    # steps.  Past the floor the products only underflow, and for |lam| > 0.5
    # they stall at the least subnormal, where each multiply runs many times
    # slower; so they stop a little past a quarter of the floor.  That more
    # than halves the time of l = 2 at large n.  Tables of at most 1,024
    # powers skip it: the estimate costs a few microseconds, 3-7% of a
    # small finite sum, and there a stall (only from a start among the
    # subnormals) costs at most 1,024 slow multiplies.
    stop = count
    if count > 1024 and 0 < abs(base) < 1 and first != 0:
        steps = math.log(floor / 4 / abs(first)) / math.log(abs(base))
        stop = min(count, max(1, math.ceil(steps * (1 + 1e-9)) + 2))
    head = p[:stop]
    np.multiply.accumulate(head, out=head)
    if stop < count:
        if abs(p[stop - 1]) < floor / 2:
            p[stop:] = 0
        else:  # the estimate fell short: the whole product
            tail = p[stop - 1 :]
            np.multiply.accumulate(tail, out=tail)
    # The moduli of a geometric sequence are least at one end, and rounding
    # cannot halve one within 10**15 steps, so ends at least twice the
    # floor leave nothing to set to zero.
    if not min(abs(first), abs(p[-1])) >= 2 * floor:
        p[np.abs(p) < floor] = 0
    return p


def _ends(spec: FiniteSumSpec, grow: int = 0) -> list[tuple[int, int]]:
    """Per factor A_m, the least and the greatest d + s_m over its diagonals
    d = 1 - n_{m+1} .. n_m - 1 (cyclic), at n = spec.n + grow."""
    top = spec.n + grow
    ns = [top + d for d in spec.upper_adjust]
    return [(s + 1 - q, s + r - 1)
            for s, r, q in zip(spec.shifts, ns, ns[1:] + ns[:1])]


def _span(a: int, b: int) -> tuple[int, int]:
    """The least and the greatest |e| over e = a .. b: the ends of a V, or
    of one of its arms."""
    return max(a, -b, 0), max(-a, b)


def _cut(table: np.ndarray, lo: int, a: int, b: int) -> np.ndarray:
    """lam**|e| for e = a .. b, from table[k] = lam**(lo + k), which must
    cover `_span`."""
    if a >= 0:  # the rising arm
        return table[a - lo : b - lo + 1]
    if b <= 0:  # the falling arm, reversed so that it is contiguous
        return table[-b - lo : -a - lo + 1][::-1].copy()
    import numpy as np

    # the V crosses zero, so lo = 0: lam**-a .. lam**1, then lam**0 .. lam**b
    return np.concatenate((table[-a:0:-1], table[: b + 1]))


def _diagonals(spec: FiniteSumSpec, grow: int = 0) -> tuple[list, list]:
    """Per factor A_m at n = spec.n + grow, its `_ends` (a, b) and its
    floored diagonals lambda_m**|e|, e = a .. b, each cut (`_cut`) from a
    table of powers over their `_span` only, so a shift costs nothing."""
    floor = _floor(len(spec.lambdas))
    ends = _ends(spec, grow)
    diags = []
    for lam, (a, b) in zip(spec.lambdas, ends):
        lo, hi = _span(a, b)
        diags.append(_cut(_powers(lam, lo, hi - lo + 1, floor), lo, a, b))
    return ends, diags


def _mass(rho: float, a: int, b: int) -> tuple[float, float]:
    """The sum of rho**|e| over e = a .. b and its largest term, in closed
    form; both are inf where a power overflows.  An arm of c powers is
    rho**first * expm1(c*log(rho)) / (rho - 1), which does not cancel near 1."""
    lo, hi = _span(a, b)
    try:
        peak = max(rho**lo, rho**hi)
        if rho == 1:
            return float(b - a + 1), peak
        log_rho = math.log(rho) if rho else -math.inf
        if a < 0 < b:  # rho**0 .. rho**-a, then rho**1 .. rho**b
            return (math.expm1((1 - a) * log_rho) / (rho - 1)
                    + rho * math.expm1(b * log_rho) / (rho - 1)), peak
        return rho**lo * math.expm1((hi - lo + 1) * log_rho) / (rho - 1), peak
    except OverflowError:
        return math.inf, math.inf


def _rounding_bound(spec: FiniteSumSpec, ends: list, parts: int, length: int,
                    points: int) -> float:
    """A bound on the rounding error of a finite-sum kernel over the
    diagonals at ``ends`` (`_diagonals`), plus the terms the floor dropped.

    The kernel adds ``parts`` cycle sums with one index fixed, each counted
    with its weight and closed by a path of l - 1 sums (matrix-vector
    products and a dot product) of at most ``length`` terms, over
    ``points`` lattice points.  Each computed number is a signed sum of
    terms, one floored power from each factor, and errs by at most eps
    times the roundings on a term's path times the same sum of moduli
    (Higham 2002, sec. 3.5).  A power lam**k, from lam**lo by k - lo
    complex products, carries below 4*k*eps, and each of the at most l
    products of a term, its weight included, 3*eps; each sum on the path
    adds length - 1 roundings, and the sum of the at most 2l - 1 parts
    2l - 2 (Higham 2002, sec. 3.1).  Over the moduli, a cycle sum with one
    index fixed is at most any one factor's peak times the others' masses
    (`_mass`), each summed over the index it leads to from the fixed one.
    A dropped term has one factor below the floor, the others at most
    their peaks.
    """
    ell = len(spec.lambdas)
    masses, peaks, kmax, over = [], [], 0, 1
    for lam, (a, b) in zip(spec.lambdas, ends):
        mass, peak = _mass(abs(lam), a, b)
        masses.append(mass)
        peaks.append(peak)
        kmax = max(kmax, -a, b)  # `_span`'s greatest |e|
        over *= max(1.0, peak)
    abs_sum = parts * min(
        peaks[m] * math.prod(masses[:m] + masses[m + 1:]) for m in range(ell)
    )
    rounds = ell * (4 * kmax + 4) + (ell - 1) * length
    return rounds * _EPS * abs_sum + _floor(ell) * points * over


def _trace_sum(spec: FiniteSumSpec) -> tuple[complex, float]:
    """tr(A_1 ... A_l) and a bound on its rounding error (`_rounding_bound`).

    (A_m)_{ab} = lambda_m**|a - b + s_m|, a < n_m and b < n_{m+1} (cyclic),
    weighs the step from i_m to i_{m+1}, so the trace sums every term of
    the cyclic lattice exactly once.  A_m is Toeplitz, A[a, b] = t(a - b),
    and is held as the vector of its diagonals, diags[m][d + n_{m+1} - 1]
    = t(d), cut from one table of the root's powers (`_diagonals`).

    No product is formed.  P_k = A_1 ... A_k has displacement rank 2(k - 1)
    (Kailath, Kung & Morf, J. Math. Anal. Appl. 68, 1979): for i, j >= 1,
    P_k[i, j] - P_k[i-1, j-1] = sum_r g_r[i] * h_r[j].  With r rows in
    A = A_{k+1}, the step to P_{k+1} = P_k A keeps each generator as
    (g, h A[1:, 1:]) and adds (P_k[1:, 0], A[0, 1:]) and
    (-P_k[:-1, r-1], t(r - j) for j >= 1).  A column of P_k is a chain of
    Toeplitz matrix-vector products from a column of A_k, and every
    product is a direct 1-D convolution.  Summing the displacements along
    the diagonal of the square P_l gives
    tr(P_l) = n_1 * P_l[0, 0] + sum_r sum_{i>=1} (n_1 - i) * g_r[i] * h_r[i].
    For l = 2 the generators are slices of the two diagonal vectors, and
    the work is O(n).  Above, it is (l - 2)*(2l - 1) products of about n**2
    multiply-adds; memory is O(l*n).  The rounding bound takes the 2l - 1
    closing parts, P_l[0, 0] and each generator's sum over i, with their
    weights (at most n_1), as (2l - 1)*n_1 cycle sums with one index fixed.
    """
    import numpy as np

    ell = len(spec.lambdas)
    ns = [spec.n + d for d in spec.upper_adjust]
    ends, diags = _diagonals(spec)

    def column(m: int, j: int) -> np.ndarray:  # A_m[:, j], m from 0
        start = ns[(m + 1) % ell] - 1 - j
        return diags[m][start : start + ns[m]]

    def times(factors: list, x: np.ndarray) -> np.ndarray:
        # the product of the Toeplitz factors with these diagonals, times x
        for d in reversed(factors):
            x = np.convolve(d, x, "valid")
        return x

    n1 = ns[0]
    weights = np.arange(n1 - 1, 0, -1)  # n_1 - i at i = 1..n_1-1
    gens = []  # (weights * g over rows 1.., h over columns 1..)
    for k in range(1, ell):  # P_{k+1} = P_k A_{k+1}, A_{k+1} = diags[k]
        r, q = ns[k], ns[(k + 1) % ell]
        inner = diags[k][1:-1]  # A[1:, 1:], (r - 1) x (q - 1)
        if r > 1 and q > 1:  # h A[1:, 1:] is h reversed, convolved, reversed
            gens = [(g, np.convolve(inner, h[::-1], "valid")[::-1]) for g, h in gens]
        else:  # A[1:, 1:] is empty
            gens = [(g, np.zeros(q - 1, np.result_type(h, inner))) for g, h in gens]
        first = times(diags[: k - 1], column(k - 1, 0))
        last = times(diags[: k - 1], column(k - 1, r - 1))
        gens += [(weights * first[1:], diags[k][: q - 1][::-1]),
                 (-weights * last[:-1], diags[k][r:][::-1])]
    # P_l[0, 0] = A_1[0, :] @ A_2 ... A_l[:, 0]
    corner = diags[0][ns[1] - 1 :: -1] @ times(diags[1:-1], column(ell - 1, 0))
    value = complex(n1 * corner + sum(g @ h for g, h in gens))
    return value, _rounding_bound(
        spec, ends, (2 * ell - 1) * n1, max(ns), math.prod(ns))


def _shell_sum(spec: FiniteSumSpec) -> tuple[complex, float]:
    """T(n+1) - T(n) and a bound on its rounding error, with n = spec.n,
    for roots inside the unit disk.

    The difference sums the shell of lattice points that growing every
    range by one adds: those with some index at its new top, 0-based
    i_m = n_m.  Split by the first such m, the ranges before m are the old
    ones, [0, n_j), and those after m the new ones, [0, n_j + 1), so part m
    is the corner entry e_{n_m}' A_m A_{m+1} ... A_{m-1} e_{n_m} of factors
    cut to those ranges.  It is a chain from the column of A_{m-1} at n_m
    through l - 2 Toeplitz matrix-vector products (`np.convolve`), closed
    by a dot product with the row of A_m at n_m.  The diagonals of every
    factor so cut are a slice of its diagonals at n + 1 (`_diagonals`;
    `_trace_sum` has the layout).  That makes l*(l - 2) products of about
    n**2 multiply-adds, O(n) work for l = 2, and memory O(l*n); no
    displacement generator is subtracted.  The rounding bound
    (`_rounding_bound`) takes each part as a cycle sum with i_m fixed over
    the uncut factors at n + 1, on a shell of prod(n_j + 1) - prod(n_j)
    points.
    """
    import numpy as np

    ell = len(spec.lambdas)
    ns = [spec.n + d for d in spec.upper_adjust]
    ends, diags = _diagonals(spec, 1)

    # Part m keeps the old range, n_j long, of each j < m and the new one,
    # n_j + 1, of each j > m.  Of A_j's diagonals, diags[j][d + cols - 1] =
    # t(d), an old column range drops the first and an old row range the
    # last.
    value = 0j
    for m in range(ell):
        x = diags[m - 1][: ns[m - 1] + (m == 0)]  # A_{m-1}[:, n_m]
        for j in range(m + ell - 2, m, -1):
            j %= ell
            d = diags[j]
            x = np.convolve(d[(j + 1) % ell < m : d.size - (j < m)], x, "valid")
        row = diags[m][ns[m] + (m == ell - 1) :]  # A_m[n_m, ::-1]
        value += complex(row @ x[::-1])

    shell = math.prod(n + 1 for n in ns) - math.prod(ns)
    return value, _rounding_bound(spec, ends, ell, max(ns) + 1, shell)


def linear_coefficient(
    lambdas: Sequence[complex],
    shifts: Sequence[int],
    n_base: int,
    upper_adjust: Sequence[int] = (),
) -> LimitValue:
    """Extract the n-proportional coefficient of the finite sum.

    Returns the first difference D = T(n_base + 1) - T(n_base), the sum
    over the shell of lattice points that growing every range by one adds
    (`_shell_sum`), from each factor's diagonals at n_base + 1, with a
    rounding bound (`_rounding_bound`) from the roots' moduli.
    T(n) = F*n + C + (a residue that vanishes as n grows), so D tends to
    F; it is F but for the residue.

    err_estimate adds `_shell_sum`'s rounding bound to a bound on that
    residue.  Take the coordinates u_j = n_j - i_j, from the top corner of
    the box at n_base + 1 (n_j = n_base + d_j, 0-based i_j).  A term's
    exponents are e_j = |u_{j+1} - u_j + c_j|, c_j = s_j + d_j - d_{j+1},
    so they depend only on differences of u, and the shell's part m (u_m
    = 0, u_j >= 1 before m, u_j >= 0 after it) tends to the same sum over
    the unbounded corner; the parts of those sums add up to F.  A term of
    the corner that the shell lacks has some u_j >= n_j + 1, and a cycle
    through u_m = 0 and u_j moves at least 2*u_j in all, so its exponents
    sum to E >= K = 2*(min n_j + 1) - sum |c_j|.  With r = max |lambda|
    and 0 <= theta < 1, each such term is at most r**(theta*K) times
    prod_j rho_j**e_j, rho_j = |lambda_j|**(1 - theta).  Summing the latter
    over the whole corner of part m, the steps through every factor but
    A_{m-1} are free integers, and sum over k of rho**|k + c| is at most
    g = (1 + rho)/(1 - rho), so the residue is at most
    r**(theta*K) * prod_j g_j * sum_j 1/g_j.  theta sets
    (1 - theta)*log(1/r) = (l - 1)/K, which minimises the log of the bound
    to first order: about r**(2*n_base), where the slope of two traces,
    (T(2n) - T(n))/n, leaves about r**n.

    Raises BudgetExceededError when the shell needs more than
    DEFAULT_BUDGET work units (`_shell_work`).
    """
    lams = tuple(map(complex, lambdas))
    n_base = _integer("n_base", n_base)
    ell = len(lams)
    _check_roots(lams, ell)
    mods = [abs(v) for v in lams]
    r = max(mods)
    if r > 0 and r**n_base >= 1e-12:
        raise ValueError(
            f"n_base={n_base} too small for max|lambda|={r:g}: "
            "need max|lambda|**n_base < 1e-12"
        )
    spec = FiniteSumSpec(lams, shifts, n_base, upper_adjust)
    _charge("finite sum", _shell_work(ell, n_base), DEFAULT_BUDGET)
    value, err_round = _shell_sum(spec)

    err_exp = 0.0
    if r > 0:
        d = spec.upper_adjust  # c_j = s_j + d_j - d_{j+1}
        K = 2 * (n_base + min(d) + 1) - sum(
            abs(s + a - b) for s, a, b in zip(spec.shifts, d, d[1:] + d[:1]))
        theta = max(0.0, 1 - (ell - 1) / (K * -math.log(r))) if K > 0 else 0.0
        g = [(1 + a) / (1 - a) for a in (m ** (1 - theta) for m in mods)]
        err_exp = r ** (theta * max(K, 0)) * math.prod(g) * sum(1 / x for x in g)
    value, real_ok = _certify(value, _conjugate_closed(lams))
    return LimitValue(value, err_exp + err_round, real_ok)


class ProbeTrial(namedtuple(
        "ProbeTrial", "lambdas S status discrepancy oracle_err detail",
        defaults=("",))):
    """One trial of `conjecture_probe`; ``status`` is "pass", "fail" or
    "skip", and ``discrepancy`` and ``oracle_err`` are None on a skip."""

    __slots__ = ()


class ConjectureReport(namedtuple("ConjectureReport", "ell tol trials",
                                  defaults=((),))):
    """The trials of `conjecture_probe` at one ell and tol."""

    __slots__ = ()

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
        scale = 1 + max(map(abs, roots))
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
    if not 0 < tol < math.inf:  # an infinite tol would pass any discrepancy
        raise ValueError("tol must be finite and > 0")
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
