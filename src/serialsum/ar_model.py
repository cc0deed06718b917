"""AR(k) toolkit: characteristic roots, theoretical and empirical serial
correlations, and seeded simulation.

The process is X_i = alpha_1*X_{i-1} + ... + alpha_k*X_{i-k} + eps_i with
iid Gaussian noise.  It is asymptotically stationary iff every root of
lambda**k = alpha_1*lambda**(k-1) + ... + alpha_k lies strictly inside the
unit disk, in which case the serial correlation is a mixture of geometric
terms rho_j = sum_i A_i * lambda_i**|j|.  The rho_j come from the
Yule-Walker equations and the AR recursion.  The A_i come from the closed
form of `lambda_sums`: the spectral density of the process is the series
oracle's symbol, so gamma_j is proportional to F(lambda; j), and A_i is
the residue at lambda_i of `lambda_sums`' G at S = 0 (the closed form's
term for lambda_i) divided by their sum: `f_general`'s one residue
routine (`confluent_divided_difference_cond`) over the roots as given,
with no `RootMultiset`, so a model of any order has them.

A simulation request has one check, `_burn_in`, which `simulate` and
the CLI's `ar simulate` and `ar check` call, and one engine, `_stream`:
it draws each seed's noise from that seed's generator chunk by chunk,
and runs a group of seeds through the blocked filter together, so it
holds about `_IN_FLIGHT` samples at once, however long the series and
however many the seeds.  `simulate`
fills its array from it, `_simulate_csv` (`ar simulate`) writes each
chunk to the CSV file, and `_sample_acfs` (`ar check`) passes its chunks
to `_lag_sums`.  `_lag_sums` is the one routine that forms the lag sums
Q_j = sum_t X_t * X_{t+j}: `empirical_acf` gives it a whole series as
one chunk.

Note: `empirical_acf` uses the known-zero-mean estimator (no sample-mean
subtraction) because the process mean is exactly zero.  Generic ACF tools
subtract the mean and will differ slightly.

The characteristic roots come from one pure-Python Aberth-Ehrlich
iteration started on the Newton polygon (`_aberth`), whatever the order
and however far apart the roots' scales, and each passes one residual
check (`char_roots`); the Yule-Walker system is solved by Gaussian
elimination (`_solve`).  The records are named tuples, and numpy is
imported only to simulate, inside the functions that do, so importing
this module loads neither `dataclasses` nor numpy, and neither do
`char_roots` and `acf` for any order.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .lambda_sums import _power_column, confluent_divided_difference_cond


class NotStationaryError(ValueError):
    """Operation requires a stationary model."""


class BadLagError(ValueError):
    """Lag j out of range for the sample length."""


class DegenerateSampleError(ValueError):
    """All-zero sample: autocorrelations undefined."""


class ARModel(namedtuple("ARModel", "alphas sigma")):
    """Coefficients alpha_1..alpha_k and the noise standard deviation."""

    __slots__ = ()

    def __new__(cls, alphas: tuple[float, ...], sigma: float):
        alphas = tuple(float(a) for a in alphas)
        sigma = float(sigma)
        if len(alphas) < 1:
            raise ValueError("need at least one coefficient")
        if alphas[-1] == 0:
            raise ValueError("alpha_k must be nonzero (drop trailing zeros)")
        if not 0 <= sigma < math.inf:  # NaN too
            raise ValueError("sigma must be finite and >= 0")
        return super().__new__(cls, alphas, sigma)

    @property
    def k(self) -> int:
        return len(self.alphas)


class CharRoots(namedtuple("CharRoots", "roots stationary")):
    """The characteristic roots, largest modulus first, and whether all
    lie strictly inside the unit disk."""

    __slots__ = ()


class AcfModel(namedtuple("AcfModel", "roots coeffs")):
    """Roots and mixture weights; ``coeffs`` is None when two roots are
    equal, where the mixture has no geometric form."""

    __slots__ = ()


class SeriesSample(namedtuple("SeriesSample", "values seed burn_in")):
    """A simulated series, as a float64 array, with its seed and burn-in."""

    __slots__ = ()

    def __new__(cls, values: np.ndarray, seed: int, burn_in: int):
        import numpy as np

        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("values must be a nonempty 1-D array")
        return super().__new__(cls, values, seed, burn_in)

    @property
    def n(self) -> int:
        return len(self.values)


#: Aberth sweeps over the roots (`_aberth`) before the iteration stops; a
#: root that has not converged by then fails the residual check.
_SWEEPS = 50


def _horner(terms: Sequence[tuple[float, float]], z: complex) -> tuple:
    """p(z), p'(z) and sum_i |c_i| * |z|**(k-i), p = c_0*z**k + ... + c_k,
    by Horner's rule over the pairs (c_i, |c_i|)."""
    p, dp, scale, r = 0j, 0j, 0.0, abs(z)
    for c, a in terms:
        dp = dp * z + p
        p = p * z + c
        scale = scale * r + a
    return p, dp, scale


def _newton(terms: Sequence[tuple[float, float]], z: complex) -> tuple:
    """p(z), `_horner`'s modulus sum and p'(z)/p(z) (None where p(z) is 0),
    with no overflow: inside the unit circle by `_horner` at z, outside by
    `_horner` on the reversed polynomial q(y) = y**k * p(1/y) at y = 1/z,
    whose value and sum stand for p's over z**k and |z|**k, and p'/p =
    y*(k - y*q'(y)/q(y))."""
    if abs(z) <= 1:
        p, dp, scale = _horner(terms, z)
        return p, scale, dp / p if p else None
    y = 1 / z
    q, dq, scale = _horner(terms[::-1], y)
    return q, scale, y * (len(terms) - 1 - y * dq / q) if q else None


def _aberth(coeffs: Sequence[float]) -> list[complex]:
    """The roots of coeffs[0]*z**k + ... + coeffs[k], real and both ends
    nonzero, by the Aberth-Ehrlich iteration (Aberth, Math. Comp. 27,
    1973), real roots exactly real and the others in exact conjugate pairs
    (`_conjugate_pairs`), and the two roots of a double root equal
    (`_double_roots`).

    The starts lie on circles from the Newton polygon (Bini, Numer.
    Algorithms 13, 1996): the upper convex hull of the points
    (i, log|coeffs[i]|) has an edge from i to j of slope m for j - i roots
    of modulus about exp(m) (Ostrowski 1940), so each root starts at its
    own scale, however far apart the scales.  A sweep moves each
    unconverged root z_i in turn by 1/(p'/p(z_i) - sum_{j != i} 1/(z_i -
    z_j)), with `_newton`'s ratio, and a root stops once |p(z_i)| is within
    the rounding of Horner's rule, 2k*eps times its modulus sum, after that
    step.
    """
    k = len(coeffs) - 1

    def slope(a: tuple, b: tuple) -> float:
        return (b[1] - a[1]) / (b[0] - a[0])

    hull = []  # the upper hull, by Andrew's monotone chain
    for pt in ((i, math.log(abs(v))) for i, v in enumerate(coeffs) if v):
        while len(hull) > 1 and slope(hull[-2], hull[-1]) <= slope(hull[-1], pt):
            hull.pop()
        hull.append(pt)
    z = []
    for a, b in zip(hull, hull[1:]):
        n, r = b[0] - a[0], math.exp(min(slope(a, b), 709.0))  # finite
        z += [cmath.rect(r, 2 * math.pi * (t / n + a[0] / k) + 0.7) for t in range(n)]
    terms = [(c, abs(c)) for c in coeffs]
    tol, active = 2 * k * sys.float_info.epsilon, set(range(k))
    for _ in range(_SWEEPS):
        for i in sorted(active):
            x = z[i]
            p, scale, ratio = _newton(terms, x)
            if ratio is None:  # p(x) = 0: an exact root
                active.discard(i)
                continue
            near = ratio - sum([1 / (x - w) for w in z if w != x])
            step = 1 / near if near else 0j
            if cmath.isfinite(x - step):
                z[i] = x - step
            if abs(p) <= tol * scale:
                active.discard(i)
        if not active:
            break
    return _double_roots(terms, _conjugate_pairs(z))


def _conjugate_pairs(z: list[complex]) -> list[complex]:
    """The roots of a real polynomial as found, made exactly closed under
    conjugation: greedily by distance, each root is either its own
    conjugate, at cost 2|Im z|, and made real, or the conjugate of a root
    across the real axis, at cost |z_i - conj(z_j)|, and both become the
    mean of z_i and conj(z_j) and its conjugate."""
    costs = sorted(
        [(2 * abs(x.imag), i, i) for i, x in enumerate(z)]
        + [(abs(x - w.conjugate()), i, j) for i, x in enumerate(z)
           for j, w in enumerate(z) if x.imag > 0 >= w.imag])
    out = [None] * len(z)
    for _, i, j in costs:
        if out[i] is None and out[j] is None:
            m = z[i] + (z[j].conjugate() - z[i]) / 2  # no overflow
            out[i], out[j] = m, m.conjugate()
            if not m.imag:
                out[i] = out[j] = complex(m.real)
    return out


def _double_roots(terms: Sequence[tuple[float, float]], z: list[complex]) -> list[complex]:
    """The roots z of p, `_horner`'s pairs `terms`, with each two that are
    one double root to rounding made equal.

    Two roots that are each other's nearest are one where their mean c
    passes the iteration's stop test, |p(c)| within 2k*eps times its
    modulus sum: with p(x) = (x - z_i)(x - z_j)q(x), that puts |z_i - z_j|/2
    within sqrt(2k*eps*S(|c|)/|q(c)|), the error radius of a double root.
    Both become c, which is real for a conjugate pair, unless the mean of
    the two and the root nearest c passes the test too: the roots of a
    cluster of three or more stay as found.
    """
    k = len(z)
    if k < 2:
        return z
    tol = 2 * k * sys.float_info.epsilon

    def is_root(c: complex) -> bool:
        p, scale, _ = _newton(terms, c)
        return abs(p) <= tol * scale

    nearest = [min((j for j in range(k) if j != i), key=lambda j: abs(x - z[j]))
               for i, x in enumerate(z)]
    out = list(z)
    for i, j in enumerate(nearest):
        if i < j and nearest[j] == i:
            c = z[i] / 2 + z[j] / 2  # exactly real for a conjugate pair
            others = [w for m, w in enumerate(z) if m != i and m != j]
            third = min(others, key=lambda w: abs(w - c), default=None)
            if is_root(c) and (third is None or not is_root(c + (third - c) / 3)):
                out[i] = out[j] = c
    return out


def _residual(coeffs: Sequence[float], lam: complex) -> tuple[float, float]:
    """|p(lam)| and sum_i |c_i| * |lam|**(k-i), p = coeffs[0]*z**k + ... +
    coeffs[k], both over 2**g, the power of two of their largest term: by
    Horner's rule at w = lam / 2**e, 1/2 <= |w| < 1, on the coefficients
    c_i * 2**(e*(k-i) - g), none above 1, so nothing overflows and only
    terms below 2**-1074 of the largest underflow, at any scale of lam."""
    k = len(coeffs) - 1
    e = math.frexp(abs(lam))[1]
    g = max(math.frexp(c)[1] + e * (k - i) for i, c in enumerate(coeffs) if c)
    w = complex(math.ldexp(lam.real, -e), math.ldexp(lam.imag, -e))
    scaled = [math.ldexp(c, e * (k - i) - g) for i, c in enumerate(coeffs)]
    p, _, scale = _horner([(d, abs(d)) for d in scaled], w)
    return abs(p), scale


def char_roots(alphas: Sequence[float]) -> CharRoots:
    """Roots of lambda**k = alpha_1*lambda**(k-1) + ... + alpha_k, largest
    modulus first, by the Aberth-Ehrlich iteration (`_aberth`).

    Every root found passes one check: |p(lam)| is at most 1e-10 times
    sum_i |c_i| * |lam|**(k-i), both by Horner's rule at lam's own scale
    (`_residual`), so that neither side overflows or underflows.  Else it
    raises RuntimeError.
    """
    alphas = [float(a) for a in alphas]
    k = len(alphas)
    if k < 1:
        raise ValueError("need at least one coefficient")
    if not all(map(math.isfinite, alphas)):
        raise ValueError("coefficients must be finite")
    if k == 1:
        roots = [complex(alphas[0])]  # exact: no residual to check
    else:
        # for the iteration, scaled by a power of two only where a
        # coefficient is above 2**1000, so that Horner's sums of k + 1
        # terms stay finite and no coefficient that scaling would leave in
        # range underflows
        shift = min(0, 1000 - math.frexp(max(map(abs, alphas)))[1])
        coeffs = [math.ldexp(c, shift) for c in (1.0, *(-a for a in alphas))]
        last = max(i for i, c in enumerate(coeffs) if c)
        # the roots past the last nonzero coefficient are 0
        roots = [0j] * (k - last) + (_aberth(coeffs[: last + 1]) if last else [])
        for lam in roots:
            resid, scale = _residual(coeffs, lam)
            if not resid <= 1e-10 * scale:  # NaN too
                raise RuntimeError(
                    f"root residual {resid / scale:g} of its scale, too large at {lam}")
        roots.sort(key=lambda z: (-abs(z), -z.real, -z.imag))
    return CharRoots(tuple(roots), all(abs(lam) < 1 for lam in roots))


def _solve(rows: list[list[float]]) -> list[float]:
    """x with sum_j rows[i][j] * x[j] = rows[i][-1] for every row i, by
    Gaussian elimination with partial pivoting; rows is overwritten."""
    n = len(rows)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        top = rows[c]
        for row in rows[c + 1 :]:
            f = row[c] / top[c]
            row[c + 1 :] = [x - f * y for x, y in zip(row[c + 1 :], top[c + 1 :])]
    x = [0.0] * n
    for c in reversed(range(n)):
        row = rows[c]
        x[c] = (row[-1] - sum(map(float.__mul__, row[c + 1 : n], x[c + 1 :]))) / row[c]
    return x


def _rho_recursion(alphas: Sequence[float], j_max: int) -> list[float]:
    """rho_0..rho_{j_max} via Yule-Walker: solve for the first k-1 lags
    (`_solve`), then extend by rho_j = sum_i alpha_i * rho_{j-i}."""
    alphas = [float(a) for a in alphas]
    k = len(alphas)
    rho = [1.0]
    if k > 1:
        # unknowns rho_1..rho_{k-1}: rho_j = sum_i alpha_i * rho_{|j-i|},
        # each row with its right-hand side last
        rows = []
        for j in range(1, k):
            row = [0.0] * k
            row[j - 1] = 1.0
            for i, a in enumerate(alphas, 1):
                if i == j:
                    row[-1] += a
                else:
                    row[abs(j - i) - 1] -= a
            rows.append(row)
        rho += _solve(rows)
    for j in range(k, j_max + 1):
        rho.append(sum(alphas[i] * rho[j - 1 - i] for i in range(k)))
    return rho[: j_max + 1]


def acf(alphas: Sequence[float], j_max: int) -> tuple[AcfModel, list[float]]:
    """Theoretical serial correlations and their geometric-mixture form.

    Returns (AcfModel with roots and coefficients A_i, [rho_0..rho_{j_max}]).
    The A_i are the residues of the module docstring, None when two
    roots are equal; for nearly equal roots they are large and cancel.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    cr = char_roots(alphas)
    if not cr.stationary:
        raise NotStationaryError("serial correlations require a stationary model")
    rho = _rho_recursion(alphas, j_max)
    coeffs = None
    lams = cr.roots
    if len(set(lams)) == len(lams):
        terms, _ = confluent_divided_difference_cond(
            [(x,) for x in lams], [_power_column((x,), len(lams) - 1) for x in lams],
            lams)
        total = sum(terms)
        coeffs = tuple(t / total for t in terms)
    return AcfModel(cr.roots, coeffs), rho


def _burn_in(cr: CharRoots, n: int = 1, burn_in: int | None = None) -> int:
    """The one check of a simulation request, on the model's roots: it is
    stationary, n >= 1 and burn_in >= 0.  Returns burn_in, by default the
    smallest with max|lambda|**burn_in < 1e-12, at least k."""
    if not cr.stationary:
        raise NotStationaryError("cannot simulate a non-stationary model")
    if burn_in is None:
        k, r = len(cr.roots), max(map(abs, cr.roots))
        burn_in = max(k, math.ceil(math.log(1e-12) / math.log(r))) if r else k
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    return burn_in


#: Block length of the blocked recursion in `_filter`, raised to k for
#: an AR(k) model with k above it.
_BLOCK = 256

#: Samples that `_stream` filters at once, over all the seeds of a group,
#: whatever n and the number of seeds; each takes 16 bytes, its noise and
#: its output.
_IN_FLIGHT = 1 << 15


@functools.lru_cache(maxsize=1)
def _filter_blocks(alphas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """T and Z of `_filter` for one model, read-only.  `_stream` takes them
    once per call, whatever its chunks and seeds; the last model's are
    kept for repeated `simulate` and `_stream` calls in one process, as
    over the Tier-1 suite (296 hits, 29 misses by `cache_info()`).  A CLI
    command makes one such call, so there it never hits."""
    import numpy as np

    a = np.asarray(alphas, dtype=float)
    k = len(a)
    B = max(_BLOCK, k)
    # columns: the impulse response, then the response to each unit state
    # x_{-k+j} = 1; the first k rows hold the state before the block
    resp = np.zeros((k + B, k + 1))
    resp[:k, 1:] = np.eye(k)
    resp[k, 0] = 1.0
    weights = a[::-1]
    for t in range(B):
        resp[k + t] += weights @ resp[t : t + k]
    h, Z = resp[k:, 0], resp[k:, 1:]
    lag = np.subtract.outer(np.arange(B), np.arange(B))
    T = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    T.flags.writeable = Z.flags.writeable = False
    return T, Z


def _filter(T: np.ndarray, Z: np.ndarray, eps: np.ndarray, x: np.ndarray,
            state: np.ndarray) -> np.ndarray:
    """Run the AR recursion along each row of eps into the same row of x,
    from the k values before the row in the same row of state, and return
    the last k values of each row of x (a view).

    The rows' length is a multiple of the block length B.  Within a block
    of B steps the output is T @ e + Z @ s: T is the B x B lower-triangular
    Toeplitz matrix of the impulse response h, e the block's noise, s the
    k values carried in from the block before and Z their zero-input
    responses (`_filter_blocks`).  One matrix product gives T @ e for every
    block of every row, and a loop over the blocks adds Z @ s to all rows.
    """
    import numpy as np

    B, k = Z.shape
    np.matmul(eps.reshape(-1, B), T.T, out=x.reshape(-1, B))
    blocks = x.reshape(len(x), -1, B)
    for b in range(blocks.shape[1]):
        blocks[:, b] += state @ Z.T
        state = blocks[:, b, B - k :]
    return state


def _stream(model: ARModel, n: int, burn_in: int, seeds: Sequence[int]):
    """Simulate n values after burn_in for each seed, chunk by chunk.

    Yields (rows, t0, x): row i of x holds values t0, t0+1, ... of the
    series of seeds[rows][i], counted after the burn-in.  The seeds run in
    groups, one group's chunks in order from t0 = 0, and x is a view that
    the next step overwrites.  Each seed's noise is drawn from
    default_rng(seed) piece by piece, which gives the same stream as one
    draw, and each chunk of a group is one call of `_filter`, so about
    `_IN_FLIGHT` samples are held at once, however long or many the
    series.  The caller checks the request (`_burn_in`).
    """
    import numpy as np

    T, Z = _filter_blocks(model.alphas)
    B, k = Z.shape
    total = burn_in + n
    # whole blocks, no more than the series needs, over all seeds at once
    # when they fit
    width = B * max(1, min(-(-total // B), _IN_FLIGHT // (B * len(seeds))))
    group = max(1, min(len(seeds), _IN_FLIGHT // width))
    buffers = np.empty((2, group * width))
    for first in range(0, len(seeds), group):
        rngs = [np.random.default_rng(s) for s in seeds[first : first + group]]
        rows = slice(first, first + len(rngs))
        state = np.zeros((len(rngs), k))
        for start in range(0, total, width):
            need = min(width, total - start)
            size = -(-need // B) * B
            eps, x = (buf[: len(rngs) * size].reshape(len(rngs), size)
                      for buf in buffers)
            for row, rng in zip(eps, rngs):
                rng.standard_normal(out=row[:need])
            eps[:, need:] = 0.0
            eps *= model.sigma
            state = _filter(T, Z, eps, x, state).copy()
            skip = max(0, burn_in - start)
            if skip < need:
                yield rows, start + skip - burn_in, x[:, skip:need]


def simulate(
    model: ARModel, n: int, burn_in: int | None = None, seed: int = 0
) -> SeriesSample:
    """Simulate n observations from the stationary phase.

    Deterministic given (seed, n, burn_in): noise comes from numpy's seeded
    PCG64 generator, the recursion starts from a zero state, and the first
    burn_in values are discarded.  The recursion runs in blocks of 256
    steps (k for k above that): one matrix product with the lower-triangular
    Toeplitz matrix of the impulse response gives every block's response to
    its own noise, and a loop over the blocks adds the response to the last
    k values of the block before.  The series is made in chunks
    (`_stream`), so besides the n returned values it holds a few hundred KB.
    """
    burn_in = _burn_in(char_roots(model.alphas), n, burn_in)
    import numpy as np

    values = np.empty(n)
    for _, t0, x in _stream(model, n, burn_in, [seed]):
        values[t0 : t0 + x.shape[1]] = x[0]
    return SeriesSample(values, seed=seed, burn_in=burn_in)


def _lag_sums(chunks, rows: int, j_max: int) -> np.ndarray:
    """The lag sums Q_0..Q_{j_max}, Q_j = sum_t X_t * X_{t+j}, of `rows`
    series given chunk by chunk, as the rows of one array.

    chunks yields (at, t0, x) as `_stream` does: row i of x holds values
    t0, t0+1, ... of series at[i], each series' chunks in order from
    t0 = 0.  Each chunk is joined to the last j_max values of the chunks
    before it and adds the products whose later value lies in it, one
    `np.einsum` per lag.  Raises DegenerateSampleError where Q_0 is 0.
    """
    import numpy as np

    sums = np.zeros((rows, j_max + 1))
    for at, t0, x in chunks:
        if t0 == 0:
            tail = x[:, :0]
        y = np.concatenate([tail, x], axis=1)
        for j in range(min(j_max + 1, y.shape[1])):
            lo = max(tail.shape[1], j)
            sums[at, j] += np.einsum("ij,ij->i", y[:, lo:],
                                     y[:, lo - j : y.shape[1] - j])
        tail = y[:, max(0, y.shape[1] - j_max) :]
    if not sums[:, 0].all():
        raise DegenerateSampleError("all-zero sample")
    return sums


def empirical_acf(sample: SeriesSample, j_max: int) -> list[float]:
    """Zero-mean sample autocorrelations r_0..r_{j_max}: the lag sums of
    the whole series (`_lag_sums`, one chunk) over Q_0."""
    if j_max < 0 or j_max >= sample.n:
        raise BadLagError(f"j_max {j_max} out of range for n={sample.n}")
    sums = _lag_sums([(slice(0, 1), 0, sample.values[None])], 1, j_max)[0]
    return (sums / sums[0]).tolist()


def _sample_acfs(model: ARModel, n: int, burn_in: int, seeds: Sequence[int],
                 j_max: int) -> np.ndarray:
    """`empirical_acf(simulate(model, n, burn_in, seed), j_max)` for each
    seed, as the rows of one array, with no series held whole: the lag
    sums of `_stream`'s chunks over Q_0.  The caller checks the request
    (`_burn_in`).
    """
    if j_max < 0 or j_max >= n:
        raise BadLagError(f"j_max {j_max} out of range for n={n}")
    sums = _lag_sums(_stream(model, n, burn_in, seeds), len(seeds), j_max)
    return sums / sums[:, :1]


#: Rows formatted per write of the CSV file, so its memory stays bounded.
_CSV_ROWS = 1 << 12


def _simulate_csv(model: ARModel, n: int, burn_in: int, seed: int, path) -> None:
    """`simulate(model, n, burn_in, seed)` as a CSV file (`_write_rows`),
    each chunk of `_stream` written as it is made.  The caller checks the
    request (`_burn_in`)."""
    _write_rows(path, (x[0] for _, _, x in _stream(model, n, burn_in, [seed])))


def _write_rows(path, chunks) -> None:
    """One value per line under a single `x` header, from the series in
    consecutive pieces.

    Each value is written with repr, so it reads back exactly, and each
    line ends in CRLF, as `csv.writer` writes it.
    """
    with open(path, "w", newline="") as fh:
        fh.write("x\r\n")
        for chunk in chunks:
            for lo in range(0, len(chunk), _CSV_ROWS):
                rows = chunk[lo : lo + _CSV_ROWS].tolist()
                fh.write("\r\n".join(map(repr, rows)) + "\r\n")
