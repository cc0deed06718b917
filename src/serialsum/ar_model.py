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

Simulation has one engine, `_stream`: it draws each seed's noise from
that seed's generator chunk by chunk, and runs a group of seeds through
the blocked filter together, so it holds about `_IN_FLIGHT` samples at
once, however long the series and however many the seeds.  `simulate`
fills its array from it, `_simulate_csv` (`ar simulate`) writes each
chunk to the CSV file, and `_sample_acfs` (`ar check`) passes its chunks
to `_lag_sums`.  `_lag_sums` is the one routine that forms the lag sums
Q_j = sum_t X_t * X_{t+j}: `empirical_acf` gives it a whole series as
one chunk.

Note: `empirical_acf` uses the known-zero-mean estimator (no sample-mean
subtraction) because the process mean is exactly zero.  Generic ACF tools
subtract the mean and will differ slightly.

The records are named tuples, and numpy is imported inside the functions
that use it, so importing this module loads neither `dataclasses` nor
numpy, and neither do `char_roots` and `acf` for an AR(1) model.
"""

from __future__ import annotations

import functools
import math
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


#: Groups of roots whose scales differ by more than this factor, above the
#: 1/eps = 2**52 that one companion matrix resolves, are found apart
#: (`_roots_by_scale`).  Over random products of roots, no set that plain
#: np.roots finds is lost at 2**60, and at 2**40 to 2**50 a few are.
_SCALE_GAP = 2.0**60


def _roots_by_scale(poly: np.ndarray) -> np.ndarray:
    """The roots of poly[0]*lam**k + ... + poly[k], poly[0] != 0: np.roots,
    or np.roots on each group of roots of one scale where the scales are
    too far apart for one companion matrix.

    The upper convex hull of the points (i, log|poly[i]|), the Newton
    polygon, estimates the roots' moduli: an edge from i to j of slope m
    carries j - i roots of modulus about exp(m) (Ostrowski 1940).  Where
    two consecutive slopes differ by more than log(`_SCALE_GAP`), the
    other groups' terms are negligible at a group's roots, so each group is
    found from its own coefficients poly[i] .. poly[j] alone, balanced
    exactly by lam = 2**e * mu, 2**e about the geometric mean of the
    group's moduli.  The roots past the last nonzero coefficient are 0.
    """
    import numpy as np

    def slope(a: tuple, b: tuple) -> float:
        return (b[1] - a[1]) / (b[0] - a[0])

    c = poly.tolist()
    last = max(i for i, v in enumerate(c) if v)
    hull = []  # the upper hull, by Andrew's monotone chain
    for pt in ((i, math.log(abs(v))) for i, v in enumerate(c[: last + 1]) if v):
        while len(hull) > 1 and slope(hull[-2], hull[-1]) <= slope(hull[-1], pt):
            hull.pop()
        hull.append(pt)
    slopes = [slope(a, b) for a, b in zip(hull, hull[1:])]
    cuts = [v for v in range(1, len(slopes))
            if slopes[v - 1] - slopes[v] > math.log(_SCALE_GAP)]
    if not cuts:
        return np.roots(poly)
    found = [np.zeros(len(c) - 1 - last, complex)]
    ends = [0, *cuts, len(hull) - 1]
    for a, b in zip(ends, ends[1:]):
        lo, hi = hull[a][0], hull[b][0]
        e = math.floor(slope(hull[a], hull[b]) / math.log(2))
        top = math.frexp(c[lo])[1]
        sub = [math.ldexp(v, -(i - lo) * e - top)
               for i, v in enumerate(c[lo : hi + 1], lo)]
        found.append(np.roots(sub) * 2.0**e)
    return np.concatenate(found)


def char_roots(alphas: Sequence[float]) -> CharRoots:
    """Roots of lambda**k = alpha_1*lambda**(k-1) + ... + alpha_k."""
    alphas = [float(a) for a in alphas]
    k = len(alphas)
    if k < 1:
        raise ValueError("need at least one coefficient")
    if not all(map(math.isfinite, alphas)):
        raise ValueError("coefficients must be finite")
    if k == 1:
        roots = (complex(alphas[0]),)  # exact: no residual to check
    else:
        import numpy as np

        poly = np.concatenate([[1.0], -np.asarray(alphas)])
        found = _roots_by_scale(poly)
        # |p(lam)| against sum_i |c_i| * |lam|**(k-i), both by Horner's
        # rule; a root outside the unit circle is checked on the reversed
        # polynomial at 1/lam, and the coefficients are divided by the
        # largest modulus, so neither side can overflow
        poly /= np.abs(poly).max()
        inside = np.abs(found) <= 1
        for coeffs, z, lams in (
            (poly, found[inside], found[inside]),
            (poly[::-1], 1 / found[~inside], found[~inside]),
        ):
            resid, scale = np.zeros(len(z), complex), np.zeros(len(z))
            for c in coeffs:
                resid = resid * z + c
                scale = scale * np.abs(z) + abs(c)
            bad = np.abs(resid) > 1e-10 * scale
            if bad.any():
                i = int(np.argmax(bad))
                raise RuntimeError(
                    f"root residual {abs(resid[i]):g} too large at {lams[i]}"
                )
        roots = tuple(sorted(found, key=lambda z: (-abs(z), -z.real, -z.imag)))
    stationary = all(abs(lam) < 1 for lam in roots)
    return CharRoots(tuple(complex(z) for z in roots), stationary)


def _rho_recursion(alphas: Sequence[float], j_max: int) -> list[float]:
    """rho_0..rho_{j_max} via Yule-Walker: solve for the first k-1 lags,
    then extend by rho_j = sum_i alpha_i * rho_{j-i}."""
    alphas = [float(a) for a in alphas]
    k = len(alphas)
    rho = [1.0]
    if k > 1:
        import numpy as np

        # unknowns rho_1..rho_{k-1}: rho_j = sum_i alpha_i * rho_{|j-i|}
        a = np.zeros((k - 1, k - 1))
        b = np.zeros(k - 1)
        for j in range(1, k):
            a[j - 1, j - 1] += 1.0
            for i in range(1, k + 1):
                lag = abs(j - i)
                if lag == 0:
                    b[j - 1] += alphas[i - 1]
                else:
                    a[j - 1, lag - 1] -= alphas[i - 1]
        rho.extend(np.linalg.solve(a, b).tolist())
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


def _burn_in(cr: CharRoots) -> int:
    """Smallest burn-in with max|lambda|**burn_in < 1e-12, at least k,
    from the model's roots, found once by the caller."""
    if not cr.stationary:
        raise NotStationaryError("burn-in requires a stationary model")
    k = len(cr.roots)
    r = max(abs(lam) for lam in cr.roots)
    if r == 0:
        return k
    return max(k, math.ceil(math.log(1e-12) / math.log(r)))


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
    series.  The caller checks that the model is stationary, n >= 1 and
    burn_in >= 0.
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
    cr = char_roots(model.alphas)
    if not cr.stationary:
        raise NotStationaryError("cannot simulate a non-stationary model")
    if burn_in is None:
        burn_in = _burn_in(cr)
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
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
    sums of `_stream`'s chunks over Q_0.  The caller checks what
    `simulate` checks.
    """
    if j_max < 0 or j_max >= n:
        raise BadLagError(f"j_max {j_max} out of range for n={n}")
    sums = _lag_sums(_stream(model, n, burn_in, seeds), len(seeds), j_max)
    return sums / sums[:, :1]


#: Rows formatted per write of the CSV file, so its memory stays bounded.
_CSV_ROWS = 1 << 12


def _simulate_csv(model: ARModel, n: int, burn_in: int, seed: int, path) -> None:
    """`simulate(model, n, burn_in, seed)` as a CSV file (`_write_rows`),
    each chunk of `_stream` written as it is made.  The caller checks what
    `simulate` checks."""
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
