"""AR(k) toolkit: characteristic roots, theoretical and empirical serial
correlations, seeded simulation, and the sum statistics used by the moment
calculations.

The process is X_i = alpha_1*X_{i-1} + ... + alpha_k*X_{i-k} + eps_i with
iid Gaussian noise.  It is asymptotically stationary iff every root of
lambda**k = alpha_1*lambda**(k-1) + ... + alpha_k lies strictly inside the
unit disk, in which case the serial correlation is a mixture of geometric
terms rho_j = sum_i A_i * lambda_i**|j|.  The rho_j come from the
Yule-Walker equations and the AR recursion.  The A_i come from the closed
form of `lambda_sums`: the spectral density of the process is the series
oracle's symbol, so gamma_j is proportional to F(lambda; j), and A_i is
the closed form's term for lambda_i at S = 0 divided by their sum.

Note: `empirical_acf` uses the known-zero-mean estimator (no sample-mean
subtraction) because the process mean is exactly zero.  Generic ACF tools
subtract the mean and will differ slightly.

numpy is imported inside the functions that use it, so importing this
module (and with it `serialsum`) loads none, and neither do `char_roots`
and `acf` for an AR(1) model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .lambda_sums import _distinct_terms


class NotStationaryError(ValueError):
    """Operation requires a stationary model."""


class BadLagError(ValueError):
    """Lag j out of range for the sample length."""


class DegenerateSampleError(ValueError):
    """All-zero sample: autocorrelations undefined."""


@dataclass(frozen=True)
class ARModel:
    alphas: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "sigma", float(self.sigma))
        if len(self.alphas) < 1:
            raise ValueError("need at least one coefficient")
        if self.alphas[-1] == 0:
            raise ValueError("alpha_k must be nonzero (drop trailing zeros)")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @property
    def k(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class CharRoots:
    roots: tuple[complex, ...]
    stationary: bool


@dataclass(frozen=True)
class AcfModel:
    """Roots and mixture weights; ``coeffs`` is None when two roots are
    equal, where the mixture has no geometric form."""

    roots: tuple[complex, ...]
    coeffs: tuple[complex, ...] | None


@dataclass(frozen=True)
class SeriesSample:
    values: np.ndarray
    seed: int
    burn_in: int

    def __post_init__(self):
        import numpy as np

        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("values must be a nonempty 1-D array")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


def char_roots(alphas: Sequence[float]) -> CharRoots:
    """Roots of lambda**k = alpha_1*lambda**(k-1) + ... + alpha_k."""
    alphas = [float(a) for a in alphas]
    k = len(alphas)
    if k < 1:
        raise ValueError("need at least one coefficient")
    if k == 1:
        roots = (complex(alphas[0]),)  # exact: no residual to check
    else:
        import numpy as np

        poly = np.concatenate([[1.0], -np.asarray(alphas)])
        found = np.roots(poly)
        # |p(lam)| against sum_i |c_i| * |lam|**(k-i), both by Horner's
        # rule; a root outside the unit circle is checked on the reversed
        # polynomial at 1/lam, so neither side can overflow
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
    The A_i are the closed form's terms at S = 0 over their sum, None when
    two roots are equal; for nearly equal roots they are large and cancel.
    """
    cr = char_roots(alphas)
    if not cr.stationary:
        raise NotStationaryError("serial correlations require a stationary model")
    rho = _rho_recursion(alphas, j_max)
    coeffs = None
    if len(set(cr.roots)) == len(cr.roots):
        terms = _distinct_terms(cr.roots, 0)
        total = sum(terms)
        coeffs = tuple(t / total for t in terms)
    return AcfModel(cr.roots, coeffs), rho


def default_burn_in(alphas: Sequence[float]) -> int:
    """Smallest burn-in with max|lambda|**burn_in < 1e-12."""
    cr = char_roots(alphas)
    if not cr.stationary:
        raise NotStationaryError("burn-in requires a stationary model")
    r = max(abs(lam) for lam in cr.roots)
    if r == 0:
        return len(list(alphas))
    return max(len(list(alphas)), math.ceil(math.log(1e-12) / math.log(r)))


#: Block length of the blocked recursion in `_ar_filter`, raised to k for
#: an AR(k) model with k above it.
_BLOCK = 256


def _ar_filter(alphas: Sequence[float], eps: np.ndarray) -> np.ndarray:
    """X_t = eps_t + alpha_1*X_{t-1} + ... + alpha_k*X_{t-k} from a zero state.

    Within a block of B steps the output is T @ e + Z @ s: T is the B x B
    lower-triangular Toeplitz matrix of the impulse response h, e the
    block's noise, s the k values carried in from the previous block and Z
    their zero-input responses.  One run of the recursion over B steps gives
    h and Z, one matrix product gives T @ e for every block, and a loop over
    the blocks adds Z @ s.
    """
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

    # the forced response of each block, written straight into x so that
    # the noise is not copied; the last block is partial
    n = len(eps)
    full = n - n % B
    x = np.zeros(-(-n // B) * B)
    np.matmul(eps[:full].reshape(-1, B), T.T, out=x[:full].reshape(-1, B))
    x[full:n] = T[: n - full, : n - full] @ eps[full:]
    x = x.reshape(-1, B)
    for b in range(1, len(x)):
        x[b] += Z @ x[b - 1, B - k :]
    return x.ravel()[:n]


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
    k values of the block before.
    """
    cr = char_roots(model.alphas)
    if not cr.stationary:
        raise NotStationaryError("cannot simulate a non-stationary model")
    if burn_in is None:
        burn_in = default_burn_in(model.alphas)
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    import numpy as np

    rng = np.random.default_rng(seed)
    eps = model.sigma * rng.standard_normal(burn_in + n)
    x = _ar_filter(model.alphas, eps)
    return SeriesSample(x[burn_in:], seed=seed, burn_in=burn_in)


def sum_stats(sample: SeriesSample, j: int) -> tuple[float, float]:
    """(sum of X_i, sum of X_i * X_{i+j} for i = 1..n-j)."""
    if j < 0 or j >= sample.n:
        raise BadLagError(f"lag {j} out of range for n={sample.n}")
    import numpy as np

    x = sample.values
    sum_x = float(x.sum())
    if j == 0:
        sum_xx = float(np.dot(x, x))
    else:
        sum_xx = float(np.dot(x[:-j], x[j:]))
    return sum_x, sum_xx


def empirical_acf(sample: SeriesSample, j_max: int) -> list[float]:
    """Zero-mean sample autocorrelations r_0..r_{j_max}."""
    if j_max < 0 or j_max >= sample.n:
        raise BadLagError(f"j_max {j_max} out of range for n={sample.n}")
    _, denom = sum_stats(sample, 0)
    if denom == 0:
        raise DegenerateSampleError("all-zero sample")
    return [sum_stats(sample, j)[1] / denom for j in range(j_max + 1)]


#: Rows `write_csv` formats per write, so its memory stays bounded.
_CSV_ROWS = 1 << 16


def write_csv(sample: SeriesSample, path) -> None:
    """One value per line under a single `x` header.

    Each value is written with repr, so it reads back exactly, and each
    line ends in CRLF, as `csv.writer` writes it.
    """
    values = sample.values
    with open(path, "w", newline="") as fh:
        fh.write("x\r\n")
        for lo in range(0, len(values), _CSV_ROWS):
            rows = values[lo : lo + _CSV_ROWS].tolist()
            fh.write("\r\n".join(map(repr, rows)) + "\r\n")
