"""Univariate complex jets and Hermite (confluent) divided differences.

A jet carries the truncated Taylor expansion of a function at a point:
``c0 + c1*(x - center) + ... + cm*(x - center)**m``.  The divided-difference
table consumes those coefficients at repeated nodes, so the same code
handles distinct and confluent node sets.  Arithmetic on jets propagates
the coefficients exactly (up to rounding), which gives high-order
derivatives of small rational expressions without step-size tuning; the
library's own evaluator, `lambda_sums.f_general`, builds its coefficients
in closed form instead and uses `Jet` only to carry them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class DegenerateJetError(ZeroDivisionError):
    """Division by a jet whose constant term is zero."""


class InsufficientOrderError(ValueError):
    """A jet does not carry enough Taylor coefficients for the requested use."""


class NodeCollisionError(ValueError):
    """Two nominally distinct nodes are numerically identical."""


def _require_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value: {z!r}")
    return z


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion of a function at ``center``.

    ``coeffs[k]`` is the k-th Taylor coefficient, i.e. f^(k)(center) / k!.
    Arithmetic requires both operands to share center and order.
    """

    center: complex
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "center", _require_finite(self.center))
        if not self.coeffs:
            raise ValueError("a jet needs at least the constant coefficient")
        object.__setattr__(
            self, "coeffs", tuple(_require_finite(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: complex, center: complex, order: int) -> "Jet":
        return cls(center, (complex(value),) + (0j,) * order)

    @classmethod
    def identity(cls, center: complex, order: int) -> "Jet":
        """The jet of f(x) = x at ``center``."""
        if order == 0:
            return cls(center, (complex(center),))
        return cls(center, (complex(center), 1 + 0j) + (0j,) * (order - 1))

    def _compatible(self, other: "Jet") -> None:
        if self.center != other.center or self.order != other.order:
            raise ValueError("jet arithmetic requires equal centers and orders")

    def __add__(self, other: "Jet") -> "Jet":
        self._compatible(other)
        return Jet(self.center, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Jet") -> "Jet":
        self._compatible(other)
        return Jet(self.center, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Jet") -> "Jet":
        self._compatible(other)
        m = self.order
        out = [0j] * (m + 1)
        for i, a in enumerate(self.coeffs):
            for j in range(m + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return Jet(self.center, tuple(out))

    def __truediv__(self, other: "Jet") -> "Jet":
        self._compatible(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise DegenerateJetError("division by a jet with zero constant term")
        m = self.order
        out = [0j] * (m + 1)
        for k in range(m + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc -= other.coeffs[j] * out[k - j]
            out[k] = acc / b0
        return Jet(self.center, tuple(out))

    def __pow__(self, p: int) -> "Jet":
        if not isinstance(p, int) or p < 0:
            raise ValueError("jet power requires an integer exponent >= 0")
        result = Jet.constant(1.0, self.center, self.order)
        base = self
        while p:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result


def confluent_divided_difference(
    nodes: Sequence[tuple[complex, int]],
    f_jets: Sequence[Jet],
    collision_tol: float = 1e-6,
) -> complex:
    """Hermite divided difference f[x1,...,x1, ..., xr,...,xr].

    ``nodes`` lists (value, multiplicity) pairs; ``f_jets[i]`` carries the
    Taylor coefficients of f at ``nodes[i][0]`` to order at least
    multiplicity - 1.  With all multiplicities 1 this is the ordinary
    divided difference; a single node of multiplicity m gives
    f^(m-1)(x) / (m-1)!.
    """
    value, _ = confluent_divided_difference_cond(nodes, f_jets, collision_tol)
    return value


def confluent_divided_difference_cond(
    nodes: Sequence[tuple[complex, int]],
    f_jets: Sequence[Jet],
    collision_tol: float = 1e-6,
) -> tuple[complex, float]:
    """As :func:`confluent_divided_difference`, plus a forward-error scale.

    The second return value propagates entry magnitudes through the same
    table recursion; multiplied by machine epsilon it estimates the rounding
    error of the result.  Heuristic, not a rigorous bound.
    """
    if len(nodes) != len(f_jets):
        raise ValueError("one jet per node required")
    if not nodes:
        raise ValueError("at least one node required")

    values = [_require_finite(v) for v, _ in nodes]
    mults = [m for _, m in nodes]
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be >= 1")
    scale = 1.0 + max(abs(v) for v in values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= collision_tol * scale:
                raise NodeCollisionError(
                    f"nodes {values[i]} and {values[j]} are numerically identical; "
                    "merge them into one node with summed multiplicity"
                )
    for (v, m), jet in zip(nodes, f_jets):
        if jet.center != complex(v):
            raise ValueError("jet center must equal its node value")
        if jet.order < m - 1:
            raise InsufficientOrderError(
                f"node {v} with multiplicity {m} needs a jet of order >= {m - 1}, "
                f"got {jet.order}"
            )

    # Expanded node list with repeats kept contiguous, so equal entries in
    # the table are always filled from Taylor coefficients of a single jet.
    z: list[complex] = []
    jet_of: list[Jet] = []
    for (v, m), jet in zip(nodes, f_jets):
        z.extend([complex(v)] * m)
        jet_of.extend([jet] * m)
    n = len(z)

    col = [jet_of[i].coeffs[0] for i in range(n)]
    mag = [abs(c) for c in col]
    for k in range(1, n):
        new_col = [0j] * (n - k)
        new_mag = [0.0] * (n - k)
        for i in range(n - k):
            dz = z[i + k] - z[i]
            if dz == 0:
                new_col[i] = jet_of[i].coeffs[k]
                new_mag[i] = abs(new_col[i])
            else:
                new_col[i] = (col[i + 1] - col[i]) / dz
                new_mag[i] = (mag[i + 1] + mag[i]) / abs(dz)
        col, mag = new_col, new_mag
    return col[0], mag[0] * n
