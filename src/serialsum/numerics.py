"""Univariate complex jets: truncated Taylor expansions with arithmetic.

A jet carries the truncated Taylor expansion of a function at a point:
``c0 + c1*(x - center) + ... + cm*(x - center)**m``.  Arithmetic on jets
propagates the coefficients exactly (up to rounding), which gives
high-order derivatives of small rational expressions without step-size
tuning.  The library's evaluator, `lambda_sums.f_general`, does not use
them: it builds G's Taylor coefficients in closed form (`_g_jet`) and
hands them to its own divided-difference table as plain sequences.  Jet
arithmetic stays as the tests' reference for those coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DegenerateJetError(ZeroDivisionError):
    """Division by a jet whose constant term is zero."""


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
