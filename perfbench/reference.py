"""High-precision references the benchmark checks every output against.

Everything here runs in the benchmark's parent process, before any timed
interval and before any set-up is timed.  Nothing imports ``serialsum``:
the references are independent of the code under test.
"""

from __future__ import annotations

import itertools
import math

import mpmath

#: Working precision.  Near-coincident roots cost up to about 2*12 digits
#: to cancellation, which leaves well over 50 correct digits.
DPS = 80


def limit_reference(lambdas, S: int) -> mpmath.mpc:
    """F(lambdas; S) from the residue form of the divided difference.

    F = sum over distinct nodes x_i of multiplicity m_i of
    D^(m_i - 1)[G(z) / prod_{j != i} (z - x_j)**m_j](x_i) / (m_i - 1)!,
    with G(z) = z**(S + l - 1) * prod_j (1 - l_j**2) / (1 - z*l_j).
    Nodes are the roots exactly as given: only bit-identical values form a
    repeated node, so near-coincident roots are evaluated as distinct.
    """
    with mpmath.workdps(DPS):
        lams = [mpmath.mpc(complex(v).real, complex(v).imag) for v in lambdas]
        power = S + len(lams) - 1
        nodes: dict[complex, int] = {}
        for v in lambdas:
            key = complex(v)
            nodes[key] = nodes.get(key, 0) + 1

        def g(z):
            out = z**power
            for lam in lams:
                out *= (1 - lam * lam) / (1 - z * lam)
            return out

        total = mpmath.mpc(0)
        for key, mult in nodes.items():
            x = mpmath.mpc(key.real, key.imag)
            others = [
                (mpmath.mpc(k.real, k.imag), m) for k, m in nodes.items() if k != key
            ]

            def h(z, others=others):
                den = mpmath.mpc(1)
                for xj, mj in others:
                    den *= (z - xj) ** mj
                return g(z) / den

            if mult == 1:
                total += h(x)
            else:
                total += mpmath.diff(h, x, mult - 1) / math.factorial(mult - 1)
        return +total


def finite_sum_reference(lambdas, shifts, n: int, adjust) -> mpmath.mpc:
    """Exact finite cyclic sum by direct enumeration (small n only)."""
    with mpmath.workdps(DPS):
        lams = [mpmath.mpc(complex(v).real, complex(v).imag) for v in lambdas]
        ell = len(lams)
        ns = [n + d for d in adjust]
        total = mpmath.mpc(0)
        for idx in itertools.product(*(range(1, nm + 1) for nm in ns)):
            term = mpmath.mpc(1)
            for m in range(ell):
                term *= lams[m] ** abs(idx[m] - idx[(m + 1) % ell] + shifts[m])
            total += term
        return +total


def poly_roots_reference(alphas) -> list[complex]:
    """Roots of lambda**k = alpha_1*lambda**(k-1) + ... + alpha_k."""
    with mpmath.workdps(DPS):
        coeffs = [1] + [-mpmath.mpf(a) for a in alphas]
        return [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)]


def ar_rho_reference(alphas, j_max: int) -> list[float]:
    """rho_0..rho_j_max of a stationary AR(1) or AR(2) model."""
    with mpmath.workdps(DPS):
        a = [mpmath.mpf(x) for x in alphas]
        if len(a) == 1:
            rho = [a[0] ** j for j in range(j_max + 1)]
        elif len(a) == 2:
            rho = [mpmath.mpf(1), a[0] / (1 - a[1])]
            while len(rho) <= j_max:
                rho.append(a[0] * rho[-1] + a[1] * rho[-2])
        else:
            raise ValueError("reference covers AR(1) and AR(2) only")
        return [float(r) for r in rho[: j_max + 1]]


def abs_error(value: complex, ref: mpmath.mpc) -> float:
    """|value - ref| with the subtraction done at reference precision."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpc(value.real, value.imag) - ref))
