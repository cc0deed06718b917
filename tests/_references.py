"""Test references for the library's evaluators: the distinct-root closed
form in mpmath, the printed closed forms for repeated roots, and the
direct enumeration of the finite cyclic sum."""

import itertools

import pytest


def mp_closed_form(nodes, S: int, dps: int):
    """F(nodes; S) from the distinct-root closed form at ``dps`` digits,
    each node converted at that precision, so a decimal string is read to
    it.  A zero root contributes the factor 1 to the symbol, so zeros are
    dropped; the remaining nodes must be distinct."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        ls = [v for v in map(mpmath.mpc, nodes) if v != 0]
        if not ls:
            return mpmath.mpf(1 if S == 0 else 0)
        return mpmath.fsum(
            li ** (S + len(ls) - 1) * mpmath.fprod(
                (1 - lj**2) / ((li - lj) * (1 - li * lj))
                for j, lj in enumerate(ls) if j != i
            )
            for i, li in enumerate(ls)
        )


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


def finite_sum_direct(spec) -> complex:
    """Direct O(n**l) enumeration of a `FiniteSumSpec`; the correctness
    oracle for the reduction."""
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
