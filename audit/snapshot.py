"""Snapshot of the evaluators' outputs, for checking bit identity.

Prints one line per input of a seeded generator and per evaluator: the
evaluator's name and its input, then the ``repr`` of what it returns, or
the type and message of the error it raises.  The evaluators are

- ``series``: `series_oracle` over l = 2..6 roots (reals, conjugate pairs,
  complex roots without their conjugate, zeros, exact repeats and near
  copies) at radii up to 0.999, S up to 150,000, tol from 1e-13 to 100,
  and the default budget or a tight one, which caps the node count or
  refuses the call; its lines end in the node count N (``truncation``) or
  ``refused``, so ``cut -d'|' -f3`` gives the N histogram;
- ``general``: `f_general` on `RootMultiset.from_lambdas` of such roots,
  with near copies 1e-9 to 1e-3 apart, at S up to 2**70;
- ``finite``: `finite_sum_with_error` with shifts up to the hundreds,
  upper adjustments (often down to a range of one) and n up to 300 for
  l = 2 and 40 above;
- ``linear``: `linear_coefficient` with n_base drawn from the largest
  modulus r, mostly at or above the least n_base with r**n_base < 1e-12,
  so that most calls return a value.

Two source trees give the same bits on these inputs when their snapshots
do not differ:

    PYTHONPATH=src python audit/snapshot.py --count 6000 > new.txt
    PYTHONPATH=../old/src python audit/snapshot.py --count 6000 > old.txt
    cmp old.txt new.txt

The script imports only public names, so it runs on older trees too.  The
inputs come from Python's own ``random``, so they do not depend on the
numpy version, and each evaluator draws from its own generator seeded
with ``--seed``.  Each line starts with its evaluator's name, so
``grep '^general '`` gives one evaluator's lines.
"""

from __future__ import annotations

import argparse
import cmath
import math
import random
import sys

from serialsum.lambda_sums import (DEFAULT_BUDGET, BudgetExceededError,
                                   FiniteSumSpec, RootMultiset, f_general,
                                   finite_sum_with_error, linear_coefficient,
                                   series_oracle)


def draw_roots(rng: random.Random, ell: int,
               radii=(0.5, 0.9, 0.99, 0.999)) -> list[complex]:
    """ell roots in random order, of modulus at most rmax, one of
    ``radii``."""
    rmax = rng.choice(radii)
    out: list[complex] = []
    while len(out) < ell:
        kind = rng.randrange(7)
        z = cmath.rect(rng.uniform(0.0, rmax), rng.uniform(0.0, math.pi))
        if kind == 0:
            out.append(complex(rng.uniform(-rmax, rmax)))
        elif kind == 1 and len(out) + 2 <= ell:
            out += [z, z.conjugate()]
        elif kind == 2:  # without its conjugate
            out.append(z)
        elif kind == 3:
            out.append(0j)
        elif kind == 4 and out:  # an exact repeat
            out.append(rng.choice(out))
        elif kind == 5:  # on the largest radius
            out.append(complex(rng.choice((-rmax, rmax))))
        elif kind == 6 and out:  # a near copy, with its conjugate's if room
            v = rng.choice(out)
            d = rng.choice((-1, 1)) * 10 ** rng.uniform(-9.0, -3.0)
            copies = [v + d]
            if v.imag and len(out) + 2 <= ell:
                copies.append(v.conjugate() + d)
            if max(map(abs, copies)) < 1:
                out += copies
    rng.shuffle(out)
    return out


def draw_series(rng: random.Random) -> tuple:
    """Roots, S, tol and budget of one `series_oracle` call."""
    ell = rng.randint(2, 6)
    lams = draw_roots(rng, ell)
    if rng.random() < 0.3:
        S = rng.randint(0, 10)
    else:  # log-uniform up to 150,000, above 2**16 in about one in seven
        S = int(math.exp(rng.uniform(0.0, math.log(150_000))))
    tol = 10 ** rng.uniform(-13.0, 2.0)
    budget = DEFAULT_BUDGET
    if rng.random() < 0.3:  # a cap near the first node counts, or a refusal
        budget = ell * rng.randint(max(1, S // 2), 8 * (S + 8))
    return lams, S, tol, budget


def draw_general(rng: random.Random) -> tuple:
    """Roots and S of one `f_general` call."""
    lams = draw_roots(rng, rng.randint(2, 6))
    if rng.random() < 0.5:
        S = rng.randint(0, 10)
    else:  # log-uniform up to 2**70
        S = int(math.exp(rng.uniform(0.0, 70 * math.log(2))))
    return lams, S


def draw_finite(rng: random.Random) -> tuple:
    """Roots, shifts, n and upper adjustments of one
    `finite_sum_with_error` call."""
    ell = rng.randint(2, 6)
    lams = draw_roots(rng, ell)
    n = rng.randint(1, 300 if ell == 2 else 40)
    shifts = [rng.randint(-3, 3) if rng.random() < 0.7
              else rng.randint(-900, 900) for _ in range(ell)]
    adjust = [0] * ell
    if rng.random() < 0.5:
        adjust = [rng.choice((0, -rng.randint(0, n - 1), 1 - n))
                  for _ in range(ell)]
    return lams, shifts, n, adjust


def draw_linear(rng: random.Random) -> tuple:
    """Roots, shifts, n_base and upper adjustments of one
    `linear_coefficient` call."""
    ell = rng.randint(2, 6)
    radii = (0.3, 0.5, 0.7, 0.9) + ((0.99, 0.999) if ell == 2 else ())
    lams = draw_roots(rng, ell, radii)
    r = max(map(abs, lams))
    need = math.ceil(math.log(1e-12) / math.log(r)) if r else 1
    n_base = max(4, need + rng.randint(-3, 40))
    shifts = [rng.randint(-3, 3) if rng.random() < 0.9
              else rng.randint(-300, 300) for _ in range(ell)]
    adjust = [rng.randint(-3, 0) for _ in range(ell)]
    return lams, shifts, n_base, adjust


def run_series(lams, S, tol, budget) -> str:
    got = series_oracle(lams, S, tol, budget=budget)
    return f"{got!r}|{got.truncation}"


def run_general(lams, S) -> str:
    return repr(f_general(RootMultiset.from_lambdas(lams), S))


def run_finite(lams, shifts, n, adjust) -> str:
    return repr(finite_sum_with_error(FiniteSumSpec(lams, shifts, n, adjust)))


def run_linear(lams, shifts, n_base, adjust) -> str:
    return repr(linear_coefficient(lams, shifts, n_base, adjust))


#: name: (the generator of one input, the call that gives its line's output)
EVALUATORS = {
    "series": (draw_series, run_series),
    "general": (draw_general, run_general),
    "finite": (draw_finite, run_finite),
    "linear": (draw_linear, run_linear),
}


def refusal(exc: Exception) -> str:
    """The output line of an error: its type and message, and for a
    budget refusal the bound achievable at the budget."""
    if isinstance(exc, BudgetExceededError):
        return f"BudgetExceededError({exc}, {exc.achievable_bound!r})|refused"
    return f"{type(exc).__name__}({exc})|refused"


def snapshot(count: int, seed: int):
    """Yield one line per input, ``count`` inputs per evaluator."""
    for name, (draw, run) in EVALUATORS.items():
        rng = random.Random(seed)
        for _ in range(count):
            args = draw(rng)
            try:
                out = run(*args)
            except (BudgetExceededError, ValueError, ArithmeticError) as exc:
                out = refusal(exc)
            yield f"{name} {' '.join(map(repr, args))}|{out}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=6000,
                        help="inputs per evaluator (default: 6000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for line in snapshot(args.count, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
