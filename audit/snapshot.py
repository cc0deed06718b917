"""Snapshot of the series oracle's outputs, for checking bit identity.

Prints one line per input of a seeded generator: the input, then the
``repr`` of what `series_oracle` returns, or of the error it raises.  The
inputs span l = 2..6 roots (reals, conjugate pairs, complex roots without
their conjugate, zeros and exact repeats) at radii up to 0.999, S up to
150,000, tol from 1e-13 to 100, and the default budget or a tight one,
which caps the node count or refuses the call.  Two source trees give the
same bits on these inputs when their snapshots do not differ:

    PYTHONPATH=src python audit/snapshot.py --count 6000 > new.txt
    PYTHONPATH=../old/src python audit/snapshot.py --count 6000 > old.txt
    diff old.txt new.txt

The inputs come from Python's own ``random``, so they do not depend on
the numpy version.  Every line ends in the node count N (``truncation``)
or the refusal, so ``cut -d'|' -f3`` gives the N histogram.
"""

from __future__ import annotations

import argparse
import cmath
import math
import random
import sys

from serialsum.lambda_sums import (DEFAULT_BUDGET, BudgetExceededError,
                                   series_oracle)


def draw_roots(rng: random.Random, ell: int) -> list[complex]:
    """ell roots in random order, of modulus at most rmax, one of 0.5,
    0.9, 0.99 and 0.999."""
    rmax = rng.choice((0.5, 0.9, 0.99, 0.999))
    out: list[complex] = []
    while len(out) < ell:
        kind = rng.randrange(6)
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
    rng.shuffle(out)
    return out


def draw_input(rng: random.Random) -> tuple[list[complex], int, float, int]:
    """Roots, S, tol and budget of one call."""
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


def snapshot(count: int, seed: int):
    """Yield one line per input."""
    rng = random.Random(seed)
    for _ in range(count):
        lams, S, tol, budget = draw_input(rng)
        try:
            got = series_oracle(lams, S, tol, budget=budget)
            out = f"{got!r}|{got.truncation}"
        except BudgetExceededError as exc:
            out = f"BudgetExceededError({exc}, {exc.achievable_bound!r})|refused"
        yield f"{lams!r} {S} {tol!r} {budget}|{out}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for line in snapshot(args.count, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
