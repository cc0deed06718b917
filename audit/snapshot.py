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
  so that most calls return a value;
- ``roots``: `char_roots` and, for a stationary model, `acf` with j_max
  up to 6, on AR(1)..AR(8) models: products of roots inside the disk
  (conjugate pairs, exact repeats, radii up to 0.999), raw coefficients
  (often non-stationary), and products of 2..6 roots whose moduli spread
  over up to 300 decades; its lines end in the repr of both, acf's None
  for a non-stationary model;
- ``cli``: `serialsum.cli.main` on a ``--json`` argv of every command,
  valid and invalid: such roots at radii up to 0.9, S up to 2**70,
  stationary and non-stationary AR models, negative counts, malformed
  numbers and budgets, and small ``ar simulate`` and ``ar check`` runs.
  Its lines end in the exit code, the stdout envelope without
  ``elapsed_ms`` (empty on a usage error, which writes to stderr) and the
  SHA-256 of the CSV file that ``ar simulate`` wrote to the relative path
  ``x.csv``, or ``-``.  Each call runs in a fresh scratch directory, and
  the default budget applies unless SERIALSUM_BUDGET is set.

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
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile

from serialsum.ar_model import acf, char_roots
from serialsum.cli import main as cli_main
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


def _expand(roots) -> list[float]:
    """alpha_1..alpha_k of the AR model whose characteristic roots are
    ``roots``, closed under conjugation: minus the real parts of the
    coefficients of prod (x - root), highest power first."""
    poly = [1 + 0j]
    for z in roots:
        poly = [a - z * b for a, b in zip(poly + [0], [0] + poly)]
    return [-c.real for c in poly[1:]]


def draw_model(rng: random.Random) -> tuple:
    """alpha_1..alpha_k and j_max of one `char_roots` and `acf` call."""
    kind, j_max = rng.random(), rng.randint(0, 6)
    if kind < 0.2:
        return [rng.uniform(-1.5, 1.5) for _ in range(rng.randint(1, 4))], j_max
    roots: list[complex] = []
    k = rng.randint(1, 8) if kind < 0.6 else rng.randint(2, 6)
    spread = 0.0 if kind < 0.6 else rng.uniform(0.0, 300.0)
    while len(roots) < k:
        if spread:  # log-uniform over the spread, centred on 1
            r = 10 ** rng.uniform(-spread / 2, spread / 2)
        else:
            r = rng.choice((0.5, 0.9, 0.99, 0.999)) * rng.random()
        if roots and rng.random() < 0.2:  # an exact repeat, with its conjugate
            z = rng.choice(roots)
            copies = [z, z.conjugate()] if z.imag else [z]
        elif rng.random() < 0.4:
            z = cmath.rect(r, rng.uniform(0.1, 3.0))
            copies = [z, z.conjugate()]
        else:
            copies = [complex(rng.choice((-r, r)))]
        if len(roots) + len(copies) <= k:
            roots += copies
    rng.shuffle(roots)
    return _expand(roots), j_max


def _text(z: complex) -> str:
    """A root as the CLI reads it, such as 0.5 or -0.3+0.2i."""
    if not z.imag:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag > 0 else ''}{z.imag!r}i"


def _draw_alphas(rng: random.Random) -> str:
    """--alpha of an AR(1)..AR(4) model: from roots inside the disk, from
    raw coefficients (often non-stationary), or malformed."""
    kind = rng.random()
    if kind < 0.04:
        return rng.choice(("0.5,0", "abc", ",", "0.5,nan", "1e300,-1e300,1e300"))
    if kind < 0.3:
        return ",".join(repr(rng.uniform(-1.5, 1.5)) for _ in range(rng.randint(1, 3)))
    roots: list[complex] = []
    k = rng.randint(1, 4)
    while len(roots) < k:
        if len(roots) + 2 <= k and rng.random() < 0.5:
            z = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0.1, 3.0))
            roots += [z, z.conjugate()]
        else:
            roots.append(complex(rng.uniform(-0.95, 0.95)))
    return ",".join(map(repr, _expand(roots)))


def draw_cli(rng: random.Random) -> tuple:
    """The argv of one `serialsum.cli.main` call, in a 1-tuple.  Each
    option is malformed or out of range in a few percent of the calls."""
    def pick(good, *bad, p=0.04):
        return rng.choice(bad) if rng.random() < p else good

    command = rng.choice(("eval", "eval", "oracle series", "oracle finite",
                          "conjecture", "ar roots", "ar acf", "ar simulate",
                          "ar simulate", "ar check", "ar check"))
    argv = command.split()
    if command in ("eval", "oracle series", "oracle finite"):
        ell = rng.randint(2, 4 if command == "oracle finite" else 6)
        lams = draw_roots(rng, ell, (0.5, 0.9))
        lams[0] = pick(lams[0], 1.0, 2j, -1.5)
        argv += ["--lambdas", ",".join(map(_text, lams)) + pick("", ",x", ",1+", ",,")]
        shifts = ",".join(str(rng.randint(-4, 4)) for _ in range(ell))
        shifts = pick(shifts, shifts + ",0", "1.5," * ell)
        if command == "oracle finite":
            n = pick(rng.randint(1, 30), -1, 0)
            argv += ["--shifts", shifts, "--n", str(n)]
            if rng.random() < 0.4:
                argv += ["--adjust", ",".join(str(-rng.randint(0, max(0, n - 1)))
                                              for _ in range(ell))]
        else:
            S = pick(rng.randint(0, 100), -1)
            if command == "eval" and rng.random() < 0.4:  # up to 2**70
                S = int(math.exp(rng.uniform(0.0, 70 * math.log(2))))
            by_S, by_shifts = ["--S", str(S)], ["--shifts", shifts]
            argv += pick(by_S, by_shifts, by_shifts, by_S + by_shifts, [], p=0.3)
        if command == "eval":
            if ell <= 3 and rng.random() < 0.2:
                argv += ["--mult", ",".join(str(pick(rng.randint(1, 2), 0))
                                            for _ in lams)]
            if rng.random() < 0.8:
                argv.append("--allow-complex-result")
        if command == "oracle series":
            argv += ["--tol", pick(repr(10 ** rng.uniform(-10.0, -2.0)),
                                   "inf", "0", "nan")]
    elif command == "conjecture":
        argv += ["--ell", str(pick(rng.choice((5, 6)), 4, 7)),
                 "--trials", str(pick(rng.randint(1, 2), 0)),
                 "--seed", str(rng.randint(0, 99)),
                 "--tol", pick(rng.choice(("1e-8", "1e-6", "1e-12")), "inf")]
    else:
        argv += ["--alpha", _draw_alphas(rng)]
        if command in ("ar acf", "ar check"):
            argv += ["--jmax", str(pick(rng.randint(0, 4), -1))]
        if command in ("ar simulate", "ar check"):
            top = 300 if command == "ar check" else 2000
            argv += ["--n", str(pick(rng.randint(1, top), 0, -1)),
                     "--seed", str(pick(rng.randint(0, 99), -1))]
            if rng.random() < 0.4:
                argv += ["--burn-in", str(pick(rng.randint(0, 60), -1, -3))]
            if rng.random() < 0.3:
                argv += ["--sigma", pick(rng.choice(("0", "0.5", "2")), "-1", "nan")]
        if command == "ar simulate":
            argv += ["--out", pick("x.csv", "no/x.csv")]
        if command == "ar check":
            argv += ["--seeds", str(pick(rng.randint(2, 4), 0, 1)),
                     "--zmax", pick(rng.choice(("4", "2")), "nan", "-1")]
    if rng.random() < 0.1:
        argv += ["--budget", pick(rng.choice(("1000", "2e8", "30000")),
                                  "1.5", "-1", "abc", p=0.3)]
    return (argv + ["--json"],)


def run_series(lams, S, tol, budget) -> str:
    got = series_oracle(lams, S, tol, budget=budget)
    return f"{got!r}|{got.truncation}"


def run_general(lams, S) -> str:
    return repr(f_general(RootMultiset.from_lambdas(lams), S))


def run_finite(lams, shifts, n, adjust) -> str:
    return repr(finite_sum_with_error(FiniteSumSpec(lams, shifts, n, adjust)))


def run_linear(lams, shifts, n_base, adjust) -> str:
    return repr(linear_coefficient(lams, shifts, n_base, adjust))


def run_roots(alphas, j_max) -> str:
    roots = char_roots(alphas)
    return repr((roots, acf(alphas, j_max) if roots.stationary else None))


def run_cli(argv) -> str:
    out, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
            digest = "-"
            if os.path.exists("x.csv"):
                with open("x.csv", "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
        finally:
            os.chdir(cwd)
    envelope = json.loads(out.getvalue()) if out.getvalue() else {}
    envelope.pop("elapsed_ms", None)
    return f"{code}|{json.dumps(envelope) if envelope else ''}|{digest}"


#: name: (the generator of one input, the call that gives its line's output)
EVALUATORS = {
    "series": (draw_series, run_series),
    "general": (draw_general, run_general),
    "finite": (draw_finite, run_finite),
    "linear": (draw_linear, run_linear),
    "roots": (draw_model, run_roots),
    "cli": (draw_cli, run_cli),
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
            except (RuntimeError, ValueError, ArithmeticError) as exc:
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
