"""Command-line front end.

Exit codes: 0 success, 1 numerical/check failure, 2 usage error.
``--json`` emits the machine-readable envelope (stable key order); the
default output is human-readable text.  The env var SERIALSUM_BUDGET
overrides the work budget of the series and finite-sum oracles, of
`conjecture` and of the `ar` commands, each of which charges its work as
one total, through `lambda_sums._charge`.
Each command imports the library module it runs, `lambda_sums` or
`ar_model`, before its clock starts, so `import serialsum.cli` and the
parser load neither; `main` imports `ar_model` on a ValueError, to tell
its model errors (exit 1) from usage errors.  No command imports numpy
here: each loads it, if at all, through the library calls that use it,
so `eval`, `ar roots` and `ar acf` load none.
`ar simulate` and `ar check` find the characteristic roots once, check
the request by `ar_model._burn_in` before the budget is charged, and take
their series from `ar_model`'s chunked engine, so their memory does not
grow with --n or --seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time


#: Options whose comma-separated value may start with a minus sign.
#: argparse reads "-0.9,0.1" as an option, since it is not one number.
_LIST_OPTIONS = frozenset({"--lambdas", "--shifts", "--adjust", "--alpha"})
_NEGATIVE_LIST = re.compile(r"-[0-9.]")


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--lambdas -0.9,0.1`` as ``--lambdas=-0.9,0.1``."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and _NEGATIVE_LIST.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _parse_complex(text: str) -> complex:
    raw = text.strip().replace(" ", "")
    try:
        return complex(raw.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def _parse_complex_list(text: str) -> list[complex]:
    return [_parse_complex(part) for part in text.split(",") if part.strip()]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse integer list {text!r}") from None


def _plain(obj):
    """JSON data: a complex number becomes {re, im}, a record (a named
    tuple) an object of its fields in order, another tuple a list, and an
    infinite or NaN float null, since RFC 8259 has no Infinity or NaN."""
    if hasattr(obj, "_asdict"):
        return _plain(obj._asdict())
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _command_name(args) -> str:
    """The full subcommand, such as "eval", "oracle series" or "ar check"."""
    sub = getattr(args, "oracle_command", None) or getattr(args, "ar_command", None)
    return f"{args.command} {sub}" if sub else args.command


def _emit(args, inputs: dict, result: dict, err_estimate: float,
          started: float) -> None:
    command = _command_name(args)
    envelope = _plain({
        "command": command,
        "inputs": inputs,
        "result": result,
        "err_estimate": float(err_estimate),
        "elapsed_ms": (time.perf_counter() - started) * 1000.0,
    })
    if args.json:
        print(json.dumps(envelope, allow_nan=False))
        return
    print(f"{command}:")
    for key, val in envelope["result"].items():
        print(f"  {key} = {val}")
    print(f"  err_estimate = {float(err_estimate):.3e}")


def _budget(args) -> int:
    """The work budget: --budget, else SERIALSUM_BUDGET, else the default.
    Either is an integer, or a float literal with a whole-number value such
    as 2e8; a fraction, a non-finite or a negative value is a usage error
    that names its source.  `main` resolves it once, for every command."""
    from . import lambda_sums

    name, text = "--budget", args.budget
    if text is None:
        name, text = "SERIALSUM_BUDGET", os.environ.get("SERIALSUM_BUDGET")
        if not text:
            return lambda_sums.DEFAULT_BUDGET
    try:
        budget = int(text)
    except ValueError:
        try:
            budget = float(text)
        except ValueError:
            budget = math.nan
        if not (math.isfinite(budget) and budget.is_integer()):
            raise ValueError(
                f"{name} must be a whole number, such as 2e8, got {text!r}")
        budget = int(budget)
    if budget < 0:  # a usage error too, not a budget that no work fits
        raise ValueError(f"{name} must be >= 0, got {text}")
    return budget


#: Work units charged per unit of CLI work, from measured costs at about
#: 8 ns per unit (one simulated sample takes about 80 ns).  A seed's
#: generator and its share of the filter's set-up take 27-33 us, a CSV
#: row 1.1-1.6 us to format and write, and a probe trial 1.3-2.0 ms; a
#: theoretical ACF lag about (0.5 + 0.15k) us for an AR(k) model, and
#: 1-2 us more to emit; an empirical ACF lag about 0.6 ns per sample.  An
#: Aberth sweep over the characteristic roots of an AR(k) model takes
#: 0.47-0.48 us per k*(k-1) from k = 100 up, and the Yule-Walker solve
#: 42-47 ns per (k-1)**3.
_UNITS_PER_SAMPLE = 10
_UNITS_PER_SEED = 4_000
_UNITS_PER_ROW = 160
_UNITS_PER_TRIAL = 250_000
_UNITS_PER_SWEEP = 70
_UNITS_PER_SOLVE = 6


def _acf_units(k: int, jmax: int) -> int:
    return _UNITS_PER_SOLVE * (k - 1) ** 3 + 25 * (k + 10) * (jmax + 1)


def _resolve_S(args, n_lambdas: int) -> int:
    has_S = getattr(args, "S", None) is not None
    has_shifts = getattr(args, "shifts", None) is not None
    if has_S and has_shifts:
        raise ValueError("give either --S or --shifts, not both")
    if has_S:
        return args.S
    if has_shifts:
        shifts = _parse_int_list(args.shifts)
        if len(shifts) != n_lambdas:
            raise ValueError("--shifts must have one entry per lambda")
        from . import lambda_sums

        return lambda_sums.ShiftSpec(tuple(shifts)).S
    raise ValueError("one of --S or --shifts is required")


def _build_multiset(args):
    from . import lambda_sums

    lams = _parse_complex_list(args.lambdas)
    if args.mult:
        mults = _parse_int_list(args.mult)
        if len(mults) != len(lams):
            raise ValueError("--mult must have one entry per lambda")
        # checked before the roots are expanded
        if any(m < 1 for m in mults) or sum(mults) > lambda_sums.MAX_ROOTS:
            raise ValueError("--mult entries must be >= 1 and sum to at most "
                             f"{lambda_sums.MAX_ROOTS}")
        lams = [v for v, m in zip(lams, mults) for _ in range(m)]
    roots = lambda_sums.RootMultiset.from_lambdas(lams)
    if not args.allow_complex_result and not roots.is_conjugate_closed():
        raise ValueError(
            "root multiset is not closed under complex conjugation "
            "(pass --allow-complex-result to evaluate anyway)"
        )
    return roots


def _cmd_eval(args) -> int:
    from . import lambda_sums

    started = time.perf_counter()
    roots = _build_multiset(args)
    S = _resolve_S(args, roots.ell)
    res = lambda_sums.f_general(roots, S)
    inputs = {
        "lambdas": list(roots.lambdas),
        "S": S,
    }
    result = {
        "value": res.value,
        "is_real_certified": res.is_real_certified,
        "route": "distinct" if roots.is_distinct() else "confluent",
    }
    _emit(args, inputs, result, res.err_estimate, started)
    return 0


def _cmd_oracle_series(args) -> int:
    from . import lambda_sums

    started = time.perf_counter()
    lams = _parse_complex_list(args.lambdas)
    S = _resolve_S(args, len(lams))
    res = lambda_sums.series_oracle(lams, S, args.tol, budget=args.budget)
    inputs = {"lambdas": lams, "S": S, "tol": args.tol}
    result = {
        "value": res.value,
        "truncation_J": res.truncation,  # the node count N
        "is_real_certified": res.is_real_certified,
    }
    _emit(args, inputs, result, res.err_estimate, started)
    return 0


def _cmd_oracle_finite(args) -> int:
    from . import lambda_sums

    started = time.perf_counter()
    lams = _parse_complex_list(args.lambdas)
    shifts = _parse_int_list(args.shifts)
    adjust = _parse_int_list(args.adjust) if args.adjust else []
    spec = lambda_sums.FiniteSumSpec(tuple(lams), tuple(shifts), args.n, tuple(adjust))
    value, err = lambda_sums.finite_sum_with_error(spec, args.budget)
    inputs = {
        "lambdas": lams,
        "shifts": shifts,
        "n": args.n,
        "adjust": list(spec.upper_adjust),
    }
    result = {"value": value, "exact": True}
    _emit(args, inputs, result, err, started)
    return 0


def _cmd_conjecture(args) -> int:
    from . import lambda_sums

    started = time.perf_counter()
    lambda_sums._charge("conjecture", _UNITS_PER_TRIAL * args.trials, args.budget)
    report = lambda_sums.conjecture_probe(
        args.ell, args.trials, args.seed, args.tol, budget=args.budget
    )
    inputs = {
        "ell": args.ell,
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
    }
    result = {
        "passed": report.passed,
        "failed": report.failed,
        "skipped": report.skipped,
        "trials": report.trials,
    }
    worst = max(
        (t.discrepancy for t in report.trials if t.discrepancy is not None),
        default=0.0,
    )
    if args.json:
        _emit(args, inputs, result, worst, started)
    else:
        print(f"conjecture ell={args.ell} tol={args.tol:g}")
        for i, t in enumerate(report.trials):
            lams = ", ".join(_format_complex(v) for v in t.lambdas)
            disc = f"{t.discrepancy:.3e}" if t.discrepancy is not None else "-"
            why = f"  ({t.detail})" if t.status == "skip" else ""
            print(f"  [{i:3d}] {t.status:4s}  S={t.S}  disc={disc}  "
                  f"roots=({lams}){why}")
        print(
            f"  summary: {report.passed} passed, {report.failed} failed, "
            f"{report.skipped} skipped"
        )
    return 0 if report.ok else 1


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g}{sign}{abs(z.imag):.6g}i"


def _cmd_ar(args) -> int:
    from . import ar_model, lambda_sums

    started = time.perf_counter()
    alphas = [float(a) for a in args.alpha.split(",") if a.strip()]
    if not alphas:
        raise ValueError("--alpha requires at least one coefficient")
    inputs = {"alpha": alphas}
    command, budget = _command_name(args), args.budget
    # the lag range, a usage error before any work: `ar check`'s lag sums
    # need j_max below n (an n below 1 is `_burn_in`'s to refuse)
    n = getattr(args, "n", 0)
    if hasattr(args, "jmax") and not 0 <= args.jmax < (n if n >= 1 else math.inf):
        below = f" and below --n ({n})" if n >= 1 else ""
        raise ValueError(f"--jmax must be >= 0{below}, got {args.jmax}")
    # every subcommand finds the roots, charged at the iteration's worst
    # before they are found, and then once more in the total: each sweep up
    # to the cap moves all k roots, by a Horner pass over k + 1 coefficients
    # and a sum over the k - 1 others; an AR(1) root is read off
    k = len(alphas)
    work = _UNITS_PER_SWEEP * ar_model._SWEEPS * k * (k - 1)
    lambda_sums._charge(command, work, budget)

    if args.ar_command == "roots":
        _emit(args, inputs, ar_model.char_roots(alphas), 0.0, started)
        return 0

    if args.ar_command == "acf":
        inputs["jmax"] = args.jmax
        lambda_sums._charge(command, work + _acf_units(k, args.jmax), budget)
        model, rhos = ar_model.acf(alphas, args.jmax)
        result = {
            "roots": list(model.roots),
            "coefficients": model.coeffs,
            "rho": rhos,
        }
        _emit(args, inputs, result, 0.0, started)
        return 0

    model = ar_model.ARModel(tuple(alphas), args.sigma)
    if args.ar_command == "check" and args.seeds < 2:
        raise ValueError("--seeds must be >= 2 to estimate a standard error")
    if args.ar_command == "check" and not args.zmax >= 0:  # NaN too
        raise ValueError("--zmax must be >= 0")
    seeds = args.seeds if args.ar_command == "check" else 1
    # the command's one root-finding, for the request's one check
    burn_in = ar_model._burn_in(ar_model.char_roots(alphas), args.n, args.burn_in)
    if args.seed < 0:  # refused here, before `ar simulate` opens its file
        raise ValueError("--seed must be >= 0")
    # the roots, each seed and its simulated samples, and the CSV rows of
    # `ar simulate` or the ACF of `ar check` make one total, checked before
    # any noise is drawn
    work += (_UNITS_PER_SEED + _UNITS_PER_SAMPLE * (burn_in + args.n)) * seeds
    if args.ar_command == "simulate":
        work += _UNITS_PER_ROW * args.n
    else:
        work += (_acf_units(k, args.jmax)
                 + (args.jmax + 1) * args.n * seeds // 8)
    lambda_sums._charge(command, work, budget)

    if args.ar_command == "simulate":
        inputs.update({"sigma": args.sigma, "n": args.n, "seed": args.seed})
        ar_model._simulate_csv(model, args.n, burn_in, args.seed, args.out)
        result = {"rows": args.n, "burn_in": burn_in, "path": args.out}
        _emit(args, inputs, result, 0.0, started)
        return 0

    # check: batch-mean empirical ACF across seeds vs the theoretical values
    inputs.update(
        {"sigma": args.sigma, "n": args.n, "seed": args.seed,
         "seeds": args.seeds, "jmax": args.jmax}
    )
    rhos = ar_model._rho_recursion(alphas, args.jmax)
    batch = ar_model._sample_acfs(
        model, args.n, burn_in, range(args.seed, args.seed + args.seeds),
        args.jmax)
    means = batch.mean(axis=0)
    ses = batch.std(axis=0, ddof=1) / math.sqrt(args.seeds)
    zs = [0.0]
    for j in range(1, args.jmax + 1):
        zs.append(float((means[j] - rhos[j]) / ses[j]) if ses[j] > 0 else 0.0)
    ok = all(abs(z) <= args.zmax for z in zs[1:])
    result = {
        "rho_theoretical": rhos,
        "rho_empirical": means.tolist(),
        "z_scores": zs,
        "z_max_allowed": args.zmax,
        "ok": ok,
    }
    _emit(args, inputs, result, float(ses.max()), started)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serialsum",
        description="Limits of cyclic geometric lattice sums and an AR(k) toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit JSON envelope")
        p.add_argument("--budget", default=None,
                       help="work budget of the series and finite-sum "
                            "oracles, conjecture and the ar commands: an "
                            "integer or a whole-number float such as 2e8 "
                            "(default: SERIALSUM_BUDGET or 2e8)")

    p = sub.add_parser("eval", help="evaluate the closed-form limit")
    p.add_argument("--lambdas", required=True)
    p.add_argument("--mult", default=None)
    p.add_argument("--S", type=int, default=None)
    p.add_argument("--shifts", default=None)
    p.add_argument("--allow-complex-result", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="brute-force oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    ps = osub.add_parser("series", help="trapezoidal-rule infinite-lattice sum")
    ps.add_argument("--lambdas", required=True)
    ps.add_argument("--S", type=int, default=None)
    ps.add_argument("--shifts", default=None)
    ps.add_argument("--tol", type=float, default=1e-10)
    add_common(ps)
    ps.set_defaults(func=_cmd_oracle_series)

    pf = osub.add_parser("finite", help="exact finite-n cyclic sum")
    pf.add_argument("--lambdas", required=True)
    pf.add_argument("--shifts", required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--adjust", default=None)
    add_common(pf)
    pf.set_defaults(func=_cmd_oracle_finite)

    p = sub.add_parser("conjecture", help="probe the closed form at ell in {5,6}")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    add_common(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("ar", help="AR(k) toolkit")
    asub = p.add_subparsers(dest="ar_command", required=True)
    for name, helptext in [
        ("roots", "characteristic roots and stationarity"),
        ("acf", "theoretical serial correlations"),
        ("simulate", "simulate a series to CSV"),
        ("check", "simulate and compare empirical vs theoretical ACF"),
    ]:
        pa = asub.add_parser(name, help=helptext)
        pa.add_argument("--alpha", required=True)
        if name in ("acf", "check"):
            pa.add_argument("--jmax", type=int, default=3)
        if name in ("simulate", "check"):
            pa.add_argument("--sigma", type=float, default=1.0)
            pa.add_argument("--n", type=int, required=True)
            pa.add_argument("--seed", type=int, default=0)
            pa.add_argument("--burn-in", type=int, default=None, dest="burn_in")
        if name == "simulate":
            pa.add_argument("--out", required=True)
        if name == "check":
            pa.add_argument("--seeds", type=int, default=20)
            pa.add_argument("--zmax", type=float, default=4.0)
        add_common(pa)
        pa.set_defaults(func=_cmd_ar)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_lists(list(argv)))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        args.budget = _budget(args)  # in every command, eval too
        return args.func(args)
    except OSError as exc:  # a path that cannot be written, such as --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OverflowError) as exc:
        from . import lambda_sums  # every command has loaded it

        if isinstance(exc, ValueError):  # a usage error, but for the model errors
            from . import ar_model

            if not isinstance(exc, (ar_model.NotStationaryError, ar_model.BadLagError,
                                    ar_model.DegenerateSampleError)):
                print(f"error: {exc}", file=sys.stderr)
                return 2
        payload = {
            "command": _command_name(args),
            "error": type(exc).__name__,
            "message": str(exc),
        }
        if isinstance(exc, lambda_sums.BudgetExceededError):
            payload["error"] = "BudgetExceeded"
            payload["achievable_bound"] = exc.achievable_bound
        if args.json:
            print(json.dumps(_plain(payload), allow_nan=False))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
