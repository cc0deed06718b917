"""serialsum benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli_readme,closed_form,oracles}
        --seed N --seconds S --trace {0,1} [--smoke]

Load is one client in a closed loop: each op starts when the previous one
has finished, and workloads never run concurrently.  Inputs come from
``--seed`` (see inputs.py); the program sees only those inputs.  Every
output is checked against a high-precision reference (reference.py) that
is computed before any timed interval.

A pass runs every op of the workload once.  A run repeats whole passes
until ``--seconds`` have elapsed and enough passes are done for the tail
percentile (inputs.TAIL).

``--trace 0`` prints the end-to-end metrics: ops_per_s, op_p50_ms,
op_tail_ms, setup_s and peak_rss_mb.  ``--trace 1`` installs spans around
the layers' public calls (spans.py), runs half of ``--seconds`` traced and
replays the same ops untraced, and prints the per-layer metrics, per pass,
and the tracing overhead.  ``--smoke`` runs a tiny version of the workload, for the
benchmark's own test (selftest.py).

Which layer metric should move which end-to-end metric:

- cli.interp_start_s and cli.import_s: op_p50_ms on cli_readme, setup_s on
  every workload.  cli.scipy_modules counts what the import drags in.
- numerics.* and lambda_sums.{f_distinct,f_general,RootMultiset.from_lambdas}:
  ops_per_s and op_p50_ms on closed_form; nothing on oracles, which never
  calls them.
- lambda_sums.series_oracle.*: ops_per_s and op_tail_ms on oracles.
- lambda_sums.linear_coefficient.* and finite_sum.lattice_points: ops_per_s,
  op_tail_ms and peak_rss_mb on oracles.
- ar_model.* and conjecture_probe: a few percent of their cli_readme ops.

Human-readable lines come first; the last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The run exits non-zero
without a result when it cannot measure this checkout's ``src/serialsum``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
import reference
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "serialsum" / "__init__.py"

WORKLOADS = ("cli_readme", "closed_form", "oracles")

#: Fresh worker processes started per run; setup_s is their median.
SETUPS = 3

#: Seconds any single child process may take before the run is abandoned.
CHILD_TIMEOUT = 150


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy measurement."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one set-up and one pass")
    return p.parse_args(argv)


# ----------------------------------------------------------------- environment

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "git_commit": _git_commit(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def guard(serialsum_file: str) -> None:
    """Refuse to measure any serialsum but this checkout's src/."""
    if os.path.realpath(serialsum_file) != os.path.realpath(PACKAGE_INIT):
        raise BenchError(
            f"serialsum resolved to {serialsum_file}, not {PACKAGE_INIT}")


# -------------------------------------------------------------------- children

def _readline(proc, timeout):
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    if not line:
        proc.wait()
        raise BenchError(f"worker exited with code {proc.returncode} before replying")
    return json.loads(line)


def _finish(proc):
    try:
        proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not exit") from None


def start_worker(spec):
    """Spawn a worker, send the spec, wait for ready.  Returns (process,
    ready line, set-up seconds from spawn to ready)."""
    t0 = time.perf_counter()
    spawn = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(spawn)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT,
    )
    try:
        proc.stdin.write(json.dumps(spec) + "\n")
        proc.stdin.flush()
        ready = _readline(proc, CHILD_TIMEOUT)
        setup_s = time.perf_counter() - t0
        guard(ready["serialsum_file"])
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready, setup_s


def setup_phase(spec, n_setups):
    """n_setups fresh workers; all but the last are stopped.  The last one
    is returned still waiting for its command."""
    readies, times = [], []
    proc = None
    for i in range(n_setups):
        proc, ready, setup_s = start_worker(spec)
        readies.append(ready)
        times.append(setup_s)
        if i < n_setups - 1:
            stop_worker(proc)
    return proc, readies, times


def stop_worker(proc):
    proc.stdin.write("exit\n")
    proc.stdin.close()
    _finish(proc)
    proc.stdout.close()


def measure_worker(proc, seconds):
    try:
        proc.stdin.write("run\n")
        proc.stdin.close()
        result = _readline(proc, 2 * seconds + CHILD_TIMEOUT)
        _finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return result


def run_cli(argv, traced):
    """One CLI op as a fresh process.  Returns the exit code, stdout and,
    when traced, the report of clitrace.py."""
    if traced:
        cmd = [sys.executable, str(HERE / "clitrace.py"), repr(time.time())]
    else:
        cmd = [sys.executable, "-m", "serialsum.cli"]
    proc = subprocess.run(cmd + argv, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    if not traced or proc.returncode != 0:
        # a traceback from the CLI or clitrace.py: no envelope, counted failed
        return proc.returncode, proc.stdout, None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    guard(report["serialsum_file"])
    return report["code"], report["stdout"], report


def cli_passes(cmds, outdir, seconds, min_passes, traced, max_passes=None):
    """Whole passes over the README commands, by the same rule as the
    in-process workloads; every op writes its own CSV."""
    ops = itertools.count()

    def op(spec):
        def call():
            argv = [a.replace("{out}", f"{outdir}/series-{traced:d}-{next(ops)}.csv")
                    for a in spec["argv"]]
            try:
                code, stdout, report = run_cli(argv, traced)
            except subprocess.TimeoutExpired:  # counted failed
                code, stdout, report = None, "", None
            return {"spec": spec, "argv": argv, "code": code, "stdout": stdout,
                    "report": report, "traced": traced}
        return call

    records = []

    def keep(_, rec):
        if isinstance(rec, Exception):  # the harness itself failed
            raise rec
        records.append(rec)

    passes, elapsed_ns, durations = worker.run_passes(
        [op(spec) for spec in cmds], seconds, min_passes, max_passes, keep)
    for rec, wall_ns in zip(records, durations):
        rec["wall"] = wall_ns / 1e9
    return passes, elapsed_ns / 1e9, records


# ---------------------------------------------------------------------- checks

class Checker:
    """Compares outputs with references; references are computed once per
    op, before anything is timed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.underestimates = 0
        self.notes: list[str] = []

    def tally(self, label, count, ok, under=False, detail=""):
        self.attempted += count
        if ok is None:  # raised, hit the budget or exited unexpectedly
            self.failed += count
        else:
            self.completed += count
            self.failed += 0 if ok else count
            self.underestimates += count if under else 0
        if (ok is not True or under) and len(self.notes) < 12:
            state = "FAILED" if ok is not True else "err_estimate too small"
            self.notes.append(f"{label}: {state} x{count} {detail}")

    def value(self, label, count, value, err, ref, accuracy):
        error = reference.abs_error(value, ref)
        allowed = accuracy * (1 + float(abs(ref)))
        self.tally(label, count, error <= allowed, error > err,
                   f"|value - reference| = {error:.3g}, err_estimate = {err:.3g}, "
                   f"accuracy = {allowed:.3g}")

    def ratios(self):
        return (self.failed / self.attempted if self.attempted else 1.0,
                self.underestimates / self.completed if self.completed else 0.0)


def op_reference(op):
    return reference.limit_reference(inputs.dec(op["lambdas"]), op["S"])


def check_worker_outputs(checker, ops, refs, outputs):
    for op, ref, outs in zip(ops, refs, outputs):
        label = f"{op['kind']} l={len(op['lambdas'])} S={op['S']}"
        accuracy = inputs.ACCURACY["closed_form" if op["kind"] in ("eval", "general")
                                   else op["kind"]]
        for entry in outs:
            if entry[0] == "error":
                checker.tally(label, entry[2], None, detail=entry[1])
            else:
                re_, im_, err, count = entry
                checker.value(label, count, complex(re_, im_), err, ref, accuracy)


def _label(argv):
    """The command words of a CLI op, e.g. ``oracle series``."""
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


def _envelope(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_cli_record(checker, rec, refs):
    spec, code = rec["spec"], rec["code"]
    label = _label(spec["argv"])
    try:
        env = _envelope(rec["stdout"])
    except json.JSONDecodeError:
        env = None
    if env is None or "error" in env:
        checker.tally(label, 1, None, detail=f"exit {code}, no result envelope")
        return
    res = env["result"]
    kind = spec["check"]
    if kind in ("limit", "finite"):
        if code != 0:
            checker.tally(label, 1, None, detail=f"exit {code}")
            return
        value = complex(res["value"]["re"], res["value"]["im"])
        accuracy = inputs.ACCURACY["cli_finite" if kind == "finite" else "cli_eval"]
        checker.value(label, 1, value, env["err_estimate"], refs[id(spec)], accuracy)
        return
    if kind == "conjecture":
        trials = res["trials"]
        ok = (code == 0 and res["failed"] == 0
              and res["passed"] + res["skipped"] == spec["trials"]
              and all(t["discrepancy"] <= spec["tol"] + t["oracle_err"]
                      for t in trials if t["status"] == "pass"))
        checker.tally(label, 1, ok if code in (0, 1) else None,
                      detail=f"exit {code}, {res['passed']} passed")
        return
    if kind == "ar_roots":
        got = sorted((complex(r["re"], r["im"]) for r in res["roots"]), key=lambda z: (z.real, z.imag))
        want = sorted(refs[id(spec)], key=lambda z: (z.real, z.imag))
        ok = (code == 0 and len(got) == len(want)
              and all(abs(a - b) <= inputs.ACCURACY["cli_ar"] for a, b in zip(got, want))
              and res["stationary"] == all(abs(z) < 1 for z in want))
        checker.tally(label, 1, ok, detail=f"exit {code}, roots {got}")
        return
    if kind in ("ar_acf", "ar_check"):
        key = "rho" if kind == "ar_acf" else "rho_theoretical"
        ok = all(abs(a - b) <= inputs.ACCURACY["cli_ar"]
                 for a, b in zip(res[key], refs[id(spec)], strict=True))
        if kind == "ar_check":
            consistent = res["ok"] == all(abs(z) <= res["z_max_allowed"] for z in res["z_scores"][1:])
            ok = ok and consistent and code == (0 if res["ok"] else 1)
        else:
            ok = ok and code == 0
        checker.tally(label, 1, ok, detail=f"exit {code}")
        return
    if kind == "ar_simulate":
        ok = code == 0 and res["rows"] == spec["n"] and _simulation_matches(rec, spec, res)
        checker.tally(label, 1, ok, detail=f"exit {code}")
        return
    raise BenchError(f"no check for {kind!r}")


def _simulation_matches(rec, spec, res):
    """The CSV equals an independent AR(1) recursion driven by numpy's
    seeded generator, after the default burn-in."""
    import math

    import numpy as np

    a = spec["alpha"]
    seed = int(rec["argv"][rec["argv"].index("--seed") + 1])
    burn_in = max(1, math.ceil(math.log(1e-12) / math.log(abs(a))))
    if res["burn_in"] != burn_in:
        return False
    eps = np.random.default_rng(seed).standard_normal(burn_in + spec["n"])
    path = rec["argv"][rec["argv"].index("--out") + 1]
    with open(path) as fh:
        rows = fh.read().split()
    if rows[0] != "x" or len(rows) != spec["n"] + 1:
        return False
    x = 0.0
    for t, e in enumerate(eps):
        x = a * x + float(e)
        if t >= burn_in and abs(float(rows[t - burn_in + 1]) - x) > 1e-9 * (1 + abs(x)):
            return False
    return True


def cli_references(cmds):
    refs = {}
    for spec in cmds:
        kind = spec["check"]
        if kind == "limit":
            refs[id(spec)] = reference.limit_reference(inputs.dec(spec["lambdas"]), spec["S"])
        elif kind == "finite":
            refs[id(spec)] = reference.finite_sum_reference(
                inputs.dec(spec["lambdas"]), spec["shifts"], spec["n"], spec["adjust"])
        elif kind == "ar_roots":
            refs[id(spec)] = reference.poly_roots_reference(spec["alpha"])
        elif kind in ("ar_acf", "ar_check"):
            refs[id(spec)] = reference.ar_rho_reference(spec["alpha"], spec["jmax"])
    return refs


# --------------------------------------------------------------------- metrics

def percentile(samples, p):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload, durations_s, completed, elapsed_s, setup_times):
    p, _ = inputs.TAIL[workload]
    return {
        "ops_per_s": (completed / elapsed_s, "1/s"),
        "op_p50_ms": (statistics.median(durations_s) * 1e3, "ms"),
        "op_tail_ms": (percentile(durations_s, p) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


SPAN_METRICS = (
    "numerics.confluent_divided_difference_cond",
    "lambda_sums.RootMultiset.from_lambdas",
    "lambda_sums.f_distinct",
    "lambda_sums.f_general",
    "lambda_sums.series_oracle",
    "lambda_sums.linear_coefficient",
    "lambda_sums.conjecture_probe",
    "ar_model.simulate",
    "ar_model.empirical_acf",
    "ar_model.acf",
)

COUNT_METRICS = (
    "numerics.jet_ops",
    "lambda_sums.series_oracle.truncation_sum",
    "lambda_sums.finite_sum.lattice_points",
    "ar_model.simulate.samples",
)


def per_layer(layers, passes, cli, traced_s, untraced_s, checker):
    """Per-layer metrics.  Calls, counts and times are per pass of the
    workload, so counts repeat exactly from run to run.  busy_s is self
    time: the span minus its traced children.  lattice_points is computed
    from the reduction's array shapes, not measured."""
    out = {}
    for name in SPAN_METRICS:
        calls, _, self_ns = layers["spans"].get(name, (0, 0, 0))
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.busy_s"] = (self_ns / 1e9 / passes, "s")
    for name in COUNT_METRICS:
        out[name] = (layers["counts"].get(name, 0) / passes, "count")
    out["lambda_sums.linear_coefficient.peak_alloc_mb"] = (
        layers["maxima"].get("lambda_sums.linear_coefficient.peak_alloc_mb", 0.0), "MB")
    for name, (value, unit) in cli.items():
        out[f"cli.{name}"] = (value, unit)
    out["trace.traced_wall_s"] = (traced_s / passes, "s")
    out["trace.untraced_wall_s"] = (untraced_s / passes, "s")
    out["trace.overhead_s"] = ((traced_s - untraced_s) / passes, "s")
    failed_ratio, under_ratio = checker.ratios()
    out["check.failed_ratio"] = (failed_ratio, "ratio")
    out["check.err_underestimate_ratio"] = (under_ratio, "ratio")
    return out


def _cli_layer_from(reports, envelope_ms=()):
    """cli.* metrics from worker ready lines or clitrace.py reports; only
    clitrace.py runs cli.main."""
    med = statistics.median
    main_s = [r["main_s"] for r in reports if "main_s" in r]
    return {
        "interp_start_s": (med(r["interp_start_s"] for r in reports), "s"),
        "import_s": (med(r["import_s"] for r in reports), "s"),
        "import_modules": (statistics.median_low(r["import_modules"] for r in reports), "count"),
        "scipy_modules": (statistics.median_low(r["scipy_modules"] for r in reports), "count"),
        "main_s": (med(main_s) if main_s else 0.0, "s"),
        "envelope_elapsed_ms": (med(envelope_ms) if envelope_ms else 0.0, "ms"),
    }


# ------------------------------------------------------------------- workloads

def run_worker_workload(args, ops, seconds, min_passes, n_setups):
    refs = [op_reference(op) for op in ops]
    spec = {"workload": args.workload, "ops": ops, "seconds": seconds,
            "min_passes": min_passes, "trace": args.trace}
    proc, readies, setup_times = setup_phase(spec, n_setups)
    result = measure_worker(proc, seconds)

    checker = Checker()
    check_worker_outputs(checker, ops, refs, result["outputs"])
    lines = []
    if args.trace:
        metrics = per_layer(result["layers"], result["passes"], _cli_layer_from(readies),
                            result["traced_ns"] / 1e9, result["untraced_ns"] / 1e9, checker)
    else:
        durations = [d / 1e9 for d in result["durations_ns"]]
        completed = len(durations) - sum(e[2] for outs in result["outputs"]
                                         for e in outs if e[0] == "error")
        metrics = end_to_end(args.workload, durations, completed,
                             result["elapsed_ns"] / 1e9, setup_times)
        lines.append(f"samples {len(durations)} in {result['passes']} passes of "
                     f"{len(ops)} ops")
    return checker, metrics, lines, len(result["durations_ns"])


def run_cli_workload(args, min_passes, n_setups):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as outdir:
        cmds = inputs.cli_ops(args.seed)
        refs = cli_references(cmds)
        proc, readies, setup_times = setup_phase(
            {"workload": args.workload, "ops": [], "seconds": 0,
             "min_passes": 0, "trace": 0}, n_setups)
        stop_worker(proc)

        lines = []
        if args.trace:
            passes, traced_s, traced = cli_passes(
                cmds, outdir, args.seconds / 2, 1, traced=True)
            _, untraced_s, plain = cli_passes(
                cmds, outdir, 0, 1, traced=False, max_passes=passes)
            records = traced + plain
        else:
            passes, elapsed_s, records = cli_passes(
                cmds, outdir, args.seconds, min_passes, False)
            lines.append(f"samples {len(records)} in {passes} passes of {len(cmds)} ops")

        checker = Checker()
        for rec in records:
            check_cli_record(checker, rec, refs)

    envelope_ms = {}
    walls = {}
    for rec in records:
        if rec["traced"]:
            continue  # wall time includes the spans
        label = _label(rec["spec"]["argv"])
        walls.setdefault(label, []).append(rec["wall"] * 1e3)
        try:
            elapsed = _envelope(rec["stdout"])["elapsed_ms"]
        except (json.JSONDecodeError, TypeError, KeyError):
            continue
        envelope_ms.setdefault(label, []).append(elapsed)
    for label, ws in walls.items():
        env_ms = envelope_ms.get(label, [float("nan")])
        lines.append(f"{label:18s} wall {statistics.median(ws):9.1f} ms   "
                     f"envelope elapsed_ms {statistics.median(env_ms):9.3f} ms")

    if args.trace:
        reports = [r["report"] for r in traced if r["report"] is not None]
        layers = spans.merge(r["layers"] for r in reports)
        plain_env = [ms for per_cmd in envelope_ms.values() for ms in per_cmd]
        metrics = per_layer(layers, passes, _cli_layer_from(reports, plain_env),
                            traced_s, untraced_s, checker)
    else:
        durations = [r["wall"] for r in records]
        metrics = end_to_end(args.workload, durations, checker.completed,
                             elapsed_s, setup_times)
    return checker, metrics, lines, len(records)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not PACKAGE_INIT.is_file():
        print(f"error: {PACKAGE_INIT} not found; run from the root of a serialsum "
              "checkout", file=sys.stderr)
        return 2
    env = environment(args)
    tail_p, min_passes = inputs.TAIL[args.workload]
    n_setups = 1 if args.smoke else SETUPS
    if args.smoke:
        min_passes = 1

    try:
        if args.workload == "cli_readme":
            checker, metrics, lines, samples = run_cli_workload(args, min_passes, n_setups)
        else:
            ops = (inputs.closed_form_ops(args.seed) if args.workload == "closed_form"
                   else inputs.oracle_ops(args.seed))
            if args.smoke:
                ops = [op for op in ops if op["warm"]]
            checker, metrics, lines, samples = run_worker_workload(
                args, ops, args.seconds, min_passes, n_setups)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed_ratio, under_ratio = checker.ratios()
    print(f"serialsum benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for line in lines:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    if args.trace:
        print("  busy_s is self time: the span minus its traced child spans; "
              "finite_sum.lattice_points is computed from array shapes, not measured")
    else:
        print(f"  op_tail_ms is the p{tail_p:g} of {samples} samples")
    print(f"  failed {checker.failed}/{checker.attempted} (failed_ratio {failed_ratio:.4g}); "
          f"err_estimate below |value - reference| on {checker.underestimates}/"
          f"{checker.completed} (err_underestimate_ratio {under_ratio:.4g})")
    for note in checker.notes:
        print("  " + note)
    print(json.dumps({"environment": env, "tail_percentile": tail_p, "samples": samples,
                      "failed_ratio": failed_ratio, "err_underestimate_ratio": under_ratio}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
