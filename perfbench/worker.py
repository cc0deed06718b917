"""Fresh worker process: imports serialsum, warms up, then runs the ops.

Usage: ``worker.py SPAWN_TIME`` with PYTHONPATH pointing at the checkout's
``src``.  Protocol on stdin/stdout, one JSON object per line:

1. reads the spec ``{"workload", "ops", "seconds", "min_passes", "trace"}``;
2. imports serialsum, warms up on the ops marked ``warm`` and prints a
   ready line (serialsum's file, import time and module counts);
3. reads a command: ``run`` measures and prints the result, anything else
   exits.  The benchmark times steps 1-2 from outside as set-up.
"""

import time

T_START = time.time()

import json  # noqa: E402  (imported before serialsum on purpose, see cli.import_modules)
import sys  # noqa: E402


def _calls(ops, lambda_sums):
    """One zero-argument callable per op.  Inputs are decoded here, outside
    the timed region; the callables look the functions up on the module at
    call time so that installed spans apply."""
    from inputs import dec

    calls = []
    for op in ops:
        lams = dec(op["lambdas"])
        S = op["S"]
        kind = op["kind"]
        if kind == "eval":
            def call(lams=lams, S=S):
                roots = lambda_sums.RootMultiset.from_lambdas(lams)
                if roots.is_distinct():
                    return lambda_sums.f_distinct(roots, S)
                return lambda_sums.f_general(roots, S)
        elif kind == "general":
            def call(roots=lambda_sums.RootMultiset.from_lambdas(lams), S=S):
                return lambda_sums.f_general(roots, S)
        elif kind == "series":
            def call(lams=lams, S=S, tol=op["tol"]):
                return lambda_sums.series_oracle(lams, S, tol)
        elif kind == "linear":
            def call(lams=lams, shifts=op["shifts"], n=op["n_base"], adj=op["adjust"]):
                return lambda_sums.linear_coefficient(lams, shifts, n, adj)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        calls.append(call)
    return calls


def run_passes(calls, seconds, min_passes, max_passes=None, keep=None):
    """Closed loop, one client: whole passes over ``calls`` until ``seconds``
    have elapsed and at least ``min_passes`` are done (or exactly
    ``max_passes``).  After each pass, outside the timed calls,
    ``keep(k, result)`` receives the result of op k (an exception if it
    raised), so results do not pile up in memory.  Returns passes, elapsed
    ns and the ns of every op in order."""
    from array import array  # not before serialsum: see cli.import_modules

    clock = time.perf_counter_ns
    durations = array("q")
    results = [None] * len(calls)
    passes = 0
    start = clock()
    deadline = start + int(seconds * 1e9)
    while True:
        for k, call in enumerate(calls):
            t0 = clock()
            try:
                results[k] = call()
            except Exception as exc:  # an op that raises is counted as failed
                results[k] = exc
            durations.append(clock() - t0)
        if keep is not None:
            for k, res in enumerate(results):
                keep(k, res)
        passes += 1
        if max_passes is not None:
            if passes >= max_passes:
                break
        elif passes >= min_passes and clock() >= deadline:
            break
    return passes, clock() - start, durations


class Outputs:
    """Distinct outputs of each op with their counts."""

    def __init__(self, n_ops):
        self.seen = [dict() for _ in range(n_ops)]

    def __call__(self, k, res):
        if isinstance(res, Exception):
            key = ("error", f"{type(res).__name__}: {res}")
        else:
            key = (res.value.real, res.value.imag, res.err_estimate)
        self.seen[k][key] = self.seen[k].get(key, 0) + 1

    def dump(self):
        """Per op: [re, im, err_estimate, count] or ["error", message, count]."""
        return [[[*key, count] for key, count in bucket.items()] for bucket in self.seen]


def main() -> int:
    spawn = float(sys.argv[1])
    spec = json.loads(sys.stdin.readline())

    before = set(sys.modules)
    t0 = time.perf_counter()
    import serialsum
    import serialsum.cli
    import_s = time.perf_counter() - t0
    new = set(sys.modules) - before

    ops = spec["ops"]
    if spec["workload"] == "cli_readme":
        serialsum.cli.build_parser()
        calls = []
    else:
        calls = _calls(ops, serialsum.lambda_sums)
        for op, call in zip(ops, calls):
            if op["warm"]:
                call()
    print(json.dumps({
        "serialsum_file": serialsum.__file__,
        "interp_start_s": T_START - spawn,
        "import_s": import_s,
        "import_modules": len(new),
        "scipy_modules": sum(1 for m in new if m == "scipy" or m.startswith("scipy.")),
    }), flush=True)

    if sys.stdin.readline().strip() != "run":
        return 0

    outputs = Outputs(len(calls))
    out = {}
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        restore = spans.install(tracer, serialsum)
        traced = [tracer.wrap("bench.op", c) for c in calls]
        passes, traced_ns, durations = run_passes(
            traced, spec["seconds"] / 2, 1, keep=outputs)
        restore()
        _, untraced_ns, more = run_passes(calls, 0, 1, passes, keep=outputs)
        durations += more
        out.update(layers=tracer.summary(), traced_ns=traced_ns, untraced_ns=untraced_ns)
        elapsed_ns = traced_ns + untraced_ns
    else:
        passes, elapsed_ns, durations = run_passes(
            calls, spec["seconds"], spec["min_passes"], keep=outputs)
    out.update(
        passes=passes,
        elapsed_ns=elapsed_ns,
        durations_ns=durations.tolist(),
        outputs=outputs.dump(),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
