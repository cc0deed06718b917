"""Traced stand-in for ``python -m serialsum.cli``.

Usage: ``clitrace.py SPAWN_TIME ARG...`` with PYTHONPATH pointing at the
checkout's ``src``.  Times interpreter start and the import of serialsum,
counts the modules that import loads, installs spans around the layers'
public calls and runs ``serialsum.cli.main(ARG...)`` with its stdout
captured.  Prints one JSON line with the exit code, the captured output and
the layer summary.
"""

import time

T_START = time.time()

import json  # noqa: E402  (imported before serialsum, as in worker.py)
import sys  # noqa: E402


def main() -> int:
    spawn = float(sys.argv[1])
    argv = sys.argv[2:]

    before = set(sys.modules)
    t0 = time.perf_counter()
    import serialsum
    import serialsum.cli
    import_s = time.perf_counter() - t0
    new = set(sys.modules) - before

    import contextlib
    import io

    import spans

    tracer = spans.Tracer()
    spans.install(tracer, serialsum)
    main_fn = tracer.wrap("cli.main", serialsum.cli.main)
    captured = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = main_fn(argv)
    main_s = time.perf_counter() - t1
    print(json.dumps({
        "serialsum_file": serialsum.__file__,
        "interp_start_s": T_START - spawn,
        "import_s": import_s,
        "import_modules": len(new),
        "scipy_modules": sum(1 for m in new if m == "scipy" or m.startswith("scipy.")),
        "main_s": main_s,
        "code": code,
        "stdout": captured.getvalue(),
        "layers": tracer.summary(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
