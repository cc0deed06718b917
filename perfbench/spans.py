"""In-memory spans and counters around the public calls of each layer.

The benchmark installs these wrappers itself; nothing in ``serialsum`` is
edited.  A span is (name, id, parent id, request id, start ns, end ns); the
spans of one op share the request id of its root span.  A layer's self time
is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, on_result=None):
        """Record a span around each call of ``fn``; ``on_result(bound
        arguments, result)`` adds counts after the span has closed."""
        sig = inspect.signature(fn) if on_result else None
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            request = stack[0] if stack else sid
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, sid, parent, request, start, end))
            if on_result is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(bound.arguments, out)
            return out

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """{"spans": {name: [calls, total_ns, self_ns]}, "counts", "maxima"}."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        agg: dict[str, list[int]] = {}
        for name, sid, _, _, start, end in self.spans:
            row = agg.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[sid]
        return {"spans": agg, "counts": dict(self.counts), "maxima": dict(self.maxima)}


def merge(summaries) -> dict:
    """Sum spans and counts, and take maxima, over several summaries."""
    out = {"spans": {}, "counts": defaultdict(int), "maxima": defaultdict(float)}
    for s in summaries:
        for name, row in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, v in s["counts"].items():
            out["counts"][name] += v
        for name, v in s["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], v)
    return out


def _lattice_points(n: int, adjust) -> int:
    """Points of the meshgrid reduction of the finite sum: the product of
    the axis lengths n_m + n_{m+1} - 1 (computed, not measured)."""
    ns = [n + d for d in adjust]
    points = 1
    for m in range(len(ns) - 1):
        points *= ns[m] + ns[m + 1] - 1
    return points


def _alloc_peak(tracer, name, fn):
    """Peak traced allocation of each call, in MB (tracemalloc)."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            tracer.maxima[name] = max(tracer.maxima[name], peak)

    return measured


JET_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__")


def install(tracer: Tracer, serialsum):
    """Wrap the public calls of each layer; returns a function that undoes
    every patch."""
    lambda_sums = serialsum.lambda_sums
    ar_model = serialsum.ar_model
    jet = serialsum.numerics.Jet
    multiset = lambda_sums.RootMultiset
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def add(key, amount):
        tracer.counts[key] += amount

    def linear_points(a, _):
        adjust = a["upper_adjust"] or (0,) * len(a["lambdas"])
        add("lambda_sums.finite_sum.lattice_points",
            _lattice_points(a["n_base"], adjust)
            + _lattice_points(2 * a["n_base"], adjust))

    def finite_points(a, _):
        spec = a["spec"]
        add("lambda_sums.finite_sum.lattice_points",
            _lattice_points(spec.n, spec.upper_adjust))

    # numerics, patched where lambda_sums binds it
    patch(lambda_sums, "confluent_divided_difference_cond", tracer.wrap(
        "numerics.confluent_divided_difference_cond",
        lambda_sums.confluent_divided_difference_cond))
    for op in JET_OPS:
        patch(jet, op, tracer.counter("numerics.jet_ops", jet.__dict__[op]))

    patch(multiset, "from_lambdas", classmethod(tracer.wrap(
        "lambda_sums.RootMultiset.from_lambdas",
        multiset.__dict__["from_lambdas"].__func__)))
    for name in ("f_distinct", "f_general", "conjecture_probe"):
        patch(lambda_sums, name, tracer.wrap(
            f"lambda_sums.{name}", getattr(lambda_sums, name)))
    patch(lambda_sums, "series_oracle", tracer.wrap(
        "lambda_sums.series_oracle", lambda_sums.series_oracle,
        lambda a, r: add("lambda_sums.series_oracle.truncation_sum", r.truncation)))
    patch(lambda_sums, "linear_coefficient", tracer.wrap(
        "lambda_sums.linear_coefficient",
        _alloc_peak(tracer, "lambda_sums.linear_coefficient.peak_alloc_mb",
                    lambda_sums.linear_coefficient),
        linear_points))
    patch(lambda_sums, "finite_sum", tracer.wrap(
        "lambda_sums.finite_sum", lambda_sums.finite_sum, finite_points))

    patch(ar_model, "simulate", tracer.wrap(
        "ar_model.simulate", ar_model.simulate,
        lambda a, r: add("ar_model.simulate.samples", r.n + r.burn_in)))
    for name in ("empirical_acf", "acf"):
        patch(ar_model, name, tracer.wrap(f"ar_model.{name}", getattr(ar_model, name)))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
