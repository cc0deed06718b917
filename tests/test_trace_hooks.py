"""The benchmark's tracing hooks still find every name they patch.

`perfbench/spans.py:install` wraps library functions and `Jet` operators
by name for `perfbench/run.py --trace 1`.  A library change that removes
or renames one of them fails here, in the test suite, rather than only
when the benchmark runs.  The benchmark's files are imported, not edited.
"""

import sys
from pathlib import Path

import pytest

import serialsum
from serialsum import ar_model, lambda_sums
from serialsum.lambda_sums import RootMultiset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


def owners():
    """Every namespace `install` patches, as a snapshot of its attributes."""
    spaces = (lambda_sums, ar_model, serialsum.numerics.Jet, RootMultiset)
    return {space: dict(vars(space)) for space in spaces}


def test_install_and_restore_every_patched_name(spans):
    before = owners()
    tracer = spans.Tracer()
    restore = spans.install(tracer, serialsum)
    try:
        patched = {(space, name) for space, attrs in before.items()
                   for name, value in attrs.items()
                   if vars(space).get(name) is not value}
        roots = RootMultiset.from_lambdas([0.5, 0.5, -0.3])
        lambda_sums.f_general(roots, 2)
    finally:
        restore()
    assert (lambda_sums, "confluent_divided_difference_cond") in patched
    assert (lambda_sums, "f_general") in patched
    calls = tracer.summary()["spans"]
    assert calls["numerics.confluent_divided_difference_cond"][0] == 1
    assert calls["lambda_sums.f_general"][0] == 1
    assert calls["lambda_sums.RootMultiset.from_lambdas"][0] == 1
    for space, attrs in before.items():
        assert vars(space).keys() == attrs.keys(), space
        for name, value in attrs.items():
            assert vars(space)[name] is value, (space, name)
