"""The contract of the library's records, class by class: immutable,
equal and hashed by value, printed as before, built by position or by
keyword with their defaults, and validated with the same messages."""

import math

import numpy as np
import pytest

from serialsum.ar_model import AcfModel, ARModel, CharRoots, SeriesSample
from serialsum.lambda_sums import (
    ConjectureReport,
    FiniteSumSpec,
    LimitValue,
    ProbeTrial,
    RootMultiset,
    ShiftSpec,
)

TRIAL = ProbeTrial((0.1 + 0j, 0.2 + 0j), 3, "pass", 1e-12, 1e-13)

# (build one record, a field, its repr as printed when the records were
# frozen dataclasses)
RECORDS = {
    "RootMultiset": (
        lambda: RootMultiset(((0.5, 2), (0.1 + 0.2j, 1))), "entries",
        "RootMultiset(entries=(((0.5+0j), 2), ((0.1+0.2j), 1)))"),
    "ShiftSpec": (
        lambda: ShiftSpec((1, -3, 2)), "shifts",
        "ShiftSpec(shifts=(1, -3, 2))"),
    "LimitValue": (
        lambda: LimitValue(1 + 2j, 1e-16, False), "value",
        "LimitValue(value=(1+2j), err_estimate=1e-16, is_real_certified=False,"
        " truncation=None)"),
    "FiniteSumSpec": (
        lambda: FiniteSumSpec((0.5, 0.3), (1, -1), 5), "n",
        "FiniteSumSpec(lambdas=((0.5+0j), (0.3+0j)), shifts=(1, -1), n=5,"
        " upper_adjust=(0, 0))"),
    "ProbeTrial": (
        lambda: ProbeTrial((0.1 + 0j, 0.2 + 0j), 3, "pass", 1e-12, 1e-13),
        "status",
        "ProbeTrial(lambdas=((0.1+0j), (0.2+0j)), S=3, status='pass',"
        " discrepancy=1e-12, oracle_err=1e-13, detail='')"),
    "ConjectureReport": (
        lambda: ConjectureReport(5, 1e-8, (TRIAL,)), "trials",
        "ConjectureReport(ell=5, tol=1e-08, trials=(ProbeTrial(lambdas="
        "((0.1+0j), (0.2+0j)), S=3, status='pass', discrepancy=1e-12,"
        " oracle_err=1e-13, detail=''),))"),
    "ARModel": (
        lambda: ARModel((0.5, -0.06), 1), "sigma",
        "ARModel(alphas=(0.5, -0.06), sigma=1.0)"),
    "CharRoots": (
        lambda: CharRoots((0.3 + 0j, 0.2 + 0j), True), "stationary",
        "CharRoots(roots=((0.3+0j), (0.2+0j)), stationary=True)"),
    "AcfModel": (
        lambda: AcfModel((0.3 + 0j,), None), "coeffs",
        "AcfModel(roots=((0.3+0j),), coeffs=None)"),
    "SeriesSample": (
        lambda: SeriesSample([1.0, 2.0], seed=3, burn_in=4), "seed",
        "SeriesSample(values=array([1., 2.]), seed=3, burn_in=4)"),
}


@pytest.mark.parametrize("name", RECORDS)
class TestEveryRecord:
    def test_fields_cannot_be_assigned(self, name):
        build, field, _ = RECORDS[name]
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_records_are_equal_and_hash_equal(self, name):
        build, _, _ = RECORDS[name]
        a, b = build(), build()
        if name == "SeriesSample":  # its array is compared, and not hashed
            b = SeriesSample(a.values, a.seed, a.burn_in)
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert a is not b
        assert a == b

    def test_repr_is_unchanged(self, name):
        build, _, text = RECORDS[name]
        assert repr(build()) == text


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert LimitValue(value=1j, err_estimate=0.0, is_real_certified=False) \
            == LimitValue(1j, 0.0, False, None)
        spec = FiniteSumSpec(lambdas=[0.5, 0.3j], shifts=[1, -1], n=4)
        assert spec.upper_adjust == (0, 0)
        assert spec.lambdas == (0.5 + 0j, 0.3j)
        assert FiniteSumSpec((0.5, 0.3), (0, 0), 4, upper_adjust=(0, -1)) \
            .upper_adjust == (0, -1)
        assert ProbeTrial(lambdas=(0.1,), S=0, status="skip", discrepancy=None,
                          oracle_err=None).detail == ""
        assert ConjectureReport(ell=5, tol=1e-8).trials == ()
        assert RootMultiset(entries=[(0.5, 1), (0.3, 1)]).entries \
            == ((0.5 + 0j, 1), (0.3 + 0j, 1))
        assert ShiftSpec(shifts=[2.0, -5]).shifts == (2, -5)
        assert ARModel(alphas=[1, 0.5], sigma=2).alphas == (1.0, 0.5)
        assert CharRoots(roots=(0.5,), stationary=True).roots == (0.5,)
        assert AcfModel(roots=(0.5,), coeffs=(1.0,)).coeffs == (1.0,)
        sample = SeriesSample(values=[1, 2, 3], seed=0, burn_in=5)
        assert sample.values.dtype == np.float64

    def test_properties(self):
        roots = RootMultiset(((0.5, 2), (-0.3, 1)))
        assert roots.ell == 3
        assert roots.lambdas == (0.5, 0.5, -0.3)
        assert not roots.is_distinct()
        assert ShiftSpec((1, -3, 2)).S == 0
        assert ShiftSpec((4, -9)).S == 5
        fail = ProbeTrial((0.1,), 0, "fail", 1.0, 1e-9)
        skip = ProbeTrial((0.1,), 0, "skip", None, None, "why")
        report = ConjectureReport(5, 1e-8, (TRIAL, fail, skip, TRIAL))
        assert (report.passed, report.failed, report.skipped) == (2, 1, 1)
        assert not report.ok
        assert ARModel((0.5, -0.06), 1.0).k == 2
        assert SeriesSample(np.zeros(7), 0, 0).n == 7

    def test_from_lambdas_counts_equal_roots(self):
        roots = RootMultiset.from_lambdas([0.5, -0.3, 0.5 + 1e-9, 0.5])
        assert roots.entries == ((0.5, 2), (-0.3, 1), (0.5 + 1e-9, 1))
        assert isinstance(roots, RootMultiset)
        assert "from_lambdas" in vars(RootMultiset)


class TestValidation:
    @pytest.mark.parametrize("entries, message", [
        (((0.5, 0), (0.3, 2)), "multiplicities must be >= 1"),
        (((complex("nan"), 1), (0.3, 1)), "non-finite root"),
        (((1.0, 1), (0.3, 1)), "not strictly inside the unit disk"),
        (((0.5, 1),), r"total root count must be in \[2, 6\], got 1"),
        (((0.5, 4), (0.3, 3)), r"total root count must be in \[2, 6\], got 7"),
    ])
    def test_root_multiset(self, entries, message):
        with pytest.raises(ValueError, match=message):
            RootMultiset(entries)

    @pytest.mark.parametrize("args, message", [
        (((0.5,), (0,), 3), "need at least two lambdas"),
        (((0.5, math.inf), (0, 0), 3), "lambdas must be finite"),
        (((0.5, 0.3), (1 << 62, 0), 3), r"shifts must be below 2\*\*62"),
        (((0.5, 0.3), (0,), 3), "shifts and upper_adjust must match lambdas"),
        (((0.5, 0.3), (0, 0), 3, (0,)), "shifts and upper_adjust must match"),
        (((0.5, 0.3), (0, 0), 0), "n must be >= 1"),
        (((0.5, 0.3), (0, 0), 3, (0, 1)), "upper adjustments must be <= 0"),
        (((0.5, 0.3), (0, 0), 3, (0, -3)), "adjusted upper limits must stay >= 1"),
    ])
    def test_finite_sum_spec(self, args, message):
        with pytest.raises(ValueError, match=message):
            FiniteSumSpec(*args)

    @pytest.mark.parametrize("alphas, sigma, message", [
        ((), 1.0, "need at least one coefficient"),
        ((0.5, 0.0), 1.0, r"alpha_k must be nonzero \(drop trailing zeros\)"),
        ((0.5,), -1.0, "sigma must be finite and >= 0"),
        ((0.5,), math.inf, "sigma must be finite and >= 0"),
        ((0.5,), math.nan, "sigma must be finite and >= 0"),
    ])
    def test_ar_model(self, alphas, sigma, message):
        with pytest.raises(ValueError, match=message):
            ARModel(alphas, sigma)

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]]])
    def test_series_sample(self, values):
        with pytest.raises(ValueError, match="values must be a nonempty 1-D array"):
            SeriesSample(values, 0, 0)
