"""Every argv the CLI grammar can spell ends in a clean exit.

Hypothesis draws commands with huge and negative integers, NaN, +-inf,
floats near +-1 and empty or malformed lists, under a small work budget.
Each run of `main`, in process, must exit 0, 1 or 2 within a second, and
whatever it prints on stdout must be strict JSON.
"""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from serialsum.cli import main

#: Enough for a few probe trials or 1e5 simulated samples, about 10 ms.
BUDGET = "1000000"


def some(valid, extreme, odds=9):
    """A valid value about ``odds`` times for each extreme one."""
    return st.sampled_from(valid * max(1, odds * len(extreme) // len(valid))
                           + extreme)


INTS = some([str(i) for i in range(7)], [str(i) for i in (
    -1, -5, 40, 600, 10**6, 10**9, 2**62, 2**63, 10**20, 10**63, 2**1024,
    -(2**63))], odds=1)
NEAR_ONE = ["0.999999", "0.9999999999999999", "-0.9999999999", "1", "-1",
            "1.0000001", "-1.000001"]
BAD_FLOATS = ["0", "1e-300", "nan", "-nan", "inf", "-inf", "abc", ""]
REALS = some(["0.5", "-0.3", "0.2", "0.6", "-0.9"], NEAR_ONE + BAD_FLOATS)
POSITIVE = some(["0.5", "1", "2"], NEAR_ONE + BAD_FLOATS)
ROOTS = some(["0.5", "-0.3", "0.2", "0.6", "-0.9", "0.3+0.2i,0.3-0.2i"],
             NEAR_ONE + BAD_FLOATS + [
                 "0.3+0.2i", "0.7071067811865475+0.7071067811865475i",
                 "nan+1i", "1e309", "0.5+infi"])
TOLS = some(["1e-8", "1e-12"], NEAR_ONE + BAD_FLOATS)
MULTS = some(["1"], ["0", "-1", "2", "7", "10000000", "1000000000"])
ADJUSTS = some(["0", "-1"], ["1", "-5", str(-2**63)])
MALFORMED = st.sampled_from(["", ",", ",,", "0.5;0.3", "0.5,,0.3", "[1]",
                             "1 2", "--"])


@st.composite
def lists(draw, items, size):
    """``size`` items, comma-separated, or about one time in ten a list of
    another length or a malformed one."""
    kind = draw(some(["fit"], ["resize", "malformed"]))
    if kind == "malformed":
        return draw(MALFORMED)
    if kind == "resize":
        size = draw(st.integers(0, 8))
    return ",".join(draw(st.lists(items, min_size=size, max_size=size)))


@st.composite
def options(draw, **opts):
    """Each option as ``--name value`` two times in three, else absent; a
    name ending in "!" is required and always present."""
    argv = []
    for name, values in opts.items():
        required = name.endswith("!")
        if required or draw(st.integers(0, 2)):
            argv += ["--" + name.strip("!").replace("_", "-"), draw(values)]
    return argv


def commands(words):
    """Draws of one command's argv, starting with ``words``."""
    @st.composite
    def draw_argv(draw):
        ell = draw(st.integers(2, 6))
        ints, roots = lists(INTS, ell), lists(ROOTS, ell)
        s_or_shifts = draw(st.sampled_from([{"S!": INTS}, {"shifts!": ints}]))
        alpha = lists(REALS, draw(st.integers(1, 3)))
        samples = {"alpha!": alpha, "sigma": POSITIVE, "n!": st.one_of(
            st.sampled_from(["100", "2000"]), INTS), "seed": INTS,
            "burn_in": INTS}
        opts = {
            "eval": {"lambdas!": roots, "mult": lists(MULTS, ell),
                     **s_or_shifts},
            "oracle series": {"lambdas!": roots, "tol": TOLS, **s_or_shifts},
            "oracle finite": {"lambdas!": roots, "shifts!": ints, "n!": INTS,
                              "adjust": lists(ADJUSTS, ell)},
            "conjecture": {"ell!": some(["5", "6"], ["4", "7", "-5"]),
                           "trials": INTS, "seed": INTS, "tol": TOLS},
            "ar roots": {"alpha!": alpha},
            "ar acf": {"alpha!": alpha, "jmax": INTS},
            "ar simulate": samples,
            "ar check": {**samples, "jmax": INTS, "seeds": INTS,
                         "zmax": POSITIVE},
        }[words]
        argv = words.split() + draw(options(**opts))
        if words == "eval" and draw(st.booleans()):
            argv.append("--allow-complex-result")
        return argv
    return draw_argv()


@pytest.mark.parametrize("words", [
    "eval", "oracle series", "oracle finite", "conjecture", "ar roots",
    "ar acf", "ar simulate", "ar check"])
@settings(max_examples=15, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_invocation_exits_cleanly(words, data):
    argv = data.draw(commands(words))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"SERIALSUM_BUDGET": BUDGET}):
        if words == "ar simulate":
            argv += ["--out", os.path.join(tmp, "x.csv")]
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--json"])
        elapsed = time.perf_counter() - started
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert elapsed < 1.0, (argv, elapsed)
    if out.getvalue():
        envelope = json.loads(out.getvalue(), parse_constant=pytest.fail)
        assert envelope["command"] == words
