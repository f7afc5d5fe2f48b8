"""Property test of the CLI contract: `main` exits 0, 1 or 2 and never raises.

Every argv drawn here parses, so a usage error is the command's own: it
exits 2 with one stderr line and writes no output file.  `counterexample`
and `sweep` stay at --n <= 8, far below their limits, to keep examples fast.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from facevol.cli import main

LENGTHS = st.one_of(
    st.integers(-3, 20),
    st.floats(-1.0, 1e300),
    st.fractions(min_value=-1, max_value=20, max_denominator=12).map(str),  # "p/q"
    st.booleans(),
    st.just(float("nan")),
)
TOLERANCES = st.sampled_from([[], ["--tol", "1e-10"], ["--tol", "0.5"]])


@st.composite
def spec_payloads(draw):
    """Spec JSON with n <= 6: the right or a wrong count, a regular simplex or mixed values."""
    n = draw(st.integers(-1, 6))
    count = max(comb(n + 1, 2) + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    if draw(st.booleans()):
        lengths = [draw(st.sampled_from([1, 2, "1/2", 0.75]))] * count
    else:
        lengths = draw(st.lists(LENGTHS, min_size=count, max_size=count))
    return {"n": n, "squared_lengths": lengths}


@st.composite
def argvs(draw, spec):
    """argv that argparse accepts, for any subcommand."""
    def ints(low, high):
        return str(draw(st.integers(low, high)))

    command = draw(st.sampled_from(
        ["volume", "faces", "realizable", "jacobian", "spectrum", "counterexample", "invert",
         "sweep"]
    ))
    if command == "volume":
        argv = ["--input", spec]
        if draw(st.booleans()):
            labels = draw(st.lists(st.integers(0, 8).map(str), min_size=1, max_size=4))
            argv += ["--face", ",".join(labels)]
    elif command == "faces":
        argv = ["--input", spec, "--face-dim", ints(-2, 8)]
    elif command == "realizable":
        argv = ["--input", spec]
    elif command == "jacobian":
        argv = ["--input", spec] if draw(st.booleans()) else ["--n", ints(-2, 120)]
        argv += draw(TOLERANCES)
    elif command == "spectrum":
        argv = ["--n", ints(-2, 200), "--k", ints(-2, 200)]
    elif command == "counterexample":
        value = repr(draw(st.floats()))  # nan, inf and huge values too; "=" keeps "-1e+16" a value
        argv = ["--n", ints(-2, 8), draw(st.sampled_from(["--x=", "--t="])) + value]
        argv += draw(TOLERANCES)
    elif command == "invert":
        argv = ["--input", spec, "--starts", ints(1, 2), "--seed", ints(0, 3)]
        argv += draw(TOLERANCES)
    else:
        argv = ["--n", ints(-2, 8), "--count", ints(1, 2)] + draw(TOLERANCES)
    return [command] + argv + ["--format", draw(st.sampled_from(["json", "csv"]))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_main_exits_0_1_or_2_and_a_usage_error_writes_nothing(data):
    with tempfile.TemporaryDirectory() as tmp:
        spec, output = Path(tmp) / "spec.json", Path(tmp) / "report.out"
        spec.write_text(json.dumps(data.draw(spec_payloads(), label="spec")))
        argv = data.draw(argvs(str(spec)), label="argv") + ["--output", str(output)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert out.getvalue() == ""
        if code == 2:
            assert not output.exists()
            assert err.getvalue().startswith(f"facevol {argv[0]}: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert output.exists() and err.getvalue() == ""
