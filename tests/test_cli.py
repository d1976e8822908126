"""The command line: one parser for every call, and a distinct exit code for
library errors, for a closed stdout and for a crash."""

import fcntl
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rhoq
from rhoq import cli
from rhoq.cli import EXIT_ERROR, _build_parser, main
from rhoq.mahler import MAX_ORDER
from rhoq.padic import PadicNumber

from .oracles import mahler_forward_substitution, rhoq_binomial_exact

DIGITS_RHO = "digits:1,1,0,0,0,0,0,0,0,0,0,0"
DIGITS_Q = "digits:1,2,0,0,0,0,0,0,0,0,0,0"
#: past any index-sized integer
HUGE = "99999999999999999999"


def in_process(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(rhoq.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rhoq.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCachedParser:
    COMMANDS = [
        ["mahler", "--function", "[x]", "--order", "5", "--p", "3", "--out", "table"],
        ["measure", "--ball", "3", "2"],
        ["integrate", "--function", "x", "--levels", "1:3", "--rho", "0", "--q", "0"],
    ]

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_back_to_back_equals_fresh_processes(self):
        # the flags of one call (--p 3, --out table) must not leak into the next
        back_to_back = [in_process(argv) for argv in self.COMMANDS + self.COMMANDS[:1]]
        for argv, (code, out) in zip(self.COMMANDS + self.COMMANDS[:1], back_to_back):
            fresh_code, fresh_out, _ = fresh_process(argv)
            assert (code, out) == (fresh_code, fresh_out), argv


class TestErrorExit:
    ARGV = ["measure", "--ball", "3", "2", "--rho", DIGITS_RHO, "--q", DIGITS_Q]

    def test_library_error_exits_3(self, capsys):
        assert main(self.ARGV) == EXIT_ERROR == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rhoq: error: parameters only known to 12 digits; 14 requested\n"

    def test_value_error_exits_3(self, capsys):
        for levels in ("1:x", "5", "a:b"):
            assert main(["measure", "--ball", "3", "2", "--levels", levels]) == EXIT_ERROR
            assert capsys.readouterr().err == (
                "rhoq: error: --levels takes NMIN:NMAX, two integers; got %r\n" % levels
            )

    def test_exponential_base_outside_the_disc_is_refused(self, capsys):
        # c^x is continuous on Z_p only for c in 1 + pZ_p, whatever the command;
        # 1/5 and 6/5 are not even p-adic units
        for spec in ("exp:2", "exp:1/5", "exp:6/5"):
            for argv in (
                ["integrate", "--function", spec],
                ["mahler", "--function", spec],
                ["measure", "--ball", "3", "2", "--weight", spec],
                ["rn-deriv", "--x", "3", "--weight", spec],
            ):
                assert main(argv) == EXIT_ERROR, argv
                captured = capsys.readouterr()
                assert (captured.out, captured.err) == (
                    "", "rhoq: error: rhoq_power requires base in 1 + pZ_p\n"
                ), argv

    def test_no_traceback_from_a_fresh_process(self):
        code, out, err = fresh_process(self.ARGV)
        assert code == 3 and out == ""
        assert err.splitlines() == ["rhoq: error: parameters only known to 12 digits; 14 requested"]

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe capacity is set on Linux")
    def test_closed_stdout_ends_quietly_with_141(self):
        """`rhoq audit all | head -c 10`: the reader closes after 10 bytes.  The
        pipe holds one page, less than the report, so the writer is still
        writing when the reader closes, whatever the timing."""
        env = dict(os.environ, PYTHONPATH=str(Path(rhoq.__file__).resolve().parents[1]))
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        with subprocess.Popen(
            [sys.executable, "-m", "rhoq.cli", "audit", "all"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        ) as proc:
            os.close(write_end)
            head = os.read(read_end, 10)
            os.close(read_end)
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert head.startswith(b"{")
        assert (code, err) == (141, b"")

    def test_internal_error_exits_4_with_its_traceback(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("an engine bug")

        monkeypatch.setattr(cli, "run_audits", crash)
        assert main(["audit", "all"]) == cli.EXIT_INTERNAL == 4
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "rhoq: internal error: RuntimeError: an engine bug"
        assert lines[1] == "Traceback (most recent call last):"
        assert lines[-1] == "RuntimeError: an engine bug"


class TestMalformedInvocation:
    """A malformed invocation exits 3 with one `rhoq: error:` line, like a
    library error, never 1 (FAIL) or 2 (INCONCLUSIVE)."""

    CASES = {
        "audit": ["audit", "bogus"],
        "unknown-command": ["frobnicate"],
        "integrate": ["integrate", "--function", "tan"],
        "measure": ["measure"],
        "mahler": ["mahler", "--function", "tan"],
        "bernoulli": ["bernoulli", "--a", "1"],
        "rn-deriv": ["rn-deriv", "--x", "3", "--weight", "tan"],
        # 0 and [0] = 0 have no inverse, so no negative power is a function on Z_p
        "negative-x-power": ["integrate", "--function", "x^-1"],
        "negative-bracket-power": ["integrate", "--function", "[x]^-1"],
        "negative-mixed-power": ["integrate", "--function", "mixed:1,-1", "--rho", "1"],
        "zero-denominator-const": ["integrate", "--function", "const:1/0"],
        "zero-denominator-exp": ["integrate", "--function", "exp:0/0"],
    }
    # a parameter spec is read by the library, so main returns 3 rather than raising
    PARAMETER_CASES = {
        "zero-denominator-rho": ["integrate", "--function", "x", "--rho", "1/0"],
        "zero-denominator-q": ["integrate", "--function", "x", "--q", "0/0"],
    }

    @pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
    def test_exits_3_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("rhoq: error: ")

    @pytest.mark.parametrize("argv", PARAMETER_CASES.values(), ids=PARAMETER_CASES.keys())
    def test_bad_parameter_exits_3_with_one_line(self, argv, capsys):
        assert main(argv) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert (out, err) == ("", "rhoq: error: zero denominator in %r\n" % argv[-1])

    # a size past an index raises OverflowError deep in the run, and a Mahler
    # order past MAX_ORDER is refused before the solve; sizes that fit an index
    # but cannot be run (--levels 1:1000000000 lists 10^9 levels) stay out
    OVERFLOW_CASES = {
        "mahler-order": ["mahler", "--function", "x", "--order", HUGE],
        "mahler-order-11-digits": ["mahler", "--function", "x", "--order", "99999999999"],
        "mahler-order-past-limit": ["mahler", "--function", "x", "--order", str(MAX_ORDER + 1)],
        "bernoulli-n": ["bernoulli", "--n", HUGE],
        "integrate-levels": ["integrate", "--function", "x", "--levels", "1:" + HUGE],
        "bernoulli-levels": ["bernoulli", "--n", "1", "--levels", "1:" + HUGE],
        "rn-deriv-levels": ["rn-deriv", "--x", "7", "--levels", "1:" + HUGE],
        "invariance-levels": ["measure", "--invariance", "--levels", "1:" + HUGE],
        "weighted-invariance-levels": [
            "measure", "--invariance", "--weight", "x", "--levels", "1:" + HUGE,
        ],
    }

    @pytest.mark.parametrize("argv", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES.keys())
    def test_overflowing_size_exits_3_with_one_line(self, argv, capsys):
        assert main(argv) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("rhoq: error: ")

    def test_fresh_process(self):
        code, out, err = fresh_process(["audit", "bogus"])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("rhoq: error: argument selector")


class TestMalformedFunctionSpec:
    """A spec with a parameter that does not fit its form is refused with one
    line that names the form, whichever Python error the parameter raised
    (an exponent past the size of a list raises OverflowError, and one whose
    list of K + 1 coefficients cannot be allocated MemoryError: 10^12 of them
    is 8 TB, refused at once)."""

    CASES = {
        "x^": "x^K with an integer K >= 0",
        "mixed:1": "mixed:A,N with integers A and N >= 0",
        "const:": "const:C with a rational C",
        "[x]^a": "[x]^K with an integer K >= 0",
        "exp:": "exp:C with a rational C",
        "x^" + HUGE: "x^K with an integer K >= 0",
        "[x]^" + HUGE: "[x]^K with an integer K >= 0",
        "x^%d" % 10**12: "x^K with an integer K >= 0",
        "[x]^%d" % 10**12: "[x]^K with an integer K >= 0",
        "mixed:1," + HUGE: "mixed:A,N with integers A and N >= 0",
        "mixed:1,%d" % 10**12: "mixed:A,N with integers A and N >= 0",
    }

    @pytest.mark.parametrize("spec", CASES.keys())
    def test_names_the_expected_form(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--function", spec])
        assert exc.value.code == EXIT_ERROR
        assert capsys.readouterr() == (
            "", "rhoq: error: function spec %r: expected %s\n" % (spec, self.CASES[spec])
        )


class TestLevelRule:
    """n_max <= precision - 4 keeps the audits' deepest level clear of the
    working precision; it binds `audit` only."""

    COMMANDS = {
        "mahler-reads-no-levels": ["mahler", "--function", "x", "--order", "3", "--prec", "8"],
        "integrate": ["integrate", "--function", "x", "--levels", "1:9"],
        "rn-deriv": ["rn-deriv", "--x", "7", "--levels", "1:9"],
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_other_commands_run(self, argv):
        code, out = in_process(argv)
        assert code == 0
        payload = json.loads(out)
        if "sequence" in payload:
            assert payload["sequence"]["levels"] == list(range(1, 10))

    def test_audit_refuses_a_deep_window(self, capsys):
        assert main(["audit", "all", "--levels", "1:9"]) == EXIT_ERROR
        assert capsys.readouterr() == (
            "",
            "rhoq: error: level window too deep for the precision: need n_max <= precision - 4\n",
        )

    # thm32 and thm33 sample levels <= 3, thm34 levels <= 4; thm31 has no cap
    PAST_CAP = {
        "thm32": (["thm32", "--levels", "4:7"], "thm32 samples levels <= 3: need n_min <= 3"),
        "thm33": (["thm33", "--levels", "4:7"], "thm33 samples levels <= 3: need n_min <= 3"),
        "thm34": (["thm34", "--levels", "5:8"], "thm34 samples levels <= 4: need n_min <= 4"),
        "all": (["all", "--levels", "5:8"], "thm32 samples levels <= 3: need n_min <= 3"),
    }

    @pytest.mark.parametrize("argv, message", PAST_CAP.values(), ids=PAST_CAP.keys())
    def test_window_past_an_audits_cap_is_refused(self, argv, message):
        code, out, err = fresh_process(["audit", *argv, "--p", "3"])
        assert (code, out, err) == (EXIT_ERROR, "", "rhoq: error: %s\n" % message)

    def test_uncapped_thm31_runs_past_the_caps(self):
        code, out = in_process(["audit", "thm31", "--p", "3", "--levels", "5:8"])
        assert code == 0
        assert json.loads(out)["config"]["levels"] == [5, 8]

    @pytest.mark.parametrize("window", ["0:3", "3:1"])
    def test_empty_or_sub_one_windows_are_refused_everywhere(self, window, capsys):
        commands = (["audit", "all"], ["integrate", "--function", "x"], ["mahler", "--function", "x"])
        for argv in commands:
            assert main(argv + ["--levels", window]) == EXIT_ERROR
            assert capsys.readouterr() == ("", "rhoq: error: need 1 <= n_min <= n_max\n")


class TestToleranceRule:
    """--tol is at least 1 on every command: at t <= 0 every difference
    agrees to p^-t, so no agreement check could fail and every sequence
    would read as converged."""

    @pytest.mark.parametrize("tol", ["0", "-3"])
    def test_audit_refuses_a_tolerance_below_one(self, tol):
        code, out, err = fresh_process(["audit", "all", "--tol", tol])
        message = "rhoq: error: tolerance exponent must be >= 1\n"
        assert (code, out, err) == (EXIT_ERROR, "", message)

    @pytest.mark.parametrize("tol", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [["integrate", "--function", "x", "--levels", "1:3"], ["rn-deriv", "--x", "3"]],
        ids=["integrate", "rn-deriv"],
    )
    def test_every_command_refuses_a_tolerance_below_one(self, capsys, argv, tol):
        code = main([*argv, "--tol", tol])
        out, err = capsys.readouterr()
        assert (code, out, err) == (EXIT_ERROR, "", "rhoq: error: tolerance exponent must be >= 1\n")

    def test_tolerance_one_runs(self, capsys):
        code = main(["audit", "all", "--p", "3", "--levels", "1:3", "--tol", "1"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["tolerance_exponent"] == 1


class TestPointValuesReadTheNormalForm:
    """Rational constants with p in the denominator, and mixed:A,0, through
    every command that reads a function spec."""

    def test_const_with_p_in_the_denominator(self):
        # at p = 5 and rho = 6, the integral of 1/5 is rho/5 at every level
        code, out = in_process(["integrate", "--function", "const:1/5", "--levels", "1:3"])
        assert code == 0
        want = PadicNumber.from_fraction(Fraction(6, 5), 5, 12).digit_string()
        assert json.loads(out)["sequence"]["approximants"] == [want] * 3
        for argv in (
            ["rn-deriv", "--x", "3", "--weight", "const:1/5", "--levels", "1:3"],
            ["mahler", "--function", "const:1/5", "--order", "4"],
        ):
            assert in_process(argv)[0] == 0, argv

    def test_mixed_power_zero_keeps_full_precision(self):
        # rho^(2x) [x]^0 = rho^(2x): every coefficient at the full precision,
        # equal to the forward substitution of the exact values and binomials
        p, rho, q, order, w = 5, Fraction(6), Fraction(11), 3, 40
        code, out = in_process(["mahler", "--function", "mixed:2,0", "--order", str(order)])
        assert code == 0
        got = json.loads(out)["series"]["coefficients"]
        exact = [PadicNumber.from_fraction(rho ** (2 * i), p, w) for i in range(order + 1)]
        want = mahler_forward_substitution(
            exact, lambda i, n: PadicNumber.from_fraction(rhoq_binomial_exact(i, n, rho, q), p, w)
        )
        for text, c in zip(got, want, strict=True):
            known = int(text[len("O(5^"):text.index(")")])
            assert known >= 12
            assert text == c.reduce_abs(known).digit_string()

#: the token mutations of the fuzz; the last four make any token malformed
MUTATIONS = ("negative", "huge", "empty", "zero-denominator", "non-digits", "stray-colon")
MALFORMED = MUTATIONS[2:]


def mutate(token: str, kind: str) -> str:
    """`token` with one defect; a huge or non-digit value replaces its first digit run."""
    if kind == "empty":
        return ""
    if kind == "negative":
        return "-" + token
    if kind == "zero-denominator":
        return token + "/0"
    if kind == "stray-colon":
        return token + ":"
    new = HUGE if kind == "huge" else "z"
    return re.sub(r"\d+", new, token, count=1) if re.search(r"\d", token) else new


@st.composite
def invocations(draw):
    """(command, argv, mutation) drawn from the README grammar, small enough to
    run in milliseconds: p in {3, 5}, NMAX <= 3, --order <= 6.

    Tokens are (text, sized) pairs.  A sized value is a size the command runs
    to (precision, ball level, Bernoulli order, Mahler order); it is never
    made huge, since such a size is parsed and then run for as long as it
    says.  A huge value replaces the first digit run of a token, so NMAX and
    the N of mixed:A,N are not made huge either.  `audit` is drawn only with
    a malformed token, so it never runs."""
    small = st.integers(min_value=0, max_value=3)
    p = draw(st.sampled_from([3, 5]))
    k, a, n = draw(small), draw(small), draw(small)
    spec = draw(st.sampled_from([
        "1", "const:%d/%d" % (a, n + 1), "x", "x^%d" % k, "[x]", "[x]^%d" % k, "qrho^x",
        "exp:%d" % (1 + p), "mixed:%d,%d" % (a, n),
    ]))
    unit = st.sampled_from(["0", "1", "2", "1/11", "digits:1,1" + ",0" * 10])
    n_min = draw(st.integers(min_value=1, max_value=3))
    flags = {
        "--p": (str(p), False),
        "--prec": (str(draw(st.integers(min_value=6, max_value=10))), True),
        "--rho": (draw(unit), False),
        "--q": (draw(unit), False),
        "--levels": ("%d:%d" % (n_min, draw(st.integers(n_min, 3))), False),
        "--seed": (str(draw(small)), False),
        "--tol": (str(draw(st.integers(min_value=2, max_value=8))), False),
        "--out": (draw(st.sampled_from(["json", "csv", "table"])), False),
    }
    commands = ["measure", "integrate", "bernoulli", "mahler", "rn-deriv", "audit"]
    command = draw(st.sampled_from(commands))
    weight = [("--weight", False), (spec, False)] if draw(st.booleans()) else []
    if command == "measure":
        if draw(st.booleans()):
            body = [("--ball", False), (str(draw(st.integers(0, 30))), False), (str(k + 1), True)]
        else:
            body = [("--invariance", False)]
        body += weight
    elif command == "integrate":
        body = [("--function", False), (spec, False)]
    elif command == "bernoulli":
        body = [("--n", False), (str(n), True), ("--a", False), (str(a), False)]
        body += [("--compare", False)] if draw(st.booleans()) else []
    elif command == "mahler":
        order = str(draw(st.integers(0, 6)))
        body = [("--function", False), (spec, False), ("--order", False), (order, True)]
    elif command == "rn-deriv":
        body = [("--x", False), (str(draw(st.integers(0, 30))), False)] + weight
    else:
        body = [(draw(st.sampled_from(["all", "thm31", "thm34", "lipschitz"])), False)]
    # global flags go before or after the subcommand
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    first = {flag: draw(st.booleans()) for flag in chosen}
    before = [tok for f in chosen if first[f] for tok in ((f, False), flags[f])]
    after = [tok for f in chosen if not first[f] for tok in ((f, False), flags[f])]
    tokens = before + [(command, False)] + body + after
    mutation = None
    if command == "audit" or draw(st.booleans()):
        i = draw(st.sampled_from([i for i, (text, _) in enumerate(tokens) if text[:2] != "--"]))
        text, sized = tokens[i]
        kinds = MALFORMED if command == "audit" else MUTATIONS
        kind = draw(st.sampled_from([k for k in kinds if not (sized and k == "huge")]))
        tokens[i] = (mutate(text, kind), sized)
        mutation = (i, kind)
    return command, [text for text, _ in tokens], mutation


class TestArgvFuzz:
    """Any argv from the README grammar, mutated or not, ends in one of the
    four exit codes: no traceback, one `rhoq: error:` line for exit 3, and
    the FAIL and INCONCLUSIVE codes only from `audit`."""

    @settings(max_examples=300)
    @given(invocations())
    def test_exit_codes(self, drawn):
        command, argv, _ = drawn
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 3:
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("rhoq: error: ")
        else:
            assert err == ""
        if code in (1, 2):
            assert command == "audit"
        if command == "audit":  # drawn only with a malformed token
            assert code == 3
