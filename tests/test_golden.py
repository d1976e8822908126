"""The byte-identity contract: fixed configurations give the same bytes as
the files kept in tests/golden/.

`python -m tests.test_golden` (from the repository root, with src on
PYTHONPATH) rewrites the deep-integral file; do that only on purpose.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import rhoq
from rhoq import cli
from rhoq.calculus import RhoQParams
from rhoq.integration import (
    bracket_power,
    carlitz_bernoulli,
    const,
    coordinate,
    exponential,
    linear_combination,
    mahler_function,
    poly_in_x,
    product,
    ratio_exponential,
    volkenborn_integral,
    weighted_measure_direct,
    weighted_measure_sequence,
)
from rhoq.measures import Ball

GOLDEN = Path(__file__).parent / "golden" / "audit_all_p3_prec12_levels1-5_tol5_seed11.json"
ARGV = ["audit", "all", "--p", "3", "--prec", "12", "--levels", "1:5", "--tol", "5", "--seed", "11"]
DEEP = Path(__file__).parent / "golden" / "deep_integrals_p5_prec40_levels1-7.json"
# `rhoq audit all` with every option at its default (p = 5, precision 12, levels 1:5, seed 1)
DEFAULT = Path(__file__).parent / "golden" / "audit_all_default_p5_prec12_levels1-5_seed1.json"


def _audit(argv: list[str]) -> bytes:
    """stdout of `rhoq <argv>` in a fresh process, which must exit 0 and print nothing else."""
    env = dict(os.environ, PYTHONPATH=str(Path(rhoq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rhoq.cli", *argv], capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def test_audit_report_is_byte_identical_to_golden():
    assert _audit(ARGV) == GOLDEN.read_bytes()


def test_audit_report_on_a_warm_ball_memo_is_byte_identical_to_golden(capsys):
    """The same report in one process after others: after a seed-7 report at
    its parameters, whose ball values it then reads off the memo, and after a
    p = 5 report, which has put another parameter pair in the memo."""
    seed_7 = ARGV[:-1] + ["7"]
    for earlier in (seed_7, ["audit", "thm33", "--p", "5", "--levels", "1:3"]):
        cli.main(earlier)
        capsys.readouterr()
        assert cli.main(ARGV) == 0
        assert capsys.readouterr().out.encode() == GOLDEN.read_bytes()


def test_default_audit_report_is_byte_identical_to_golden():
    assert _audit(["audit", "all"]) == DEFAULT.read_bytes()


REGIMES = {
    "deformed": (Fraction(26, 31), Fraction(11)),
    "classical": (Fraction(1), Fraction(1)),
    "symmetric": (Fraction(16, 21), Fraction(16, 21)),
}
# degree 6: nu_5(6!) = 1, so the Gaussian-binomial denominators cost a digit
MAHLER = mahler_function(
    [Fraction(1), 2, Fraction(-1, 3), 0, 4, Fraction(1, 7), 1], label="mahler degree 6"
)
INTEGRANDS = [
    const(Fraction(3, 7)),
    coordinate(),
    poly_in_x([0, 0, 0, 1], label="x^3"),
    bracket_power(1),
    bracket_power(3),
    ratio_exponential(),
    exponential(Fraction(11, 6)),
    product(coordinate(), bracket_power(2)),
    linear_combination([2, Fraction(-1, 3)], [poly_in_x([1, 1], label="1 + x"), ratio_exponential()]),
    MAHLER,
]


def deep_report() -> str:
    """Deep integrals at p = 5, precision 40, levels 1..7, as JSON text."""
    out = {}
    levels = range(1, 8)
    ball = Ball(5, 7, 2)
    for regime, (rho, q) in REGIMES.items():
        params = RhoQParams.from_units(5, rho, q, 40)
        rows = {f.describe(): volkenborn_integral(f, params, levels).describe() for f in INTEGRANDS}
        rows["carlitz_bernoulli(2, 1)"] = carlitz_bernoulli(2, 1, params, levels).describe()
        rows["restriction identity on %s" % ball] = weighted_measure_sequence(
            MAHLER, params, ball, range(1, 6)
        ).describe()
        rows["direct sums on %s" % ball] = weighted_measure_direct(MAHLER, params, ball, 5).describe()
        out[regime] = rows
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_deep_integrals_are_byte_identical_to_golden():
    assert deep_report() == DEEP.read_text()


if __name__ == "__main__":
    DEEP.write_text(deep_report())
