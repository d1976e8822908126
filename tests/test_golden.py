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

import pytest

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

# stdout of a dozen `rhoq mahler` invocations, keyed by their arguments
MAHLER_CLI = Path(__file__).parent / "golden" / "mahler_cli_p3-5_orders0-30.json"
MAHLER_RUNS = json.loads(MAHLER_CLI.read_text())


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


# thm31 at p = 7 samples its Lipschitz pairs (58,653 pairs at level 3);
# thm34 at p = 7 reads DensityScaled and difference ball values
@pytest.mark.parametrize("theorem", ["thm31", "thm34"])
def test_p7_audit_report_is_byte_identical_to_golden(theorem):
    golden = Path(__file__).parent / "golden" / ("audit_%s_p7_prec12_levels1-4_seed1.json" % theorem)
    assert _audit(["audit", theorem, "--p", "7", "--levels", "1:4"]) == golden.read_bytes()


def test_thm33_report_past_the_ball_memo_is_byte_identical_to_golden():
    """thm33 at p = 7, levels 1:5: its Riemann sums reach level 5, 7^5 balls
    a weight, and make no ball value; its invariance and density checks make
    theirs in one batch per level of each read."""
    golden = Path(__file__).parent / "golden" / "audit_thm33_p7_prec12_levels1-5_seed1.json"
    assert _audit(["audit", "thm33", "--p", "7", "--levels", "1:5"]) == golden.read_bytes()


def _leaves(x, path=""):
    """(JSON path, leaf value) for every leaf of a parsed report."""
    if isinstance(x, (dict, list)):
        items = x.items() if isinstance(x, dict) else enumerate(x)
        for key, value in items:
            yield from _leaves(value, "%s/%s" % (path, key))
    else:
        yield path, x


V1 = Path(__file__).parent / "golden" / "v1"

#: what moved, beyond `schema`, when thm33's ball values and Riemann sums
#: became exact limits (`rhoq.limits`): some low-level rescaled ball values of
#: the density extractions, whose last digits the Aitken estimates they
#: replace had wrong (past the digits those estimates certified), and R_1
#: (R_1 and R_2 at p = 3) of the integral identity's lhs, now equal to the
#: later R_m, as a Riemann sum of g = 1 is mu_P(Z_p) at every m.  No check
#: record moved.


def _density(audit: int, k: int, i: int) -> str:
    return "/audits/%d/traces/density extraction (k=%d)/approximants/%d" % (audit, k, i)


def _lhs(*ms: int) -> set[str]:
    fields = ("approximants", "cauchy_rates", "gap_exponents")
    trace = "/audits/2/traces/integral identity (k=1, g=1)/lhs"
    return {"%s/%s/%d" % (trace, field, m) for field in fields for m in ms}


MOVED = {
    "audit_all_default_p5_prec12_levels1-5_seed1.json": {
        *(_density(2, k, 0) for k in (1, 2, 3)), *_lhs(0)
    },
    "audit_all_p3_prec12_levels1-5_tol5_seed11.json": {
        *(_density(2, k, 0) for k in (1, 2, 3)), _density(2, 2, 1), *_lhs(0, 1)
    },
    "audit_thm31_p7_prec12_levels1-4_seed1.json": set(),
    "audit_thm33_p7_prec12_levels1-5_seed1.json": {_density(0, k, 0) for k in (2, 3)},
    "audit_thm34_p7_prec12_levels1-4_seed1.json": set(),
}


@pytest.mark.parametrize("name", sorted(golden.name for golden in V1.glob("*.json")))
def test_schema_2_golden_differs_from_its_schema_1_form_in_schema_only(name):
    """Each audit golden against its `rhoq-audit-report/1` form in
    tests/golden/v1, leaf by leaf.  Schema /2 sums thm33's Riemann sums as
    one limit of moment sums, not as a sum of ball limits; the two agreed in
    every field at these five configurations, so only `schema` differed.
    Since then the fields in MOVED have moved: the ball values and the
    Riemann sums are exact limits.  Nothing else differs."""
    old = dict(_leaves(json.loads((V1 / name).read_text())))
    new = dict(_leaves(json.loads((V1.parent / name).read_text())))
    moved = {path for path in old.keys() | new.keys() if old.get(path, ()) != new.get(path, ())}
    assert moved == {"/schema"} | MOVED[name]
    assert (old["/schema"], new["/schema"]) == ("rhoq-audit-report/1", "rhoq-audit-report/2")


@pytest.mark.parametrize("invocation", MAHLER_RUNS)
def test_mahler_output_is_byte_identical_to_golden(invocation, capsys):
    assert cli.main(invocation.split()) == 0
    out, err = capsys.readouterr()
    assert (out.encode(), err) == (MAHLER_RUNS[invocation].encode(), "")


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
