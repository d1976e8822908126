"""Wrong engines that thm33's checks must catch.

Each mutant is a monkeypatch that keeps honest precision: a value it changes
keeps the digits it had.  Each test runs `audit thm33 --p 3 --levels 1:5
--tol 5` under one mutant and asserts exactly which checks it flips from
their verdict on the honest engine to FAIL; every other check keeps its
verdict.  The integral identity (iii) reads no ball value, so the mutants
of the ball layer reach it only through the density constant that (ii)
hands it; the mutant of the weight's limit rows reaches its Riemann sums.
"""

import json

import pytest

from rhoq import cli, integration, limits
from rhoq.integration import WeightedDistribution, _ball_memo
from rhoq.padic import PadicNumber

ARGV = ["audit", "thm33", "--p", "3", "--levels", "1:5", "--tol", "5"]
INVARIANCE = "strong invariance of weighted [x]^%d"
DENSITY = "density ratio constancy (k=%d, 16 points)"
IDENTITY = "integral identity ratio matches the density constant (k=%d)"
KS = (1, 2, 3)


def _verdicts(capsys) -> dict[str, str]:
    cli.main(ARGV)
    [thm33] = json.loads(capsys.readouterr().out)["audits"]
    return {check["name"]: check["verdict"] for check in thm33["checks"]}


@pytest.fixture
def engine(monkeypatch):
    """Ball values are made anew at every read, so a mutant sees each one,
    and none made under a mutant outlives the test."""
    monkeypatch.setattr(integration, "BALL_MEMO_SIZE", 0)
    _ball_memo.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    _ball_memo.cache_clear()


def _scale_balls(monkeypatch, hit, factor) -> None:
    """mu_P(a + p^n Z_p) times factor(p) where hit(p, a, n)."""
    batch = WeightedDistribution._batch

    def mutant(self, level, reps):
        p = self.params.prime
        return [
            v * PadicNumber.from_integer(factor(p), p, v.digits)
            if v.unit and hit(p, a, level)
            else v
            for a, v in zip(reps, batch(self, level, reps))
        ]

    monkeypatch.setattr(WeightedDistribution, "_batch", mutant)


def density_jump(monkeypatch) -> None:
    """Ball values times 1 + p where the top digit of the rep is 1."""
    _scale_balls(monkeypatch, lambda p, a, n: a // p ** (n - 1) == 1, lambda p: 1 + p)


def weight_twist(monkeypatch) -> None:
    """Ball values times 1 + p^4 on odd reps."""
    _scale_balls(monkeypatch, lambda p, a, n: a % 2 == 1, lambda p: 1 + p**4)


def level_sum_leak(monkeypatch) -> None:
    """The weight's limit rows gain p^(v + 3) in their constant coefficient:
    mu_P(a + p^n Z_p) gains p^(2 - n) sum_b B_b^a over the bases B_b of P's
    normal form, a multiple of a measure that P does not weight.  As
    [p^n] p^(2 - n) converges, the rescaled ball values still converge, and
    the Riemann sums, which read the same rows, still do."""
    table = limits._limit_table

    def mutant(f, params, w, n):
        nf, tables = table(f, params, w, n)
        p, mod = params.prime, params.prime**nf.W
        leaked = tuple(
            (B, row[:-1] + ((row[-1] + p ** (nf.v + 3)) % mod,) if row else row)
            for B, row in tables
        )
        return nf, leaked

    monkeypatch.setattr(limits, "_limit_table", mutant)


@pytest.mark.parametrize(
    "mutant, flipped",
    [
        (density_jump, {INVARIANCE % k for k in KS}),
        # (iii) fails here through the density constant of (ii)
        (weight_twist, {DENSITY % k for k in KS} | {IDENTITY % k for k in KS}),
        (level_sum_leak, {DENSITY % k for k in KS} | {IDENTITY % k for k in KS}),
    ],
    ids=["density_jump", "weight_twist", "level_sum_leak"],
)
def test_mutant_flips_exactly_these_checks(engine, capsys, mutant, flipped):
    honest = _verdicts(capsys)
    assert set(honest.values()) == {"PASS", "MEASURED"}
    mutant(engine)
    mutated = _verdicts(capsys)
    assert {name: v for name, v in mutated.items() if v != honest[name]} == dict.fromkeys(
        flipped, "FAIL"
    )
