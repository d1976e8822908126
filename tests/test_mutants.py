"""Wrong engines that the audits' checks must catch.

Each mutant is a monkeypatch that keeps honest precision: a value it changes
keeps the digits it had.  A mutant of the ball layer patches the one place
each family makes its values, the Haar family's `values` and
`WeightedDistribution._batch`, so it sees every read, batched or not.  Each
test runs one audit (`audit thm33 --p 3 --levels 1:5 --tol 5`, or thm31 or
thm34 at the same flags) under one mutant and asserts exactly which checks
it flips from their verdict on the honest engine to FAIL; every other check
keeps its verdict.  thm33's integral identity (iii) reads no ball value, so
the mutants of the ball layer reach it only through the density constant
that (ii) hands it; the mutant of the weight's limit rows reaches its
Riemann sums.  A case marked xfail names a check that is blind today to a
mutant it should catch.
"""

import json

import pytest

from rhoq import cli, integration, limits
from rhoq.integration import WeightedDistribution, _ball_memo
from rhoq.measures import RhoQHaar
from rhoq.padic import PadicNumber

FLAGS = ["--p", "3", "--levels", "1:5", "--tol", "5"]
INVARIANCE = "strong invariance of weighted [x]^%d"
DENSITY = "density ratio constancy (k=%d, 16 points)"
IDENTITY = "integral identity ratio matches the density constant (k=%d)"
KS = (1, 2, 3)
LIPSCHITZ = {"lipschitz constant stability (%s)" % label for label in ("haar", "weighted [x]^2")}
THM34_LABELS = ("(q/rho)^x", "mahler truncation deg 2")
REMAINDER = {"bounded remainder (%s)" % label for label in THM34_LABELS}
DECOMPOSITION = {"decomposition identity on 1 + 3^1 Z_p (%s)" % label for label in THM34_LABELS}


def _verdicts(capsys, theorem: str = "thm33") -> dict[str, str]:
    cli.main(["audit", theorem, *FLAGS])
    [report] = json.loads(capsys.readouterr().out)["audits"]
    return {check["name"]: check["verdict"] for check in report["checks"]}


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
    """The value of a + p^n Z_p, of the Haar family and of mu_P, times
    factor(p, d) where hit(p, a, n), d the value's unit digits."""

    def scaled(p, a, n, v):
        return v * factor(p, v.digits) if v.unit and hit(p, a, n) else v

    batch, haar = WeightedDistribution._batch, RhoQHaar.values

    def weighted_mutant(self, level, reps):
        p = self.params.prime
        return [scaled(p, a, level, v) for a, v in zip(reps, batch(self, level, reps))]

    def haar_mutant(self, balls):
        p = self.params.prime
        return [scaled(p, b.rep, b.level, v) for b, v in zip(balls, haar(self, balls))]

    monkeypatch.setattr(WeightedDistribution, "_batch", weighted_mutant)
    monkeypatch.setattr(RhoQHaar, "values", haar_mutant)


def _times(c):
    """factor(p, d) for the integer c(p) at d digits."""
    return lambda p, d: PadicNumber.from_integer(c(p), p, d)


def density_jump(monkeypatch) -> None:
    """Ball values times 1 + p where the top digit of the rep is 1."""
    _scale_balls(monkeypatch, lambda p, a, n: a // p ** (n - 1) == 1, _times(lambda p: 1 + p))


def weight_twist(monkeypatch) -> None:
    """Ball values times 1 + p^4 on odd reps."""
    _scale_balls(monkeypatch, lambda p, a, n: a % 2 == 1, _times(lambda p: 1 + p**4))


def deep_jump(monkeypatch) -> None:
    """Ball values times 2 where the rep's digit at p^2 is 1: a density with a
    unit jump between points p^2 apart, which thm31's level-2 grid does not
    hold and its level-3 grid does."""
    _scale_balls(monkeypatch, lambda p, a, n: a // p**2 % p == 1, _times(lambda p: 2))


def _level_spike(level):
    def mutant(monkeypatch) -> None:
        """Ball values at one level times p^-3: rescaled values that leave the
        bound the shallower levels set."""
        _scale_balls(monkeypatch, lambda p, a, n: n == level, lambda p, d: PadicNumber(p, -3, 1, d))

    return mutant


#: thm34's window at these flags is levels 1..4; 3 is past its prefix, 4 its deepest
level_spike, last_level_spike = _level_spike(3), _level_spike(4)


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


@pytest.mark.parametrize(
    "theorem, mutant, flipped",
    [
        ("thm31", deep_jump, LIPSCHITZ),
        pytest.param(
            "thm31",
            density_jump,
            LIPSCHITZ,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the jump reaches a grid point's density sequence only at levels whose"
                " digit of x is 1, all below 4 on the grid's points below p^3, and the"
                " extrapolated limit moves by p^-5 at most, under what the sup resolves",
            ),
        ),
        ("thm34", level_spike, REMAINDER),
        pytest.param(
            "thm34",
            level_spike,
            REMAINDER | DECOMPOSITION,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the decomposition identity holds by construction: the remainder is"
                " weighted - associated",
            ),
        ),
        pytest.param(
            "thm34",
            last_level_spike,
            REMAINDER,
            marks=pytest.mark.xfail(
                strict=True,
                reason="a spike at the window's deepest level is the last term of every"
                " density sequence, so the extracted density takes it on and carries it"
                " to the prefix levels, whose bound then holds the whole window",
            ),
        ),
    ],
    ids=[
        "thm31-deep_jump",
        "thm31-density_jump",
        "thm34-level_spike",
        "thm34-identity",
        "thm34-last_level_spike",
    ],
)
def test_ball_maker_mutant_flips_exactly_these_checks(engine, capsys, theorem, mutant, flipped):
    honest = _verdicts(capsys, theorem)
    assert set(honest.values()) == {"PASS"}
    mutant(engine)
    mutated = _verdicts(capsys, theorem)
    assert {name: v for name, v in mutated.items() if v != honest[name]} == dict.fromkeys(
        flipped, "FAIL"
    )
