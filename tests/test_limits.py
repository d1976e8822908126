"""The closed-form limits of `rhoq.limits`: every exact weighted ball value
against the restriction identity's limit estimate, to the digits that
estimate certifies, and against the benchmark's closed form
(`perfbench/oracles.limit_value` at the lifted parameters), to every digit
the value claims, where the same value claiming one wrong digit more fails;
the Bernoulli numbers; the refusal of a series known to no digit; and the
limit tables' bound.  The exact Riemann sums are checked against the same
closed form in `test_level_sums.py`."""

from fractions import Fraction

import pytest

from rhoq import cli
from rhoq.calculus import RhoQParams
from rhoq.integration import (
    MEMO_SIZE,
    WEIGHTED_LEVELS,
    WeightedDistribution,
    _ball_memo,
    bracket_power,
    const,
    coordinate,
    mahler_function,
    ratio_exponential,
    weighted_measure_sequence,
)
from rhoq.limits import _limit_table, ball_values, bernoulli_number, riemann_sums
from rhoq.measures import Ball
from rhoq.padic import PadicNumber, PrecisionError

from .oracles import bench, claims_hold, one_digit_more, weighted_ball

REGIMES = {"deformed": (1, 2), "rho=q": (1, 1), "classical": (0, 0)}
WEIGHTS = [
    const(3),
    coordinate(),
    bracket_power(1),
    bracket_power(2),
    bracket_power(3),
    ratio_exponential(),
    mahler_function([1, Fraction(1, 2), 3], label="mahler truncation deg 2"),
]
D = 10


def _reps(p: int, n: int) -> list[int]:
    return sorted({0, 1, p**n // 2, p**n - 1})


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_ball_values_match_the_limit_estimates_and_the_closed_form(p, regime):
    params = RhoQParams.from_offsets(p, *REGIMES[regime], D)
    rho, q = params.rho_base, params.q_base
    certified = 0
    for f in WEIGHTS:
        for n in (1, 2, 3):
            reps = _reps(p, n)
            for a, v in zip(reps, ball_values(f, params, n, reps, D)):
                case = (f.describe(), n, a)
                assert v.abs_precision == D + 1, case
                seq = weighted_measure_sequence(f, params, Ball(p, a, n), WEIGHTED_LEVELS, digits=D)
                if seq.best_certified is not None:
                    assert v.agrees(seq.limit_estimate(), seq.best_certified), case
                    certified += 1
                exact = weighted_ball(f, p, rho, q, a, n, D + 3)
                assert claims_hold(v, exact), case
                assert not claims_hold(one_digit_more(v, exact), exact), case
    assert certified >= len(WEIGHTS) * 3 * 3


def test_bernoulli_numbers():
    want = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
    want += [0, Fraction(-1, 30), 0, Fraction(5, 66), 0, Fraction(-691, 2730)]
    assert [bernoulli_number(m) for m in range(len(want))] == want
    assert bernoulli_number(40) == bench.bernoulli(40)
    # von Staudt-Clausen: p^2 divides no denominator
    assert all(bernoulli_number(m).denominator % 9 for m in range(60))
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_a_series_known_to_no_digit_is_refused():
    """Mahler coefficients known to one digit leave the balls of a weight,
    and the Riemann sums of a g, at precision 8 no digit: each raises
    PrecisionError."""
    params = RhoQParams.from_offsets(3, 1, 2, 8)
    f = mahler_function([PadicNumber.from_integer(1, 3, 1)] * 2)
    weights = [WeightedDistribution(bracket_power(1), params)]
    for n in (1, 2, 3):
        with pytest.raises(PrecisionError):
            ball_values(f, params, n, [1], 8)
        with pytest.raises(PrecisionError):
            riemann_sums([f], weights, [n])


def test_limit_tables_are_bounded_and_made_only_for_weighted_reads(capsys):
    """A run of integrals makes no limit table; an `audit thm33` report makes
    one per (weight, level) it reads, and the table is bounded by MEMO_SIZE."""
    assert _limit_table.cache_info().maxsize == MEMO_SIZE
    _limit_table.cache_clear()
    assert cli.main(["integrate", "--function", "[x]^2", "--p", "3"]) == 0
    assert _limit_table.cache_info().currsize == 0
    _ball_memo.cache_clear()
    assert cli.main(["audit", "thm33", "--p", "3", "--levels", "1:5", "--tol", "5"]) == 0
    capsys.readouterr()
    assert _limit_table.cache_info().currsize > 0
