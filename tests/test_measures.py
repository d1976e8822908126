import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rhoq import measures
from rhoq.calculus import RhoQParams, rhoq_integer, rhoq_power
from rhoq.integration import (
    WEIGHTED_LEVELS,
    WeightedDistribution,
    _ball_memo,
    bracket_power,
    weighted_measure_sequence,
)
from rhoq.measures import (
    MAX_PAIRS,
    Ball,
    DensityScaled,
    Distribution,
    LinearCombination,
    RhoQHaar,
    check_invariance,
    densities,
    difference,
    lipschitz_estimate,
    radon_nikodym_derivative,
    rhoq_haar_measure,
)
from rhoq.limits import ball_values
from rhoq.padic import PadicNumber, padic_from_fraction, padic_from_integer

from .oracles import haar_value, lipschitz_fraction_loop, rat_mod


def params(p=5, rho_k=1, q_k=2, prec=12):
    return RhoQParams.from_offsets(p, rho_k, q_k, prec)


class ZeroDistribution(Distribution):
    """Exactly zero on every ball: the strongly invariant distribution with constant 0."""

    family = "zero"

    def __init__(self, params: RhoQParams):
        super().__init__(params)

    def _value(self, ball: Ball) -> PadicNumber:
        return PadicNumber.exact_zero(self.params.prime)


class TestBall:
    def test_canonical_representative(self):
        b = Ball(5, 127, 2)
        assert b.rep == 127 % 25

    def test_children_partition(self):
        b = Ball(5, 3, 2)
        kids = b.children()
        assert len(kids) == 5
        assert all(k.level == 3 and k.rep % 25 == 3 for k in kids)
        assert len({k.rep for k in kids}) == 5

    def test_level_validation(self):
        with pytest.raises(ValueError):
            Ball(5, 0, 0)


class TestHaarValues:
    def test_classical_is_haar(self):
        pr = RhoQParams.classical(5, 10)
        for N in (1, 2, 3):
            for a in (0, 3, 5**N - 1):
                v = rhoq_haar_measure(Ball(5, a, N), pr)
                assert v.val == -N
                assert v.unit % 5**4 == pow(1, 1, 5**4)  # unit residue is 1

    def test_exact_rational_oracle(self):
        # p=5, N=1, a=0, rho=1+5, q=1+10, checked against big-rational arithmetic
        pr = params(prec=6)
        got = rhoq_haar_measure(Ball(5, 0, 1), pr)
        expected = haar_value(0, 1, Fraction(6), Fraction(11), 5)
        scaled = expected * 5  # valuation -1; compare the unit parts mod 5^6
        assert got.val == -1
        assert got.unit % 5**6 == rat_mod(scaled, 5, 6)

    def test_oracle_various_balls(self):
        pr = params(prec=8)
        for a, N in ((0, 1), (3, 2), (17, 3), (124, 3)):
            got = rhoq_haar_measure(Ball(5, a, N), pr)
            expected = haar_value(a, N, Fraction(6), Fraction(11), 5)
            assert got.val == -N
            assert got.unit % 5**8 == rat_mod(expected * 5**N, 5, 8)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_additivity_exact(self, p):
        pr = RhoQParams.from_offsets(p, 1, 2, 14)
        d = RhoQHaar(pr)
        for N in (1, 2, 3):
            for a in range(0, p**N, max(1, p ** (N - 1) - 1)):
                parent = Ball(p, a, N)
                total = PadicNumber.exact_zero(p)
                for child in parent.children():
                    total = total + d.value(child)
                assert total.agrees(d.value(parent))

    def test_additivity_preserved_by_combination(self):
        pr = params()
        d1, d2 = RhoQHaar(pr), RhoQHaar(params(q_k=3))
        combo = LinearCombination([(2, d1), (-3, d2)])
        parent = Ball(5, 7, 2)
        total = PadicNumber.exact_zero(5)
        for child in parent.children():
            total = total + combo.value(child)
        assert total.agrees(combo.value(parent))


class TestInvariance:
    def test_haar_is_weakly_invariant(self):
        d = RhoQHaar(params())
        report = check_invariance(d, range(1, 5))
        assert report.weakly
        # successive rescaled differences decay at least like p^-(N+1)
        for N, delta in zip(report.levels, report.delta_table):
            assert delta <= Fraction(1, 5 ** (N + 1))

    def test_zero_distribution_strong_with_zero_constant(self):
        report = check_invariance(ZeroDistribution(params()), range(1, 4))
        assert report.strongly
        assert report.fitted_constant == 0
        assert report.kind == "strongly"

    def test_difference_of_matching_densities_is_one_admissible(self):
        pr = params()
        haar = RhoQHaar(pr)

        def density(x: int) -> PadicNumber:
            return rhoq_power(pr.q / pr.rho, x)

        associated = DensityScaled(density, pr)
        leftover = difference(haar, associated)
        report = check_invariance(leftover, range(1, 5))
        assert report.one_admissible
        assert report.weakly

    def test_report_serializes(self):
        rep = check_invariance(RhoQHaar(params()), range(1, 4))
        d = rep.describe()
        assert d["verdict"] in {"strongly", "one_admissible", "weakly", "none_detected"}
        assert len(d["delta"]) == 3


class TestRadonNikodym:
    def test_haar_rates_and_limit(self):
        pr = params(prec=12)
        d = RhoQHaar(pr)
        for x in (0, 1, 7, 23):
            seq = radon_nikodym_derivative(d, x, range(1, 12), target_exponent=10)
            for (N, _), e in zip(seq.terms[:-1], seq.gap_exponents):
                assert e >= N + 1
            assert seq.converged
            expected = rhoq_power(pr.q / pr.rho, x)
            assert seq.declared_limit.agrees(expected, 10)

    def test_zero_distribution(self):
        seq = radon_nikodym_derivative(ZeroDistribution(params()), 3, range(1, 5), 4)
        assert all(v.is_exact_zero for _, v in seq.terms)
        assert seq.converged
        assert seq.declared_limit.is_exact_zero


class TestDensityApproximationRate:
    def test_density_error_decays_at_parameter_rate_with_held_constant(self):
        # ||density - A_N|| <= C p^-v(rho^(p^N) - q^(p^N)): fit C on N <= 3,
        # hold it fixed for N = 4..6
        from rhoq.measures import parameter_gap_exponent
        from rhoq.sequences import gap_norm

        pr = params(prec=14)
        d = RhoQHaar(pr)
        xs = [0, 1, 7, 23, 61]
        limits = {x: rhoq_power(pr.q / pr.rho, x) for x in xs}
        ratios_by_level = {}
        for N in range(1, 7):
            worst = Fraction(0)
            for x in xs:
                err = gap_norm(d.rescaled(Ball(5, x, N)) - limits[x])
                worst = max(worst, err)
            e = parameter_gap_exponent(pr, N, 14)
            ratios_by_level[N] = worst * Fraction(5) ** int(e)
        fitted_c = max(ratios_by_level[N] for N in (1, 2, 3))
        for N in (4, 5, 6):
            assert ratios_by_level[N] <= fitted_c, N


class TestWeightedAdditivity:
    def test_children_sum_to_parent_at_matched_total_level(self):
        # sum over the p children (inner m) equals the parent (inner m+1):
        # both sides are the same restricted sum at total level n+1+m
        from rhoq.integration import bracket_power, weighted_measure_sequence

        pr = params(prec=14)
        f = bracket_power(1)
        parent = Ball(5, 3, 2)
        m = 2
        total = PadicNumber.exact_zero(5)
        for child in parent.children():
            total = total + weighted_measure_sequence(f, pr, child, [m]).terms[0][1]
        parent_term = weighted_measure_sequence(f, pr, parent, [m + 1]).terms[0][1]
        assert total.agrees(parent_term)


class TestConcurrency:
    def test_concurrent_ball_evaluation_is_consistent(self):
        # values are pure and per-level writes idempotent: hammer one
        # distribution with threads that switch often
        import sys
        from concurrent.futures import ThreadPoolExecutor

        pr = params(prec=10)
        d = RhoQHaar(pr)
        balls = [Ball(5, a, n) for n in (1, 2, 3) for a in range(0, 5**n, 7)]

        def grab(ball):
            return d.value(ball), d.rescaled(ball)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(grab, balls * 4, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for ball, (value, rescaled) in zip(balls * 4, results):
            serial = rhoq_haar_measure(ball, pr, 10)
            assert value == serial
            assert rescaled == rhoq_integer(5**ball.level, pr, 10 + ball.level) * serial


def _density(p: int):
    return lambda x: padic_from_integer(x * x + 1, p, 10)


def _per_level_distributions(pr: RhoQParams) -> dict[str, Distribution]:
    """One fresh distribution of each family with a per-level table."""
    return {
        "haar": RhoQHaar(pr),
        "weighted": WeightedDistribution(bracket_power(2), pr),
        "density": DensityScaled(_density(pr.prime), pr),
        "difference": difference(
            WeightedDistribution(bracket_power(2), pr), DensityScaled(_density(pr.prime), pr)
        ),
    }


def _direct_value(name: str, pr: RhoQParams, ball: Ball) -> PadicNumber:
    """The ball value straight from its defining formula, without per-level tables."""
    p, d, N = pr.prime, pr.precision, ball.level
    if name == "haar":
        return rhoq_haar_measure(ball, pr, d)
    if name == "weighted":  # the closed form of the restriction identity, this ball alone
        return ball_values(bracket_power(2), pr, N, [ball.rep], d)[0]
    if name == "density":
        return _density(p)(ball.rep) * rhoq_haar_measure(Ball(p, 0, N), pr, d + N)
    acc = PadicNumber.exact_zero(p)
    for c, part in ((1, "weighted"), (-1, "density")):
        acc = acc + padic_from_integer(c, p, d + 2 * N + 2) * _direct_value(part, pr, ball)
    return acc


class TestPerLevelTables:
    LEVELS = range(1, 5)

    def test_values_and_rescaled_values_match_the_direct_formulas(self):
        pr = params(p=3, prec=10)
        for name, dist in _per_level_distributions(pr).items():
            for N in self.LEVELS:
                scale = rhoq_integer(3**N, pr, 10 + N)
                balls = [Ball(3, a, N) for a in range(3**N)]
                for ball, batched in zip(balls, dist.values(balls)):
                    direct = _direct_value(name, pr, ball)
                    assert dist.value(ball) == direct == batched, (name, ball)
                    assert dist.rescaled(ball) == scale * direct, (name, ball)
                    if name == "weighted":  # an independent route to the same limit
                        seq = weighted_measure_sequence(bracket_power(2), pr, ball, WEIGHTED_LEVELS, digits=10)
                        assert direct.agrees(seq.limit_estimate(), seq.best_certified), ball

    def test_one_bracket_per_level_quantity(self, monkeypatch):
        # rescaled's [p^N] is made once per (distribution, level); so is the
        # Haar value of p^N Z_p of a DensityScaled, the difference's part
        calls = []
        real = measures.rhoq_integer
        monkeypatch.setattr(measures, "rhoq_integer", lambda *a, **k: calls.append(a) or real(*a, **k))
        pr = params(p=3, prec=10)
        per_level = {"haar": 1, "weighted": 1, "density": 2, "difference": 2}
        for name, dist in _per_level_distributions(pr).items():
            for N in self.LEVELS:
                calls.clear()
                for a in range(3**N):
                    dist.rescaled(Ball(3, a, N))
                    dist.value(Ball(3, a, N))
                assert len(calls) == per_level[name], (name, N)


class TestValues:
    """`values` reads many balls in one call: a weighted distribution makes
    the balls its memo lacks with one `_batch` per level, and the invariance
    check and the density extraction read all of theirs through one call."""

    def test_weighted_values_make_one_batch_per_level(self, monkeypatch):
        pr = params(p=3, prec=10)
        _ball_memo.cache_clear()
        dist = WeightedDistribution(bracket_power(2), pr)
        dist.value(Ball(3, 1, 2))  # already in the memo
        calls = []
        batch = WeightedDistribution._batch

        def counted(self, level, reps):
            calls.append((level, list(reps)))
            return batch(self, level, reps)

        monkeypatch.setattr(WeightedDistribution, "_batch", counted)
        balls = [Ball(3, a, N) for N in (3, 1, 2) for a in range(3**N)] + [Ball(3, 4, 2)]
        got = dist.values(balls)
        assert calls == [(3, list(range(27))), (1, [0, 1, 2]), (2, [0, *range(2, 9)])]
        _ball_memo.cache_clear()
        fresh = WeightedDistribution(bracket_power(2), pr)
        assert got == [fresh.value(ball) for ball in balls]

    @pytest.mark.parametrize("family", ["haar", "weighted"])
    def test_checks_read_their_balls_in_one_call(self, family):
        pr = params(p=3, prec=10)
        dist = RhoQHaar(pr) if family == "haar" else WeightedDistribution(bracket_power(1), pr)
        calls = []
        read = dist.values
        dist.values = lambda balls: calls.append(len(balls)) or read(balls)
        check_invariance(dist, range(1, 4))
        radon_nikodym_derivative(dist, 5, range(1, 6))
        assert len(calls) == 2


class TestDensities:
    """`densities` is `radon_nikodym_derivative` at each of many points, and
    the batched `values` of the Haar family and of a combination are their
    balls' single values, field for field."""

    LEVELS = range(1, 5)
    # a repeated point, and points at and past 3^4, the deepest level's modulus
    XS = [0, 1, 5, 1, 26, 81, 250]

    @pytest.mark.parametrize("name", ["haar", "weighted", "density", "difference"])
    def test_each_density_is_its_one_point_sequence(self, name):
        pr = params(p=3, prec=10)
        got = densities(_per_level_distributions(pr)[name], self.XS, self.LEVELS)
        dist = _per_level_distributions(pr)[name]
        assert [seq.describe() for seq in got] == [
            radon_nikodym_derivative(dist, x, self.LEVELS).describe() for x in self.XS
        ]
        assert densities(dist, [], self.LEVELS) == []
        with pytest.raises(ValueError, match="nonnegative"):
            densities(dist, [1, -1], self.LEVELS)

    @pytest.mark.parametrize("name", ["haar", "difference"])
    def test_batched_values_are_the_single_values(self, name):
        pr = params(p=3, prec=10)
        reps = [(5, 3), (1, 1), (5, 3), (40, 4), (0, 2), (2, 1), (80, 4), (7, 2)]
        balls = [Ball(3, a, N) for a, N in reps]
        got = _per_level_distributions(pr)[name].values(balls)
        dist = _per_level_distributions(pr)[name]
        assert got == [dist.value(b) for b in balls] == [_direct_value(name, pr, b) for b in balls]


@st.composite
def _lipschitz_grids(draw):
    """(p, level, grid): values at the points below p^level that mix digit
    counts, bounded zeros, exact zeros and negative valuations.  The nonzero
    ones are a few nearby values, each cut to its own precision, so that a
    value known to few digits often agrees with two that differ."""
    p = draw(st.sampled_from((3, 5)))
    level = draw(st.integers(1, 3))
    near = st.builds(
        lambda v, u: PadicNumber(p, v, u, 4),
        st.integers(-1, 1),
        st.sampled_from((1, 1 + p, 1 + p**2, 2)),
    )
    pool = draw(st.lists(near, min_size=1, max_size=3))
    value = st.one_of(
        st.builds(PadicNumber.reduce_abs, st.sampled_from(pool), st.integers(1, 4)),
        st.just(PadicNumber.exact_zero(p)),
        st.builds(lambda a: PadicNumber.bounded_zero(p, a), st.integers(1, 3)),
    )
    return p, level, draw(st.lists(value, min_size=p**level, max_size=p**level))


@given(_lipschitz_grids())
@example((3, 1, [padic_from_integer(a, 3, d) for a, d in ((1, 1), (1, 3), (4, 3))]))
def test_exhaustive_lipschitz_is_the_all_pairs_sup(grid):
    # x = 0 is known to one digit: it agrees with both others, which differ
    # from each other at 3^1, so an anchor at x = 0 would see no difference
    p, level, values = grid
    n = p**level
    assert n * (n - 1) // 2 <= MAX_PAIRS
    f = values.__getitem__
    assert lipschitz_estimate(f, p, level) == lipschitz_fraction_loop(f, p, level, MAX_PAIRS)


class TestNoBallStore:
    """A distribution keeps its per-level tables and no ball values: reading
    many distinct balls of one level leaves its size where it was."""

    @pytest.mark.parametrize("name", ["haar", "density", "difference"])
    def test_distinct_balls_do_not_grow_the_distribution(self, name):
        pr = params(p=3, prec=10)
        haar, density = RhoQHaar(pr), DensityScaled(_density(3), pr)
        dist = {"haar": haar, "density": density, "difference": difference(haar, density)}[name]
        dist.rescaled(Ball(3, 0, 8))  # fills the level-8 tables
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for a in range(1, 1001):
                dist.rescaled(Ball(3, a, 8))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 32 * 1024, (name, grown)


def _zero_residue_grid(p: int, x: int) -> PadicNumber:
    # x and x + p^2 agree to the three known digits
    return padic_from_integer(x % p**2 + 1, p, 3)


def _mixed_precision_grid(p: int, x: int) -> PadicNumber:
    return padic_from_integer(x * x + x + 1, p, 2 + x % 5)


def _negative_valuation_grid(p: int, x: int) -> PadicNumber:
    # x = 0 gives the exact zero
    return padic_from_fraction(Fraction(x * (x + 2), p ** (x % 4)), p, 3 + x % 3)


class TestLipschitz:
    @pytest.mark.parametrize("grid", [_zero_residue_grid, _mixed_precision_grid, _negative_valuation_grid])
    @pytest.mark.parametrize(
        "p, level, seed, sampled",
        [(3, 3, 1, False), (5, 2, 1, False), (3, 4, 1, False), (7, 3, 1, True), (7, 3, 4, True)],
    )
    def test_matches_the_fraction_loop(self, grid, p, level, seed, sampled):
        n = p**level
        assert (n * (n - 1) // 2 > MAX_PAIRS) == sampled
        f = lambda x: grid(p, x)
        expected = lipschitz_fraction_loop(f, p, level, MAX_PAIRS, seed)
        assert lipschitz_estimate(f, p, level, seed=seed) == expected
        assert expected > 0

    def test_identity_function(self):
        f = lambda x: padic_from_integer(x, 5, 10)
        assert lipschitz_estimate(f, 5, 3) == 1

    def test_constant_function(self):
        c = padic_from_integer(7, 5, 10)
        assert lipschitz_estimate(lambda x: c, 5, 3) == 0

    def test_square_is_bounded_by_one(self):
        f = lambda x: padic_from_integer(x * x, 5, 12)
        assert lipschitz_estimate(f, 5, 3) <= 1

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lipschitz_estimate(lambda x: padic_from_integer(x, 5, 6), 5, 0)
