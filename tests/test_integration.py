import random
from fractions import Fraction

import pytest

from rhoq import integration
from rhoq.calculus import RhoQParams, rhoq_power
from rhoq.integration import (
    WeightedDistribution,
    bernoulli_comparison_report,
    bracket_power,
    carlitz_bernoulli,
    const,
    coordinate,
    exponential,
    integral_against_weighted,
    linear_combination,
    lower,
    mahler_function,
    mixed_power,
    poly_in_bracket,
    poly_in_x,
    product,
    progression_sums,
    ratio_exponential,
    values,
    volkenborn_integral,
    weighted_measure_direct,
    weighted_measure_sequence,
)
from rhoq.measures import Ball, parameter_gap_exponent, rhoq_haar_measure
from rhoq.padic import DomainError, PadicNumber, padic_from_fraction, padic_from_integer

from .oracles import (
    bracket,
    function_value,
    progression_partial_sums,
    q_volkenborn_level,
    rat_mod,
    sum_x2,
    volkenborn_level,
)


def params(p=5, rho_k=1, q_k=2, prec=12):
    return RhoQParams.from_offsets(p, rho_k, q_k, prec)


FAMILIES = [
    const(3),
    coordinate(),
    poly_in_x([2, 0, 1]),
    bracket_power(2),
    poly_in_bracket([Fraction(1, 2), 1, 1]),
    ratio_exponential(),
    exponential(Fraction(6)),
    mixed_power(1, 2),
    mixed_power(-1, 1),
]


class TestEngine:
    @pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.describe())
    def test_engine_matches_pointwise_evaluation(self, f):
        # the running-state engine against the exact pointwise definition
        pr = params(prec=10)
        w = 10
        mod = 5**w
        for shift, step in ((0, 1), (3, 25), (7, 5)):
            sums, deficiency = progression_sums(f, pr, 2, shift, step, w)
            t = pr.ratio_residue(w)
            acc = 0
            for y in range(25):
                x = shift + step * y
                fx = function_value(f, pr.rho_base, pr.q_base, x)
                acc = (acc + rat_mod(fx, 5, w) * pow(t, x, mod)) % mod
            assert sums[2] % 5 ** (w - deficiency) == acc % 5 ** (w - deficiency)

    READERS = {
        "integral": lambda f, pr: volkenborn_integral(f, pr, [1, 2, 3]),
        "restriction-identity": lambda f, pr: weighted_measure_sequence(
            f, pr, Ball(5, 3, 1), [1, 2, 3]
        ),
        "direct-sums": lambda f, pr: weighted_measure_direct(f, pr, Ball(5, 3, 1), 3),
    }

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_level_sums_come_from_progression_sums_once(self, read, monkeypatch):
        """progression_sums is the one reader of a moment table: an integral
        and each path to a ball value read their sums in one call."""
        calls = []

        def counted(*args):
            calls.append(args)
            return progression_sums(*args)

        monkeypatch.setattr(integration, "progression_sums", counted)
        read(bracket_power(2), params(prec=10))
        assert len(calls) == 1

    def test_mahler_family_engine(self):
        pr = params(prec=10)
        coeffs = [padic_from_integer(c, 5, 14) for c in (2, 7, 1, 3)]
        f = mahler_function(coeffs)
        w = 10
        sums, deficiency = progression_sums(f, pr, 2, 0, 1, w)
        mod = 5 ** (w - deficiency)
        t = pr.ratio_residue(w)
        acc = 0
        for x in range(25):
            fx = function_value(f, pr.rho_base, pr.q_base, x)
            acc = (acc + rat_mod(fx, 5, w) * pow(t, x, 5**w)) % 5**w
        assert sums[2] % mod == acc % mod

    def test_product_family(self):
        pr = params(prec=10)
        f = product(coordinate(), ratio_exponential())
        xs = (0, 1, 7)
        for x, direct in zip(xs, values(f, pr, xs, 10)):
            expected = padic_from_integer(x, 5, 10) * rhoq_power(
                pr.q / pr.rho, x, 10
            )
            assert direct.agrees(expected, 9)
            assert direct.residue(9) == rat_mod(function_value(f, pr.rho_base, pr.q_base, x), 5, 9)


class TestGuardDigits:
    """`lower` reads nu(rho' - q') at parameters lifted by n off the bases and
    the shared tower; the residues must see the same gap."""

    PAIRS = {
        "nu=1": (1, Fraction(6), Fraction(11)),
        "nu=2": (2, Fraction(6, 11), Fraction(6, 11) + 25),
        "nu=3": (3, Fraction(26, 31), Fraction(26, 31) - 250),
    }

    @pytest.mark.parametrize("nu,rho,q", PAIRS.values(), ids=PAIRS.keys())
    def test_bracket_guard_is_k_times_the_lifted_gap(self, nu, rho, q):
        pr = RhoQParams.from_units(5, rho, q, 10)
        w = 8
        for n in range(4):
            gap = parameter_gap_exponent(pr, n, w + 10)
            assert gap == parameter_gap_exponent(pr.lifted(n), 0, w + 10) == nu + n
            for k in range(4):
                assert lower(bracket_power(k), pr.lifted(n), w).W - w == k * gap

    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(6, 11)], ids=["classical", "symmetric"])
    def test_no_guard_at_rho_equal_q(self, rho):
        pr = RhoQParams.from_units(5, rho, rho, 10)
        for n in range(4):
            assert lower(bracket_power(3), pr.lifted(n), 8).W == 8


class TestConstantFunction:
    def test_integral_of_one_is_rho_at_every_level(self):
        for p in (3, 5, 7):
            pr = RhoQParams.from_offsets(p, 1, 2, 12)
            seq = volkenborn_integral(const(1), pr, range(1, 6))
            rho = PadicNumber(p, 0, pr.rho_residue(10), 10)
            for _, a_n in seq.terms:
                assert a_n.agrees(rho, 10)

    @pytest.mark.parametrize(
        "regime", [(1, 2), (0, 0), (3, 3)], ids=["deformed", "classical", "rho=q"]
    )
    def test_integral_of_one_fifth_is_rho_over_five_at_every_level(self, regime):
        pr = RhoQParams.from_offsets(5, *regime, 12)
        want = padic_from_fraction(pr.rho_base / 5, 5, 12)
        seq = volkenborn_integral(const(Fraction(1, 5)), pr, range(1, 6))
        for _, a_n in seq.terms:
            assert a_n.valuation == -1 and a_n.agrees(want, 12)

    def test_a_level_sum_with_p_in_its_denominator_is_refused(self):
        # sum of x^4/5 over x < 5 has valuation -1; over x < 25 it is in Z_5
        pr = params()
        f = poly_in_x([0, 0, 0, 0, Fraction(1, 5)])
        sums, _ = progression_sums(f, pr, 2, 0, 1, 10)
        exact = progression_partial_sums(lambda x: Fraction(x**4, 5), 6, 11, 0, 1, [1, 5, 25])
        assert sums == [0, None, rat_mod(exact[2], 5, 10)]
        with pytest.raises(DomainError, match="level sum with negative valuation"):
            volkenborn_integral(f, pr, range(1, 4))
        levels = [2, 3]
        values_at = [Fraction(x**4, 5) for x in range(5**3)]
        for N, (_, a_n) in zip(levels, volkenborn_integral(f, pr, levels).terms):
            want = volkenborn_level(values_at, Fraction(6), Fraction(11), 5, N)
            assert a_n.agrees(padic_from_fraction(want, 5, 12), 12)

    def test_zero_cauchy_rates(self):
        seq = volkenborn_integral(const(1), params(), range(1, 6))
        assert all(r == 0 for r in seq.cauchy_rates)
        assert seq.converged and seq.method == "constant"

    def test_geometric_sum_identity_exact(self):
        # the rational identity behind the constant-function closed form
        from .oracles import bracket

        rho, q = Fraction(6), Fraction(11)
        for N in (1, 2, 3):
            s = sum((q / rho) ** x for x in range(5**N))
            assert s == rho ** (1 - 5**N) * bracket(5**N, rho, q)


class TestClassicalDegeneration:
    def test_level_sums_of_x(self):
        # (p^N - 1)/2 exactly, and ≡ -1/2 mod p^N
        pr = RhoQParams.classical(5, 12)
        seq = volkenborn_integral(coordinate(), pr, range(1, 7))
        for N, a_n in seq.terms:
            exact = Fraction(5**N - 1, 2)
            assert a_n.residue(12) == rat_mod(exact, 5, 12)
            assert rat_mod(exact - Fraction(-1, 2), 5, N) == 0

    def test_declared_limit_is_minus_half(self):
        pr = RhoQParams.classical(5, 12)
        seq = volkenborn_integral(coordinate(), pr, range(1, 7), target_exponent=10)
        assert seq.converged
        assert seq.declared_limit.agrees(padic_from_fraction(Fraction(-1, 2), 5, 12), 10)

    def test_second_power_limit_is_sixth(self):
        pr = RhoQParams.classical(5, 12)
        f = poly_in_x([0, 0, 1])
        seq = volkenborn_integral(f, pr, range(1, 7), target_exponent=7)
        # Faulhaber oracle for the level terms
        for N, a_n in seq.terms:
            exact = sum_x2(5**N) / 5**N
            assert a_n.residue(10) == rat_mod(exact, 5, 10)
        assert seq.converged
        assert seq.declared_limit.agrees(padic_from_fraction(Fraction(1, 6), 5, 12), 7)

    def test_q_only_degeneration_oracle(self):
        # rho = 1: independently coded one-parameter q-summation oracle
        q = Fraction(11)
        pr = RhoQParams.from_units(5, 1, q, 12)
        for f, values in (
            (coordinate(), [Fraction(x) for x in range(5**3)]),
            (poly_in_x([1, 2]), [1 + 2 * Fraction(x) for x in range(5**3)]),
        ):
            seq = volkenborn_integral(f, pr, range(1, 4))
            for N, a_n in seq.terms:
                expected = q_volkenborn_level(values, q, 5, N)
                assert a_n.residue(9) == rat_mod(expected, 5, 9)

    def test_exact_rational_oracle_deformed(self):
        # full two-parameter level values against big-rational arithmetic
        pr = params(prec=10)
        rho, q = Fraction(6), Fraction(11)
        f = bracket_power(1)
        seq = volkenborn_integral(f, pr, range(1, 4))
        for N, a_n in seq.terms:
            values = []
            for x in range(5**N):
                values.append((rho**x - q**x) / (rho - q) if x else Fraction(0))
            expected = volkenborn_level(values, rho, q, 5, N)
            assert a_n.residue(8) == rat_mod(expected, 5, 8)


class TestLinearity:
    def test_linear_in_f_at_fixed_level(self):
        pr = params(prec=12)
        f = bracket_power(1)
        g = bracket_power(2)
        alpha, beta = 3, -2
        combo = poly_in_bracket([0, alpha, beta])
        s_combo = volkenborn_integral(combo, pr, range(1, 4))
        s_f = volkenborn_integral(f, pr, range(1, 4))
        s_g = volkenborn_integral(g, pr, range(1, 4))
        a = padic_from_integer(alpha, 5, 14)
        b = padic_from_integer(beta, 5, 14)
        for (_, t_c), (_, t_f), (_, t_g) in zip(s_combo.terms, s_f.terms, s_g.terms):
            assert t_c.agrees(a * t_f + b * t_g)


class TestWeightedMeasure:
    def test_weight_one_recovers_base_distribution(self):
        pr = params(prec=12)
        for ball in (Ball(5, 0, 1), Ball(5, 3, 2), Ball(5, 17, 3)):
            seq = weighted_measure_sequence(const(1), pr, ball, range(1, 5))
            base = rhoq_haar_measure(ball, pr, 10)
            for _, term in seq.terms:
                assert term.agrees(base, 8)

    def test_two_paths_cross_validate(self):
        pr = params(prec=12)
        rng = random.Random(7)
        fs = [const(1), coordinate(), bracket_power(1), ratio_exponential()]
        for _ in range(6):
            n = rng.randint(1, 3)
            a = rng.randrange(5**n)
            ball = Ball(5, a, n)
            depth = 3 if n >= 3 else 4
            for f in fs:
                lifted = weighted_measure_sequence(f, pr, ball, range(1, depth + 1))
                direct = weighted_measure_direct(f, pr, ball, depth)
                for (m1, t1), (m2, t2) in zip(lifted.terms, direct.terms):
                    assert m1 == m2
                    assert t1.agrees(t2)

    def test_restriction_consistency(self):
        # summing ball values over a full residue system recovers the integral
        pr = params(prec=12)
        N = 2
        inner = 3
        total_terms = None
        for a in range(5**N):
            seq = weighted_measure_sequence(coordinate(), pr, Ball(5, a, N), [inner])
            v = seq.terms[0][1]
            total_terms = v if total_terms is None else total_terms + v
        integral = volkenborn_integral(coordinate(), pr, [N + inner])
        assert total_terms.agrees(integral.terms[0][1])

    def test_linearity_on_balls(self):
        pr = params(prec=12)
        rho, q = Fraction(6), Fraction(11)
        f, g = coordinate(), bracket_power(1)
        alpha, beta = 2, 3
        combo = linear_combination([alpha, beta], [f, g])
        rng = random.Random(3)
        for _ in range(4):
            n = rng.randint(1, 2)
            ball = Ball(5, rng.randrange(5**n), n)
            lv = range(1, 4)
            lhs = weighted_measure_sequence(combo, pr, ball, lv).terms
            rf = weighted_measure_sequence(f, pr, ball, lv).terms
            rg = weighted_measure_sequence(g, pr, ball, lv).terms
            a = padic_from_integer(alpha, 5, 16)
            b = padic_from_integer(beta, 5, 16)
            for (_, tc), (_, tf), (_, tg) in zip(lhs, rf, rg):
                assert tc.agrees(a * tf + b * tg)
            # the combination's level sums against exact sums, not the normal form
            w = 10
            sums, deficiency = progression_sums(combo, pr, 3, ball.rep, 5**n, w)
            exact = progression_partial_sums(
                lambda x: alpha * x + beta * bracket(x, rho, q),
                rho, q, ball.rep, 5**n, [5**m for m in range(4)],
            )
            assert deficiency == 0
            assert sums == [rat_mod(e, 5, w) for e in exact]

    def test_norm_bound(self):
        # |weighted value| <= ||f||_1 * |(q/rho)^a| * |1/[p^n]| = p^n here
        pr = params(prec=12)
        rng = random.Random(11)
        for f in (const(1), coordinate(), bracket_power(1), ratio_exponential()):
            for _ in range(5):
                n = rng.randint(1, 3)
                ball = Ball(5, rng.randrange(5**n), n)
                v = weighted_measure_sequence(f, pr, ball, range(1, 4)).limit_estimate()
                assert v.norm() <= Fraction(5**n)

    def test_sup_norm_bound_with_single_fitted_constant(self):
        # |value(ball)| <= M ||f||_inf: fit M on half the balls, hold it fixed
        from rhoq.mahler import sup_norm_grid
        from rhoq.sequences import gap_norm

        pr = params(prec=12)
        rng = random.Random(13)
        balls = []
        for _ in range(12):
            n = rng.randint(1, 3)
            balls.append(Ball(5, rng.randrange(5**n), n))
        for f in (coordinate(), bracket_power(1), ratio_exponential()):
            sup = sup_norm_grid(f, pr, 3)
            ratios = []
            for ball in balls:
                v = weighted_measure_sequence(f, pr, ball, range(1, 4)).limit_estimate()
                ratios.append(gap_norm(v) / sup)
            fitted_m = max(ratios[:6])
            assert all(r <= fitted_m for r in ratios[6:]), f.describe()


class TestBernoulli:
    def test_constant_weight_gives_rho(self):
        pr = params(prec=12)
        seq = carlitz_bernoulli(0, 0, pr, range(1, 5))
        rho = PadicNumber(5, 0, pr.rho_residue(10), 10)
        for _, t in seq.terms:
            assert t.agrees(rho, 9)
        assert all(r == 0 for r in seq.cauchy_rates)

    def test_classical_first_bernoulli(self):
        pr = RhoQParams.classical(5, 12)
        seq = carlitz_bernoulli(1, 0, pr, range(1, 7), target_exponent=9)
        assert seq.converged
        assert seq.declared_limit.agrees(padic_from_fraction(Fraction(-1, 2), 5, 12), 9)

    def test_comparison_report_shape(self):
        pr = params(prec=12)
        rep = bernoulli_comparison_report(0, pr, range(1, 5))
        assert rep["printed_formula"] == "a*log(rho)/log(rho*q)"
        assert rep["measured_limit"] is not None
        # at a = 0 the printed formula gives 0 while the measured value is rho
        assert rep["agreement"] is False

    def test_lifted_two_index_family(self):
        pr = params(prec=12)
        seq = carlitz_bernoulli(1, 2, pr.lifted(1), range(1, 4))
        assert len(seq.terms) == 3


class TestIntegralIdentity:
    def test_classical_ratio_is_one(self):
        pr = RhoQParams.classical(5, 12)
        weighted = WeightedDistribution(bracket_power(1), pr)
        [[comp]] = integral_against_weighted([const(1)], [weighted], range(1, 4))
        assert comp.fitted_ratio is not None
        one = padic_from_integer(1, 5, 12)
        assert comp.fitted_ratio.agrees(one, 3)

    def test_ratio_independent_of_g(self):
        pr = params(prec=12)
        weight = bracket_power(1)
        shared = WeightedDistribution(weight, pr)
        gs = (const(1), coordinate(), ratio_exponential())
        ratios = []
        for [comp] in integral_against_weighted(gs, [shared], range(1, 4)):
            if comp.fitted_ratio is not None:
                ratios.append(comp.fitted_ratio)
        assert len(ratios) >= 2
        for r in ratios[1:]:
            assert r.agrees(ratios[0], 3)

    def test_levels_below_one_are_refused(self):
        weighted = WeightedDistribution(bracket_power(1), params(prec=12))
        for outer in ([], [0, 1, 2]):
            with pytest.raises(ValueError, match="levels must be >= 1"):
                integral_against_weighted([const(1)], [weighted], outer)
