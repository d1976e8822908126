import tracemalloc
from fractions import Fraction

import pytest

from rhoq.calculus import RhoQParams, binomial_triangle, rhoq_binomial, vp_factorial
from rhoq.integration import (
    bracket_power,
    const,
    coordinate,
    mixed_power,
    poly_in_x,
    ratio_exponential,
    values,
)
from rhoq.mahler import (
    MAX_ORDER,
    MahlerSeries,
    difference_quotient_norm_grid,
    lipschitz_norm_grid,
    mahler_coefficients,
    sup_norm_grid,
    truncation_polynomial,
)
from rhoq.padic import PrecisionError

from .oracles import (
    finite_differences,
    gauss_binomial_pascal,
    mahler_forward_substitution,
    rat_mod,
)


def params(p=5, rho_k=1, q_k=2, prec=12):
    return RhoQParams.from_offsets(p, rho_k, q_k, prec)


class TestBasis:
    def test_triangularity(self):
        pr = params(prec=10)
        for i in list(range(0, 25)) + [40, 64]:
            assert rhoq_binomial(i, i, pr).residue(8) == 1
            if i:
                assert rhoq_binomial(i - 1, i, pr).is_exact_zero

    def test_first_basis_element_is_bracket(self):
        pr = params(prec=10)
        from rhoq.calculus import rhoq_integer

        for x in (1, 4, 11):
            assert rhoq_binomial(x, 1, pr).agrees(rhoq_integer(x, pr))


def _same(a, b):
    return (a.val, a.unit, a.digits) == (b.val, b.unit, b.digits)


REGIMES = {
    "deformed": lambda p, prec: RhoQParams.from_offsets(p, 1, 2, prec),
    "classical": lambda p, prec: RhoQParams.classical(p, prec),
    "symmetric": lambda p, prec: RhoQParams.from_offsets(p, 3, 3, prec),
    "rational": lambda p, prec: RhoQParams.from_units(p, Fraction(1 + p, 1 + 2 * p), 1 + p * p, prec),
}


class TestPascalTriangle:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("regime", ["deformed", "classical", "symmetric"])
    def test_matches_falling_product(self, p, regime):
        # valuation, unit and digit count of every entry, orders 0..24
        pr = REGIMES[regime](p, 12)
        want = [[rhoq_binomial(n, k, pr, 9) for k in range(n + 1)] for n in range(25)]
        for order in range(25):
            rows = binomial_triangle(order, pr, 9)
            assert len(rows) == order + 1
            for n, row in enumerate(rows):
                assert len(row) == n + 1
                assert all(_same(a, b) for a, b in zip(row, want[n])), (order, n)

    @pytest.mark.parametrize("digits", [None, 1, 4, 20])
    def test_matches_at_every_precision(self, digits):
        pr = REGIMES["rational"](5, 12)
        rows = binomial_triangle(24, pr, digits)
        for n, row in enumerate(rows):
            for k, entry in enumerate(row):
                assert _same(entry, rhoq_binomial(n, k, pr, digits))

    def test_capped_parameters(self):
        # digit-string parameters cap the head-room; an entry whose falling
        # product has a factor lost at the cap is left to rhoq_binomial
        for known in (2, 3, 12):
            pr = RhoQParams.from_residues(3, 4, 7, known)
            rows = binomial_triangle(30, pr, known + 5)
            gaps = 0
            for n, row in enumerate(rows):
                for k, entry in enumerate(row):
                    if entry is None:
                        gaps += 1
                        continue
                    assert _same(entry, rhoq_binomial(n, k, pr, known + 5))
            assert (gaps > 0) == (known <= 3)

    def test_exact_rational_oracle(self):
        # rho = 1: q-binomials from the one-parameter Pascal recurrence
        pr = RhoQParams.from_units(7, 1, 8, 10)
        rows = binomial_triangle(12, pr, 8)
        for n, row in enumerate(rows):
            for k, entry in enumerate(row):
                want = rat_mod(gauss_binomial_pascal(n, k, Fraction(8)), 7, 8)
                assert entry.residue(8) == want


class TestForwardSubstitutionOracle:
    @pytest.mark.parametrize("regime", ["deformed", "classical", "symmetric", "rational"])
    @pytest.mark.parametrize(
        "f",
        # [x] and x^2 reach exact-zero and zero-residue coefficients, 1/5 and
        # 3/25 negative valuations at p = 5
        [const(0), const(7), coordinate(), poly_in_x([1, 0, 0, 2]), bracket_power(2),
         ratio_exponential(), mixed_power(1, 2), bracket_power(1),
         poly_in_x([0, 0, 1], label="x^2"), const(Fraction(1, 5)), const(Fraction(3, 25))],
        ids=lambda f: f.describe(),
    )
    def test_digit_for_digit(self, regime, f):
        for p, order, prec in ((3, 20, 10), (5, 18, 12), (7, 9, 6), (5, 12, 1), (7, 24, 12)):
            pr = REGIMES[regime](p, prec)
            series = mahler_coefficients(f, order, pr)
            w = prec + vp_factorial(order, p) + 2
            f_values = values(f, pr, range(order + 1), w)
            want = mahler_forward_substitution(f_values, lambda i, n: rhoq_binomial(i, n, pr, w))
            assert len(series.coefficients) == len(want)
            assert all(map(_same, series.coefficients, want)), (p, order, prec)

    @pytest.mark.parametrize(
        "f", [const(0), const(7), coordinate(), poly_in_x([0, 1, 1])], ids=lambda f: f.describe()
    )
    def test_capped_parameters(self, f):
        # entries the triangle leaves to rhoq_binomial are used as before:
        # the same coefficients, or the same error where a factor is lost;
        # at p = 3 a solve through such entries succeeds at known digits 1
        # (order 3 on) and 2 (order 9 on)
        def outcome(solve):
            try:
                return [(c.val, c.unit, c.digits) for c in solve()]
            except PrecisionError as exc:
                return str(exc)

        for p, rho, q in ((3, 4, 7), (5, 6, 11)):
            for known in (1, 2, 3, 4, 12):
                pr = RhoQParams.from_residues(p, rho, q, known)
                for order in (p, p + 1, p * p, 30):
                    w = known + vp_factorial(order, p) + 2
                    f_values = values(f, pr, range(order + 1), w)
                    got = outcome(lambda: mahler_coefficients(f, order, pr).coefficients)
                    want = outcome(
                        lambda: mahler_forward_substitution(
                            f_values, lambda i, n: rhoq_binomial(i, n, pr, w)
                        )
                    )
                    assert got == want, (p, known, order)


class TestCoefficients:
    def test_solve_keeps_one_row(self):
        # the triangle is read row by row and no number is made per product:
        # an order-300 solve peaks under 1 MB of traced memory, where the
        # whole O(M^2) triangle held as numbers takes about 6 MB
        pr = params(p=5, prec=12)
        tracemalloc.start()
        try:
            mahler_coefficients(ratio_exponential(), 300, pr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_order_past_the_limit_is_refused(self):
        with pytest.raises(ValueError, match="order must be <= %d" % MAX_ORDER):
            mahler_coefficients(coordinate(), MAX_ORDER + 1, params())

    def test_bracket_is_basis_vector(self):
        pr = params(prec=12)
        series = mahler_coefficients(bracket_power(1), 6, pr)
        norms = series.norms()
        assert norms[0] == 0
        assert series.coefficients[1].residue(8) == 1
        assert all(n == 0 for n in norms[2:])

    def test_constant(self):
        pr = params(prec=12)
        series = mahler_coefficients(const(7), 5, pr)
        assert series.coefficients[0].residue(10) == 7
        assert all(n == 0 for n in series.norms()[1:])

    def test_classical_square(self):
        pr = RhoQParams.classical(5, 12)
        series = mahler_coefficients(poly_in_x([0, 0, 1]), 6, pr)
        got = [c.residue(8) if not c.is_zero_residue else 0 for c in series.coefficients]
        assert got[:3] == [0, 1, 2]  # x^2 = C(x,1) + 2 C(x,2)
        assert all(g == 0 for g in got[3:])
        assert series.basis == "classical"

    def test_finite_difference_oracle_all_polynomials(self):
        pr = RhoQParams.classical(5, 14)
        for coeffs in ([1, 2], [0, 0, 1], [3, 0, 0, 1], [1, 1, 1, 1, 1, 1, 1]):
            f = poly_in_x(coeffs)
            order = 8
            series = mahler_coefficients(f, order, pr)
            values = [sum(Fraction(c) * x**i for i, c in enumerate(coeffs)) for x in range(order + 1)]
            expected = finite_differences(values)
            for c, e in zip(series.coefficients, expected):
                if c.is_zero_residue:
                    assert rat_mod(e, 5, 10) == 0
                else:
                    assert c.residue(10) == rat_mod(e, 5, 10)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "f",
        [const(2), coordinate(), bracket_power(2), ratio_exponential(), mixed_power(1, 1)],
        ids=lambda f: f.describe(),
    )
    def test_solve_then_evaluate(self, f):
        pr = params(prec=12)
        order = 10
        series = mahler_coefficients(f, order, pr)
        head = truncation_polynomial(series, series.order)
        xs = range(order + 1)
        for got, want in zip(values(head, pr, xs, 12), values(f, pr, xs, 12), strict=True):
            assert got.agrees(want, 10)

    def test_empty_series_evaluates_to_zero(self):
        pr = params()
        series = MahlerSeries(pr, [])
        assert values(truncation_polynomial(series, series.order), pr, [3], 12)[0].is_exact_zero


class TestTruncation:
    def test_order_zero_is_constant(self):
        pr = params(prec=12)
        f = ratio_exponential()
        series = mahler_coefficients(f, 6, pr)
        f_0 = truncation_polynomial(series, 0)
        [v0] = values(f, pr, [0], 12)
        for v in values(f_0, pr, (0, 2, 9), 12):
            assert v.agrees(v0, 10)

    def test_truncation_error_bounded_by_tail(self):
        # sup |f - f_m| on the grid <= sup of the dropped coefficient norms
        pr = params(prec=12)
        f = ratio_exponential()
        order = 14
        series = mahler_coefficients(f, order, pr)
        for m in (4, 8, 11):
            f_m = truncation_polynomial(series, m)
            tail = series.tail_norm(m + 1)
            worst = Fraction(0)
            grid = range(5**3)
            for fx, fx_m in zip(values(f, pr, grid, 12), values(f_m, pr, grid, 12), strict=True):
                from rhoq.sequences import gap_norm

                worst = max(worst, gap_norm(fx - fx_m))
            assert worst <= tail

    def test_tail_can_be_pushed_below_tolerance(self):
        pr = params(prec=12)
        series = mahler_coefficients(ratio_exponential(), 16, pr)
        m = next(m for m in range(17) if series.tail_norm(m) <= Fraction(1, 5**3))
        f_m = truncation_polynomial(series, min(m, series.order))
        f = ratio_exponential()
        from rhoq.sequences import gap_norm

        grid = range(5**3)
        worst = max(
            gap_norm(fx - fx_m)
            for fx, fx_m in zip(values(f, pr, grid, 12), values(f_m, pr, grid, 12), strict=True)
        )
        assert worst <= Fraction(1, 5**3)


class TestDecay:
    @pytest.mark.parametrize(
        "f", [ratio_exponential(), mixed_power(1, 1)], ids=lambda f: f.describe()
    )
    def test_continuous_families_decay(self, f):
        pr = params(prec=14)
        series = mahler_coefficients(f, 20, pr)
        norms = series.norms()
        for n in range(10, 21):
            assert norms[n] <= Fraction(1, 5 ** (n // 5))


class TestGridNorms:
    def test_sup_norm_of_identity(self):
        pr = params(prec=10)
        assert sup_norm_grid(coordinate(), pr, 2) == 1

    def test_difference_quotient_of_identity(self):
        pr = params(prec=10)
        assert difference_quotient_norm_grid(coordinate(), pr, 2) == 1

    def test_lipschitz_norm_is_join(self):
        pr = params(prec=10)
        f = const(Fraction(1, 5))  # sup norm 5, difference quotient 0
        assert lipschitz_norm_grid(f, pr, 1) == 5
