"""`values`, the point values read off the normal form, against the exact
Fraction oracle over every tag and three regimes, points of high
valuation included; its precision rule; and its two zeros."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhoq.calculus import RhoQParams
from rhoq.integration import (
    bracket_power,
    const,
    coordinate,
    exponential,
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
)
from rhoq.padic import DomainError, PadicNumber, PrecisionError

from .oracles import function_value, rat_vp


@st.composite
def parameters(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    regime = draw(st.sampled_from(["classical", "symmetric", "deformed"]))
    if regime == "classical":
        return p, Fraction(1), Fraction(1)
    rho = Fraction(1 + p * draw(st.integers(1, 40)), draw(st.sampled_from([1, 1 + p, 1 - p])))
    if regime == "symmetric":
        return p, rho, rho
    unit = draw(st.integers(1, 60).filter(lambda u: u % p))
    return p, rho, rho + p ** draw(st.integers(1, 3)) * unit


def rationals(p):
    """Coefficients, p in the denominator included, and 0 about half the time
    (series with interior zeros)."""
    return st.just(Fraction(0)) | st.builds(
        Fraction, st.integers(-30, 30), st.sampled_from([1, 2, p, p * p])
    )


@st.composite
def integrands(draw, p, depth=1):
    kind = draw(st.sampled_from(
        ["poly_x", "poly_bracket", "ratio", "exp", "mixed", "mahler"]
        + (["product", "sum"] if depth else [])
    ))
    if kind == "poly_x":
        return poly_in_x(draw(st.lists(rationals(p), min_size=1, max_size=4)))
    if kind == "poly_bracket":
        return poly_in_bracket(draw(st.lists(rationals(p), min_size=1, max_size=4)))
    if kind == "ratio":
        return ratio_exponential()
    if kind == "exp":
        return exponential(1 + p * draw(st.integers(-20, 20)))
    if kind == "mixed":
        return mixed_power(draw(st.integers(-2, 2)), draw(st.integers(0, 3)))
    if kind == "mahler":
        # p-adic coefficients, some known to few digits, some of negative
        # valuation, both kinds of zero, and rationals (0 among them)
        coeffs = draw(st.lists(
            st.builds(
                lambda c, v, k: PadicNumber.from_fraction(Fraction(c) * Fraction(p) ** v, p, k + v),
                st.integers(1, p**6), st.integers(-1, 2), st.integers(2, 16),
            )
            | st.just(PadicNumber.exact_zero(p))
            | st.builds(PadicNumber.bounded_zero, st.just(p), st.integers(1, 16))
            | rationals(p),
            max_size=4,
        ))
        return mahler_function(coeffs)
    parts = draw(st.lists(integrands(p, 0), min_size=1, max_size=3))
    if kind == "product":
        return product(*parts)
    weights = draw(st.lists(rationals(p), min_size=len(parts), max_size=len(parts)))
    return linear_combination(weights, parts)


def agree_to(value: PadicNumber, exact: Fraction, p: int, k: int) -> bool:
    """value = exact mod p^k, from value's digits and exact's rational."""
    mine = Fraction(value.unit) * Fraction(p) ** value.val if value.unit else Fraction(0)
    return mine == exact or rat_vp(exact - mine, p) >= k


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_values_match_the_exact_definition(data):
    p, rho, q = data.draw(parameters())
    f = data.draw(integrands(p))
    digits = data.draw(st.integers(2, 14))
    small = st.integers(0, 3 * p)
    deep = st.builds(lambda k, a: p**k + a, st.integers(1, 3), st.integers(0, 1))
    xs = data.draw(st.lists(small | deep, min_size=1, max_size=5))
    params = RhoQParams.from_units(p, rho, q, digits)
    nf = lower(f, params, digits)
    known = digits - nf.deficiency
    if nf.terms and known < 1:
        with pytest.raises(PrecisionError):
            values(f, params, xs, digits)
        return
    for x, value in zip(xs, values(f, params, xs, digits), strict=True):
        exact = function_value(f, rho, q, x)
        if not nf.terms:  # built from no terms at all
            assert value.is_exact_zero and exact == 0
            continue
        assert value.abs_precision == known, (f.describe(), x)
        assert agree_to(value, exact, p, known), (f.describe(), x, value.digit_string(), exact)


class TestPrecisionRule:
    def test_known_digits_are_digits_minus_the_deficiency(self):
        pr = RhoQParams.from_offsets(5, 1, 2, 12)
        coeffs = [PadicNumber.from_integer(c, 5, k) for c, k in ((3, 12), (7, 8), (2, 5))]
        f = mahler_function(coeffs)
        assert lower(f, pr, 12).deficiency == 7
        assert {v.abs_precision for v in values(f, pr, range(10), 12)} == {5}

    def test_bracket_family_gets_no_extra_digit(self):
        # [x] is read at the requested digits, like every other family
        pr = RhoQParams.from_offsets(5, 1, 2, 12)
        for f in (bracket_power(1), bracket_power(2), mixed_power(1, 2), coordinate()):
            assert {v.abs_precision for v in values(f, pr, (1, 5, 25), 10)} == {10}

    def test_a_denominator_of_p_is_a_negative_valuation(self):
        pr = RhoQParams.from_offsets(5, 1, 2, 12)
        [v] = values(const(Fraction(1, 5)), pr, [3], 12)
        assert (v.val, v.abs_precision) == (-1, 12)
        assert agree_to(v, Fraction(1, 5), 5, 12)


class TestZeros:
    PR = RhoQParams.from_offsets(5, 1, 2, 12)

    @pytest.mark.parametrize(
        "f",
        [coordinate(), bracket_power(2), mixed_power(1, 1), const(0), poly_in_x([0, 5**20]),
         linear_combination([1, -1], [coordinate(), coordinate()]),
         mahler_function([PadicNumber.bounded_zero(5, 4)])],
        ids=lambda f: f.describe(),
    )
    def test_a_zero_residue_is_the_bounded_zero(self, f):
        known = 12 - lower(f, self.PR, 12).deficiency
        for v in values(f, self.PR, (0, 5**12, 5**13), 12):
            assert v.is_zero_residue and not v.is_exact_zero
            assert v.abs_precision == known

    @pytest.mark.parametrize(
        "f",
        [mahler_function(()), linear_combination([], []),
         product(coordinate(), mahler_function(()))],
        ids=["empty series", "empty sum", "times an empty series"],
    )
    def test_only_a_form_with_no_terms_is_the_exact_zero(self, f):
        assert lower(f, self.PR, 12).terms == ()
        assert all(v.is_exact_zero for v in values(f, self.PR, (0, 3, 25), 12))

    def test_a_vanishing_form_sums_to_bounded_zeros(self):
        sums, _ = progression_sums(const(0), self.PR, 2, 0, 1, 12)
        assert sums == [0, 0, 0]


class TestErrors:
    """The same errors as the level sums, which read the same form."""

    def test_digit_string_parameters(self):
        pr = RhoQParams.from_residues(5, 6, 11, 8)
        with pytest.raises(PrecisionError, match="only known to 8 digits; 10 requested"):
            values(bracket_power(1), pr, [3], 10)
        with pytest.raises(PrecisionError, match="only known to 8 digits; 10 requested"):
            progression_sums(bracket_power(1), pr, 1, 0, 1, 10)
        assert len(values(bracket_power(1), pr, [3], 8)) == 1
        assert values(poly_in_x([1, 2]), pr, [3], 10)[0].abs_precision == 10

    @pytest.mark.parametrize("base", [2, Fraction(1, 5), Fraction(6, 5)])
    def test_base_outside_the_disc(self, base):
        pr = RhoQParams.from_offsets(5, 1, 2, 12)
        with pytest.raises(DomainError, match="base in 1 \\+ pZ_p"):
            values(exponential(base), pr, [3], 12)
