from fractions import Fraction

import pytest

from rhoq.padic import (
    DomainError,
    PadicNumber,
    PrecisionError,
    div,
    padic_from_integer,
    padic_log,
)

from .oracles import inv_mod, log_series_mod, rat_mod


class TestConstruction:
    def test_18_in_q3(self):
        x = padic_from_integer(18, 3, 6)
        assert x.val == 2
        assert x.unit == 2  # 18 = 2 * 3^2
        assert x.abs_precision == 6

    def test_zero_is_exact(self):
        z = padic_from_integer(0, 5, 4)
        assert z.is_exact_zero
        assert z.norm() == 0
        assert z.valuation == float("inf")

    def test_minus_one_mod_125(self):
        x = padic_from_integer(-1, 5, 3)
        assert x.val == 0
        assert x.unit == 124

    def test_rejects_bad_prime(self):
        for p in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                padic_from_integer(1, p, 3)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            padic_from_integer(1, 5, 0)

    def test_from_fraction(self):
        x = PadicNumber.from_fraction(Fraction(1, 2), 5, 3)
        assert x.unit == rat_mod(Fraction(1, 2), 5, 3)

    def test_canonical_idempotent(self):
        x = padic_from_integer(350, 5, 8)
        assert x.canonical() == x
        assert x.canonical().canonical() == x


class TestArithmetic:
    def test_div_inverse_of_two(self):
        # independent extended-Euclid oracle for 1/2 in Z_5 at 3 digits
        one = padic_from_integer(1, 5, 3)
        two = padic_from_integer(2, 5, 3)
        q = div(one, two)
        assert q.unit == inv_mod(2, 125)
        assert q.unit == 63
        assert 2 * 63 % 125 == 1

    def test_mul_identity(self):
        one = padic_from_integer(1, 7, 6)
        for n in (3, -11, 7, 49 * 5, 123456):
            x = padic_from_integer(n, 7, 6)
            assert (x * one).agrees(x)

    def test_div_p_by_p(self):
        p5 = padic_from_integer(5, 5, 4)
        q = div(p5, p5)
        assert q.val == 0
        assert q.unit == 1

    def test_prime_mismatch(self):
        with pytest.raises(DomainError):
            padic_from_integer(1, 5, 3) + padic_from_integer(1, 7, 3)

    def test_division_by_exact_zero(self):
        with pytest.raises(ZeroDivisionError):
            div(padic_from_integer(1, 5, 3), PadicNumber.exact_zero(5))

    def test_division_by_bounded_zero(self):
        with pytest.raises(PrecisionError):
            div(padic_from_integer(1, 5, 3), PadicNumber.bounded_zero(5, 3))

    def test_cancellation_gives_bounded_zero(self):
        x = padic_from_integer(7, 5, 4)
        d = x - padic_from_integer(7, 5, 4)
        assert d.is_zero_residue and not d.is_exact_zero
        assert d.abs_precision == 4

    def test_norm_of_p(self):
        x = padic_from_integer(5, 5, 4)
        assert x.norm() == Fraction(1, 5)
        assert x.valuation == 1

    def test_valuation_of_18_in_q3(self):
        assert padic_from_integer(18, 3, 6).valuation == 2

    def test_precision_propagation_on_division(self):
        # dividing by p^2*unit costs exactly 2 unit digits
        x = padic_from_integer(3, 5, 8)
        y = padic_from_integer(50, 5, 8)  # 2 * 5^2
        q = div(x, y)
        assert q.digits == y.digits == 6
        assert q.val == -2

    def test_pow_matches_repeated_mul(self):
        x = padic_from_integer(12, 5, 6)
        y = x * x * x
        assert (x**3).agrees(y)

    def test_reduce_abs(self):
        x = padic_from_integer(126, 5, 6)
        r = x.reduce_abs(3)
        assert r.abs_precision == 3
        assert r.unit == 1  # 126 ≡ 1 mod 125


def _z(n: int, p: int, abs_prec: int) -> PadicNumber:
    return PadicNumber.from_integer(n, p, abs_prec)


def _o(p: int, abs_prec: int) -> PadicNumber:
    return PadicNumber.bounded_zero(p, abs_prec)


_NEGATIVE = (PadicNumber(5, -2, 7, 4), PadicNumber(5, -2, 132, 4))


class TestAgrees:
    """x ≡ y modulo p^t, t the fewest known digits of x, y and abs_prec."""

    CASES = {
        "vacuous-at-abs-prec-0": (_z(1, 5, 3), _z(2, 5, 3), 0, True),
        "vacuous-at-negative-abs-prec": (_z(1, 5, 3), _z(2, 5, 3), -2, True),
        "two-exact-zeros": (PadicNumber.exact_zero(5), PadicNumber.exact_zero(5), None, True),
        "exact-zero-vs-unit": (PadicNumber.exact_zero(5), _z(1, 5, 3), None, False),
        "exact-zero-vs-bounded-zero": (PadicNumber.exact_zero(5), _o(5, 3), None, True),
        "bounded-zeros": (_o(5, 3), _o(5, 6), None, True),
        "bounded-zero-vs-deeper-value": (_o(5, 3), _z(125, 5, 6), None, True),
        "bounded-zero-vs-unit": (_o(5, 3), _z(1, 5, 6), None, False),
        # 5^-2 * 7 and 5^-2 * 132, both known mod 5^2, differ by 5^1
        "negative-valuations-differ": _NEGATIVE + (None, False),
        "negative-valuations-agree-below": _NEGATIVE + (1, True),
        "abs-prec-below-the-known-digits": (_z(1, 5, 3), _z(26, 5, 6), 1, True),
        "known-digits-differ": (_z(1, 5, 3), _z(26, 5, 6), None, False),
        "abs-prec-above-the-known-digits": (_z(1, 5, 3), _z(126, 5, 6), 10, True),
        # known to no digit (t = -1): true without forming the difference
        "no-digit-known-agrees-with-itself": (PadicNumber(3, -3, 1, 2),) * 2 + (None, True),
    }

    @pytest.mark.parametrize("case", CASES.keys())
    def test_table(self, case):
        x, y, abs_prec, expected = self.CASES[case]
        assert x.agrees(y, abs_prec) is expected
        assert y.agrees(x, abs_prec) is expected

    @pytest.mark.parametrize("abs_prec", [None, 0])
    def test_prime_mismatch_raises_even_when_vacuous(self, abs_prec):
        with pytest.raises(DomainError):
            _z(1, 3, 2).agrees(_z(1, 5, 2), abs_prec)


class TestRendering:
    def test_documented_sample(self):
        # digits least-significant first, zero digits written out
        n = 3 + 1 * 5 + 0 * 25 + 2 * 125
        x = padic_from_integer(n, 5, 4)
        assert x.digit_string() == "O(5^4): 3 + 1*5 + 0*5^2 + 2*5^3"

    def test_valuation_prefix(self):
        x = padic_from_integer(50, 5, 4)  # 2 * 5^2, abs prec 4 => 2 unit digits
        assert x.digit_string() == "O(5^4): 5^2 * (2 + 0*5)"

    def test_zeros(self):
        assert PadicNumber.exact_zero(5).digit_string() == "0"
        assert PadicNumber.bounded_zero(5, 3).digit_string() == "O(5^3): 0"


class TestLog:
    def test_log_one_is_exact_zero(self):
        one = padic_from_integer(1, 5, 6)
        assert padic_log(one).is_exact_zero

    def test_log_square_is_doubled(self):
        x = padic_from_integer(6, 5, 8)
        lhs = padic_log(x * x)
        rhs = padic_log(x) + padic_log(x)
        assert lhs.agrees(rhs)

    def test_log_series_oracle(self):
        # 60-term partial sum at doubled precision, reduced mod 5^4
        x = padic_from_integer(6, 5, 4)
        expected = log_series_mod(Fraction(6), 5, 60, 4)
        got = padic_log(x)
        assert got.residue(4) == expected

    def test_log_outside_disc(self):
        with pytest.raises(DomainError):
            padic_log(padic_from_integer(2, 5, 4))

    def test_log_homomorphism(self):
        x = padic_from_integer(1 + 5 * 3, 5, 9)
        y = padic_from_integer(1 + 5 * 7, 5, 9)
        assert padic_log(x * y).agrees(padic_log(x) + padic_log(y))
