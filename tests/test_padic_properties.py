"""Algebraic laws of the finite-precision arithmetic, property-based."""

import dataclasses
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from rhoq.padic import DomainError, PadicNumber, PrecisionError, div, dot, padic_from_integer
from rhoq.sequences import ApproximantSequence

PRIMES = (3, 5, 7)


def _one_padic(draw, st_, p):
    # keep v + digits comfortably positive so sums/products stay representable
    digits = draw(st_.integers(min_value=5, max_value=9))
    v = draw(st_.integers(min_value=-1, max_value=3))
    unit = draw(
        st_.integers(min_value=1, max_value=p**digits - 1).filter(lambda u: u % p)
    )
    return PadicNumber(p, v, unit, digits)


@st.composite
def padic_numbers(draw):
    p = draw(st.sampled_from(PRIMES))
    return _one_padic(draw, st, p)


@st.composite
def padic_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return _one_padic(draw, st, p), _one_padic(draw, st, p)


@st.composite
def padic_triples(draw):
    p = draw(st.sampled_from(PRIMES))
    return _one_padic(draw, st, p), _one_padic(draw, st, p), _one_padic(draw, st, p)


@given(padic_pairs())
def test_ultrametric_inequality(pair):
    x, y = pair
    s = x + y
    assert s.norm() <= max(x.norm(), y.norm())


@given(padic_pairs())
def test_ultrametric_equality_when_norms_differ(pair):
    x, y = pair
    if x.norm() != y.norm():
        assert (x + y).norm() == max(x.norm(), y.norm())


@given(padic_pairs())
def test_addition_commutes(pair):
    x, y = pair
    assert (x + y).agrees(y + x)


@given(padic_pairs())
def test_multiplication_commutes(pair):
    x, y = pair
    assert (x * y).agrees(y * x)


@settings(max_examples=60)
@given(padic_triples())
def test_addition_associates(triple):
    x, y, z = triple
    assert ((x + y) + z).agrees(x + (y + z))


@settings(max_examples=60)
@given(padic_triples())
def test_multiplication_associates(triple):
    x, y, z = triple
    assert ((x * y) * z).agrees(x * (y * z))


@settings(max_examples=60)
@given(padic_triples())
def test_distributivity(triple):
    x, y, z = triple
    assert (x * (y + z)).agrees(x * y + x * z)


@given(padic_pairs())
def test_div_undoes_mul(pair):
    x, y = pair
    assert div(x * y, y).agrees(x)


@given(padic_numbers())
def test_canonicalization_idempotent(x):
    assert x.canonical() == x


@given(padic_numbers())
def test_sub_self_is_zero_residue(x):
    assert (x - x).is_zero_residue


@given(st.integers(min_value=-10**6, max_value=10**6), st.sampled_from(PRIMES))
def test_integer_roundtrip(n, p):
    x = padic_from_integer(n, p, 10)
    if n == 0:
        assert x.is_exact_zero
    else:
        assert x.residue(x_prec := min(10, int(x.abs_precision))) == n % p**x_prec


@given(st.integers(min_value=1, max_value=400), st.sampled_from(PRIMES))
def test_log_power_rule_on_samples(k, p):
    base = padic_from_integer(1 + p, p, 10)
    from rhoq.padic import padic_log

    lhs = padic_log(base**k)
    rhs = padic_log(base) * padic_from_integer(k, p, 10 + 6)
    assert lhs.agrees(rhs, 9)


@st.composite
def any_padic_pairs(draw):
    """Pairs over one prime in which either side may be an exact zero, a
    bounded zero or a nonzero value, at mixed valuations."""
    p = draw(st.sampled_from(PRIMES))

    def one():
        kind = draw(st.sampled_from(["exact zero", "bounded zero", "nonzero", "nonzero"]))
        if kind == "exact zero":
            return PadicNumber.exact_zero(p)
        if kind == "bounded zero":
            return PadicNumber.bounded_zero(p, draw(st.integers(min_value=1, max_value=8)))
        return _one_padic(draw, st, p)

    return one(), one()


def _fields(x):
    return (x.prime, x.val, x.unit, x.digits)


@given(any_padic_pairs())
def test_sub_is_add_of_the_negation(pair):
    a, b = pair
    assert _fields(a - b) == _fields(a + (-b))


@given(any_padic_pairs())
def test_results_are_frozen_hashable_values(pair):
    a, b = pair
    results = []
    for op in (add, sub, mul, div, lambda x, y: x.reduce_abs(2), lambda x, y: -x):
        try:
            results.append(op(a, b))
        except (PrecisionError, ZeroDivisionError):
            pass  # a zero divisor, or a result that would carry no digits
    for r in results:
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.unit = 1
        twin = PadicNumber(*_fields(r))
        assert r == twin and hash(r) == hash(twin)


@given(padic_numbers(), st.integers(min_value=1, max_value=8))
def test_div_by_a_zero(x, a):
    with pytest.raises(ZeroDivisionError):
        div(x, PadicNumber.exact_zero(x.prime))
    with pytest.raises(PrecisionError):
        div(x, PadicNumber.bounded_zero(x.prime, a))


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(min_value=1, max_value=10**6), min_size=4, max_size=6),
)
def test_extrapolants_follow_the_three_value_aitken_formula(p, coeffs):
    # A_N = sum over k <= N of c_k p^(k+1), c_k units, has gaps of valuation N + 1
    coeffs = [c if c % p else c + 1 for c in coeffs]
    partial = [sum(c * p ** (k + 1) for k, c in enumerate(coeffs[: n + 1])) for n in range(len(coeffs))]
    values = [padic_from_integer(a, p, 12) for a in partial]
    seq = ApproximantSequence.build(p, list(enumerate(values, 1)), 10)

    def aitken(a0, a1, a2):  # the second difference has the valuation of a1 - a0
        return a2 - div((a2 - a1) * (a2 - a1), (a2 - a1) - (a1 - a0))

    expected = [aitken(*values[-4:-1]), aitken(*values[-3:])]
    assert [_fields(e) for e in seq.extrapolants] == [_fields(e) for e in expected]


@st.composite
def dot_operands(draw):
    """Two equally long lists over one prime whose entries may be exact zeros,
    bounded zeros, or nonzero values of negative valuation and of absolute
    precision <= 0, the inputs on which the fold can raise."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(min_value=1, max_value=6))

    def one():
        kind = draw(st.sampled_from(["exact zero", "bounded zero", "nonzero", "nonzero"]))
        if kind == "exact zero":
            return PadicNumber.exact_zero(p)
        if kind == "bounded zero":
            return PadicNumber.bounded_zero(p, draw(st.integers(min_value=1, max_value=4)))
        digits = draw(st.integers(min_value=1, max_value=4))
        unit = draw(st.integers(min_value=1, max_value=p**digits - 1).filter(lambda u: u % p))
        return PadicNumber(p, draw(st.integers(min_value=-5, max_value=3)), unit, digits)

    return [one() for _ in range(n)], [one() for _ in range(n)]


def _fold(xs, ys):
    acc = PadicNumber.exact_zero(xs[0].prime)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _outcome(fn, xs, ys):
    try:
        return _fields(fn(xs, ys))
    except PrecisionError:
        return PrecisionError


_ONE = PadicNumber.one(3, 4)
_LOW = PadicNumber(3, -3, 1, 2)  # 3^-3, known mod 3^-1
_LOW_NEG = PadicNumber(3, -3, 8, 2)  # -3^-3, known mod 3^-1


@settings(max_examples=400)
@given(dot_operands())
# a zero residue times a value of valuation -3: the product carries no digits
@example(([PadicNumber.bounded_zero(3, 2)], [_LOW]))
# 3^-3 - 3^-3 is zero mod 3^-1
@example(([_LOW, _LOW_NEG], [_ONE, _ONE]))
# the partial sum 3^-3 - 3^-3 is zero mod 3^-1, though the whole sum is not
@example(([_LOW, _LOW_NEG, _LOW], [_ONE, _ONE, _ONE]))
# a bounded zero after the sum above: the fold still raises at the second term
@example(([_LOW, _LOW_NEG, PadicNumber.bounded_zero(3, 1)], [_ONE, _ONE, _ONE]))
# 3^-3 + 3^-2 is not zero mod 3^-1: no raise below absolute precision 0
@example(([_LOW, PadicNumber(3, -2, 1, 2)], [_ONE, _ONE]))
def test_dot_is_the_fold_field_for_field(operands):
    xs, ys = operands
    assert _outcome(dot, xs, ys) == _outcome(_fold, xs, ys)


def test_dot_refuses_mixed_primes_like_the_fold():
    xs, ys = [PadicNumber.one(3, 4), PadicNumber.one(5, 4)], [PadicNumber.one(3, 4)] * 2
    for fn in (dot, _fold):
        with pytest.raises(DomainError):
            fn(xs, ys)
