"""Independent oracles for the test suite.

Everything here is computed with exact rational arithmetic (Fraction) or
elementary integer algorithms, straight from the defining formulas, and only
reduced mod p^k at the very end.  Nothing imports the package's arithmetic,
so agreement between the two paths is meaningful.  The two exceptions are
earlier versions of package code, handed the package's values:
`mahler_forward_substitution`, the earlier Mahler solve, only adds and
multiplies them, and `lipschitz_fraction_loop`, the earlier Lipschitz sup,
only subtracts them and takes norms.  The weighted ball values come from the
benchmark's closed forms (`perfbench/oracles.py`, which imports nothing from
the package either).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from perfbench import oracles as bench

Approx = bench.Approx


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def inv_mod(a: int, m: int) -> int:
    g, s, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError("not invertible")
    return s % m


def rat_vp(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of 0")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def rat_mod(x: Fraction | int, p: int, k: int) -> int:
    """A p-integral rational reduced mod p^k."""
    x = Fraction(x)
    m = p**k
    if x.denominator % p == 0:
        raise ValueError("not p-integral")
    return x.numerator % m * inv_mod(x.denominator, m) % m


def agree_mod(x: Fraction | int, y: Fraction | int, p: int, k: int) -> bool:
    """x ≡ y (mod p^k) for p-integral rationals."""
    return rat_mod(Fraction(x) - Fraction(y), p, k) == 0


# -- deformed objects, straight from the definitions -------------------------


def bracket(n: int, rho: Fraction, q: Fraction) -> Fraction:
    """[n] via the definition; quotient form when rho != q, else n*rho^(n-1)."""
    rho, q = Fraction(rho), Fraction(q)
    if rho != q:
        return (rho**n - q**n) / (rho - q)
    return n * rho ** (n - 1)


def bracket_sum(n: int, rho: Fraction, q: Fraction) -> Fraction:
    """[n] via the summation form (used to cross-check the quotient)."""
    rho, q = Fraction(rho), Fraction(q)
    return sum((rho**i * q ** (n - 1 - i) for i in range(n)), Fraction(0))


def bracket_sum_mod(n: int, rho: Fraction, q: Fraction, p: int, k: int) -> int:
    """[n] = sum rho^i q^(n-1-i), i < n, term by term mod p^k (O(n))."""
    m = p**k
    r, s = rat_mod(rho, p, k), rat_mod(q, p, k)
    acc = 0
    for i in range(n):
        acc = (acc + pow(r, i, m) * pow(s, n - 1 - i, m)) % m
    return acc


def gauss_binomial_pascal(n: int, k: int, q: Fraction) -> Fraction:
    """q-binomial via the Pascal-type recurrence {n,k} = q^k {n-1,k} + {n-1,k-1}."""
    if k < 0 or k > n:
        return Fraction(0)
    row = [Fraction(1)]
    for m in range(1, n + 1):
        new = [Fraction(1)]
        for j in range(1, m):
            new.append(Fraction(q) ** j * row[j] + row[j - 1])
        new.append(Fraction(1))
        row = new
    return row[k]


def haar_value(a: int, N: int, rho: Fraction, q: Fraction, p: int) -> Fraction:
    """mu(a + p^N Z_p) = rho^(p^N)/[p^N] * (q/rho)^a as an exact rational."""
    rho, q = Fraction(rho), Fraction(q)
    return rho ** (p**N) / bracket(p**N, rho, q) * (q / rho) ** a


def volkenborn_level(
    values: list[Fraction], rho: Fraction, q: Fraction, p: int, N: int
) -> Fraction:
    """rho^(p^N)/[p^N] * sum f(x) (q/rho)^x over x < p^N, f given as values."""
    rho, q = Fraction(rho), Fraction(q)
    t = q / rho
    s = sum((values[x] * t**x for x in range(p**N)), Fraction(0))
    return rho ** (p**N) / bracket(p**N, rho, q) * s


def q_volkenborn_level(values: list[Fraction], q: Fraction, p: int, N: int) -> Fraction:
    """One-parameter q-sum (1/[p^N]_q) * sum f(x) q^x: the rho -> 1 degeneration."""
    q = Fraction(q)
    s = sum((values[x] * q**x for x in range(p**N)), Fraction(0))
    return s / bracket(p**N, Fraction(1), q)


def sum_x(n: int) -> Fraction:
    """0 + 1 + ... + (n-1)."""
    return Fraction(n * (n - 1), 2)


def sum_x2(n: int) -> Fraction:
    """0^2 + 1^2 + ... + (n-1)^2 (Faulhaber)."""
    return Fraction((n - 1) * n * (2 * n - 1), 6)


def log_series_mod(x: Fraction, p: int, terms: int, k: int) -> int:
    """Partial sum of log(1+t), t = x-1, as an exact rational reduced mod p^k."""
    t = Fraction(x) - 1
    acc = Fraction(0)
    for n in range(1, terms + 1):
        acc += Fraction((-1) ** (n + 1), n) * t**n
    return rat_mod(acc, p, k)


def finite_differences(values: list[Fraction]) -> list[Fraction]:
    """Mahler coefficients at rho=q=1: a_n = (Δ^n f)(0)."""
    coeffs = []
    row = [Fraction(v) for v in values]
    for _ in range(len(values)):
        coeffs.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return coeffs


def mahler_forward_substitution(values: list, binomial) -> list:
    """Solve sum_n a_n {i choose n} = values[i] row by row.

    The package's Mahler solve before it read the basis off the Pascal
    triangle: one `binomial(i, n)` call per nonzero coefficient and entry.
    """
    coeffs = []
    for i, acc in enumerate(values):
        for n, c in enumerate(coeffs):
            if not c.is_exact_zero:
                acc = acc - c * binomial(i, n)
        coeffs.append(acc)
    return coeffs


def lipschitz_fraction_loop(f, p: int, level: int, max_pairs: int, seed: int = 1) -> Fraction:
    """max |f(x) - f(y)| / |x - y| as one Fraction division per pair, over the
    pairs the package's `lipschitz_estimate` takes: every pair below p^level
    up to max_pairs of them, else max_pairs seeded draws.  A difference that
    is a zero residue counts as 0."""
    n = p**level
    values = {x: f(x) for x in range(n)}
    if n * (n - 1) // 2 <= max_pairs:
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    else:
        rng = random.Random(seed)
        pairs = []
        while len(pairs) < max_pairs:
            x = rng.randrange(n)
            y = rng.randrange(n)
            if x != y:
                pairs.append((min(x, y), max(x, y)))
    best = Fraction(0)
    for x, y in pairs:
        d = values[x] - values[y]
        if d.unit == 0:
            continue
        den = Fraction(1, p ** rat_vp(Fraction(x - y), p))
        best = max(best, d.norm() / den)
    return best


def rhoq_binomial_exact(n: int, k: int, rho: Fraction, q: Fraction) -> Fraction:
    """{n choose k} = prod_{j<k} [n-j] / [k]!, zero for k > n, from the exact brackets."""
    if k < 0 or k > n:
        return Fraction(0)
    num = den = Fraction(1)
    for j in range(k):
        num *= bracket(n - j, rho, q)
        den *= bracket(j + 1, rho, q)
    return num / den


def progression_partial_sums(
    f, rho: Fraction, q: Fraction, shift: int, step: int, ends: list[int]
) -> list[Fraction]:
    """sum_{y<end} f(x) (q/rho)^x, x = shift + step y, for each end, exactly."""
    t = Fraction(q) / Fraction(rho)
    out, acc, start = [], Fraction(0), 0
    for end in ends:
        for y in range(start, end):
            x = shift + step * y
            acc += f(x) * t**x
        start = end
        out.append(acc)
    return out


def _exact(c) -> Fraction:
    """A coefficient of the integrand tree as a rational: a p-adic one counts as
    the rational p^val * unit it carries (0 for either zero)."""
    if hasattr(c, "unit"):
        return Fraction(c.unit) * Fraction(c.prime) ** c.val if c.unit else Fraction(0)
    return Fraction(c)


def function_value(f, rho: Fraction, q: Fraction, x: int) -> Fraction:
    """f(x) exactly, read straight off the integrand tree's definitions.

    Reads only the tree's fields; a p-adic coefficient counts as the rational
    p^val * unit it carries (0 for either zero).
    """
    rho, q = Fraction(rho), Fraction(q)
    if f.tag == "poly_x":
        return sum((_exact(c) * x**i for i, c in enumerate(f.coeffs)), Fraction(0))
    if f.tag == "poly_bracket":
        b = bracket(x, rho, q)
        return sum((_exact(c) * b**i for i, c in enumerate(f.coeffs)), Fraction(0))
    if f.tag == "exponential":
        c, i, j = f.coeffs
        return Fraction(c) ** x * rho ** (i * x) * q ** (j * x)
    if f.tag == "mahler":
        terms = (_exact(c) * rhoq_binomial_exact(x, m, rho, q) for m, c in enumerate(f.coeffs))
        return sum(terms, Fraction(0))
    if f.tag == "product":
        acc = Fraction(1)
        for part in f.parts:
            acc *= function_value(part, rho, q, x)
        return acc
    if f.tag == "sum":
        parts = (_exact(c) * function_value(g, rho, q, x) for c, g in zip(f.coeffs, f.parts))
        return sum(parts, Fraction(0))
    raise ValueError("unknown tag %r" % f.tag)


def exp_poly(f, rho: Fraction, q: Fraction) -> dict:
    """f as the benchmark oracles' exponential polynomial {(k, b): c}, the sum
    of c x^k b^x, read off the integrand tree as `function_value` reads it."""
    rho, q = Fraction(rho), Fraction(q)
    one = Fraction(1)

    def series(coeffs, basis) -> dict:
        out: dict = {}
        for m, c in enumerate(coeffs):
            out = bench.ep_add(out, basis(m), one, _exact(c))
        return out

    if f.tag == "poly_x":
        return series(f.coeffs, lambda m: {(m, one): one})
    if f.tag == "poly_bracket":
        return series(f.coeffs, lambda m: bench.ep_pow(bench.ep_bracket_shift(0, rho, q), m))
    if f.tag == "mahler":
        def binomial(m):
            out = {(0, one): 1 / bench.bracket_factorial(m, rho, q)}
            for j in range(m):
                out = bench.ep_mul(out, bench.ep_bracket_shift(j, rho, q))
            return out
        return series(f.coeffs, binomial)
    if f.tag == "exponential":
        c, i, j = f.coeffs
        return {(0, Fraction(c) * rho**i * q**j): one}
    if f.tag == "product":
        out = {(0, one): one}
        for part in f.parts:
            out = bench.ep_mul(out, exp_poly(part, rho, q))
        return out
    if f.tag == "sum":
        out = {}
        for c, part in zip(f.coeffs, f.parts):
            out = bench.ep_add(out, exp_poly(part, rho, q), one, _exact(c))
        return out
    raise ValueError("unknown tag %r" % f.tag)


def weighted_ball(f, p: int, rho: Fraction, q: Fraction, a: int, n: int, prec: int) -> bench.Approx:
    """mu_f(a + p^n Z_p), known mod p^prec: the restriction identity in closed
    form, (q/rho)^a / [p^n] times the integral of y -> f(a + p^n y) at
    (rho^(p^n), q^(p^n)) by `perfbench/oracles.limit_value`."""
    rho, q = Fraction(rho), Fraction(q)
    step = p**n
    restricted: dict = {}
    for (k, b), c in exp_poly(f, rho, q).items():
        head, base = c * b**a, b**step
        for i in range(k + 1):
            key = (i, base)
            restricted[key] = restricted.get(key, 0) + head * comb(k, i) * Fraction(a) ** (k - i) * step**i
    restricted = {key: c for key, c in restricted.items() if c}
    work = prec + 2 * n + 4
    integral = bench.limit_value(restricted, p, rho**step, q**step, work)
    # the Haar value rho^(p^n)/[p^n] (q/rho)^a over rho^(p^n)
    haar = bench.haar_ball(p, a, n, rho, q, work) / bench.unit_power(p, rho, step, work)
    out = integral * haar
    return bench.Approx(p, out.val, min(out.prec, prec))


def as_approx(v) -> Approx:
    """A PadicNumber (read through its fields) as the oracles' Approx: the
    rational it carries, mod p^abs_precision; an Approx as it is."""
    if not hasattr(v, "unit"):
        return v
    if v.unit:
        return Approx(v.prime, Fraction(v.unit) * Fraction(v.prime) ** v.val, v.abs_precision)
    return Approx(v.prime, 0, v.val if v.val is not None else 10**9)


def claims_hold(v, exact: Approx) -> bool:
    """Every digit v claims is a digit of the exact value, which must be
    known to at least as many."""
    got = as_approx(v)
    assert exact.prec >= got.prec, "the oracle knows too few digits"
    return got.agreement(exact) >= got.prec


def one_digit_more(v, exact: Approx) -> Approx:
    """v claiming one digit more than it does, a wrong one: the exact value
    with its digit at v's absolute precision moved by one."""
    A = as_approx(v).prec
    return Approx(exact.p, exact.val + Fraction(exact.p) ** A, A + 1)
