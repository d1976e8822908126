"""Volkenborn-type integration against the deformed Haar distribution.

Every integral is returned as an ApproximantSequence: the objects of
interest are limits, and auditing them needs the rates, not just a value.

Every integrand is an exponential polynomial: with
[x] = (rho^x - q^x)/(rho - q), or x q^(x-1) at rho = q, `lower` writes it
once as p^-v sum P_b(x) b^x with residue coefficients; `lower` is the one
interpreter of the integrand tree, one branch per kind of node.  One loop
builds every series (in x, in [x], in the Gaussian binomials), one product
per basis term, and skips zero coefficients, so [x]^K lowers in O(K^2)
products.  The level sums over x = a + p^n y read
one moment table per (integrand, step), which does not depend on a: per
base and level it holds the level sum as a polynomial in the shift a, made
once from the sums of y^k C^y with C = (b q/rho)^(p^n), so the p^n balls of
a level share one pass over the points and each ball pays a Horner pass per
level and a power of the base.  Point values (the Mahler solve, the grid
norms) read the same form, one `values` call per grid.
A general continuous f reaches the integrals the paper's way, through its
Mahler expansion: `mahler_coefficients` -> `mahler_function`, a series in
the Gaussian binomials, which lowers like every other family.

The integral and the level terms of a weighted ball value are one quantity,
rho^(p^M)/[p^M] * sum f(x) (q/rho)^x over x = a + p^n y, y < p^m, and one
builder (`_level_batch`) forms it for all three: the plain integral
(a = n = 0, M = m), the direct restricted sums (M = n + m), and the
restriction identity (M = m at parameters lifted by n, times 1/[p^n]).  The
last two reach the same ball value through different arithmetic, which is
what makes thm32's cross-check worth running.  `_level_batch` takes one
shift, 0 or a ball's rep, and reads its sums through `progression_sums`.

A `WeightedDistribution` takes no limit over levels: `rhoq.limits` holds
the exact limit of the restriction identity per (weight, params, digits,
level) as one row per base, a polynomial in the shift made by the same
Taylor step as the moment tables (`_taylor`, `_shift_row`) from the
Volkenborn moments in closed form, and a ball is one Horner pass per base
and one power of it.  A weighted ball value has one maker,
`WeightedDistribution._batch`, and one store, `_ball_memo`, shared by every
distribution with equal (f, params), one parameter pair and a bounded count
at a time.  thm33's Riemann sums R_m = sum over a < p^m of g(a) mu_P(a +
p^m Z_p) read the same rows and no ball value: each is one exact finite sum
of moment sums (`limits.riemann_sums`).  On a 2-core machine that took
`rhoq audit all --p 7` from 0.8-1.0 s to 0.5 s a process and `--p 11` from
4.0-4.7 s to 2.5-3.1 s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import mul
from typing import Iterable, Iterator, Sequence

from .calculus import (
    RhoQParams,
    _bracket_residue,
    rhoq_integer,
    vp_factorial,
)
from .measures import Ball, Distribution, rhoq_haar_measure
from .padic import DomainError, PadicNumber, PrecisionError, _new, div, vp
from .sequences import ApproximantSequence, default_target

# ---------------------------------------------------------------------------
# integrable functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrableFunction:
    """A function on Z_p as a tree of tagged nodes, read only by `lower`:
    the level sums and the point values (`values`) both go through its
    normal form.

    Tags, with what `coeffs` holds for each:
      poly_x        c_m of sum c_m x^m (constants too);
      poly_bracket  c_m of sum c_m [x]^m;
      mahler        c_m of sum c_m {x choose m}, the Gaussian binomials;
      exponential   (c, i, j) for c^x rho^(i x) q^(j x);
      product       nothing: the product of `parts`;
      sum           c_k of sum c_k parts[k].
    """

    tag: str
    coeffs: tuple = ()
    parts: tuple = ()
    label: str = ""

    def describe(self) -> str:
        return self.label or self.tag


def const(c: Fraction | int) -> IntegrableFunction:
    return IntegrableFunction("poly_x", coeffs=(Fraction(c),), label="const %s" % c)


def coordinate() -> IntegrableFunction:
    return IntegrableFunction("poly_x", coeffs=(Fraction(0), Fraction(1)), label="x")


def poly_in_x(coeffs: Sequence[Fraction | int], label: str = "") -> IntegrableFunction:
    return IntegrableFunction(
        "poly_x", coeffs=tuple(Fraction(c) for c in coeffs), label=label or "poly(x)"
    )


def poly_in_bracket(coeffs: Sequence, label: str = "") -> IntegrableFunction:
    return IntegrableFunction("poly_bracket", coeffs=tuple(coeffs), label=label or "poly([x])")


def bracket_power(k: int) -> IntegrableFunction:
    if k < 0:  # [0] = 0, so [x]^k is not defined on Z_p
        raise ValueError("n must be >= 0")
    coeffs = tuple([Fraction(0)] * k + [Fraction(1)])
    return IntegrableFunction("poly_bracket", coeffs=coeffs, label="[x]^%d" % k)


def ratio_exponential() -> IntegrableFunction:
    return IntegrableFunction("exponential", coeffs=(Fraction(1), -1, 1), label="(q/rho)^x")


def exponential(base: Fraction | int) -> IntegrableFunction:
    return IntegrableFunction("exponential", coeffs=(Fraction(base), 0, 0), label="(%s)^x" % base)


def mixed_power(a: int, n: int) -> IntegrableFunction:
    rho_power = IntegrableFunction("exponential", coeffs=(Fraction(1), a, 0))
    return replace(product(rho_power, bracket_power(n)), label="rho^(%dx)[x]^%d" % (a, n))


def mahler_function(coeffs: Sequence, label: str = "") -> IntegrableFunction:
    return IntegrableFunction("mahler", coeffs=tuple(coeffs), label=label or "mahler series")


def product(*fs: IntegrableFunction) -> IntegrableFunction:
    return IntegrableFunction(
        "product", parts=tuple(fs), label=" * ".join(f.describe() for f in fs)
    )


def linear_combination(coeffs: Sequence, fs: Sequence[IntegrableFunction]) -> IntegrableFunction:
    """sum of c_i * f_i(x); lowers to the sum of the parts' normal forms."""
    if len(coeffs) != len(fs):
        raise ValueError("one coefficient per part")
    label = " + ".join("%s*(%s)" % (c, f.describe()) for c, f in zip(coeffs, fs))
    return IntegrableFunction("sum", coeffs=tuple(coeffs), parts=tuple(fs), label=label)


# ---------------------------------------------------------------------------
# the normal form and the progression sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """f(x) = p^-v * sum over terms (b, P_b) of P_b(x) b^x, residues mod p^W,
    each P_b highest degree first; coefficients known to fewer than w
    digits take `deficiency` digits off every sum.  `ratio` is q/rho mod
    p^W, the base of the integration weight."""

    v: int
    W: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]
    deficiency: int
    ratio: int


def _nf_add(a: tuple, b: tuple, p: int, mod: int, c: int = 1, dv: int = 0) -> tuple:
    """p^-va A + c p^-(vb + dv) B, over the larger v."""
    vb = b[0] + dv
    v = max(a[0], vb)
    out: dict[int, list[int]] = {}
    for s, terms in ((p ** (v - a[0]), a[1]), (c * p ** (v - vb), b[1])):
        for base, poly in terms.items():
            acc = out.setdefault(base, [])
            acc += [0] * (len(poly) - len(acc))
            for k, x in enumerate(poly):
                acc[k] = (acc[k] + s * x) % mod
    return v, out


def _nf_mul(a: tuple, b: tuple, mod: int) -> tuple:
    out: dict[int, list[int]] = {}
    for ba, pa in a[1].items():
        for bb, pb in b[1].items():
            acc = out.setdefault(ba * bb % mod, [])
            acc += [0] * (len(pa) + len(pb) - 1 - len(acc))
            for i, x in enumerate(pa):
                for j, y in enumerate(pb):
                    acc[i + j] = (acc[i + j] + x * y) % mod
    return a[0] + b[0], out


def lower(f: IntegrableFunction, params: RhoQParams, w: int) -> NormalForm:
    """f as an exponential polynomial, for sums and values sound to w digits.

    [x] = (rho^x - q^x)/(rho - q), or x q^(x-1) at rho = q, and a Gaussian
    binomial {x choose m} is prod_{j<m} [x - j] / [m]!.  Each [x] costs
    ν(rho - q) guard digits, each [m]! ν_p(m!) and a coefficient with p^e in
    its denominator e; all of them go into v, so digit-string parameters are
    checked at w only.  Errors are raised part by part, in the order of the
    parts.  A form whose terms all cancel mod p^W keeps one zero term: only a
    form built from no terms at all (an empty series) has none.
    """
    p = params.prime
    # ν(a^(p^t) - b^(p^t)) = ν(a - b) + t on 1 + pZ_p, with a, b units
    diff = params.rho_base - params.q_base
    nu = vp(diff.numerator, p) + params.tower if diff else None

    def lift(c) -> int:
        """The least e >= 0 with p^e c in Z_p."""
        if isinstance(c, PadicNumber):
            return max(-c.val, 0) if c.unit else 0
        return vp(Fraction(c).denominator, p)

    def guard(g: IntegrableFunction) -> int:
        if g.tag == "product":
            return sum(map(guard, g.parts))
        if g.tag == "sum":
            return max((guard(part) + lift(c) for c, part in zip(g.coeffs, g.parts)), default=0)
        if g.tag == "exponential":
            return 0
        k = 0 if g.tag == "poly_x" else max(len(g.coeffs) - 1, 0)  # the [x] in a series term
        e = max(map(lift, g.coeffs), default=0) + k * (nu or 0)
        return e + vp_factorial(k, p) if g.tag == "mahler" else e

    W = w + guard(f)
    mod = p**W
    exact = replace(params, known_digits=None)
    rho, q = exact.rho_residue(W), exact.q_residue(W)
    ratio = q * pow(rho, -1, mod) % mod
    if nu is not None:  # rho - q = p^nu u
        u_inv = pow((exact.rho_residue(W + nu) - exact.q_residue(W + nu)) // p**nu, -1, mod)
    deficiency = 0

    def coeff(c) -> tuple[int, int]:
        """(p^e c mod p^W, e) with e = lift(c); a p-adic c to the digits it has."""
        nonlocal deficiency
        e = lift(c)
        if not isinstance(c, PadicNumber):
            return PadicNumber.from_fraction(Fraction(c) * p**e, p, W).residue(W), e
        if not c.is_exact_zero:
            deficiency = max(deficiency, w - int(c.abs_precision))
        return (c.unit * p ** (c.val + e) % mod if c.unit else 0), e

    def shifted_bracket(j: int) -> tuple:
        """[x - j] = (rho^-j rho^x - q^-j q^x)/(rho - q), or (x - j) q^(x-j-1)."""
        if nu is None:
            c = pow(q, -j - 1, mod)
            return 0, {q: [-j * c % mod, c]}
        return nu, {rho: [pow(rho, -j, mod) * u_inv % mod], q: [-pow(q, -j, mod) * u_inv % mod]}

    def factorial_inverse(m: int) -> int:
        """([m]! / p^v)^-1 mod p^W, v = ν_p(m!) = ν_p([m]!)."""
        v = vp_factorial(m, p)
        n = p ** (W + v)
        r, s = exact.rho_residue(W + v), exact.q_residue(W + v)
        acc = 1
        for j in range(1, m + 1):
            acc = acc * _bracket_residue(r, s, j, n) % n
        return pow(acc // p**v, -1, mod)

    one, zero = (0, {1: [1]}), (0, {})

    def build(g: IntegrableFunction) -> tuple:
        tag, acc = g.tag, zero
        if tag == "product":
            return reduce(lambda nf, part: _nf_mul(nf, build(part), mod), g.parts, one)
        if tag == "sum":
            for c, part in zip(g.coeffs, g.parts):
                acc = _nf_add(acc, build(part), p, mod, *coeff(c))
            return acc
        if tag == "exponential":
            c, i, j = g.coeffs
            # c^x is continuous on Z_p only for c in 1 + pZ_p
            if c.denominator % p == 0 or (c - 1).numerator % p:
                raise DomainError("rhoq_power requires base in 1 + pZ_p")
            if i or j:
                params.require_digits(w)
            return 0, {coeff(c)[0] * pow(rho, i, mod) * pow(q, j, mod) % mod: [1]}
        if tag not in ("poly_x", "poly_bracket", "mahler"):
            raise ValueError("unknown tag %r" % tag)
        # sum c_m B_m, B_m = x^m, [x]^m or prod_{j<m} [x - j] / [m]!, one product a step;
        # a rational 0 adds nothing unless last, so an all-zero series keeps a zero term
        if tag != "poly_x":
            params.require_digits(w)  # the brackets read rho and q
        basis, last = one, len(g.coeffs) - 1
        for m, c in enumerate(g.coeffs):
            if m and tag != "poly_x":
                basis = _nf_mul(basis, shifted_bracket(m - 1 if tag == "mahler" else 0), mod)
            if c == 0 and m < last:  # a rational 0 (a PadicNumber is never == 0)
                continue
            c, e = coeff(c)
            if tag == "poly_x":
                basis = 0, {1: [0] * m + [1]}
            elif tag == "mahler":
                c, e = c * factorial_inverse(m), e + vp_factorial(m, p)
            acc = _nf_add(acc, basis, p, mod, c, e)
        return acc

    v, polys = build(f)
    terms = tuple((base, tuple(reversed(poly))) for base, poly in polys.items() if any(poly))
    if polys and not terms:
        terms = ((1, (0,)),)
    return NormalForm(v, W, terms, max(deficiency, 0), ratio)


#: points per step of a `_moment_sums` pass (bounds its working lists)
BLOCK = 1024

#: entries per memo table (the moment tables, the per-level factors and the
#: limit tables of `rhoq.limits`); the tables are keyed by the parameter
#: pair, so a long-lived process that sees many pairs must not keep them all.
MEMO_SIZE = 4096

#: weighted ball values held at once by `_ball_memo`, over all weights; after
#: a default `rhoq audit all` it holds 888, after `rhoq audit all --p 7`
#: 1,653, and after the benchmark's p = 3 report 359.
BALL_MEMO_SIZE = 48_000


def _moment_sums(c: int, count: int, ends: Sequence[int], mod: int) -> Iterator[tuple[int, ...]]:
    """Per end in ends (increasing), the sums over y < end of y^k c^y mod `mod`
    for k < count, in one pass over y < ends[-1].

    The points run through in blocks of BLOCK: each block adds up the exact
    products c^y y^k, and the sums are reduced mod `mod` at the ends only.
    """
    powers = [1]  # c^j for j < BLOCK
    for _ in range(min(BLOCK, ends[-1]) - 1):
        powers.append(powers[-1] * c % mod)
    sums, e, start = [0] * count, 1, 0  # e = c^start
    for end in ends:
        for lo in range(start, end, BLOCK):
            ys = range(lo, min(lo + BLOCK, end))
            terms = [e * x for x in powers[: len(ys)]]  # c^y y^k over ys, k = 0, 1, ...
            sums[0] += sum(terms)
            for k in range(1, count):
                terms = list(map(mul, terms, ys))
                sums[k] += sum(terms)
            e = e * pow(c, len(ys), mod) % mod
        start = end
        sums = [x % mod for x in sums]
        yield tuple(sums)  # the list goes on adding up


@lru_cache(maxsize=MEMO_SIZE)
def _moment_table(
    f: IntegrableFunction, params: RhoQParams, w: int, step: int, max_level: int
) -> tuple[NormalForm, tuple]:
    """f's normal form and, per base b, (B, rows) with B = b q/rho mod p^W and
    rows[m], m = 0..max_level, the level sum at shift a over B^a as a
    polynomial in a:

        sum over y < p^m of P_b(a + step y) B^(step y) = sum_i r_m,i a^i,
        r_m,i = sum_k c_(i+k) binom(i+k, k) step^k T_m[k],

    highest degree first, where c_j are the coefficients of P_b and
    T_m[k] = sum over y < p^m of y^k C^y mod p^W with C = B^step.

    Nothing here depends on a progression's shift, so every ball of a level
    reads its sums off one table: a shift costs one Horner pass per level and
    one power B^a.  The T_m come from one `_moment_sums` pass over
    y < p^max_level.
    """
    nf = lower(f, params, w)
    params.require_digits(w)
    p, mod = params.prime, params.prime**nf.W
    ends = [p**m for m in range(max_level + 1)]
    tables = []
    for base, coeffs in nf.terms:
        if not any(coeffs):  # the zero form: every sum vanishes
            tables.append((1, ()))
            continue
        B = base * nf.ratio % mod
        taylor = _taylor(coeffs, step, mod)
        sums = _moment_sums(pow(B, step, mod), len(coeffs), ends, mod)
        tables.append((B, tuple(_shift_row(taylor, t, mod) for t in sums)))
    return nf, tuple(tables)


def _taylor(coeffs: tuple[int, ...], step: int, mod: int) -> list[list[int]]:
    """taylor[k][i] = binom(i + k, k) step^k c_(i+k) mod `mod`, c_j the
    coefficients of P (given highest degree first): the coefficient of
    y^k a^i in P(a + step y)."""
    low = coeffs[::-1]
    taylor, sk = [], 1
    for k in range(len(low)):
        taylor.append([comb(i + k, k) * sk * low[i + k] % mod for i in range(len(low) - k)])
        sk = sk * step % mod
    return taylor


def _shift_row(taylor: list[list[int]], moments: Sequence[int], mod: int) -> tuple[int, ...]:
    """sum_k moments[k] taylor[k] mod `mod`: with moments[k] the sum (or the
    limit) of y^k C^y, the same of P(a + step y) C^y as a polynomial in the
    shift a, highest degree first."""
    shifted = [0] * len(taylor)
    for t, row in zip(moments, taylor):
        for i, x in enumerate(row):
            shifted[i] += t * x
    return tuple(x % mod for x in reversed(shifted))


def progression_sums(
    f: IntegrableFunction,
    params: RhoQParams,
    max_level: int,
    shift: int,
    step: int,
    w: int,
) -> tuple[list[int], int]:
    """W(m) = sum over y < p^m of f(shift + step y) * (q/rho)^(shift + step y),
    as residues mod p^w, for m = 0..max_level (nested sums).

    Returns (sums, deficiency): the sums are sound mod p^(w - deficiency),
    where the deficiency accounts for inputs known to fewer than w digits.
    A sum with p in its denominator (from a coefficient's) is None.

    f is lowered once per moment table to p^-v sum P_b(x) b^x.  The weight
    folds into every base B = b q/rho; a level sum is B^shift times the
    table's shift polynomial of the level at the shift (see `_moment_table`),
    and the total is divided by p^v exactly.  The one reader of a moment
    table: B^shift once per base, one Horner pass per base and level.
    """
    p = params.prime
    nf, tables = _moment_table(f, params, w, step, max_level)
    mod, scale, out = p**nf.W, p**nf.v, p**w
    acc = [0] * (max_level + 1)
    for B, rows in tables:
        b = pow(B, shift, mod)
        for m, row in enumerate(rows):
            r = 0
            for c in row:
                r = r * shift + c
            acc[m] += b * (r % mod)
    acc = [s % mod for s in acc]
    return [s // scale % out if s % scale == 0 else None for s in acc], nf.deficiency


def _evaluate(terms: Sequence[tuple], xs: Iterable[int], mod: int) -> list[int]:
    """sum over (B, P) in terms of B^x P(x) mod `mod`, per x in xs, each P
    highest degree first: a Horner pass per P and a power B^x, a single
    product when x follows the point before.  The one evaluator of a normal
    form (`values`) and of a limit table (`limits.ball_values`)."""
    out, last, powers = [], None, [1] * len(terms)
    for x in xs:
        r = 0
        for j, (B, coeffs) in enumerate(terms):
            powers[j] = powers[j] * B % mod if last == x - 1 else pow(B, x, mod)
            acc = 0
            for c in coeffs:
                acc = acc * x + c
            r += powers[j] * acc
        last = x
        out.append(r % mod)
    return out


def _scaled(x: int, p: int, shift: int, digits: int) -> PadicNumber:
    """p^-shift x for an integer x known mod p^(digits + shift)."""
    if digits + shift < 1:  # not even x mod p is known
        raise PrecisionError("series known to no digit")
    x %= p ** (digits + shift)
    if not x:
        return PadicNumber.bounded_zero(p, digits)
    e = vp(x, p)
    return _new(p, e - shift, x // p**e, digits + shift - e)


def values(
    f: IntegrableFunction, params: RhoQParams, xs: Sequence[int], digits: int
) -> list[PadicNumber]:
    """f(x) for x in xs, read off f's normal form p^-v sum P_b(x) b^x mod p^W.

    f is lowered once per call and evaluated by `_evaluate`.  Every value
    is known to digits - deficiency absolute digits.  A residue cannot show
    that a value is exactly 0, so a zero residue is the bounded zero
    O(p^known); only a form with no terms (an empty series) gives the exact zero.
    """
    nf = lower(f, params, digits)
    p = params.prime
    if not nf.terms:
        return [PadicNumber.exact_zero(p)] * len(xs)
    known = digits - nf.deficiency
    PadicNumber.bounded_zero(p, known)  # PrecisionError when no digit is known
    return [_scaled(r, p, nf.v, known) for r in _evaluate(nf.terms, xs, p**nf.W)]


# ---------------------------------------------------------------------------
# the integral and the weighted measures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def _level_factors(
    params: RhoQParams, levels: tuple[int, ...], n: int, known: int, lifted: bool
) -> tuple[PadicNumber, ...]:
    """What `_level_batch` multiplies the level-m sum of every ball of level n
    by, per m in levels, at `known` digits: rho'^(p^M)/[p^M]', the Haar value
    of p^M Z_p, times 1/[p^n] when lifted.  A divisor that is a bounded zero
    raises PrecisionError."""
    p = params.prime
    at = params.lifted(n) if lifted else params
    outer = PadicNumber.one(p, known)
    if lifted:
        outer = div(outer, rhoq_integer(p**n, params, known))
    Ms = (m if lifted else n + m for m in levels)
    return tuple(outer * rhoq_haar_measure(Ball(p, 0, M), at, known - M) for M in Ms)


def _level_batch(
    f: IntegrableFunction,
    params: RhoQParams,
    levels: Sequence[int],
    d: int,
    shift: int,
    n: int = 0,
    lifted: bool = False,
) -> list[tuple[int, PadicNumber]]:
    """(m, rho'^(p^M) S_m / [p^M]') for m in levels (sorted), where S_m is
    the sum over y < p^m of f(x) (q/rho)^x at x = shift + p^n y.

    At the given parameters M = n + m: the plain integral (n = 0) and the
    direct restricted sums.  With lifted, M = m at params.lifted(n), times
    1/[p^n]: the restriction identity.  The sums come from one
    `progression_sums` call, to w = d + n + top + 1 digits, and are sound to
    w - deficiency.  Each level costs one product: the sum times its factor
    from `_level_factors`, which every ball of a level shares.  A product or
    quotient keeps the sum of the valuations and the fewest digits, so
    folding the factors first gives the same value as dividing per ball.
    """
    p = params.prime
    levels = tuple(levels)
    top = max(levels, default=0)
    w = d + n + top + 1
    sums, deficiency = progression_sums(f, params, top, shift, p**n, w)
    known = w - deficiency
    factors = _level_factors(params, levels, n, known, lifted)
    mod = p**known
    terms = []
    for m, factor in zip(levels, factors):
        s = sums[m]
        if s is None:
            raise DomainError("level sum with negative valuation")
        s %= mod
        if s:  # factor * s; a factor is never zero: units over nonzero brackets
            v = vp(s, p)
            r = min(factor.digits, known - v)
            term = _new(p, factor.val + v, factor.unit * (s // p**v) % p**r, r)
        else:
            term = PadicNumber.bounded_zero(p, factor.val + known)
        terms.append((m, term))
    return terms


def volkenborn_integral(
    f: IntegrableFunction,
    params: RhoQParams,
    levels: Sequence[int],
    *,
    digits: int | None = None,
    target_exponent: int | None = None,
) -> ApproximantSequence:
    """A_N = rho^(p^N)/[p^N] * sum_{x<p^N} f(x) (q/rho)^x, N over levels."""
    levels = sorted(levels)
    if not levels or levels[0] < 1:
        raise ValueError("levels must be >= 1")
    d = digits if digits is not None else params.precision
    t = target_exponent if target_exponent is not None else default_target(d)
    terms = _level_batch(f, params, levels, d, 0)
    terms = [(N, a.reduce_abs(d) if a.abs_precision > d else a) for N, a in terms]
    return ApproximantSequence.build(
        params.prime, terms, t, note="integral of %s" % f.describe()
    )


def weighted_measure_sequence(
    f: IntegrableFunction,
    params: RhoQParams,
    ball: Ball,
    inner_levels: Sequence[int],
    *,
    digits: int | None = None,
) -> ApproximantSequence:
    """Ball value of the f-weighted measure via the restriction identity:

    (1/[p^n]) (q/rho)^a * integral of f(a + p^n y) at parameters lifted by n,
    the inner integral evaluated level by level.
    """
    inner_levels = sorted(inner_levels)
    if not inner_levels or inner_levels[0] < 1:
        raise ValueError("inner levels must be >= 1")
    d = digits if digits is not None else params.precision
    terms = _level_batch(f, params, inner_levels, d, ball.rep, ball.level, lifted=True)
    note = "weighted measure of %s on %s" % (f.describe(), ball)
    return ApproximantSequence.build(params.prime, terms, default_target(d), note=note)


def weighted_measure_direct(
    f: IntegrableFunction,
    params: RhoQParams,
    ball: Ball,
    depth: int,
    *,
    digits: int | None = None,
) -> ApproximantSequence:
    """Ball value by restricted direct sums over x ≡ a (mod p^n), x < p^M.

    The independent evaluation path: full-level scale factors rho^(p^M)/[p^M]
    at the unlifted parameters; cross-validated against
    weighted_measure_sequence (same mathematical object, different arithmetic).
    """
    d = digits if digits is not None else params.precision
    terms = _level_batch(f, params, range(1, depth + 1), d, ball.rep, ball.level)
    note = "direct restricted sums of %s on %s" % (f.describe(), ball)
    return ApproximantSequence.build(params.prime, terms, default_target(d), note=note)


#: thm32's inner-level window for the restriction identity and the direct
#: sums; a `WeightedDistribution`'s ball values take no limit over levels
WEIGHTED_LEVELS = range(1, 6)


@lru_cache(maxsize=1)
def _ball_memo(params: RhoQParams) -> dict[IntegrableFunction, dict[Ball, PadicNumber]]:
    """The weighted ball values at params: one Ball-keyed dict per weight."""
    return {}


class WeightedDistribution(Distribution):
    """The f-weighted family as a Distribution: ball values, the exact limits
    of the restriction identity (`limits.ball_values`), memoized in
    `_ball_memo(params)[f]`, which every instance with equal (f, params) shares
    (f and params hashed once per instance).  A new pair or `cache_clear()` drops
    the memo (an older instance keeps its dict); BALL_MEMO_SIZE bounds it."""

    family = "weighted"

    def __init__(self, f: IntegrableFunction, params: RhoQParams):
        super().__init__(params)
        self.f = f
        self._weights = _ball_memo(params)
        self._memo = self._weights.setdefault(f, {})

    def _make_room(self, n: int) -> None:
        """Empty every weight's dict if n more values would pass BALL_MEMO_SIZE."""
        if sum(map(len, self._weights.values())) + n > BALL_MEMO_SIZE:
            for memo in self._weights.values():
                memo.clear()

    def values(self, balls: Sequence[Ball]) -> list[PadicNumber]:
        """The balls not in the memo are made by one `_batch` per level."""
        found, missing = {}, {}
        for ball in balls:
            hit = self._memo.get(ball)
            if hit is None:
                missing.setdefault(ball.level, {})[ball.rep] = None
            else:
                found[ball] = hit
        p = self.params.prime
        for level, reps in missing.items():
            made = self._batch(level, list(reps))
            found.update(zip((Ball(p, a, level) for a in reps), made))
        return [found[ball] for ball in balls]

    def _batch(self, level: int, reps: Sequence[int]) -> list[PadicNumber]:
        """The values of the balls a + p^level Z_p, a in reps, off one limit
        table, memoized unless they alone pass BALL_MEMO_SIZE."""
        from .limits import ball_values  # it imports this module

        p = self.params.prime
        out = ball_values(self.f, self.params, level, reps, self.digits)
        self._make_room(len(reps))
        if len(reps) <= BALL_MEMO_SIZE:
            self._memo.update(zip((Ball(p, a, level) for a in reps), out))
        return out

    def describe(self) -> dict:
        d = super().describe()
        d["weight"] = self.f.describe()
        return d


# ---------------------------------------------------------------------------
# Bernoulli-type integrals and the weighted integral identity
# ---------------------------------------------------------------------------


def carlitz_bernoulli(
    n: int,
    a: int,
    params: RhoQParams,
    levels: Sequence[int],
    *,
    digits: int | None = None,
    target_exponent: int | None = None,
) -> ApproximantSequence:
    """The integral of rho^(a x) [x]^n: the deformed Bernoulli-type numbers."""
    return volkenborn_integral(
        mixed_power(a, n), params, levels, digits=digits, target_exponent=target_exponent
    )


def bernoulli_comparison_report(a: int, params: RhoQParams, levels: Sequence[int]) -> dict:
    """Measured beta at n=0 next to the printed closed form a*log(rho)/log(rho*q),
    both at the precision of the parameters.

    Emitted as a comparison, never an assertion: the measured integral of 1 is
    rho for every level, which the printed formula does not reproduce.
    """
    from .padic import padic_log

    d = params.precision
    p = params.prime
    seq = carlitz_bernoulli(0, a, params, levels)
    measured = seq.limit_estimate()
    rho = PadicNumber(p, 0, params.rho_residue(d), d)
    q = PadicNumber(p, 0, params.q_residue(d), d)
    printed = None
    note = ""
    log_rq = padic_log(rho * q)
    log_r = padic_log(rho)
    if log_rq.is_zero_residue:
        note = "printed formula undefined: log(rho*q) vanishes at working precision"
    else:
        try:
            ratio = div(log_r, log_rq)
            printed = ratio * PadicNumber.from_integer(a, p, d) if a else PadicNumber.exact_zero(p)
        except PrecisionError:
            note = "printed formula not computable at working precision"
    agree = printed is not None and measured.agrees(printed, max(1, d - 4))
    return {
        "a": a,
        "measured_limit": measured.digit_string(),
        "sequence": seq.describe(),
        "printed_formula_value": printed.digit_string() if printed is not None else None,
        "printed_formula": "a*log(rho)/log(rho*q)",
        "agreement": bool(agree),
        "note": note,
    }


@dataclass
class IntegralComparison:
    """lhs = integral of g against the P-weighted measure; rhs = integral of gP."""

    g_label: str
    lhs: ApproximantSequence
    rhs: ApproximantSequence
    fitted_ratio: PadicNumber | None
    note: str = ""

    @property
    def ratio_certified(self) -> int | float:
        """Exponent to which the fitted ratio is certified (estimate quality)."""
        certs = [
            s.best_certified for s in (self.lhs, self.rhs) if s.best_certified is not None
        ]
        if not certs or self.fitted_ratio is None:
            return 0
        # dividing by the rhs limit amplifies absolute error by its norm
        v = self.rhs.limit_estimate().valuation
        amplification = max(0, int(v)) if v != float("inf") else 0
        return min(certs) - amplification

    def describe(self) -> dict:
        return {
            "g": self.g_label,
            "lhs": self.lhs.describe(),
            "rhs": self.rhs.describe(),
            "fitted_ratio": self.fitted_ratio.digit_string() if self.fitted_ratio else None,
            "ratio_certified": str(self.ratio_certified),
            "note": self.note,
        }


def integral_against_weighted(
    gs: Sequence[IntegrableFunction],
    weights: Sequence[WeightedDistribution],
    outer_levels: Sequence[int],
) -> list[list[IntegralComparison]]:
    """Riemann sums of each g in gs against each P-weighted measure vs the
    integral of gP: per g, one comparison per distribution in weights.

    P, the parameters and the precision are those of each distribution (its
    `f`, `params` and `digits`); the distributions share their parameters.
    Each Riemann sum is one exact finite sum (`limits.riemann_sums`), not a
    sum of ball values.  Returns both sequences and the fitted lhs/rhs
    ratio; whether that ratio is independent of g is for the caller (the
    audit battery) to decide.
    """
    params = weights[0].params
    if any(weighted.params != params for weighted in weights):
        raise ValueError("the weighted distributions must share their parameters")
    outer_levels = sorted(outer_levels)
    if not outer_levels or outer_levels[0] < 1:  # as the integrals of gP refuse them
        raise ValueError("levels must be >= 1")
    from .limits import riemann_sums  # it imports this module

    sums = riemann_sums(gs, weights, outer_levels)
    return [
        [_comparison(g, w, s, outer_levels) for w, s in zip(weights, per_weight)]
        for g, per_weight in zip(gs, sums)
    ]


def _comparison(
    g: IntegrableFunction,
    weighted: WeightedDistribution,
    sums: list[PadicNumber],
    outer_levels: list[int],
) -> IntegralComparison:
    """The comparison of g against one weight, from its exact Riemann sums
    R_m, one per outer level."""
    params, d = weighted.params, weighted.digits
    p = params.prime
    label = "Riemann sums of %s against weighted measure" % g.describe()
    lhs = ApproximantSequence.build(p, list(zip(outer_levels, sums)), default_target(d), note=label)
    rhs = volkenborn_integral(product(g, weighted.f), params, outer_levels, digits=d)
    ratio = None
    note = ""
    r_lim = rhs.limit_estimate()
    l_lim = lhs.limit_estimate()
    if r_lim.is_zero_residue:
        note = "rhs vanishes at working precision; ratio skipped"
    else:
        try:
            ratio = div(l_lim, r_lim)
        except PrecisionError:
            note = "ratio not computable at working precision"
    return IntegralComparison(g.describe(), lhs, rhs, ratio, note)
