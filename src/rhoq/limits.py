"""mu_P's ball values and thm33's Riemann sums in closed form.

A ball value of the f-weighted measure is a limit over the inner levels M
(the restriction identity, at rho' = rho^(p^n), q' = q^(p^n)):

    mu_f(a + p^n Z_p) = lim_M 1/[p^n] * rho'^(p^M)/[p^M]' *
                        sum over y < p^M of f(a + p^n y) (q/rho)^(a + p^n y).

With f lowered to p^-v sum_b P_b(x) b^x and B = b q/rho, the sum is
sum_b B^a sum_y P_b(a + p^n y) C^y with C = B^(p^n), and the limit of each
moment sum is the classical Volkenborn integral of y^k C^y scaled by S'
(Robert, A Course in p-adic Analysis, GTM 198, ch. 5; T. Kim, q-Volkenborn
integration, Russ. J. Math. Phys. 9 (2002)):

    E_k = S' sum_j B_(j+k) u^j / j!,   u = log C = p^n log B,
    S'  = (rho' - q')/(log rho' - log q'), or rho' at rho = q,

with B_1 = -1/2.  `_limit_table` applies to E_k the Taylor step that the
moment tables apply to the level sums, so per base it holds the limit as a
polynomial in the shift a: a ball costs one Horner pass per base and one
power B^a, and takes no limit.

The term count and the guard digits are fixed up front.  ν(B_m) >= -1 (von
Staudt-Clausen) and ν(u) >= n + 1, so term j of p E_k / S' has valuation at
least (n + 1) j - ν_p(j!) >= (n + 1) j - (j - 1)/(p - 1), which grows with j:
the series stops at the first j where that bound reaches the digits kept.
ν(log x) = ν(x - 1) on 1 + pZ_p, so S' is a unit and its division costs
n + ν(rho - q) digits, taken on its two operands; 1/[p^n] costs n digits and
the E_k one.  A ball value is known to one digit past the distribution's
digits, as the deepest restriction-identity term it replaces was.

A Riemann sum R_m = sum over a < p^m of g(a) mu_P(a + p^m Z_p) is one exact
finite sum over the same rows: with g lowered to p^-v_g sum_c Q_c(a) c^a it
is a sum of the moment sums U_k(m) = sum over a < p^m of a^k (c B)^a, which
one `_moment_sums` pass per base over a < p^(max m) gives for every m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Sequence

from .calculus import RhoQParams, rhoq_integer, vp_factorial
from .integration import (
    MEMO_SIZE,
    IntegrableFunction,
    NormalForm,
    WeightedDistribution,
    _evaluate,
    _moment_sums,
    _scaled,
    _shift_row,
    _taylor,
    lower,
)
from .padic import PadicNumber, padic_log, vp


@lru_cache(maxsize=MEMO_SIZE)
def bernoulli_number(m: int) -> Fraction:
    """B_m with B_1 = -1/2: the classical Volkenborn integral of x^m.

    From sum over j <= m of binom(m + 1, j) B_j = 0.  The sum reads B_j for
    j ascending, so each call finds the ones below it cached and the calls
    nest at most two deep."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2:
        return Fraction(0)
    acc = Fraction(0)
    b = 1  # binom(m + 1, j)
    for j in range(m):
        acc += b * bernoulli_number(j)
        b = b * (m + 1 - j) // (j + 1)
    return -acc / (m + 1)


def _log(x: int, p: int, w: int) -> int:
    """log x mod p^w for x ≡ 1 (mod p), x known mod p^w: log(x^(p^s))/p^s,
    whose series starts at valuation s + 1 and so is about s + 1 times
    shorter; x^(p^s) is known mod p^(w + s)."""
    s = isqrt(w)
    y = pow(x, p**s, p ** (w + s))
    return padic_log(PadicNumber(p, 0, y, w + s)).residue(w + s) // p**s


def _unit_factor(params: RhoQParams, n: int, W: int) -> int:
    """S'/([p^n]/p^n) mod p^W: a unit, read from residues to W + ν(rho' - q')
    and W + n digits."""
    p, mod = params.prime, params.prime**W
    at = params.lifted(n)
    diff = params.rho_base - params.q_base
    if diff:  # S' = (q' - rho')/log(q'/rho'), both of valuation e
        e = vp(diff.numerator, p) + at.tower
        num = (at.q_residue(W + e) - at.rho_residue(W + e)) % p ** (W + e) // p**e
        den = _log(at.ratio_residue(W + e), p, W + e) // p**e
        s = num * pow(den, -1, mod)
    else:  # rho = q
        s = at.rho_residue(W)
    bracket = rhoq_integer(p**n, params, W + n)  # p^n times a unit known to W digits
    return s * pow(bracket.unit, -1, mod) % mod


@lru_cache(maxsize=MEMO_SIZE)
def _limit_table(
    f: IntegrableFunction, params: RhoQParams, w: int, n: int
) -> tuple[NormalForm, tuple]:
    """f's normal form at w digits and, per base b, (B, row): B = b q/rho
    mod p^W and row a polynomial in the shift a, highest degree first, with

        mu_f(a + p^n Z_p) = p^-(v + n + 1) sum over (B, row) of B^a row(a).

    row is the Taylor step of `_moment_table` at step p^n applied to the
    moments p^(n + 1) E_k / [p^n] (E_k as in the module docstring), every
    entry mod p^W.  A zero form has the row ()."""
    nf = lower(f, params, w)
    params.require_digits(w)
    p, W = params.prime, nf.W
    mod = p**W
    unit = _unit_factor(params, n, W)
    # terms j < J: the bound (n + 1) j - (j - 1)/(p - 1) on ν of term j reaches W at J
    J = 1
    while (n + 1) * J - (J - 1) // (p - 1) < W:
        J += 1
    # u^j/j! = c_j L^j with L = log(B)/p and c_j = p^((n + 1) j - ν(j!)) / (j!/p^ν(j!))
    cs, unit_fact = [1], 1
    for j in range(1, J):
        unit_fact = unit_fact * (j // p ** vp(j, p)) % mod
        cs.append(p ** ((n + 1) * j - vp_factorial(j, p)) * pow(unit_fact, -1, mod) % mod)
    degree = max((len(coeffs) for _, coeffs in nf.terms), default=1) - 1
    pbs = [_p_bernoulli(m, p, mod) for m in range(J + degree)]
    tables = []
    for base, coeffs in nf.terms:
        if not any(coeffs):  # the zero form: every ball vanishes
            tables.append((1, ()))
            continue
        B = base * nf.ratio % mod
        L, power, ts = _log(B, p, W) // p, 1, []
        for c in cs:
            ts.append(c * power % mod)
            power = power * L % mod
        moments = [unit * sum(map(mul, ts, pbs[k:])) % mod for k in range(len(coeffs))]
        tables.append((B, _shift_row(_taylor(coeffs, p**n, mod), moments, mod)))
    return nf, tuple(tables)


def _p_bernoulli(m: int, p: int, mod: int) -> int:
    """p B_m mod `mod`: an integer, since p^2 divides no denominator of B_m."""
    b = bernoulli_number(m) * p
    return b.numerator * pow(b.denominator, -1, mod) % mod


def ball_values(
    f: IntegrableFunction, params: RhoQParams, n: int, reps: Sequence[int], digits: int
) -> list[PadicNumber]:
    """mu_f(a + p^n Z_p) for a in reps, to digits + 1 absolute digits (fewer
    by the digits that coefficients known to fewer digits take off), off one
    limit table: one Horner pass per base and one power B^a a ball
    (`_evaluate`)."""
    p = params.prime
    nf, tables = _limit_table(f, params, digits + n + 2, n)
    shift = nf.v + n + 1
    known = min(digits + 1, nf.W - nf.deficiency - shift)
    return [_scaled(x, p, shift, known) for x in _evaluate(tables, reps, p**nf.W)]


def riemann_sums(
    gs: Sequence[IntegrableFunction],
    weights: Sequence[WeightedDistribution],
    outer: Sequence[int],
) -> list[list[list[PadicNumber]]]:
    """Per g, weight and m in outer, R_m = sum over a < p^m of g(a)
    mu_P(a + p^m Z_p), P the weight's `f`, exact to digits + 1 absolute
    digits of the weight, fewer by the digits its inputs lack.

    mu_P(a + p^m Z_p) = p^-(v + m + 1) sum_b B_b^a r_b(a) with r_b a row of
    P's limit table at level m, the one its balls read.  With g lowered once
    to p^-v_g sum_c Q_c(a) c^a, the sum over a is

        p^-(v + m + 1 + v_g) sum over (b, c) and k of [Q_c r_b]_k U_k(m),

    U_k(m) = sum over a < p^m of a^k (c B_b)^a.  The U come from one
    `_moment_sums` pass per base c B_b over a < p^max(outer), read at each
    level end.  g is lowered v digits deeper than the rows, so that its
    digits cover |P| <= p^v; a g with |g| <= p^v_g takes v_g digits off
    what the rows know.
    """
    params = weights[0].params
    p, top = params.prime, max(outer)
    # per weight and m, what the balls of level m read
    reads = []
    for weighted in weights:
        d = weighted.digits
        for m in outer:
            nf, tables = _limit_table(weighted.f, params, d + m + 2, m)
            reads.append((m, d, nf, tables))
    w_g = max(weighted.digits for weighted in weights) + top + 2
    w_g += max(nf.v for _, _, nf, _ in reads)
    sums, needs = [], {}  # needs: (base mod p^K, K) -> the moments it needs
    for g in gs:
        form = lower(g, params, w_g)
        for m, d, nf, tables in reads:
            K = min(form.W, nf.W)
            parts = []
            for c, Q in form.terms:
                for B, row in tables:
                    if row:  # the zero form of P has none
                        key = c * B % p**K, K
                        needs[key] = max(needs.get(key, 0), len(Q) + len(row) - 1)
                        parts.append((key, Q[::-1], row[::-1]))
            shift = nf.v + m + 1 + form.v
            digits = min(d + 1, nf.W - nf.deficiency - shift, form.W - form.deficiency - shift)
            sums.append((m, parts, shift, digits, bool(form.terms)))
    # a pass serves every base congruent to its own mod p^K: made deepest K
    # first, the pass of a base serves every K at or below the base's
    served: dict[tuple[int, int], int] = {}
    counts: dict[int, int] = {}
    for (C, K), count in sorted(needs.items(), key=lambda item: -item[0][1]):
        base = next((b for b in counts if b % p**K == C), C)
        served[C, K], counts[base] = base, max(counts.get(base, 0), count)
    mod = p ** max((K for _, K in needs), default=1)
    ends = [p**m for m in range(top + 1)]
    moments = {b: list(_moment_sums(b, count, ends, mod)) for b, count in counts.items()}

    out, zero = [], PadicNumber.exact_zero(p)
    for m, parts, shift, digits, nonzero in sums:
        x = 0
        for key, low, row in parts:
            U = moments[served[key]][m]
            # sum_k [Q r]_k U_k = sum_j r_j QU_j with QU_j = sum_i Q_i U_(i+j)
            x += sum(r * sum(map(mul, low, U[j:])) for j, r in enumerate(row))
        # an empty series g is the exact zero, as its values are
        out.append(_scaled(x, p, shift, digits) if nonzero else zero)
    per_level = iter(out)
    return [[[next(per_level) for _ in outer] for _ in weights] for _ in gs]
