"""Volkenborn-type integration against the deformed Haar distribution.

Every integral is returned as an ApproximantSequence: the objects of
interest are limits, and auditing them needs the rates, not just a value.

The level sums run on plain integer residues mod p^w with O(1) incremental
updates per point (running rho^x, q^x, [x] via the splitting identity
[x+s] = q^s [x] + rho^x [s], running weights).  One engine serves the plain
integral (shift=0, step=1), the restricted direct sums (shift=a, step=p^n),
and the lifted-parameter inner integrals of the restriction identity, which
keeps the two weighted-measure evaluation paths genuinely comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .calculus import (
    RhoQParams,
    p_power_bracket,
    rhoq_binomial,
    rhoq_integer,
    rhoq_power,
    vp_factorial,
)
from .measures import Ball, Distribution
from .padic import PadicNumber, PrecisionError, div
from .sequences import ApproximantSequence

# ---------------------------------------------------------------------------
# integrable functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrableFunction:
    """A pointwise-evaluable function on Z_p with a structure tag.

    Tags: const, poly_x (polynomial in x), poly_bracket (polynomial in [x]),
    exponential (c^x; c = q/rho when use_ratio_base), mixed (rho^(a x) [x]^n),
    mahler (Gaussian-binomial series), product, pointwise.
    """

    tag: str
    coeffs: tuple = ()
    base: Fraction | None = None
    use_ratio_base: bool = False
    a: int = 0
    n: int = 0
    fn: Callable[[int], PadicNumber] | None = None
    parts: tuple = ()
    label: str = ""

    @property
    def degree(self) -> int:
        if self.tag in ("poly_x", "poly_bracket", "mahler"):
            return len(self.coeffs) - 1
        if self.tag == "mixed":
            return self.n
        return 0

    def describe(self) -> str:
        return self.label or self.tag

    # -- direct pointwise evaluation (the contract; the engine is the fast path)

    def evaluate(self, x: int, params: RhoQParams, digits: int) -> PadicNumber:
        p = params.prime
        if self.tag == "const":
            return PadicNumber.from_fraction(self.coeffs[0], p, digits)
        if self.tag == "poly_x":
            value = sum(Fraction(c) * x**i for i, c in enumerate(self.coeffs))
            return PadicNumber.from_fraction(value, p, digits)
        if self.tag == "poly_bracket":
            bx = rhoq_integer(x, params, digits + 1)
            acc = PadicNumber.exact_zero(p)
            power = PadicNumber.one(p, digits + 1)
            for c in self.coeffs:
                acc = acc + _as_padic(c, p, digits + 1) * power
                power = power * bx
            return acc
        if self.tag == "exponential":
            return rhoq_power(self._exp_base(params, digits), x, digits)
        if self.tag == "mixed":
            rho = PadicNumber(p, 0, params.rho_residue(digits), digits)
            return rhoq_power(rho, self.a * x, digits) * rhoq_integer(x, params, digits) ** self.n
        if self.tag == "mahler":
            acc = PadicNumber.exact_zero(p)
            for m, c in enumerate(self.coeffs):
                term = _as_padic(c, p, digits) * rhoq_binomial(x, m, params, digits)
                acc = acc + term if not term.is_exact_zero else acc
            return acc
        if self.tag == "product":
            acc = PadicNumber.one(p, digits)
            for part in self.parts:
                acc = acc * part.evaluate(x, params, digits)
            return acc
        if self.tag == "sum":
            acc = PadicNumber.exact_zero(p)
            for c, part in zip(self.coeffs, self.parts):
                acc = acc + _as_padic(c, p, digits) * part.evaluate(x, params, digits)
            return acc
        if self.tag == "pointwise":
            return self.fn(x)
        raise ValueError("unknown tag %r" % self.tag)

    def _exp_base(self, params: RhoQParams, digits: int) -> PadicNumber:
        p = params.prime
        if self.use_ratio_base:
            return PadicNumber(p, 0, params.ratio_residue(digits), digits)
        return PadicNumber.from_fraction(self.base, p, digits)

    def loss_bound(self, params: RhoQParams) -> int:
        """Digits an evaluation may cost (Gaussian-binomial denominators)."""
        if self.tag == "mahler":
            return vp_factorial(self.degree, params.prime)
        if self.tag in ("product", "sum"):
            return max((part.loss_bound(params) for part in self.parts), default=0)
        return 0


def _as_padic(c, p: int, digits: int) -> PadicNumber:
    if isinstance(c, PadicNumber):
        return c
    return PadicNumber.from_fraction(Fraction(c), p, digits)


def capped_residue(value: PadicNumber, w: int) -> int:
    """value mod p^min(w, known precision); 0 for either zero flavour."""
    if value.is_zero_residue:
        return 0
    return value.residue(min(w, int(value.abs_precision)))


def const(c: Fraction | int) -> IntegrableFunction:
    return IntegrableFunction("const", coeffs=(Fraction(c),), label="const %s" % c)


def coordinate() -> IntegrableFunction:
    return IntegrableFunction("poly_x", coeffs=(Fraction(0), Fraction(1)), label="x")


def poly_in_x(coeffs: Sequence[Fraction | int], label: str = "") -> IntegrableFunction:
    return IntegrableFunction(
        "poly_x", coeffs=tuple(Fraction(c) for c in coeffs), label=label or "poly(x)"
    )


def poly_in_bracket(coeffs: Sequence, label: str = "") -> IntegrableFunction:
    return IntegrableFunction("poly_bracket", coeffs=tuple(coeffs), label=label or "poly([x])")


def bracket_power(k: int) -> IntegrableFunction:
    coeffs = tuple([Fraction(0)] * k + [Fraction(1)])
    return IntegrableFunction("poly_bracket", coeffs=coeffs, label="[x]^%d" % k)


def ratio_exponential() -> IntegrableFunction:
    return IntegrableFunction("exponential", use_ratio_base=True, label="(q/rho)^x")


def exponential(base: Fraction | int) -> IntegrableFunction:
    return IntegrableFunction("exponential", base=Fraction(base), label="(%s)^x" % base)


def mixed_power(a: int, n: int) -> IntegrableFunction:
    return IntegrableFunction("mixed", a=a, n=n, label="rho^(%dx)[x]^%d" % (a, n))


def mahler_function(coeffs: Sequence, label: str = "") -> IntegrableFunction:
    return IntegrableFunction("mahler", coeffs=tuple(coeffs), label=label or "mahler series")


def pointwise(fn: Callable[[int], PadicNumber], label: str = "pointwise") -> IntegrableFunction:
    return IntegrableFunction("pointwise", fn=fn, label=label)


def product(*fs: IntegrableFunction) -> IntegrableFunction:
    return IntegrableFunction(
        "product", parts=tuple(fs), label=" * ".join(f.describe() for f in fs)
    )


def linear_combination(coeffs: Sequence, fs: Sequence[IntegrableFunction]) -> IntegrableFunction:
    """sum of c_i * f_i(x); rides the running engine state of every part."""
    if len(coeffs) != len(fs):
        raise ValueError("one coefficient per part")
    label = " + ".join("%s*(%s)" % (c, f.describe()) for c, f in zip(coeffs, fs))
    return IntegrableFunction("sum", coeffs=tuple(coeffs), parts=tuple(fs), label=label)


# ---------------------------------------------------------------------------
# the progression-sum engine
# ---------------------------------------------------------------------------


class _Running:
    """Residues of f(x) at x = shift, shift+step, ... with O(1) advancement."""

    def __init__(self, f: IntegrableFunction, params: RhoQParams, w: int, shift: int, step: int):
        self.f = f
        self.params = params
        self.p = params.prime
        self.mod = self.p**w
        self.w = w
        self.shift = shift
        self.step = step
        self.deficiency = 0  # digits the inputs fell short of w (kept honest)
        tag = f.tag
        if tag in ("poly_bracket", "mahler", "poly_x") and f.coeffs:
            for c in f.coeffs:
                if isinstance(c, PadicNumber) and not c.is_exact_zero:
                    self.deficiency = max(self.deficiency, w - int(c.abs_precision))
        self.deficiency = max(self.deficiency, 0)
        if tag in ("poly_bracket", "mixed", "mahler"):
            from .calculus import _deformed_integer_residue

            self.bracket = _deformed_integer_residue(params, shift, w) if shift else 0
            self.rho_pow = pow(params.rho_residue(w), shift, self.mod)
            self.q_step = pow(params.q_residue(w), step, self.mod)
            self.rho_step = pow(params.rho_residue(w), step, self.mod)
            self.bracket_step = _deformed_integer_residue(params, step, w)
        if tag == "mahler":
            self.q_pow = pow(params.q_residue(w), shift, self.mod)
            self.q_step_only = pow(params.q_residue(w), step, self.mod)
            self._mahler_tables()
        if tag == "exponential":
            b = f._exp_base(params, w).residue(w)
            self.exp_pow = pow(b, shift, self.mod)
            self.exp_step = pow(b, step, self.mod)
        if tag == "mixed":
            b = pow(params.rho_residue(w), f.a, self.mod)
            self.exp_pow = pow(b, shift, self.mod)
            self.exp_step = pow(b, step, self.mod)
        if tag == "poly_x":
            self.x_res = shift % self.mod
        if tag == "const":
            self.const_res = _as_padic(f.coeffs[0], self.p, w).residue(w)
        if tag in ("poly_x", "poly_bracket", "mahler"):
            self.coeff_res = tuple(
                _coeff_residue(c, self.p, w) for c in f.coeffs
            )
        if tag in ("product", "sum"):
            self.subs = [_Running(part, params, w, shift, step) for part in f.parts]
        if tag == "sum":
            self.sum_coeffs = tuple(_coeff_residue(c, self.p, w) for c in f.coeffs)
        if tag == "pointwise":
            self.x_int = shift

    def _mahler_tables(self) -> None:
        from .calculus import _deformed_integer_residue

        p, w, mod = self.p, self.w, self.mod
        deg = self.f.degree
        params = self.params
        self.j_bracket = [_deformed_integer_residue(params, j, w) for j in range(deg)]
        qinv = pow(params.q_residue(w), -1, mod)
        rinv = pow(params.rho_residue(w), -1, mod)
        self.qinv_pow = [pow(qinv, j, mod) for j in range(deg)]
        self.rinv_pow = [pow(rinv, j, mod) for j in range(deg)]
        self.fact_val = []
        self.fact_inv_unit = []
        for m in range(deg + 1):
            v = vp_factorial(m, p)
            res = 1
            for j in range(1, m + 1):
                res = res * _deformed_integer_residue(params, j, w) % mod
            unit = res // p**v
            self.fact_val.append(v)
            self.fact_inv_unit.append(pow(unit, -1, p ** (w - v)))

    def value(self) -> int:
        f, mod = self.f, self.mod
        tag = f.tag
        if tag == "const":
            return self.const_res
        if tag == "poly_x":
            acc = 0
            for c in reversed(self.coeff_res):
                acc = (acc * self.x_res + c) % mod
            return acc
        if tag == "poly_bracket":
            acc = 0
            for c in reversed(self.coeff_res):
                acc = (acc * self.bracket + c) % mod
            return acc
        if tag == "exponential":
            return self.exp_pow
        if tag == "mixed":
            return self.exp_pow * pow(self.bracket, f.n, mod) % mod
        if tag == "mahler":
            return self._mahler_value()
        if tag == "product":
            acc = 1
            for s in self.subs:
                acc = acc * s.value() % mod
            self.deficiency = max(self.deficiency, max(s.deficiency for s in self.subs))
            return acc
        if tag == "sum":
            acc = 0
            for c, s in zip(self.sum_coeffs, self.subs):
                acc = (acc + c * s.value()) % mod
            self.deficiency = max(self.deficiency, max(s.deficiency for s in self.subs))
            return acc
        value = f.fn(self.x_int)
        if not value.is_exact_zero:
            self.deficiency = max(self.deficiency, self.w - int(value.abs_precision), 0)
        return capped_residue(value, self.w) % self.mod

    def _mahler_value(self) -> int:
        p, mod = self.p, self.mod
        acc = 0
        prod = 1
        for m, c in enumerate(self.coeff_res):
            if m:
                j = m - 1
                shifted = (self.bracket - self.q_pow * self.qinv_pow[j] % mod * self.j_bracket[j]) % mod
                prod = prod * (shifted * self.rinv_pow[j] % mod) % mod
            v = self.fact_val[m]
            binom = prod // p**v * self.fact_inv_unit[m] % (mod // p**v) if m else 1
            acc = (acc + c * binom) % mod
        return acc

    def advance(self) -> None:
        tag = self.f.tag
        if tag in ("poly_bracket", "mixed", "mahler"):
            self.bracket = (self.q_step * self.bracket + self.rho_pow * self.bracket_step) % self.mod
            self.rho_pow = self.rho_pow * self.rho_step % self.mod
        if tag == "mahler":
            self.q_pow = self.q_pow * self.q_step_only % self.mod
        if tag in ("exponential", "mixed"):
            self.exp_pow = self.exp_pow * self.exp_step % self.mod
        if tag == "poly_x":
            self.x_res = (self.x_res + self.step) % self.mod
        if tag in ("product", "sum"):
            for s in self.subs:
                s.advance()
        if tag == "pointwise":
            self.x_int += self.step


def _coeff_residue(c, p: int, w: int) -> int:
    if isinstance(c, PadicNumber):
        return capped_residue(c, w)
    return PadicNumber.from_fraction(Fraction(c), p, w).residue(w)


def progression_sums(
    f: IntegrableFunction,
    params: RhoQParams,
    max_level: int,
    shift: int,
    step: int,
    w: int,
) -> tuple[list[int], int]:
    """W(m) = sum over y < p^m of f(shift + step y) * (q/rho)^(shift + step y),
    as residues mod p^w, for m = 0..max_level (single pass, nested sums).

    Returns (sums, deficiency): the sums are sound mod p^(w - deficiency),
    where the deficiency accounts for inputs known to fewer than w digits.

    The common families run specialized locals-only loops (this is the hot
    path of every integral); mahler/product/pointwise go through the generic
    running evaluator, which the specializations are tested against.
    """
    p = params.prime
    mod = p**w
    ev = _Running(f, params, w, shift, step)
    t = params.ratio_residue(w)
    wt = pow(t, shift, mod)
    wts = pow(t, step, mod)
    ends = [p**m for m in range(max_level + 1)]
    out = [0] * (max_level + 1)
    acc = 0
    y = 0
    tag = f.tag

    if tag == "const":
        c = ev.const_res
        for m, end in enumerate(ends):
            for _ in range(y, end):
                acc = (acc + c * wt) % mod
                wt = wt * wts % mod
            y = end
            out[m] = acc
    elif tag == "exponential":
        e_pow, e_step = ev.exp_pow, ev.exp_step
        for m, end in enumerate(ends):
            for _ in range(y, end):
                acc = (acc + e_pow * wt) % mod
                e_pow = e_pow * e_step % mod
                wt = wt * wts % mod
            y = end
            out[m] = acc
    elif tag == "poly_x":
        coeffs = tuple(reversed(ev.coeff_res))
        x_res = ev.x_res
        for m, end in enumerate(ends):
            for _ in range(y, end):
                v = 0
                for c in coeffs:
                    v = (v * x_res + c) % mod
                acc = (acc + v * wt) % mod
                x_res = (x_res + step) % mod
                wt = wt * wts % mod
            y = end
            out[m] = acc
    elif tag == "poly_bracket":
        coeffs = tuple(reversed(ev.coeff_res))
        b, r = ev.bracket, ev.rho_pow
        qs, rs, bs = ev.q_step, ev.rho_step, ev.bracket_step
        for m, end in enumerate(ends):
            for _ in range(y, end):
                v = 0
                for c in coeffs:
                    v = (v * b + c) % mod
                acc = (acc + v * wt) % mod
                b = (qs * b + r * bs) % mod
                r = r * rs % mod
                wt = wt * wts % mod
            y = end
            out[m] = acc
    elif tag == "mixed":
        npow = f.n
        e_pow, e_step = ev.exp_pow, ev.exp_step
        b, r = ev.bracket, ev.rho_pow
        qs, rs, bs = ev.q_step, ev.rho_step, ev.bracket_step
        for m, end in enumerate(ends):
            for _ in range(y, end):
                acc = (acc + e_pow * pow(b, npow, mod) * wt) % mod
                e_pow = e_pow * e_step % mod
                b = (qs * b + r * bs) % mod
                r = r * rs % mod
                wt = wt * wts % mod
            y = end
            out[m] = acc
    else:
        for m, end in enumerate(ends):
            for _ in range(y, end):
                acc = (acc + ev.value() * wt) % mod
                wt = wt * wts % mod
                ev.advance()
            y = end
            out[m] = acc
    return out, ev.deficiency


# ---------------------------------------------------------------------------
# the integral and the weighted measures
# ---------------------------------------------------------------------------


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
    p = params.prime
    d = digits if digits is not None else params.precision
    t = target_exponent if target_exponent is not None else max(2, d - 2)
    loss = f.loss_bound(params)
    w = d + levels[-1] + loss + 1
    sums, deficiency = progression_sums(f, params, levels[-1], 0, 1, w)
    known = w - loss - deficiency
    mod = p**known
    terms = []
    for N in levels:
        s = sums[N] % mod
        s_p = (
            PadicNumber.from_integer(s, p, known)
            if s
            else PadicNumber.bounded_zero(p, known)
        )
        scale = PadicNumber(p, 0, pow(params.rho_residue(known), p**N, mod), known)
        a_n = div(scale * s_p, p_power_bracket(params, N, known))
        terms.append((N, a_n.reduce_abs(d) if a_n.abs_precision > d else a_n))
    return ApproximantSequence.build(p, terms, t, note="integral of %s" % f.describe())


def weighted_measure_sequence(
    f: IntegrableFunction,
    params: RhoQParams,
    ball: Ball,
    inner_levels: Sequence[int],
    *,
    digits: int | None = None,
    target_exponent: int | None = None,
) -> ApproximantSequence:
    """Ball value of the f-weighted measure via the restriction identity:

    (1/[p^n]) (q/rho)^a * integral of f(a + p^n y) at parameters lifted by n,
    the inner integral evaluated level by level.
    """
    inner_levels = sorted(inner_levels)
    if not inner_levels or inner_levels[0] < 1:
        raise ValueError("inner levels must be >= 1")
    p = params.prime
    n = ball.level
    d = digits if digits is not None else params.precision
    t = target_exponent if target_exponent is not None else max(2, d - 2)
    loss = f.loss_bound(params)
    w = d + inner_levels[-1] + n + loss + 1
    lifted = params.lifted(n)
    sums, deficiency = progression_sums(f, params, inner_levels[-1], ball.rep, p**n, w)
    known = w - loss - deficiency
    mod = p**known
    outer = div(
        PadicNumber.one(p, known), p_power_bracket(params, n, known)
    )
    rho_lift = lifted.rho_residue(known)
    terms = []
    for m in inner_levels:
        s = sums[m] % mod
        s_p = (
            PadicNumber.from_integer(s, p, known)
            if s
            else PadicNumber.bounded_zero(p, known)
        )
        scale = PadicNumber(p, 0, pow(rho_lift, p**m, mod), known)
        inner = div(scale * s_p, p_power_bracket(lifted, m, known))
        terms.append((m, outer * inner))
    return ApproximantSequence.build(
        p, terms, t, note="weighted measure of %s on %s" % (f.describe(), ball)
    )


def weighted_measure(
    f: IntegrableFunction,
    params: RhoQParams,
    ball: Ball,
    *,
    inner_levels: Sequence[int] | None = None,
    digits: int | None = None,
) -> PadicNumber:
    """The f-weighted measure of a ball (declared limit, or last approximant)."""
    d = digits if digits is not None else params.precision
    lv = inner_levels if inner_levels is not None else range(1, 6)
    return weighted_measure_sequence(f, params, ball, lv, digits=d).limit_estimate()


def weighted_measure_direct(
    f: IntegrableFunction,
    params: RhoQParams,
    ball: Ball,
    depth: int,
    *,
    digits: int | None = None,
    target_exponent: int | None = None,
) -> ApproximantSequence:
    """Ball value by restricted direct sums over x ≡ a (mod p^n), x < p^M.

    The independent evaluation path: full-level scale factors rho^(p^M)/[p^M]
    at the unlifted parameters; cross-validated against
    weighted_measure_sequence (same mathematical object, different arithmetic).
    """
    p = params.prime
    n = ball.level
    d = digits if digits is not None else params.precision
    t = target_exponent if target_exponent is not None else max(2, d - 2)
    loss = f.loss_bound(params)
    w = d + n + depth + loss + 1
    sums, deficiency = progression_sums(f, params, depth, ball.rep, p**n, w)
    known = w - loss - deficiency
    mod = p**known
    terms = []
    for m in range(1, depth + 1):
        M = n + m
        s = sums[m] % mod
        s_p = (
            PadicNumber.from_integer(s, p, known)
            if s
            else PadicNumber.bounded_zero(p, known)
        )
        scale = PadicNumber(p, 0, pow(params.rho_residue(known), p**M, mod), known)
        terms.append((m, div(scale * s_p, p_power_bracket(params, M, known))))
    return ApproximantSequence.build(
        p, terms, t, note="direct restricted sums of %s on %s" % (f.describe(), ball)
    )


class WeightedDistribution(Distribution):
    """The f-weighted family as a Distribution (memoized ball values)."""

    family = "weighted"

    def __init__(
        self,
        f: IntegrableFunction,
        params: RhoQParams,
        digits: int | None = None,
        inner_levels: Sequence[int] | None = None,
    ):
        super().__init__(params, digits if digits is not None else params.precision)
        self.f = f
        self.inner_levels = list(inner_levels) if inner_levels is not None else list(range(1, 6))

    def _value(self, ball: Ball) -> PadicNumber:
        return weighted_measure_sequence(
            self.f, self.params, ball, self.inner_levels, digits=self.digits
        ).limit_estimate()

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
    if n < 0:
        raise ValueError("n must be >= 0")
    return volkenborn_integral(
        mixed_power(a, n), params, levels, digits=digits, target_exponent=target_exponent
    )


def bernoulli_comparison_report(
    a: int,
    params: RhoQParams,
    levels: Sequence[int],
    *,
    digits: int | None = None,
) -> dict:
    """Measured beta at n=0 next to the printed closed form a*log(rho)/log(rho*q).

    Emitted as a comparison, never an assertion: the measured integral of 1 is
    rho for every level, which the printed formula does not reproduce.
    """
    from .padic import padic_log

    d = digits if digits is not None else params.precision
    p = params.prime
    seq = carlitz_bernoulli(0, a, params, levels, digits=d)
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
            ratio = div(log_r, log_rq, budget=None)
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
    g: IntegrableFunction,
    weight_poly: IntegrableFunction,
    params: RhoQParams,
    outer_levels: Sequence[int],
    *,
    weighted: WeightedDistribution | None = None,
    digits: int | None = None,
    target_exponent: int | None = None,
) -> IntegralComparison:
    """Riemann sums of g against the P-weighted measure vs the integral of gP.

    Returns both sequences and the fitted lhs/rhs ratio; whether that ratio is
    independent of g is for the caller (the audit battery) to decide.
    """
    p = params.prime
    d = digits if digits is not None else params.precision
    t = target_exponent if target_exponent is not None else max(2, d - 2)
    outer_levels = sorted(outer_levels)
    if weighted is None:
        weighted = WeightedDistribution(weight_poly, params, digits=d)
    terms = []
    for m in outer_levels:
        acc = PadicNumber.exact_zero(p)
        for i in range(p**m):
            gi = g.evaluate(i, params, d + m + 2)
            acc = acc + gi * weighted.value(Ball(p, i, m))
        terms.append((m, acc))
    lhs = ApproximantSequence.build(
        p, terms, t, note="Riemann sums of %s against weighted measure" % g.describe()
    )
    rhs = volkenborn_integral(
        product(g, weight_poly), params, outer_levels, digits=d, target_exponent=t
    )
    ratio = None
    note = ""
    r_lim = rhs.limit_estimate()
    l_lim = lhs.limit_estimate()
    if r_lim.is_zero_residue:
        note = "rhs vanishes at working precision; ratio skipped"
    else:
        try:
            ratio = div(l_lim, r_lim, budget=None)
        except PrecisionError:
            note = "ratio not computable at working precision"
    return IntegralComparison(g.describe(), lhs, rhs, ratio, note)
