"""Distributions on Z_p as ball functions.

A distribution assigns a p-adic value to every ball a + p^N Z_p, additively:
the value on a ball is the sum of the values on its p children.  The deformed
Haar family, linear combinations, and density-rescaled variants live here,
together with the invariance classifier and the density (limit of rescaled
ball values) extractor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .calculus import RhoQParams, rhoq_integer
from .padic import PadicNumber, dot, padic_from_integer, vp
from .sequences import ApproximantSequence, default_target


@dataclass(frozen=True, slots=True)
class Ball:
    """The cylinder rep + p^level Z_p with 0 <= rep < p^level."""

    prime: int
    rep: int
    level: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("ball level must be >= 1")
        mod = self.prime**self.level
        if not 0 <= self.rep < mod:
            object.__setattr__(self, "rep", self.rep % mod)

    def children(self) -> list["Ball"]:
        step = self.prime**self.level
        return [Ball(self.prime, self.rep + i * step, self.level + 1) for i in range(self.prime)]

    def __str__(self) -> str:
        return "%d + %d^%d Z_p" % (self.rep, self.prime, self.level)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def _per_level(make: Callable) -> Callable:
    """make(self, level), kept in the instance's `_levels` table: made once per level."""
    def once(self, level: int):
        hit = self._levels.get((make, level))
        if hit is None:
            hit = self._levels[make, level] = make(self, level)
        return hit
    return once


class Distribution:
    """Lazy ball function: a ball's value is made when it is read, by
    `values(balls)`, the one method a family defines.

    Values are pure given the parameters and known to `digits`, the
    precision of the parameters.  Only what the balls of one level share is
    kept, in `_levels` (the `_per_level` methods; atomic dict writes,
    idempotent entries), and each ball is remade from it when read.
    """

    family = "abstract"

    def __init__(self, params: RhoQParams):
        self.params = params
        self._levels: dict[tuple[Callable, int], object] = {}

    @property
    def digits(self) -> int:
        return self.params.precision

    def value(self, ball: Ball) -> PadicNumber:
        return self.values([ball])[0]

    def values(self, balls: Sequence[Ball]) -> list[PadicNumber]:
        """Each ball's value, in order: the one method a family defines (one
        that makes a level's balls together makes them in one batch per level)."""
        raise NotImplementedError

    @_per_level
    def _scale(self, level: int) -> PadicNumber:
        return rhoq_integer(self.params.prime**level, self.params, self.digits + level)

    def rescaled(self, ball: Ball) -> PadicNumber:
        """[p^N] * value(ball), [p^N] at digits + N: the quantity whose limit is the density."""
        return self._scale(ball.level) * self.value(ball)

    def describe(self) -> dict:
        return {"family": self.family, "digits": self.digits, "params": self.params.describe()}


def rhoq_haar_measure(ball: Ball, params: RhoQParams, digits: int | None = None) -> PadicNumber:
    """Deformed Haar value rho^(p^N) / [p^N] * (q/rho)^rep on a ball.

    The valuation is -N plus a unit: values legitimately escape Z_p.
    """
    w = (digits if digits is not None else params.precision) + ball.level
    factors = _haar_factors(params, ball.level, w)
    return _haar_numerator(ball.rep, factors) / rhoq_integer(params.prime**ball.level, params, w)


def _haar_factors(params: RhoQParams, level: int, w: int) -> tuple[int, int, int, int, int]:
    """(p, w, p^w, rho^(p^level), q/rho), residues mod p^w: what the Haar
    numerators of one level share."""
    p = params.prime
    mod = p**w
    return p, w, mod, pow(params.rho_residue(w), p**level, mod), params.ratio_residue(w)


def _haar_numerator(rep: int, factors: tuple[int, int, int, int, int]) -> PadicNumber:
    """rho^(p^N) (q/rho)^rep mod p^w: [p^N] times the Haar value of rep + p^N Z_p."""
    p, w, mod, rho_pn, ratio = factors
    return PadicNumber(p, 0, rho_pn * pow(ratio, rep, mod) % mod, w)


class RhoQHaar(Distribution):
    family = "rhoq_haar"

    @_per_level
    def _factors(self, level: int) -> tuple[int, int, int, int, int]:
        return _haar_factors(self.params, level, self.digits + level)

    def values(self, balls: Sequence[Ball]) -> list[PadicNumber]:
        """`rhoq_haar_measure` at `digits` for each ball: its numerator off the
        level's shared factors, over the [p^N] of `rescaled`."""
        return [
            _haar_numerator(b.rep, self._factors(b.level)) / self._scale(b.level) for b in balls
        ]


class LinearCombination(Distribution):
    """alpha * d1 + beta * d2 + ...; additivity is inherited termwise."""

    family = "linear_combination"

    def __init__(self, parts: Sequence[tuple[PadicNumber | int, Distribution]]):
        if not parts:
            raise ValueError("empty combination")
        super().__init__(parts[0][1].params)
        self.parts = list(parts)

    @property
    def digits(self) -> int:
        """The fewest digits of the parts."""
        return min(d.digits for _, d in self.parts)

    @_per_level
    def _coefficients(self, level: int) -> list[PadicNumber]:
        """The coefficients, integers taken at digits + 2 level + 2."""
        p, w = self.params.prime, self.digits + 2 * level + 2
        return [padic_from_integer(c, p, w) if isinstance(c, int) else c for c, _ in self.parts]

    def values(self, balls: Sequence[Ball]) -> list[PadicNumber]:
        """Each part reads all the balls in one call; a ball is one `dot` of
        the level's coefficients with its parts' values."""
        columns = [dist.values(balls) for _, dist in self.parts]
        return [dot(self._coefficients(b.level), row) for b, row in zip(balls, zip(*columns))]


def difference(d1: Distribution, d2: Distribution) -> LinearCombination:
    lc = LinearCombination([(1, d1), (-1, d2)])
    lc.family = "difference"
    return lc


class DensityScaled(Distribution):
    """The measure associated to a pointwise density g.

    value(a + p^N Z_p) = g(a) * (rho/q)^a * haar(a + p^N Z_p); the (rho/q)^a
    factor makes the rescaled values converge to g(a) itself.  It cancels the
    (q/rho)^a of the Haar value, which leaves g(a) * haar(p^N Z_p).
    """

    family = "density_scaled"

    def __init__(self, density: Callable[[int], PadicNumber], params: RhoQParams):
        super().__init__(params)
        self.density = density

    @_per_level
    def _haar(self, level: int) -> PadicNumber:
        """The Haar value of p^level Z_p at digits + level."""
        params = self.params
        return rhoq_haar_measure(Ball(params.prime, 0, level), params, self.digits + level)

    def values(self, balls: Sequence[Ball]) -> list[PadicNumber]:
        return [self._haar(b.level) * self.density(b.rep) for b in balls]


# ---------------------------------------------------------------------------
# invariance classification
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    kind: str  # "strongly" | "one_admissible" | "weakly" | "none_detected"
    levels: list[int]
    delta_table: list[Fraction]
    admissibility_table: list[Fraction]
    fitted_constant: Fraction | None
    fitted_constant_pure_level: Fraction | None
    weakly: bool
    strongly: bool
    one_admissible: bool
    better_decay_model: str
    family: str
    params: dict

    def describe(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "levels": self.levels,
            "delta": [str(d) for d in self.delta_table],
            "admissibility_c": [str(c) for c in self.admissibility_table],
            "fitted_C_parameter_decay": _opt_str(self.fitted_constant),
            "fitted_C_pure_level_decay": _opt_str(self.fitted_constant_pure_level),
            "better_decay_model": self.better_decay_model,
            "weakly": self.weakly,
            "strongly": self.strongly,
            "one_admissible": self.one_admissible,
            "verdict": self.kind,
        }


def _opt_str(x) -> str | None:
    return None if x is None else str(x)


def default_sample_points(p: int, min_level: int, max_level: int, seed: int) -> list[int]:
    """All residues at the smallest level plus 32 seeded integers at the largest."""
    rng = random.Random(seed)
    pts = list(range(p**min_level))
    pts += [rng.randrange(p**max_level) for _ in range(32)]
    return sorted(set(pts))


def parameter_gap_exponent(params: RhoQParams, n: int, w: int) -> int | float:
    """ν_p(rho^(p^n) - q^(p^n)) at working precision w (inf when it vanishes there)."""
    p = params.prime
    mod = p**w
    d = (pow(params.rho_residue(w), p**n, mod) - pow(params.q_residue(w), p**n, mod)) % mod
    if d == 0:
        return inf
    return vp(d, p)


def check_invariance(
    dist: Distribution, levels: Sequence[int], *, seed: int = 1
) -> InvarianceReport:
    """Classify a distribution by the decay of successive rescaled ball values.

    delta_N = max over sampled x of |[p^N] d(x + p^N Z_p) - [p^(N+1)] d(x + p^(N+1) Z_p)|.
    "-> 0" is operationalized as non-increasing over the window with the final
    value below p^-2.  The strong classification fits its constant on the
    first half of the window and must hold on the second half.  Every ball is
    read in one `values` call, level by level, and each level's values are
    then taken by position.
    """
    levels = sorted(levels)
    if not levels:
        raise ValueError("levels must be nonempty")
    params = dist.params
    p = params.prime
    sample_points = default_sample_points(p, levels[0], levels[-1] + 1, seed)
    read = sorted({*levels, *(N + 1 for N in levels)})
    values = dist.values([Ball(p, x, N) for N in read for x in sample_points])
    n = len(sample_points)
    rows = {N: values[i * n : (i + 1) * n] for i, N in enumerate(read)}

    # the sups are taken on integer exponents: |d| = p^-ν(d), 0 for a zero residue
    deltas: list[Fraction] = []
    c_table: list[Fraction] = []
    for N in levels:
        scale_lo, scale_hi = dist._scale(N), dist._scale(N + 1)
        e_delta = e_c = None
        for v, v_hi in zip(rows[N], rows[N + 1]):
            d = scale_lo * v - scale_hi * v_hi
            if d.unit and (e_delta is None or d.val < e_delta):
                e_delta = d.val
            if v.unit and (e_c is None or v.val < e_c):
                e_c = v.val
        deltas.append(Fraction(0) if e_delta is None else Fraction(p) ** -e_delta)
        c_table.append(Fraction(0) if e_c is None else Fraction(p) ** -(e_c + N))

    weakly = _decays(deltas, p)
    one_adm = _decays(c_table, p)

    strongly, fit_param, spread_param = _strong_fit(
        deltas, [parameter_gap_exponent(params, N, dist.digits + N + 2) for N in levels], p
    )
    strong_pure, fit_pure, spread_pure = _strong_fit(deltas, list(levels), p)
    if spread_param is None and spread_pure is None:
        better = "indistinguishable"
    elif spread_pure is None or (spread_param is not None and spread_param <= spread_pure):
        better = "parameter_decay"
    else:
        better = "pure_level_decay"

    if strongly:
        kind = "strongly"
    elif one_adm:
        kind = "one_admissible"
    elif weakly:
        kind = "weakly"
    else:
        kind = "none_detected"
    return InvarianceReport(
        kind=kind,
        levels=list(levels),
        delta_table=deltas,
        admissibility_table=c_table,
        fitted_constant=fit_param,
        fitted_constant_pure_level=fit_pure,
        weakly=weakly,
        strongly=strongly,
        one_admissible=one_adm,
        better_decay_model=better,
        family=dist.family,
        params=params.describe(),
    )


def _decays(table: list[Fraction], p: int) -> bool:
    if any(table[i] < table[i + 1] for i in range(len(table) - 1)):
        return False
    return table[-1] <= Fraction(1, p**2)


def _strong_fit(
    deltas: list[Fraction], exponents: list[int | float], p: int
) -> tuple[bool, Fraction | None, Fraction | None]:
    """Fit delta_N <= C p^-e_N on the first half, validate on the second half."""
    ratios: list[Fraction | None] = []
    for d, e in zip(deltas, exponents):
        if e == inf:
            ratios.append(None if d > 0 else Fraction(0))
        else:
            ratios.append(d * p ** int(e))
    if any(r is None for r in ratios):
        return all(d == 0 for d in deltas), None, None
    split = max(1, (len(ratios) + 1) // 2)
    fitted = max(ratios[:split])
    ok = all(r <= fitted for r in ratios[split:])
    nonzero = [r for r in ratios if r > 0]
    spread = (max(nonzero) / min(nonzero)) if nonzero else Fraction(1)
    return ok, fitted, spread


# ---------------------------------------------------------------------------
# density extraction and Lipschitz estimation
# ---------------------------------------------------------------------------


def densities(
    dist: Distribution,
    xs: Sequence[int],
    levels: Sequence[int],
    target_exponent: int | None = None,
) -> list[ApproximantSequence]:
    """`radon_nikodym_derivative(dist, x, levels, target_exponent)` for each x
    in xs, in order.

    Every (x, N) ball is read in one `dist.values` call, level by level, and
    each level's [p^N] is taken once for all the points.
    """
    if any(x < 0 for x in xs):
        raise ValueError("x must be a nonnegative integer")
    p = dist.params.prime
    t = target_exponent if target_exponent is not None else default_target(dist.digits)
    levels = sorted(levels)
    values = dist.values([Ball(p, x, N) for N in levels for x in xs])
    n = len(xs)
    rows = [
        [(N, dist._scale(N) * v) for v in values[i * n : (i + 1) * n]]
        for i, N in enumerate(levels)
    ]
    return [
        ApproximantSequence.build(
            p, [row[j] for row in rows], t, note="rescaled ball values at x=%d" % x
        )
        for j, x in enumerate(xs)
    ]


def radon_nikodym_derivative(
    dist: Distribution,
    x: int,
    levels: Sequence[int],
    target_exponent: int | None = None,
) -> ApproximantSequence:
    """A_N = [p^N] d(x mod p^N + p^N Z_p), with Cauchy rates: the one-point
    case of `densities`.

    Computable for any distribution; convergence is only expected for weakly
    invariant ones, which the caller asserts (the sequence records rates
    either way).
    """
    return densities(dist, [x], levels, target_exponent)[0]


def lipschitz_estimate(f: Callable[[int], PadicNumber], p: int, level: int) -> Fraction:
    """max |f(x) - f(y)| / |x - y| over every pair x != y below p^level.

    A quotient is p^(ν(x - y) - ν(f(x) - f(y))), 0 for a zero-residue
    difference, so the sup is taken over integer exponents and made a
    Fraction once.

    It takes n * level differences, n = p^level (`_anchored_differences`):
    for each depth j < level and each class mod p^j, every value minus one
    anchor, the value of the class known to the most digits, gives
    j - (the least valuation of those that are not zero residues), and the
    max over j is the all-pairs sup.  Each pair (x, y) at ν(x - y) = j lies
    in one class mod p^j, with anchor a, and
    f(x) - f(y) = (f(x) - f(a)) - (f(y) - f(a)).  As a is known to the most
    digits, f(x) - f(a) is known as far as f(x), so a zero residue there
    vanishes past every digit of a nonzero f(x) - f(y); by the ultrametric
    inequality ν(f(x) - f(y)) is then at least the least valuation of the
    nonzero ones.  Conversely each j - ν(f(x) - f(a)) is at most the
    exponent of the pair (x, a).
    """
    n = p**level
    if n < 2:
        raise ValueError("need at least 2 sample points")
    diffs = _anchored_differences([f(x) for x in range(n)], p, level)
    e = max((j - d.val for j, d in diffs if d.unit), default=None)
    return Fraction(0) if e is None else Fraction(p) ** e


def _anchored_differences(
    grid: list[PadicNumber], p: int, level: int
) -> Iterator[tuple[int, PadicNumber]]:
    """(j, grid[x] - anchor) for each depth j < level and each x, the anchor
    the value of x's class mod p^j that is known to the most digits."""
    for j in range(level):
        step = p**j
        for c in range(step):
            cls = grid[c::step]
            anchor = max(cls, key=attrgetter("abs_precision"))
            for v in cls:
                yield j, v - anchor
