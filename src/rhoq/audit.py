"""Numerical audits of the distribution-density properties, CLI-facing.

Each audit runs one family of claims as a seeded, deterministic experiment
and emits structured check records.  Claims are measured, never assumed:
where printed statements conflict (density prefactor variants, the
closed-form constant), the audit records the measured quantity and which
variant it matches.  Verdicts are tolerance-parametric: PASS needs the
measured agreement to clear p^-t, INCONCLUSIVE means the working precision
cannot see that deep, FAIL is a certified violation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf
from operator import attrgetter
from typing import Iterable

from .calculus import RhoQParams, rhoq_integer, rhoq_power
from .integration import (
    WEIGHTED_LEVELS,
    IntegrableFunction,
    WeightedDistribution,
    bernoulli_comparison_report,
    bracket_power,
    carlitz_bernoulli,
    const,
    coordinate,
    integral_against_weighted,
    linear_combination,
    poly_in_x,
    ratio_exponential,
    weighted_measure_direct,
    weighted_measure_sequence,
)
from .mahler import lipschitz_norm_grid, mahler_coefficients, truncation_polynomial
from .measures import (
    Ball,
    DensityScaled,
    RhoQHaar,
    check_invariance,
    densities,
    difference,
    lipschitz_estimate,
)
from .padic import PadicNumber, PrecisionError, div
from .sequences import gap_norm

SCHEMA = "rhoq-audit-report/2"

AUDIT_IDS = ("thm31", "thm32", "thm33", "thm34")
AUDIT_ALIASES = {
    "lipschitz": "thm31",
    "weighted": "thm32",
    "closed-form": "thm33",
    "decomposition": "thm34",
}
AUDIT_TITLES = {
    "thm31": "density of a strongly invariant distribution is Lipschitz",
    "thm32": "weighted-measure linearity, norm bound, and path cross-validation",
    "thm33": "closed form of the polynomial-weighted density",
    "thm34": "decomposition into a density part plus a bounded remainder",
}


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------

#: grid depth of the Lipschitz estimates (thm31) and the norm bound (thm32)
GRID_LEVEL = 2
#: digits the deepest audit level keeps below the precision
SAFETY_MARGIN = 4
#: the Riemann sums of the integral identity (thm33) run over levels
#: 1..min(OUTER_CAP, n_max)
OUTER_CAP = 5
#: the deepest level thm32, thm33 and thm34 sample; thm31 has no cap
LEVEL_CAP = {"thm32": 3, "thm33": 3, "thm34": 4}

#: the certified vanishing exponent of a difference, d ≡ 0 mod p^e
_valuation = attrgetter("valuation")


def level_window(n_min: int, n_max: int) -> range:
    """The levels n_min..n_max; refused when empty or when n_min < 1."""
    if n_min < 1 or n_min > n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    return range(n_min, n_max + 1)


def tolerance_for(precision: int, t: int | None) -> int:
    """t (p^-t), by default two digits of margin below the certifiable depth."""
    return t if t is not None else max(2, precision - 6)


def params_from_specs(p: int, precision: int, rho_spec: str, q_spec: str) -> RhoQParams:
    """The pair from two unit specs (see `_parse_unit_spec`)."""
    rho, rho_digits = _parse_unit_spec(rho_spec, p)
    q, q_digits = _parse_unit_spec(q_spec, p)
    known = [k for k in (rho_digits, q_digits) if k is not None]
    return RhoQParams(p, rho, q, precision=precision, known_digits=min(known, default=None))


@dataclass(frozen=True)
class AuditConfig:
    p: int = 5
    precision: int = 12
    rho_spec: str = "1"
    q_spec: str = "2"
    n_min: int = 1
    n_max: int = 5
    seed: int = 1
    tolerance_exponent: int | None = None
    theorems: tuple[str, ...] = AUDIT_IDS

    def __post_init__(self) -> None:
        if self.n_max > self.precision - SAFETY_MARGIN:
            raise ValueError(
                "level window too deep for the precision: need n_max <= precision - %d"
                % SAFETY_MARGIN
            )
        level_window(self.n_min, self.n_max)
        if self.tolerance_exponent is not None and self.tolerance_exponent < 1:
            raise ValueError("tolerance exponent must be >= 1")
        for t in self.theorems:
            if t not in AUDIT_IDS:
                raise ValueError("unknown audit id %r" % t)
            cap = LEVEL_CAP.get(t, self.n_min)
            if self.n_min > cap:
                raise ValueError("%s samples levels <= %d: need n_min <= %d" % (t, cap, cap))

    @property
    def tolerance(self) -> int:
        return tolerance_for(self.precision, self.tolerance_exponent)

    def params(self) -> RhoQParams:
        return params_from_specs(self.p, self.precision, self.rho_spec, self.q_spec)

    def describe(self) -> dict:
        return {
            "p": self.p,
            "precision": self.precision,
            "rho": self.rho_spec,
            "q": self.q_spec,
            "levels": [self.n_min, self.n_max],
            "seed": self.seed,
            "tolerance_exponent": self.tolerance,
            "theorems": list(self.theorems),
            "grid_level": GRID_LEVEL,
            # the windows are fixed: WEIGHTED_LEVELS, and 1..min(OUTER_CAP, n_max)
            "inner_max": WEIGHTED_LEVELS[-1],
            "outer_max": None,
        }


def _parse_unit_spec(spec: str | int, p: int) -> tuple[Fraction, int | None]:
    """'k' means 1 + k*p, 'a/b' a rational, 'digits:d0,d1,...' a residue string."""
    if isinstance(spec, int):
        return Fraction(1 + spec * p), None
    s = spec.strip()
    if s.startswith("digits:"):
        ds = [int(tok) for tok in s[len("digits:"):].split(",") if tok != ""]
        if not ds or any(not 0 <= d < p for d in ds):
            raise ValueError("bad digit string %r" % spec)
        residue = sum(d * p**i for i, d in enumerate(ds))
        return Fraction(residue), len(ds)
    if "/" in s:
        return parse_rational(s), None
    return Fraction(1 + int(s) * p), None


def parse_rational(text: str) -> Fraction:
    """Fraction(text), refusing a zero denominator with a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


@dataclass
class CheckRecord:
    name: str
    relation: str
    verdict: str  # PASS | FAIL | INCONCLUSIVE | MEASURED
    measured: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "relation": self.relation,
            "verdict": self.verdict,
            "measured": self.measured,
        }


def _worst_verdict(verdicts: Iterable[str]) -> str:
    """FAIL over INCONCLUSIVE over PASS; MEASURED records carry no verdict."""
    verdicts = set(verdicts)
    return next((v for v in ("FAIL", "INCONCLUSIVE") if v in verdicts), "PASS")


@dataclass
class AuditReport:
    theorem: str
    title: str
    checks: list[CheckRecord]
    constants: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)  # rate tables behind the verdicts

    @property
    def verdict(self) -> str:
        return _worst_verdict(c.verdict for c in self.checks)

    def describe(self) -> dict:
        return {
            "theorem": self.theorem,
            "title": self.title,
            "checks": [c.describe() for c in self.checks],
            "constants": self.constants,
            "traces": self.traces,
            "verdict": self.verdict,
        }


def _agreement_check(
    name: str,
    relation: str,
    d: PadicNumber,
    t: int,
    certified: int | float | None = None,
) -> CheckRecord:
    """Verdict from a difference of two measured quantities.

    PASS: agreement observed down to p^-t.  FAIL: a disagreement within the
    certified range of the estimates.  INCONCLUSIVE: the observation stops
    short of t without a certified violation.  Stricter t can only turn PASS
    into FAIL/INCONCLUSIVE, never the reverse.
    """
    e = d.valuation
    cert = inf if certified is None else certified
    measured = {
        "agreement_exponent": "inf" if e == inf else int(e),
        "certified_exponent": "inf" if cert == inf else int(cert),
    }
    if e >= t:
        verdict = "PASS"
    elif not d.is_zero_residue and e < min(t, cert):
        verdict = "FAIL"
    else:
        verdict = "INCONCLUSIVE"
    measured["difference"] = d.digit_string()
    return CheckRecord(name, relation, verdict, measured)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _f_battery() -> list[IntegrableFunction]:
    return [const(1), coordinate(), bracket_power(1), ratio_exponential()]


def _sample_balls(cfg: AuditConfig, rng: random.Random, count: int) -> list[Ball]:
    balls = []
    for _ in range(count):
        n = rng.randint(cfg.n_min, min(cfg.n_max, LEVEL_CAP["thm32"]))
        balls.append(Ball(cfg.p, rng.randrange(cfg.p**n), n))
    return balls


# ---------------------------------------------------------------------------
# the four audits
# ---------------------------------------------------------------------------


def audit_lipschitz(cfg: AuditConfig) -> AuditReport:
    """Densities extracted from strongly invariant inputs have a stable
    difference-quotient bound across one grid-level increase."""
    params = cfg.params()
    p = cfg.p
    levels = range(cfg.n_min, cfg.n_max + 1)
    checks: list[CheckRecord] = []
    constants: dict = {}
    inputs = [
        ("haar", RhoQHaar(params)),
        ("weighted [x]^2", WeightedDistribution(bracket_power(2), params)),
    ]
    m = GRID_LEVEL
    grid = range(p ** (m + 1))
    for label, dist in inputs:
        # the deeper grid holds the shallower one: one read for both
        density = {x: seq.limit_estimate() for x, seq in zip(grid, densities(dist, grid, levels))}
        c_lo = lipschitz_estimate(density.__getitem__, p, m)
        c_hi = lipschitz_estimate(density.__getitem__, p, m + 1)
        stable = c_hi <= c_lo * p  # within one digit; equality means saturation
        checks.append(
            CheckRecord(
                "lipschitz constant stability (%s)" % label,
                "difference-quotient sup stays within one digit when the grid deepens",
                "PASS" if stable else "FAIL",
                {
                    "C at level %d" % m: str(c_lo),
                    "C at level %d" % (m + 1): str(c_hi),
                },
            )
        )
        constants["C1 (%s)" % label] = str(max(c_lo, c_hi))
    return AuditReport("thm31", AUDIT_TITLES["thm31"], checks, constants)


def audit_weighted_measure(cfg: AuditConfig) -> AuditReport:
    """Linearity, the Lipschitz-norm bound, and the two evaluation paths."""
    params = cfg.params()
    p = cfg.p
    t = cfg.tolerance
    rng = random.Random(cfg.seed + 32)
    checks: list[CheckRecord] = []
    inner = WEIGHTED_LEVELS

    # (1) linearity on random coefficients and balls
    f, g = coordinate(), bracket_power(1)
    for trial in range(3):
        alpha = rng.randint(1, p**2)
        beta = rng.randint(1, p**2)
        hi = cfg.precision + inner[-1] + 4
        combo = linear_combination([alpha, beta], [f, g])
        ball = _sample_balls(cfg, rng, 1)[0]
        lhs = weighted_measure_sequence(combo, params, ball, inner, digits=cfg.precision)
        rf = weighted_measure_sequence(f, params, ball, inner, digits=cfg.precision)
        rg = weighted_measure_sequence(g, params, ball, inner, digits=cfg.precision)
        a_p = PadicNumber.from_integer(alpha, p, hi)
        b_p = PadicNumber.from_integer(beta, p, hi)
        worst = min(
            (tc - (a_p * tf + b_p * tg)
             for (_, tc), (_, tf), (_, tg) in zip(lhs.terms, rf.terms, rg.terms)),
            key=_valuation,
        )
        checks.append(
            _agreement_check(
                "linearity trial %d (alpha=%d, beta=%d, %s)" % (trial, alpha, beta, ball),
                "weighting is linear in the integrand on every ball",
                worst,
                min(t, cfg.precision - ball.level - 2),
            )
        )

    # (2) the norm bound |value| <= ||f||_1 |(q/rho)^a| |1/[p^n]|
    violations = []
    battery = _f_battery()
    norms = {fx.describe(): lipschitz_norm_grid(fx, params, GRID_LEVEL) for fx in battery}
    balls = _sample_balls(cfg, rng, 6)
    ratio = PadicNumber(p, 0, params.ratio_residue(cfg.precision), cfg.precision)
    # |(q/rho)^a| |1/[p^n]| of each ball, the same for every integrand
    ball_factors = [
        rhoq_power(ratio, ball.rep).norm()
        * (Fraction(1) / rhoq_integer(p**ball.level, params, cfg.precision + ball.level).norm())
        for ball in balls
    ]
    for fx in battery:
        weighted = WeightedDistribution(fx, params)
        for ball, v, factor in zip(balls, weighted.values(balls), ball_factors):
            bound = norms[fx.describe()] * factor
            if gap_norm(v) > bound:
                violations.append((fx.describe(), str(ball), str(gap_norm(v)), str(bound)))
    checks.append(
        CheckRecord(
            "norm bound on sampled balls",
            "|value| <= ||f||_1 * |(q/rho)^a| * |1/[p^n]|",
            "PASS" if not violations else "FAIL",
            {"violations": violations, "lip_norms": {k: str(v) for k, v in norms.items()}},
        )
    )

    # (3) restriction identity vs direct restricted sums
    traces = {}
    for fx in battery:
        ball = _sample_balls(cfg, rng, 1)[0]
        depth = min(cfg.precision - ball.level - 2, 4)
        lifted = weighted_measure_sequence(
            fx, params, ball, range(1, depth + 1), digits=cfg.precision
        )
        direct = weighted_measure_direct(fx, params, ball, depth, digits=cfg.precision)
        if not traces:
            traces["cross-validation (%s on %s)" % (fx.describe(), ball)] = {
                "lifted": lifted.describe(),
                "direct": direct.describe(),
            }
        pairs = [(t1, t2) for (_, t1), (_, t2) in zip(lifted.terms, direct.terms)]
        worst = min((t1 - t2 for t1, t2 in pairs), key=_valuation)
        avail = min(int(t.abs_precision) for t in pairs[-1])
        checks.append(
            _agreement_check(
                "path cross-validation (%s on %s)" % (fx.describe(), ball),
                "lifted-parameter evaluation equals direct restricted sums",
                worst,
                min(t, avail),
            )
        )
    return AuditReport("thm32", AUDIT_TITLES["thm32"], checks, traces=traces)


def audit_closed_form(cfg: AuditConfig) -> AuditReport:
    """Strong invariance of the polynomial-weighted family, constancy of the
    density ratio, the integral identity, and the splitting-identity expansion."""
    params = cfg.params()
    p = cfg.p
    t = cfg.tolerance
    rng = random.Random(cfg.seed + 33)
    checks: list[CheckRecord] = []
    constants: dict = {}
    traces: dict = {}
    # one level beyond the window: extraction headroom for the extrapolants
    rn_levels = range(cfg.n_min, cfg.n_max + 2)

    dists = [WeightedDistribution(bracket_power(k), params) for k in (1, 2, 3)]
    g_battery = [
        const(1),
        coordinate(),
        poly_in_x([0, 0, 1], label="x^2"),
        ratio_exponential(),
    ]
    outer = range(1, min(OUTER_CAP, cfg.n_max) + 1)
    # (iii)'s comparisons per g, one per weight, made in one call at k = 1's
    # (iii), so that a failing check fails where it did.
    comparisons: list[list] = []
    # (q/rho)^x and [x] of (ii)'s sample points, shared by the weights
    w_ii = cfg.precision + 2
    ratio = PadicNumber(p, 0, params.ratio_residue(w_ii), w_ii)
    point_factors: dict[int, tuple[PadicNumber, PadicNumber]] = {}

    for k, dist in zip((1, 2, 3), dists):
        # (i) invariance classification
        report = check_invariance(
            dist, range(cfg.n_min, min(cfg.n_max, LEVEL_CAP["thm33"]) + 1), seed=cfg.seed
        )
        if report.strongly:
            verdict = "PASS"
        elif params.is_symmetric_point:
            # the parameter-rate bound is vacuous at rho = q
            verdict = "INCONCLUSIVE"
        else:
            verdict = "FAIL"
        checks.append(
            CheckRecord(
                "strong invariance of weighted [x]^%d" % k,
                "rescaled successive differences decay at the parameter rate",
                verdict,
                {
                    "verdict": report.kind,
                    "delta": [str(d) for d in report.delta_table],
                    "fitted_C": str(report.fitted_constant),
                    "note": "decay bound degenerates at rho = q"
                    if params.is_symmetric_point and not report.strongly
                    else "",
                },
            )
        )

        # (ii) density ratio constancy across sampled points.  Units keep the
        # division by P(x) from amplifying the truncation error; staying below
        # p^2 keeps the extrapolation window on balls that already pin x.
        ratios: list[tuple[int, PadicNumber]] = []
        cert_ii: int | float = inf
        units = [x for x in range(1, p**2) if x % p]
        xs = sorted(rng.sample(units, min(16, len(units))))
        for x, seq in zip(xs, densities(dist, xs, rn_levels)):
            if "density extraction (k=%d)" % k not in traces:
                traces["density extraction (k=%d)" % k] = seq.describe()
            numerator = seq.limit_estimate()
            if x not in point_factors:
                point_factors[x] = (rhoq_power(ratio, x), rhoq_integer(x, params, w_ii))
            twist, bracket = point_factors[x]
            denom = twist * bracket**k
            if denom.is_zero_residue:
                continue
            if seq.best_certified is not None:
                cert_ii = min(cert_ii, seq.best_certified)
            try:
                ratios.append((x, div(numerator, denom)))
            except PrecisionError:
                continue
        worst = min((r - ratios[0][1] for _, r in ratios[1:]), key=_valuation)
        avail = min(int(r.abs_precision) for _, r in ratios)
        checks.append(
            _agreement_check(
                "density ratio constancy (k=%d, 16 points)" % k,
                "density(x) / ((q/rho)^x P(x)) is independent of x",
                worst,
                min(t, avail),
                certified=cert_ii,
            )
        )
        constants["density ratio (k=%d)" % k] = ratios[0][1].digit_string()

        # which printed variant matches: the measured constant against 1
        one = PadicNumber.one(p, cfg.precision)
        match = ratios[0][1].agrees(one, min(t, avail))
        checks.append(
            CheckRecord(
                "measured constant vs printed closed forms (k=%d)" % k,
                "the measured proportionality constant identifies the variant",
                "MEASURED",
                {
                    "constant": ratios[0][1].digit_string(),
                    "equals_one_at_tolerance": bool(match),
                    "note": "consistent with the lifted-parameter constant, not the"
                    " unlifted printed one",
                },
            )
        )

        # (iii) integral identity ratio across the g battery
        g_ratios = []
        cert_iii: int | float = cert_ii
        if not comparisons:
            comparisons = integral_against_weighted(g_battery, dists, outer)
        for i, per_weight in enumerate(comparisons):
            comp = per_weight[k - 1]
            if comp.fitted_ratio is not None:
                g_ratios.append((comp.g_label, comp.fitted_ratio))
                cert_iii = min(cert_iii, comp.ratio_certified)
                if k == 1 and i == 0:  # g = 1, the head of the battery
                    traces["integral identity (k=1, g=1)"] = comp.describe()
        worst_g = min((r - ratios[0][1] for _, r in g_ratios), key=_valuation)
        avail_g = min(int(r.abs_precision) for _, r in g_ratios)
        measured_e = worst_g.valuation
        checks.append(
            _agreement_check(
                "integral identity ratio matches the density constant (k=%d)" % k,
                "integral of g against the weighted measure / integral of gP",
                worst_g,
                min(t, avail_g),
                certified=cert_iii,
            )
        )
        constants["integral ratio agreement exponent (k=%d)" % k] = (
            "inf" if measured_e == inf else int(measured_e)
        )

        # (iv) splitting-identity expansion, term by term
        splits = []
        for _ in range(4):
            n = rng.randint(1, min(LEVEL_CAP["thm33"], cfg.n_max))
            a = rng.randrange(p**n)
            i = rng.randint(0, p**2)
            splits.append(_splitting_difference(a, i, n, k, params, cfg.precision + 4))
        worst_split = min(splits, key=_valuation)
        checks.append(
            _agreement_check(
                "splitting-identity expansion (k=%d)" % k,
                "[a+ip^n]^k expands through the lifted binomial sum",
                worst_split,
                min(t, cfg.precision - 1),
            )
        )
    return AuditReport("thm33", AUDIT_TITLES["thm33"], checks, constants, traces=traces)


def _splitting_difference(
    a: int, i: int, n: int, k: int, params: RhoQParams, w: int
) -> PadicNumber:
    """[a+ip^n]^k minus its expansion sum_l C(k,l) q^(al) [p^n]^l [i]_lifted^l
    rho^(i p^n (k-l)) [a]^(k-l)."""
    p = params.prime
    lhs = rhoq_integer(a + i * p**n, params, w) ** k
    rho = PadicNumber(p, 0, params.rho_residue(w), w)
    q = PadicNumber(p, 0, params.q_residue(w), w)
    lifted = params.lifted(n)
    bracket_pn = rhoq_integer(p**n, params, w)
    bracket_a = rhoq_integer(a, params, w)
    bracket_i_lifted = rhoq_integer(i, lifted, w)
    rhs = PadicNumber.exact_zero(p)
    for l in range(k + 1):
        # zero exponents are skipped: x**0 would peg the precision to x's digits
        term = PadicNumber.from_integer(comb(k, l), p, w)
        if l:
            term = term * rhoq_power(q, a * l, w)
            term = term * bracket_pn**l
            term = term * bracket_i_lifted**l
        if k - l:
            term = term * rhoq_power(rho, i * p**n * (k - l), w)
            term = term * bracket_a ** (k - l)
        rhs = rhs + term
    return lhs - rhs


def audit_decomposition(cfg: AuditConfig) -> AuditReport:
    """Split a weighted measure into the measure associated to its density
    plus a remainder whose rescaled ball values stay bounded."""
    params = cfg.params()
    p = cfg.p
    rng = random.Random(cfg.seed + 34)
    checks: list[CheckRecord] = []
    constants: dict = {}
    window = range(cfg.n_min, min(cfg.n_max, LEVEL_CAP["thm34"]) + 1)

    series = mahler_coefficients(ratio_exponential(), 12, params, digits=cfg.precision + 2)
    test_functions = [
        ("(q/rho)^x", ratio_exponential()),
        ("mahler truncation deg 2", truncation_polynomial(series, 2)),
    ]
    constants["mahler tail norms"] = [str(n) for n in series.norms()]

    traces: dict = {}
    for label, f in test_functions:
        weighted = WeightedDistribution(f, params)
        sample = sorted(
            set(range(p)) | {rng.randrange(p ** max(window)) for _ in range(12)}
        )
        # the density at every rep the remainder's balls read, 1 among them
        reps = sorted({x % p**n for n in window for x in sample})
        seqs = dict(zip(reps, densities(weighted, reps, window)))
        traces["density extraction at x=1 (%s)" % label] = seqs[1].describe()
        density = {x: seq.limit_estimate() for x, seq in seqs.items()}
        associated = DensityScaled(density.__getitem__, params)
        remainder = difference(weighted, associated)

        k_per_level: list[Fraction] = []
        for n in window:
            scale = remainder._scale(n)
            values = remainder.values([Ball(p, x, n) for x in sample])
            k_per_level.append(max(gap_norm(scale * v) for v in values))
        fitted_prefix = max(k_per_level[: max(1, len(k_per_level) // 2)])
        fitted_all = max(k_per_level)
        # the window max can only grow on the prefix max; one digit allowed
        stable = fitted_all <= fitted_prefix * p
        checks.append(
            CheckRecord(
                "bounded remainder (%s)" % label,
                "|[p^n] (weighted - associated)(ball)| <= K with K stable "
                "within one digit across the window",
                "PASS" if stable else "FAIL",
                {
                    "K per level": [str(kk) for kk in k_per_level],
                    "K fitted on prefix": str(fitted_prefix),
                    "K fitted on window": str(fitted_all),
                },
            )
        )
        constants["K (%s)" % label] = str(fitted_all)

        ball = Ball(p, sample[1] if len(sample) > 1 else 0, window[0])
        identity_diff = weighted.value(ball) - (
            associated.value(ball) + remainder.value(ball)
        )
        checks.append(
            _agreement_check(
                "decomposition identity on %s (%s)" % (ball, label),
                "weighted = associated + remainder by construction",
                identity_diff,
                cfg.tolerance,
            )
        )
    return AuditReport("thm34", AUDIT_TITLES["thm34"], checks, constants, traces=traces)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

_AUDIT_FUNCTIONS = {
    "thm31": audit_lipschitz,
    "thm32": audit_weighted_measure,
    "thm33": audit_closed_form,
    "thm34": audit_decomposition,
}


def run_audits(cfg: AuditConfig) -> dict:
    """Run the selected audits and assemble the (deterministic) report."""
    reports = [_AUDIT_FUNCTIONS[t](cfg) for t in cfg.theorems]
    overall = _worst_verdict(r.verdict for r in reports)
    extras = {}
    if "thm33" in cfg.theorems or "thm32" in cfg.theorems:
        params = cfg.params()
        levels = range(1, cfg.n_max + 1)
        extras["bernoulli_closed_form_comparison"] = bernoulli_comparison_report(0, params, levels)
        extras["bernoulli_table"] = {
            "beta(n=%d, a=0)" % n: carlitz_bernoulli(
                n, 0, params, levels, digits=cfg.precision
            ).describe()
            for n in (0, 1, 2)
        }
    return {
        "schema": SCHEMA,
        "config": cfg.describe(),
        "audits": [r.describe() for r in reports],
        "side_reports": extras,
        "verdict": overall,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)


def exit_code(report: dict) -> int:
    v = report["verdict"]
    return 0 if v == "PASS" else 1 if v == "FAIL" else 2
