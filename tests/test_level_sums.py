"""progression_sums against exact Fraction sums, over random primes,
parameters (classical, rho = q != 1, nu(rho - q) up to 4), progressions and
integrand families, Mahler series with coefficients known to few digits
included; one process that reads many progressions off the shared
moment tables; the tables' shift polynomials at shifts past the step and
past the levels; the folded per-level factors against the chain of products
and divisions they replace; a whole level of weighted ball values in one
batch against single balls and the restriction identity's limit estimates;
thm33's exact Riemann sums against the sums of ball values they stand for
and against Fraction sums of closed-form ball values; the table lookups of
one thm33 report, on a cold and on a warm ball memo; and its integral
identity, which reads each level once, makes no ball value and prints the
same bytes on a small ball memo."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhoq import audit, cli, integration
from rhoq.calculus import RhoQParams, rhoq_integer
from rhoq.integration import (
    WEIGHTED_LEVELS,
    WeightedDistribution,
    _ball_memo,
    _level_batch,
    _moment_table,
    bracket_power,
    const,
    coordinate,
    exponential,
    linear_combination,
    mahler_function,
    mixed_power,
    poly_in_x,
    product,
    progression_sums,
    ratio_exponential,
    values,
    weighted_measure_sequence,
)
from rhoq.limits import _limit_table, ball_values, riemann_sums
from rhoq.measures import Ball
from rhoq.padic import PadicNumber, div, dot

from .oracles import (
    Approx,
    bracket,
    claims_hold,
    function_value,
    one_digit_more,
    progression_partial_sums,
    rat_mod,
    rhoq_binomial_exact,
    weighted_ball,
)


@st.composite
def parameters(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    regime = draw(st.sampled_from(["classical", "symmetric", "deformed"]))
    if regime == "classical":
        return p, Fraction(1), Fraction(1)
    rho = Fraction(1 + p * draw(st.integers(1, 40)), draw(st.sampled_from([1, 1 + p, 1 - p])))
    if regime == "symmetric":
        return p, rho, rho
    nu = draw(st.integers(1, 4))
    unit = draw(st.integers(1, 60).filter(lambda u: u % p))
    return p, rho, rho + p**nu * unit


@st.composite
def integrands(draw, p, rho, q, w):
    """(f, its exact values, the deficiency the sums must report)."""
    kind = draw(st.sampled_from(
        ["const", "x^k", "[x]^k", "ratio", "exp", "mixed", "mahler", "x^2*[x]^3", "sum"]
    ))
    if kind == "const":
        c = Fraction(draw(st.integers(-50, 50)), draw(st.sampled_from([1, 2, 1 + p])))
        return const(c), lambda x: c, 0
    if kind == "x^k":
        k = draw(st.integers(0, 4))
        return poly_in_x([0] * k + [1]), lambda x: Fraction(x) ** k, 0
    if kind == "[x]^k":
        k = draw(st.integers(0, 6))
        return bracket_power(k), lambda x: bracket(x, rho, q) ** k, 0
    if kind == "ratio":
        return ratio_exponential(), lambda x: (q / rho) ** x, 0
    if kind == "exp":
        b = Fraction(1 + p * draw(st.integers(-20, 20)))
        return exponential(b), lambda x: b**x, 0
    if kind == "mixed":
        a, n = draw(st.integers(-2, 2)), draw(st.integers(0, 6))
        return mixed_power(a, n), lambda x: rho ** (a * x) * bracket(x, rho, q) ** n, 0
    if kind == "mahler":
        known = draw(st.lists(st.integers(1, w + 3), min_size=1, max_size=5))
        values = [draw(st.integers(0, p ** (w + 3))) for _ in known]
        coeffs = [PadicNumber.from_integer(c, p, k) for c, k in zip(values, known)]
        residues = [c % p**k for c, k in zip(values, known)]  # what each coefficient knows
        deficiency = max([w - k for c, k in zip(values, known) if c] + [0])

        def value(x):
            terms = (r * rhoq_binomial_exact(x, m, rho, q) for m, r in enumerate(residues))
            return sum(terms, Fraction(0))

        return mahler_function(coeffs), value, deficiency
    if kind == "x^2*[x]^3":
        f = product(poly_in_x([0, 0, 1]), bracket_power(3))
        return f, lambda x: x**2 * bracket(x, rho, q) ** 3, 0
    c1, c2 = draw(st.integers(-9, 9)), Fraction(draw(st.integers(-9, 9)), 2)
    f = linear_combination([c1, c2], [poly_in_x([0, 1]), bracket_power(2)])
    return f, lambda x: c1 * x + c2 * bracket(x, rho, q) ** 2, 0


@settings(max_examples=120)
@given(st.data())
def test_progression_sums_match_exact_sums(data):
    p, rho, q = data.draw(parameters())
    w = data.draw(st.integers(2, 14))
    f, values, deficiency = data.draw(integrands(p, rho, q, w))
    levels = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 2 if levels < 2 else 1))
    shift = data.draw(st.integers(0, p**2))
    params = RhoQParams.from_units(p, rho, q, w)
    sums, reported = progression_sums(f, params, levels, shift, p**n, w)
    assert reported == deficiency
    exact = progression_partial_sums(values, rho, q, shift, p**n, [p**m for m in range(levels + 1)])
    k = w - deficiency
    assert [s % p**k for s in sums] == [rat_mod(e, p, k) for e in exact]


def test_moment_tables_serve_every_shift_and_no_other_call():
    """Every shift a < p^n at step p^n, in one process, interleaved with calls
    for the same f and parameters at a second step, a second w and a second
    max_level, each against the exact sums.  The smaller w comes first, so a
    table keyed without w (or without step) hands a later call another
    call's sums."""
    p, rho, q, n = 3, Fraction(4), Fraction(7), 2
    f = linear_combination(
        [1, Fraction(1, 2)], [product(poly_in_x([3, 1, 4]), exponential(4)), bracket_power(2)]
    )

    def value(x):
        return (3 + x + 4 * x**2) * Fraction(4) ** x + bracket(x, rho, q) ** 2 / 2

    params = RhoQParams.from_units(p, rho, q, 12)
    for a in range(p**n):
        # (max_level, step, w)
        for levels, step, w in ((2, p**n, 5), (2, p**n, 9), (2, p, 9), (3, p**n, 9)):
            sums, deficiency = progression_sums(f, params, levels, a, step, w)
            assert deficiency == 0
            exact = progression_partial_sums(value, rho, q, a, step, [p**m for m in range(levels + 1)])
            assert sums == [rat_mod(e, p, w) for e in exact], (a, levels, step, w)


def _unfused_terms(f, params, levels, d, shift, n, lifted):
    """The level terms by the unfolded chain outer * div(scale * s, bracket):
    rho'^(p^M) times the level sum, divided by [p^M]', then by [p^n] when
    lifted, every bracket from `rhoq_integer`."""
    p = params.prime
    top = max(levels)
    w = d + n + top + 1
    sums, deficiency = progression_sums(f, params, top, shift, p**n, w)
    known = w - deficiency
    mod = p**known
    at = params.lifted(n) if lifted else params
    outer = div(PadicNumber.one(p, known), rhoq_integer(p**n, params, known))
    terms = []
    for m in levels:
        M = m if lifted else n + m
        scale = PadicNumber(p, 0, pow(at.rho_residue(known), p**M, mod), known)
        s = sums[m] % mod
        s_p = PadicNumber.from_integer(s, p, known) if s else PadicNumber.bounded_zero(p, known)
        term = div(scale * s_p, rhoq_integer(p**M, at, known))
        terms.append(outer * term if lifted else term)
    return terms


@pytest.mark.parametrize("lifted", [False, True], ids=["direct", "lifted"])
@pytest.mark.parametrize("regime", ["deformed", "rho=q"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_folded_level_factors_match_the_unfused_chain(p, regime, lifted):
    params = RhoQParams.from_offsets(p, 1, 1 if regime == "rho=q" else 2, 10)
    levels = (1, 2, 3)
    for f in (const(0), poly_in_x([1, 3, 0, 2]), bracket_power(2), mixed_power(1, 1)):
        for shift, n in ((0, 0), (1, 1), (p + 2, 2)):
            folded = _level_batch(f, params, levels, 8, shift, n, lifted)
            unfused = _unfused_terms(f, params, levels, 8, shift, n, lifted)
            assert [m for m, _ in folded] == list(levels)
            got = [(t.val, t.unit, t.digits) for _, t in folded]
            assert got == [(t.val, t.unit, t.digits) for t in unfused], (f.describe(), shift, n)
            if f == const(0):  # every level sum is a bounded zero
                assert all(t.is_zero_residue and not t.is_exact_zero for _, t in folded)


@pytest.mark.parametrize("step_power", [0, 1, 2], ids=["step=1", "step=p", "step=p^2"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_shift_polynomials_at_large_shifts(p, step_power):
    """Each table row is the level sum as a polynomial in the shift a: with
    the base B, B^a row(a) / p^v is the sum over y < p^m of f(a + step y)
    (q/rho)^(a + step y).  A degree-4 polynomial times an exponential, at
    the classical parameters, lowers to one base of degree 4, so every
    binomial and step^k factor of the rows is used; the shifts are at or
    above the step and above p^max_level."""
    params = RhoQParams.classical(p, 10)
    coeffs = [3, Fraction(-1, 2), 5, 0, Fraction(7, 4)]
    b = Fraction(1 + 2 * p)
    f = product(poly_in_x(coeffs), exponential(b))

    def value(x):
        return sum(c * x**k for k, c in enumerate(coeffs)) * b**x

    step, levels, w = p**step_power, 2, 9
    nf, tables = _moment_table(f, params, w, step, levels)
    [(big, rows)] = tables
    assert [len(row) for row in rows] == [5] * (levels + 1)
    mod, scale = p**nf.W, p**nf.v
    shifts = [step, step + 1, 2 * step + 3, p**levels + 1, 5 * p**levels + 2, p ** (levels + 3) - 1]
    for a in shifts:
        exact = progression_partial_sums(value, 1, 1, a, step, [p**m for m in range(levels + 1)])
        want = [rat_mod(e, p, w) for e in exact]
        got = []
        for row in rows:
            r = sum(c * a**i for i, c in enumerate(reversed(row)))
            s = pow(big, a, mod) * r % mod
            assert s % scale == 0
            got.append(s // scale % p**w)
        assert got == want, (a, step)
        assert progression_sums(f, params, levels, a, step, w) == (want, 0)


REGIMES = {"deformed": (1, 2), "classical": (0, 0), "rho=q": (1, 1)}


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_level_batch_matches_single_balls(p, regime):
    """A whole level of balls from one `_batch` against `ball_values` one
    ball at a time, field for field, and against the restriction identity's
    limit estimate (`weighted_measure_sequence`), to the digits it
    certifies, on every ball of levels 1..3; one ball is read through
    `value` before its level's batch and one after, and the memo serves the
    second from the batch."""
    params = RhoQParams.from_offsets(p, *REGIMES[regime], 8)
    d = params.precision
    weights = (
        bracket_power(3),
        poly_in_x([0, 0, 0, 1]),
        mixed_power(1, 2),
        # p in a denominator at each prime: -1/3, 1/7, and [5]! in the binomial of order 6
        mahler_function([1, 2, Fraction(-1, 3), 0, 4, Fraction(1, 7), 1]),
        const(0),
    )

    def fields(v):
        return v.val, v.unit, v.digits

    for f in weights:
        dist = WeightedDistribution(f, params)
        before = dist.value(Ball(p, 1, 2))
        levels = {m: dist._batch(m, range(p**m)) for m in (1, 2, 3)}
        for m, batch in levels.items():
            assert len(batch) == p**m
            for a, v in enumerate(batch):
                case = (f.describe(), a, m)
                assert fields(v) == fields(ball_values(f, params, m, [a], d)[0]), case
                seq = weighted_measure_sequence(f, params, Ball(p, a, m), WEIGHTED_LEVELS, digits=d)
                if seq.best_certified is not None:
                    assert v.agrees(seq.limit_estimate(), seq.best_certified), case
        assert fields(levels[2][1]) == fields(before)
        after = Ball(p, p + 2, 3)
        assert dist.value(after) is levels[3][p + 2]
        if f == const(0):
            assert all(v.is_zero_residue and not v.is_exact_zero for v in levels[3])


#: thm33's g battery and weights
THM33_GS = [const(1), coordinate(), poly_in_x([0, 0, 1], label="x^2"), ratio_exponential()]
THM33_WEIGHTS = [bracket_power(k) for k in (1, 2, 3)]


def _gs(p):
    """thm33's g battery and a g with p in a denominator, of negative valuation."""
    return THM33_GS + [poly_in_x([1, Fraction(2, p)], label="1 + 2x/p")]


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_riemann_terms_match_the_sums_of_ball_terms(p, regime):
    """Each Riemann sum R_m against the sum it stands for, `dot` of g's
    values with the p^m ball values of level m from one `_batch`: equal
    residue for residue to the precision of the less precise of the two,
    and R_m never the less precise."""
    params = RhoQParams.from_offsets(p, *REGIMES[regime], 8)
    weights = [WeightedDistribution(f, params) for f in THM33_WEIGHTS]
    outer = [1, 2]
    gs = _gs(p)
    sums = riemann_sums(gs, weights, outer)
    for g, per_weight in zip(gs, sums):
        for weighted, per_level in zip(weights, per_weight):
            for m, new in zip(outer, per_level):
                grid = values(g, params, range(p**m), weighted.digits + 30)
                old = dot(grid, weighted._batch(m, range(p**m)))
                case = (g.describe(), weighted.f.describe(), m)
                assert (new - old).is_zero_residue, case
                assert new.abs_precision >= old.abs_precision, case


@pytest.mark.parametrize("regime", list(REGIMES))
def test_riemann_terms_match_exact_sums(regime):
    """At p = 3, 5 and 7, each Riemann sum R_m against the Fraction sum over
    a < p^m of g(a) times the closed-form ball value (`oracles.weighted_ball`,
    from `perfbench/oracles.limit_value` at the lifted parameters), to every
    digit R_m claims; R_m claims digits + 1, one fewer for the g of valuation
    -1.  The same R_m claiming one wrong digit more fails the comparison."""
    for p in (3, 5, 7):
        params = RhoQParams.from_offsets(p, *REGIMES[regime], 8)
        rho, q, d = params.rho_base, params.q_base, params.precision
        weights = [WeightedDistribution(f, params) for f in THM33_WEIGHTS]
        outer = [1, 2] if p < 7 else [1]
        gs = _gs(p)
        sums = riemann_sums(gs, weights, outer)
        balls = {
            (f, m): [weighted_ball(f, p, rho, q, a, m, d + 4) for a in range(p**m)]
            for f in THM33_WEIGHTS
            for m in outer
        }
        for g, per_weight in zip(gs, sums):
            grid = [function_value(g, rho, q, a) for a in range(p ** outer[-1])]
            for weighted, per_level in zip(weights, per_weight):
                for m, r in zip(outer, per_level):
                    case = (p, g.describe(), weighted.f.describe(), m)
                    assert r.abs_precision == d + 1 - (g.describe() == "1 + 2x/p"), case
                    exact = sum(
                        (ball.scale(x) for ball, x in zip(balls[weighted.f, m], grid)),
                        start=Approx(p, 0, 10**9),
                    )
                    assert claims_hold(r, exact), case
                    assert not claims_hold(one_digit_more(r, exact), exact), case


def _lookups() -> int:
    """Lookups of the moment tables and the limit tables so far."""
    return sum(t.cache_info().hits + t.cache_info().misses for t in (_moment_table, _limit_table))


def test_moment_table_lookups_of_one_thm33_report(capsys):
    """The moment- and limit-table lookups of `audit thm33 --p 3 --levels
    1:5 --tol 5` on cold tables: 55, one per level batch of ball values and
    one per integral.  Its integral identity makes 27 (see the next test),
    the invariance checks 12 (levels 1..4 of each weight, one batch a level),
    the density extractions 12 (the six points of a weight read in one call,
    whose balls not already made come one batch a level: levels 3 and 4,
    where the invariance sample misses some, and 5 and 6, which it does not
    read) and the 4 Bernoulli-type integrals of the side reports the
    rest.  All three tables are cleared first: ball values that an earlier
    report left in the ball memo make fewer lookups."""
    argv = ["audit", "thm33", "--p", "3", "--levels", "1:5", "--tol", "5"]
    _moment_table.cache_clear()
    _limit_table.cache_clear()
    _ball_memo.cache_clear()
    assert cli.main(argv) == 0
    assert _lookups() == 55
    # the same report again reads every ball value off the memo the first
    # left; what remains is the 27 lookups of its integral identity, which
    # reads no ball value, and the 4 Bernoulli-type integrals
    before = _lookups()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert _lookups() - before == 31


def test_one_thm33_report_reads_each_level_once(monkeypatch, capsys):
    """`audit thm33 --p 3 --levels 1:5 --tol 5` on cold tables: its integral
    identity (`integral_against_weighted`) reads each level once, as one
    limit table per (weight, outer level), 3 x 5, and one moment table per
    integral of gP, 12, and makes no `WeightedDistribution` ball value.  On
    a ball memo bounded at 500 values the report prints the same bytes."""
    argv = ["audit", "thm33", "--p", "3", "--levels", "1:5", "--tol", "5"]
    batches = []
    batch = WeightedDistribution._batch

    def counted(self, level, reps):
        batches.append(len(reps))
        return batch(self, level, reps)

    def lookups():
        return tuple(t.cache_info().hits + t.cache_info().misses for t in (_limit_table, _moment_table))

    identity = audit.integral_against_weighted
    inside = []

    def measured(*args):
        made, looked_up = len(batches), lookups()
        out = identity(*args)
        inside.append((len(batches) - made, *(b - a for a, b in zip(looked_up, lookups()))))
        return out

    monkeypatch.setattr(WeightedDistribution, "_batch", counted)
    monkeypatch.setattr(audit, "integral_against_weighted", measured)

    def report():
        inside.clear()
        _moment_table.cache_clear()
        _limit_table.cache_clear()
        _ball_memo.cache_clear()
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    at_default = report()
    assert inside == [(0, 15, 12)]
    monkeypatch.setattr(integration, "BALL_MEMO_SIZE", 500)
    assert report() == at_default
    assert inside == [(0, 15, 12)]
