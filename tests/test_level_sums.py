"""progression_sums against exact Fraction sums, over random primes,
parameters (classical, rho = q != 1, nu(rho - q) up to 4), progressions and
integrand families, Mahler series with coefficients known to few digits
included; one process that reads many progressions off the shared
moment tables; the tables' shift polynomials at shifts past the step and
past the levels; the folded per-level factors against the chain of products
and divisions they replace; a whole level of weighted ball values in one
batch against the single-ball route; the moment-table lookups of one
thm33 report, on a cold and on a warm ball memo; and the ball values its
level batches make on a ball memo smaller than its Riemann sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhoq import cli, integration
from rhoq.calculus import RhoQParams, rhoq_integer
from rhoq.integration import (
    WEIGHTED_LEVELS,
    WeightedDistribution,
    _ball_memo,
    _level_batch,
    _moment_table,
    bracket_power,
    const,
    exponential,
    linear_combination,
    mahler_function,
    mixed_power,
    poly_in_x,
    product,
    progression_sums,
    ratio_exponential,
    weighted_measure_sequence,
)
from rhoq.measures import Ball
from rhoq.padic import PadicNumber, div

from .oracles import bracket, progression_partial_sums, rat_mod, rhoq_binomial_exact


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
        k = draw(st.integers(0, 3))
        return bracket_power(k), lambda x: bracket(x, rho, q) ** k, 0
    if kind == "ratio":
        return ratio_exponential(), lambda x: (q / rho) ** x, 0
    if kind == "exp":
        b = Fraction(1 + p * draw(st.integers(-20, 20)))
        return exponential(b), lambda x: b**x, 0
    if kind == "mixed":
        a, n = draw(st.integers(-2, 2)), draw(st.integers(0, 3))
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
            [folded] = _level_batch(f, params, levels, 8, (shift,), n, lifted)
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


@pytest.mark.parametrize("regime", ["deformed", "classical", "rho=q"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_level_batch_matches_single_balls(p, regime):
    """`level_values` against `weighted_measure_sequence(...).limit_estimate()`
    field for field, on every ball of levels 1..3; one ball is read through
    `value` before its level's batch and one after, and the batch keeps the
    first and serves the second from the memo."""
    offsets = {"deformed": (1, 2), "classical": (0, 0), "rho=q": (1, 1)}[regime]
    params = RhoQParams.from_offsets(p, *offsets, 8)
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
        for m in (1, 2, 3):
            batch = dist.level_values(m)
            assert len(batch) == p**m
            for a, v in enumerate(batch):
                single = weighted_measure_sequence(
                    f, params, Ball(p, a, m), WEIGHTED_LEVELS, digits=params.precision
                ).limit_estimate()
                assert fields(v) == fields(single), (f.describe(), a, m)
        assert dist.level_values(2)[1] is before
        after = Ball(p, p + 2, 3)
        assert dist.value(after) is dist.level_values(3)[p + 2]
        if f == const(0):
            assert all(v.is_zero_residue and not v.is_exact_zero for v in dist.level_values(3))


def test_moment_table_lookups_of_one_thm33_report(capsys):
    """The moment-table lookups of `audit thm33 --p 3 --levels 1:5 --tol 5`:
    one per level fill of each weight (3 x 5), one per integral of gP (12)
    and one per single ball: those that k = 1's invariance and density
    checks read before the fills, and the level-6 balls of every density
    extraction.  A lookup per Riemann-sum ball, as before the level
    batches, makes 1,123.  Both tables are cleared first: ball values that
    an earlier report left in the ball memo make fewer lookups."""
    argv = ["audit", "thm33", "--p", "3", "--levels", "1:5", "--tol", "5"]

    def lookups():
        info = _moment_table.cache_info()
        return info.hits + info.misses

    _moment_table.cache_clear()
    _ball_memo.cache_clear()
    assert cli.main(argv) == 0
    assert lookups() == 114
    # a second report at the same parameters, at another seed, reads every
    # ball value off the memo the first left; what remains is its 12
    # integrals of gP and the 4 Bernoulli-type integrals of the side reports
    before = lookups()
    assert cli.main(argv + ["--seed", "7"]) == 0
    capsys.readouterr()
    assert lookups() - before == 16


def test_one_thm33_report_reads_each_level_once(monkeypatch, capsys):
    """`audit thm33 --p 3 --levels 1:5 --tol 5` on a ball memo bounded at
    500 values, fewer than the 1,089 its Riemann sums read: its level batches
    make as many balls as at the default bound, 1,022 (the rest were made
    before the Riemann sums), and it prints the same bytes.  A report that
    read every level once per g, on a memo emptied between the reads, made
    4,289."""
    argv = ["audit", "thm33", "--p", "3", "--levels", "1:5", "--tol", "5"]
    made = []
    level_values = WeightedDistribution.level_values

    def counted(self, level):
        p = self.params.prime
        made.append(sum(Ball(p, a, level) not in self._memo for a in range(p**level)))
        return level_values(self, level)

    monkeypatch.setattr(WeightedDistribution, "level_values", counted)

    def report():
        made.clear()
        _ball_memo.cache_clear()
        assert cli.main(argv) == 0
        return capsys.readouterr().out, sum(made)

    at_default = report()
    assert at_default[1] == 1022
    monkeypatch.setattr(integration, "BALL_MEMO_SIZE", 500)
    assert report() == at_default
