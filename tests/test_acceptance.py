"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line on success (run with -s to see them);
a failure carries the criterion number in the test name.
"""

import random
import time
from fractions import Fraction

from rhoq.audit import AuditConfig, audit_closed_form, audit_decomposition, report_to_json, run_audits
from rhoq.calculus import RhoQParams, rhoq_power
from rhoq.integration import (
    bracket_power,
    const,
    coordinate,
    mixed_power,
    poly_in_x,
    ratio_exponential,
    values,
    volkenborn_integral,
    weighted_measure_direct,
    weighted_measure_sequence,
)
from rhoq.mahler import lipschitz_norm_grid, mahler_coefficients, truncation_polynomial
from rhoq.measures import Ball, RhoQHaar, radon_nikodym_derivative
from rhoq.padic import PadicNumber, padic_from_fraction
from rhoq.sequences import gap_norm

from .oracles import finite_differences, rat_mod


def _ok(n: int, text: str) -> None:
    print("criterion %02d PASS  %s" % (n, text))


def default_params(prec=12):
    return RhoQParams.from_offsets(5, 1, 2, prec)


def test_criterion_01_haar_degeneration_runtime_bounded():
    t0 = time.perf_counter()
    pr = RhoQParams.classical(5, 12)
    seq = volkenborn_integral(coordinate(), pr, range(1, 7), target_exponent=10)
    for N, a_n in seq.terms:
        exact = Fraction(5**N - 1, 2)  # closed-form arithmetic-sum oracle
        assert a_n.residue(12) == rat_mod(exact, 5, 12)
        assert rat_mod(exact - Fraction(-1, 2), 5, N) == 0
    assert seq.converged
    minus_half = padic_from_fraction(Fraction(-1, 2), 5, 12)
    assert seq.declared_limit.agrees(minus_half, 10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, "took %.2fs" % elapsed
    _ok(1, "classical level values exact, limit -1/2 to 5^-10 in %.2fs" % elapsed)


def test_criterion_02_constant_function_closed_form():
    rng = random.Random(2)
    checked = 0
    for p in (3, 5, 7):
        for _ in range(5):
            pr = RhoQParams.from_offsets(p, rng.randrange(p**2), rng.randrange(p**2), 12)
            seq = volkenborn_integral(const(1), pr, range(1, 6))
            rho = PadicNumber(p, 0, pr.rho_residue(12), 12)
            for _, a_n in seq.terms:
                assert a_n.agrees(rho)
                checked += 1
    _ok(2, "integral of 1 equals rho at every level (%d level checks)" % checked)


def test_criterion_03_distribution_additivity_exhaustive():
    t0 = time.perf_counter()
    total = 0
    for p in (3, 5, 7):
        pr = RhoQParams.from_offsets(p, 1, 2, 16)
        d = RhoQHaar(pr)
        for N in range(1, 5):
            for a in range(p**N):
                parent = Ball(p, a, N)
                acc = PadicNumber.exact_zero(p)
                for child in parent.children():
                    acc = acc + d.value(child)
                assert acc.agrees(d.value(parent)), (p, a, N)
                total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, "took %.2fs" % elapsed
    _ok(3, "additivity exact on %d balls (p in 3,5,7; N<=4) in %.2fs" % (total, elapsed))


def test_criterion_04_reduction_identity_cross_validation():
    pr = default_params()
    rng = random.Random(4)
    battery = [const(1), coordinate(), bracket_power(1), ratio_exponential()]
    balls = []
    while len(balls) < 20:
        n = rng.randint(1, 3)
        balls.append(Ball(5, rng.randrange(5**n), n))
    for ball in balls:
        depth = 4 if ball.level <= 2 else 3
        for f in battery:
            lifted = weighted_measure_sequence(f, pr, ball, range(1, depth + 1))
            direct = weighted_measure_direct(f, pr, ball, depth)
            for (m1, t1), (m2, t2) in zip(lifted.terms, direct.terms):
                assert m1 == m2
                assert t1.agrees(t2), (str(ball), f.describe(), m1)
    _ok(4, "both evaluation paths agree on 20 balls x 4 weights at matched levels")


def test_criterion_05_rn_derivative_convergence():
    pr = default_params(prec=12)
    d = RhoQHaar(pr)
    rng = random.Random(5)
    xs = sorted({0, 1, 3} | {rng.randrange(5**5) for _ in range(6)})
    for x in xs:
        seq = radon_nikodym_derivative(d, x, range(1, 12), target_exponent=10)
        for (N, _), e in zip(seq.terms[:5], seq.gap_exponents[:5]):
            assert e >= N + 1, (x, N, e)
        assert seq.converged
        expected = rhoq_power(pr.q / pr.rho, x)  # independent power computation
        assert seq.declared_limit.agrees(expected, 10)
    _ok(5, "rates bounded by p^-(N+1) and limits match (q/rho)^x to 5^-10 (%d points)" % len(xs))


def test_criterion_06_norm_bound_zero_violations():
    pr = default_params()
    rng = random.Random(6)
    battery = [const(1), coordinate(), bracket_power(1), ratio_exponential()]
    norms = {f.describe(): lipschitz_norm_grid(f, pr, 2) for f in battery}
    checked = 0
    for f in battery:
        for _ in range(15):
            n = rng.randint(1, 3)
            ball = Ball(5, rng.randrange(5**n), n)
            v = weighted_measure_sequence(f, pr, ball, range(1, 5)).limit_estimate()
            assert gap_norm(v) * Fraction(1, 5**n) <= norms[f.describe()], (f.describe(), ball)
            checked += 1
    _ok(6, "norm bound holds on %d sampled (f, ball) pairs, zero violations" % checked)


def test_criterion_07_closed_form_ratio_constancy():
    # tolerance pinned at t = m - 4 for the working precision of this run
    m = 10
    cfg = AuditConfig(precision=m, tolerance_exponent=m - 4, seed=7)
    rep = audit_closed_form(cfg)
    ratio_checks = [
        c
        for c in rep.checks
        if c.name.startswith("density ratio constancy")
        or c.name.startswith("integral identity ratio")
    ]
    assert len(ratio_checks) == 6
    for c in ratio_checks:
        assert c.verdict == "PASS", (c.name, c.measured)
    _ok(7, "density and integral-identity ratios constant to 5^-%d for k=1,2,3" % (m - 4))


def test_criterion_08_mahler_roundtrip_order_24():
    pr = default_params(prec=14)
    order = 24
    battery = [
        const(2),
        coordinate(),
        poly_in_x([0, 0, 1], label="x^2"),
        bracket_power(1),
        bracket_power(2),
        ratio_exponential(),
        mixed_power(1, 1),
    ]
    for f in battery:
        series = mahler_coefficients(f, order, pr)
        head = truncation_polynomial(series, series.order)
        xs = range(order + 1)
        for i, got, want in zip(xs, values(head, pr, xs, 12), values(f, pr, xs, 12), strict=True):
            assert got.agrees(want, 10), (f.describe(), i)
    # classical coefficients match the finite-difference oracle exactly
    cl = RhoQParams.classical(5, 14)
    for coeffs in ([1, 2], [0, 0, 1], [3, 0, 0, 1]):
        f = poly_in_x(coeffs)
        series = mahler_coefficients(f, order, cl)
        exact = [sum(Fraction(c) * x**i for i, c in enumerate(coeffs)) for x in range(order + 1)]
        for c, e in zip(series.coefficients, finite_differences(exact)):
            if c.is_zero_residue:
                assert rat_mod(e, 5, 10) == 0
            else:
                assert c.residue(10) == rat_mod(e, 5, 10)
    _ok(8, "solve-evaluate roundtrip exact at 0..24; classical oracle matched")


def test_criterion_09_decomposition_bounded_remainder():
    rep = audit_decomposition(AuditConfig())
    bounded = [c for c in rep.checks if c.name.startswith("bounded remainder")]
    assert len(bounded) == 2  # (q/rho)^x and a degree-2 truncation
    for c in bounded:
        assert c.verdict == "PASS", (c.name, c.measured)
    identities = [c for c in rep.checks if c.name.startswith("decomposition identity")]
    assert identities and all(c.verdict == "PASS" for c in identities)
    _ok(9, "remainder rescaled values bounded with a stable fitted K for both weights")


def test_criterion_10_audit_determinism():
    cfg = AuditConfig(precision=10, n_max=4)
    first = report_to_json(run_audits(cfg))
    second = report_to_json(run_audits(cfg))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    _ok(10, "two audit-all runs produced byte-identical reports (%d bytes)" % len(first))
