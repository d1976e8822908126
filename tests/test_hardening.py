"""Cross-cutting checks: exact-rational oracles for the composed pipelines,
classifier negatives, degenerate parameters and cross-prime smoke runs."""

from fractions import Fraction

from rhoq import integration
from rhoq.audit import AuditConfig, audit_decomposition, audit_lipschitz, run_audits
from rhoq.calculus import RhoQParams
from rhoq.integration import (
    WeightedDistribution,
    _ball_memo,
    bracket_power,
    coordinate,
    weighted_measure_direct,
    weighted_measure_sequence,
)
from rhoq.measures import Ball, Distribution, check_invariance, rhoq_haar_measure
from rhoq.padic import PadicNumber, padic_from_integer

from .oracles import bracket, function_value, rat_mod


def params(p=5, rho_k=1, q_k=2, prec=12):
    return RhoQParams.from_offsets(p, rho_k, q_k, prec)


class TestWeightedExactOracle:
    def test_direct_path_matches_big_rational_arithmetic(self):
        # mu~_f(a + p^n Z_p) at total level M, f(x) = x, against Fractions
        pr = params(prec=12)
        rho, q = Fraction(6), Fraction(11)
        t = q / rho
        for a, n in ((0, 1), (3, 1), (7, 2)):
            seq = weighted_measure_direct(coordinate(), pr, Ball(5, a, n), 3)
            for m, term in seq.terms:
                M = n + m
                s = sum(Fraction(a + 5**n * y) * t ** (a + 5**n * y) for y in range(5**m))
                exact = rho ** (5**M) / bracket(5**M, rho, q) * s
                v = term.valuation
                unit_digits = int(term.abs_precision) - int(v)
                scaled = exact * Fraction(5) ** (-v) if v < 0 else exact / Fraction(5) ** v
                assert term.unit == rat_mod(scaled, 5, unit_digits), (a, n, m)

    def test_lifted_path_matches_big_rational_arithmetic(self):
        pr = params(prec=12)
        rho, q = Fraction(6), Fraction(11)
        t = q / rho
        ball = Ball(5, 2, 1)
        seq = weighted_measure_sequence(coordinate(), pr, ball, range(1, 4))
        for m, term in seq.terms:
            M = 1 + m
            s = sum(Fraction(2 + 5 * y) * t ** (2 + 5 * y) for y in range(5**m))
            exact = rho ** (5**M) / bracket(5**M, rho, q) * s
            v = term.valuation
            unit_digits = int(term.abs_precision) - int(v)
            scaled = exact * Fraction(5) ** (-v) if v < 0 else exact / Fraction(5) ** v
            assert term.unit == rat_mod(scaled, 5, unit_digits), m


class _BlowupDistribution(Distribution):
    """Rescaled ball values grow like p^N: nothing should be detected."""

    family = "blowup"

    def __init__(self, pr):
        super().__init__(pr)

    def _value(self, ball: Ball) -> PadicNumber:
        base = rhoq_haar_measure(ball, self.params, self.digits)
        return base * base  # valuation -2N: rescaling by [p^N] leaves -N


class TestClassifierNegative:
    def test_blowup_is_not_classified_invariant(self):
        report = check_invariance(_BlowupDistribution(params(prec=14)), range(1, 4))
        assert report.kind == "none_detected"
        assert not report.weakly and not report.strongly and not report.one_admissible


class TestDegenerateParameters:
    def test_closed_form_audit_at_rho_equals_q(self):
        # the parameter-rate bound is vacuous at rho = q: the invariance check
        # reports INCONCLUSIVE, the measured ratio checks still pass
        from rhoq.audit import audit_closed_form

        cfg = AuditConfig(
            rho_spec="0", q_spec="0", precision=10, n_max=4, tolerance_exponent=3,
        )
        rep = audit_closed_form(cfg)
        assert rep.verdict != "FAIL"
        inv = [c for c in rep.checks if c.name.startswith("strong invariance")]
        assert all(c.verdict in ("PASS", "INCONCLUSIVE") for c in inv)
        ratios = [c for c in rep.checks if "constancy" in c.name]
        assert all(c.verdict == "PASS" for c in ratios)


class TestCrossPrime:
    def test_audits_pass_at_p3(self):
        cfg = AuditConfig(p=3, precision=10, n_max=4)
        assert audit_lipschitz(cfg).verdict == "PASS"
        assert audit_decomposition(cfg).verdict == "PASS"

    def test_audits_pass_at_p7(self):
        cfg = AuditConfig(p=7, precision=10, n_max=3)
        assert audit_lipschitz(cfg).verdict == "PASS"
        assert audit_decomposition(cfg).verdict == "PASS"

    def test_weighted_distribution_memo_shared_across_checks(self):
        pr = params(prec=12)
        d = WeightedDistribution(bracket_power(1), pr)
        ball = Ball(5, 3, 2)
        first = d.value(ball)
        assert d.value(ball) is first  # memo hit returns the same object


class TestBallMemo:
    """The weighted ball values are memoized once per process: one dict per
    (f, params), one parameter pair at a time, at most BALL_MEMO_SIZE values."""

    ball = Ball(5, 3, 2)

    def test_equal_weight_and_params_share_values(self):
        first = WeightedDistribution(bracket_power(1), params()).value(self.ball)
        assert WeightedDistribution(bracket_power(1), params()).value(self.ball) is first

    def test_other_weight_or_params_do_not_share(self):
        WeightedDistribution(bracket_power(1), params()).value(self.ball)
        for f, pr in (
            (coordinate(), params()),
            (bracket_power(1), params(q_k=3)),
            (bracket_power(1), params(rho_k=3)),
            (bracket_power(1), params(prec=10)),
        ):
            other = WeightedDistribution(f, pr)
            assert self.ball not in other._memo
            assert other.value(self.ball) == other._value(self.ball)

    def test_new_parameter_pair_drops_old_values(self):
        WeightedDistribution(bracket_power(1), params()).value(self.ball)
        WeightedDistribution(bracket_power(1), params(q_k=3))
        info = _ball_memo.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)
        assert not WeightedDistribution(bracket_power(1), params())._memo

    def test_memo_is_bounded_and_emptied_when_full(self, monkeypatch):
        monkeypatch.setattr(integration, "BALL_MEMO_SIZE", 10)
        pr = params(p=3, prec=10)
        _ball_memo.cache_clear()
        d = WeightedDistribution(bracket_power(2), pr)

        def held():
            return sum(map(len, _ball_memo(pr).values()))

        assert len(d.level_values(2)) == 9 and held() == 9
        d.value(Ball(3, 0, 1))
        assert held() == 10
        d.value(Ball(3, 1, 1))  # the memo is full: emptied, then this one kept
        assert held() == 1
        batch = d.level_values(3)  # 27 values, more than the memo holds
        assert held() <= 10
        assert batch == [d._value(Ball(3, a, 3)) for a in range(27)]

    def test_cache_clear_empties_the_memo(self):
        module_caches = [
            v for v in vars(integration).values()
            if callable(v) and hasattr(v, "cache_clear") and hasattr(v, "cache_info")
        ]
        assert _ball_memo in module_caches
        WeightedDistribution(bracket_power(1), params()).value(self.ball)
        _ball_memo.cache_clear()
        assert _ball_memo.cache_info().currsize == 0
        assert not WeightedDistribution(bracket_power(1), params())._memo


class TestDeepPrecision:
    def test_classical_limit_at_sixteen_digits(self):
        from rhoq.integration import volkenborn_integral
        from rhoq.padic import padic_from_fraction

        pr = RhoQParams.classical(5, 16)
        seq = volkenborn_integral(coordinate(), pr, range(1, 8), target_exponent=13)
        assert seq.converged
        assert seq.declared_limit.agrees(padic_from_fraction(Fraction(-1, 2), 5, 16), 13)

    def test_rn_limit_at_sixteen_digits(self):
        from rhoq.calculus import rhoq_power
        from rhoq.measures import radon_nikodym_derivative, RhoQHaar

        pr = params(prec=16)
        d = RhoQHaar(pr)
        seq = radon_nikodym_derivative(d, 9, range(1, 15), target_exponent=14)
        assert seq.converged
        assert seq.declared_limit.agrees(rhoq_power(pr.q / pr.rho, 9), 14)


class TestEngineFuzz:
    def test_bracket_polynomials_random_coefficients(self):
        from hypothesis import given, settings, strategies as st

        from rhoq.integration import poly_in_bracket, progression_sums

        @settings(max_examples=25, deadline=None)
        @given(
            st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=4),
            st.integers(min_value=0, max_value=30),
            st.sampled_from([1, 5, 25]),
        )
        def run(coeffs, shift, step):
            pr = params(prec=8)
            f = poly_in_bracket([Fraction(c) for c in coeffs])
            w = 8
            mod = 5**w
            sums, deficiency = progression_sums(f, pr, 1, shift, step, w)
            t = pr.ratio_residue(w)
            acc = 0
            for y in range(5):
                x = shift + step * y
                fx = function_value(f, pr.rho_base, pr.q_base, x)
                acc = (acc + rat_mod(fx, 5, w) * pow(t, x, mod)) % mod
            assert sums[1] % 5 ** (w - deficiency) == acc % 5 ** (w - deficiency)

        run()


class TestDeterminismAcrossProcessesShape:
    def test_report_has_no_environment_dependent_fields(self):
        rep = run_audits(AuditConfig(precision=10, n_max=3, theorems=("thm31",)))
        text = str(rep).lower()
        for token in ("timestamp", "hostname", "pid", "date"):
            assert token not in text


class TestSequenceCertificates:
    def test_increasing_gaps_do_not_declare(self):
        from rhoq.sequences import ApproximantSequence

        p = 5
        # gap norms 1/25, 1/5, 1/125: not monotone, no support for a limit
        values = [0, 25, 30, 155]
        terms = [
            (n + 1, padic_from_integer(v, p, 10) if v else PadicNumber.exact_zero(p))
            for n, v in enumerate(values)
        ]
        seq = ApproximantSequence.build(p, terms, target_exponent=1)
        assert not seq.converged
        assert seq.best_estimate is None

    def test_monotone_gaps_declare_with_last_gap_certificate(self):
        from rhoq.sequences import ApproximantSequence

        p = 5
        values = [1, 1 + 5**2, 1 + 5**2 + 5**4, 1 + 5**2 + 5**4 + 5**6]
        terms = [(n + 1, padic_from_integer(v, p, 12)) for n, v in enumerate(values)]
        seq = ApproximantSequence.build(p, terms, target_exponent=5)
        assert seq.converged
        assert seq.certified_exponent >= 5


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        import rhoq

        missing = [name for name in rhoq.__all__ if not hasattr(rhoq, name)]
        assert missing == []
        namespace: dict = {}
        exec("from rhoq import *", namespace)
        assert set(rhoq.__all__) <= set(namespace)
