import io
import json
from contextlib import redirect_stdout

import pytest

from rhoq.audit import (
    AuditConfig,
    audit_decomposition,
    audit_lipschitz,
    _agreement_check,
    exit_code,
    report_to_json,
    run_audits,
)
from rhoq.cli import main, parse_function
from rhoq.padic import PadicNumber


LIGHT = dict(precision=10, n_max=4, theorems=("thm31", "thm34"))


class TestConfig:
    def test_window_must_fit_precision(self):
        with pytest.raises(ValueError):
            AuditConfig(precision=8, n_max=7)

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            AuditConfig(theorems=("thm99",))

    def test_parse_offset_spec(self):
        cfg = AuditConfig(rho_spec="3", q_spec="1/11")
        params = cfg.params()
        assert params.rho_base == 16  # 1 + 3*5
        assert params.q_base.denominator == 11

    def test_parse_digit_spec_caps_headroom(self):
        cfg = AuditConfig(rho_spec="digits:1,1,0,2,0,0,0,0,0,0,0,0", q_spec="2")
        params = cfg.params()
        assert params.known_digits == 12

    def test_default_tolerance_tracks_precision(self):
        assert AuditConfig(precision=12).tolerance == 6
        assert AuditConfig(precision=10).tolerance == 4


class TestVerdictLogic:
    def _diff(self, exponent, digits=10):
        # a certified nonzero difference with valuation `exponent`
        return PadicNumber(5, exponent, 1, digits)

    def test_monotone_in_tolerance(self):
        d = self._diff(4)
        ladder = [
            _agreement_check("c", "r", d, t, certified=8).verdict for t in range(1, 10)
        ]
        # PASS while t <= 4, then FAIL; never FAIL -> PASS as t grows
        assert ladder[:4] == ["PASS"] * 4
        assert set(ladder[4:]) == {"FAIL"}

    @pytest.mark.parametrize("rho,q", [("1", "2"), ("1", "1")], ids=["deformed", "symmetric"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_whole_report_monotone_in_tolerance(self, rho, q, seed):
        # a stricter tolerance never moves a check or a verdict up FAIL < INCONCLUSIVE < PASS
        rank = {"FAIL": 0, "INCONCLUSIVE": 1, "PASS": 2}
        small = dict(p=3, precision=10, rho_spec=rho, q_spec=q, n_max=3)

        def verdicts(t):
            report = run_audits(AuditConfig(seed=seed, tolerance_exponent=t, **small))
            checks = [(c["name"], c["verdict"]) for a in report["audits"] for c in a["checks"]]
            return report["verdict"], [a["verdict"] for a in report["audits"]], checks

        runs = [verdicts(t) for t in range(2, 8)]
        assert runs[0][2] != runs[-1][2]  # some check does move
        for (overall, audits, checks), (overall1, audits1, checks1) in zip(runs, runs[1:]):
            assert rank[overall1] <= rank[overall]
            assert all(rank[b] <= rank[a] for a, b in zip(audits, audits1))
            assert [name for name, _ in checks] == [name for name, _ in checks1]
            for (_, a), (_, b) in zip(checks, checks1):
                assert a == b == "MEASURED" or rank[b] <= rank[a]

    def test_inconclusive_when_certificate_short(self):
        d = self._diff(4)
        assert _agreement_check("c", "r", d, 6, certified=3).verdict == "INCONCLUSIVE"

    def test_zero_residue_never_fails(self):
        d = PadicNumber.bounded_zero(5, 4)
        assert _agreement_check("c", "r", d, 3).verdict == "PASS"
        assert _agreement_check("c", "r", d, 6).verdict == "INCONCLUSIVE"

    def test_exit_codes(self):
        assert exit_code({"verdict": "PASS"}) == 0
        assert exit_code({"verdict": "FAIL"}) == 1
        assert exit_code({"verdict": "INCONCLUSIVE"}) == 2


class TestAuditRuns:
    def test_lipschitz_audit_passes(self):
        rep = audit_lipschitz(AuditConfig(**LIGHT))
        assert rep.verdict == "PASS"
        assert any(k.startswith("C1") for k in rep.constants)

    def test_decomposition_audit_passes(self):
        rep = audit_decomposition(AuditConfig(**LIGHT))
        assert rep.verdict == "PASS"

    def test_report_is_deterministic(self):
        cfg = AuditConfig(**LIGHT)
        a = report_to_json(run_audits(cfg))
        b = report_to_json(run_audits(cfg))
        assert a == b

    def test_report_embeds_config_and_checks(self):
        rep = run_audits(AuditConfig(**LIGHT))
        assert rep["schema"].startswith("rhoq-audit-report/")
        assert rep["config"]["p"] == 5
        assert all("checks" in a for a in rep["audits"])

    def test_classical_degeneration_shows_first_bernoulli(self):
        # rho = q = 1: the beta table reduces to classical Volkenborn facts
        from fractions import Fraction

        from rhoq.padic import padic_from_fraction

        cfg = AuditConfig(
            rho_spec="0",
            q_spec="0",
            precision=10,
            n_max=4,
            theorems=("thm32",),
        )
        rep = run_audits(cfg)
        b1 = rep["side_reports"]["bernoulli_table"]["beta(n=1, a=0)"]
        want = padic_from_fraction(Fraction(-1, 2), 5, 10).digit_string()
        assert b1["best_estimate"] == want

    def test_traces_embed_rate_tables(self):
        rep = run_audits(AuditConfig(**LIGHT))
        thm34 = next(a for a in rep["audits"] if a["theorem"] == "thm34")
        trace = next(iter(thm34["traces"].values()))
        assert "cauchy_rates" in trace and "approximants" in trace


class TestCli:
    def _run(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    def test_integrate_json(self):
        code, out = self._run(
            ["integrate", "--function", "x", "--levels", "1:4", "--rho", "0", "--q", "0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sequence"]["levels"] == [1, 2, 3, 4]

    def test_measure_value(self):
        code, out = self._run(["measure", "--ball", "3", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["norm"] == "25"  # valuation -2 at level 2

    def test_rn_deriv(self):
        code, out = self._run(["rn-deriv", "--x", "7", "--levels", "1:6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["sequence"]["declared_limit"] is not None

    def test_mahler_csv(self):
        code, out = self._run(
            ["mahler", "--function", "[x]", "--order", "4", "--out", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"

    def test_integrate_csv_has_rows(self):
        code, out = self._run(
            ["integrate", "--function", "1", "--levels", "1:3", "--out", "csv"]
        )
        lines = out.splitlines()
        assert lines[0] == "level,approximant,cauchy_rate"
        assert len(lines) == 4

    def test_audit_selector_alias(self):
        code, out = self._run(
            [
                "audit",
                "lipschitz",
                "--prec",
                "10",
                "--levels",
                "1:4",
            ]
        )
        assert code in (0, 2)
        payload = json.loads(out)
        assert payload["audits"][0]["theorem"] == "thm31"

    def test_audit_csv_flattens_traces(self):
        code, out = self._run(
            ["audit", "decomposition", "--prec", "10", "--levels", "1:4", "--out", "csv"]
        )
        assert code in (0, 2)
        lines = out.splitlines()
        assert "theorem,trace,level,approximant,cauchy_rate" in lines
        idx = lines.index("theorem,trace,level,approximant,cauchy_rate")
        assert len(lines) > idx + 1  # at least one approximant row

    def test_audit_table_output_renders(self):
        code, out = self._run(
            ["audit", "lipschitz", "--prec", "10", "--levels", "1:4", "--out", "table"]
        )
        assert code in (0, 2)
        assert "verdict" in out

    def test_measure_invariance_weighted_via_cli(self):
        code, out = self._run(
            ["measure", "--invariance", "--weight", "[x]", "--prec", "10", "--levels", "1:3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["invariance"]["verdict"] in {
            "strongly",
            "one_admissible",
            "weakly",
            "none_detected",
        }

    def test_bad_function_spec(self):
        with pytest.raises(SystemExit):
            parse_function("tan(x)")

    def test_function_specs_parse(self):
        for spec in ("1", "const:3/2", "x", "x^3", "[x]", "[x]^2", "qrho^x", "exp:6", "mixed:2,1"):
            assert parse_function(spec) is not None
