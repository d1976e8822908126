"""The three seeded workloads: inputs, one operation, and its checks.

A workload is built from a seed and holds the same list of operations for
every round of a run.  `run(op)` calls the program and returns its output;
`check(op, out)` compares that output with the oracles (untimed) and
returns a list of problems, empty when the output is right.

All calls go through the module attributes of rhoq (``cli.main``,
``integration.volkenborn_integral``, ...) at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import inf

import oracles as orc

P = 5


def _unit_offset(rng: random.Random, avoid: int | None = None) -> int:
    """k with k, and k - avoid, prime to p: keeps nu(rho-1) = nu(q-1) = nu(rho-q) = 1."""
    while True:
        k = rng.randrange(1, P**8)
        if k % P and (avoid is None or (k - avoid) % P):
            return k


def _seq_problems(tag: str, seq: dict, level_oracle, limit_oracle, min_certified: int = 0, p: int = P) -> list[str]:
    """Every approximant against its level oracle; the best estimate against the limit."""
    bad = []
    for N, text in zip(seq["levels"], seq["approximants"]):
        got = orc.parse_digits(text, p)
        want = level_oracle(N, got.prec)
        if got.agreement(want) < got.prec:
            bad.append("%s: level %d approximant %s disagrees with the oracle" % (tag, N, text))
    bad += _certificate_problems(tag, seq, limit_oracle, min_certified, p)
    return bad


def _certificate_problems(tag: str, seq: dict, limit_oracle, min_certified: int = 0, p: int = P) -> list[str]:
    """Each declared or best certificate must be confirmed: no invented digit."""
    bad = []
    cert = seq["best_certified"]
    if cert is None:
        if min_certified:
            bad.append("%s: no certified estimate" % tag)
        return bad
    cert_v = inf if cert == "inf" else int(cert)
    if cert_v < min_certified:
        bad.append("%s: certified %s digits, fewer than %d" % (tag, cert, min_certified))
    for key, ckey in (("best_estimate", "best_certified"), ("declared_limit", "certified_exponent")):
        if seq[key] is None:
            continue
        est = orc.parse_digits(seq[key], p)
        c = seq[ckey]
        need = est.prec if c == "inf" else min(int(c), est.prec)
        if est.agreement(limit_oracle(need)) < need:
            bad.append("%s: %s %s not confirmed to %d digits" % (tag, key, seq[key], need))
    return bad


class _Memo:
    """Oracle values per input, shared by every round of a run."""

    def __init__(self):
        self._d: dict = {}

    def get(self, key, fn):
        if key not in self._d:
            self._d[key] = fn()
        return self._d[key]


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# audit: the full report, in process
# ---------------------------------------------------------------------------


AUDIT_P = 3
AUDIT_REPORTS = 6


class Audit:
    """`rhoq audit all --p 3 --levels 1:5 --tol 5` (precision 12), in process.

    All four audits and the side reports, as at p = 5, where one report
    takes 15-20 s on a 2-core machine: too few per run for a steady figure.
    At p = 3 a report takes about 1 s.  A round is one report for each of
    six audit seeds drawn from the workload seed; the audit seed moves the
    report's cost by a tenth or so, and six of them average that out.
    """

    name = "audit"

    def __init__(self, seed: int, rhoq):
        self.rhoq = rhoq
        audit_seeds = random.Random(seed).sample(range(1, 10**6), AUDIT_REPORTS)
        self.ops = [
            ("report", ["audit", "all", "--p", str(AUDIT_P), "--prec", "12", "--levels", "1:5",
                        "--tol", "5", "--seed", str(s)])
            for s in audit_seeds
        ]
        self.first_report: dict[str, str] = {}
        self.memo = _Memo()

    def run(self, op):
        return call_cli(self.rhoq.cli, op[1])

    def check(self, op, out) -> list[str]:
        rc, text = out
        bad = []
        first = self.first_report.setdefault(op[1][-1], text)
        if text != first:
            bad.append("audit: re-running seed %s changed the report" % op[1][-1])
        report = json.loads(text)
        if rc != 0 or report["verdict"] != "PASS":
            bad.append("audit: exit %d, verdict %s" % (rc, report["verdict"]))
        for audit in report["audits"]:
            for c in audit["checks"]:
                if c["verdict"] not in ("PASS", "MEASURED"):
                    bad.append("audit: %s %s is %s" % (audit["theorem"], c["name"], c["verdict"]))
        p = AUDIT_P
        rho, q = Fraction(1 + 1 * p), Fraction(1 + 2 * p)  # the default --rho 1 --q 2
        for n in (0, 1, 2):
            seq = report["side_reports"]["bernoulli_table"]["beta(n=%d, a=0)" % n]
            f = orc.integrand(("mixed", 0, n), rho, q)
            bad += _seq_problems(
                "audit beta(n=%d)" % n,
                seq,
                lambda N, k, f=f: self.memo.get(("lvl", n, N, k), lambda: orc.level_value(f, p, N, rho, q, k)),
                lambda k, f=f: self.memo.get(("lim", n, k), lambda: orc.limit_value(f, p, rho, q, k)),
                p=p,
            )
            if n == 0:
                bad += _rho_every_level("audit beta(n=0)", seq, rho, p)
        return bad


def _rho_every_level(tag: str, seq: dict, rho: Fraction, p: int = P) -> list[str]:
    """The integral of 1 equals rho at every level."""
    bad = []
    for N, text in zip(seq["levels"], seq["approximants"]):
        got = orc.parse_digits(text, p)
        if got.agreement(orc.Approx(p, rho, got.prec)) < got.prec:
            bad.append("%s: level %d is %s, not rho" % (tag, N, text))
    return bad


# ---------------------------------------------------------------------------
# deep-integrals: direct library calls at precision 40
# ---------------------------------------------------------------------------

DEEP_PREC = 40
DEEP_LEVELS = range(1, 8)
MIN_CERTIFIED = 10


class DeepIntegrals:
    """The integrand battery in three regimes: deformed, classical, symmetric."""

    name = "deep-integrals"

    def __init__(self, seed: int, rhoq):
        self.rhoq = rhoq
        rng = random.Random(seed)
        a = _unit_offset(rng)
        b = _unit_offset(rng, avoid=a)
        s = _unit_offset(rng)
        regimes = [
            ("deformed", Fraction(1 + a * P), Fraction(1 + b * P)),
            ("classical", Fraction(1), Fraction(1)),
            ("symmetric", Fraction(1 + s * P), Fraction(1 + s * P)),
        ]
        c = Fraction(1 + _unit_offset(rng) * P)
        m = Fraction(1 + _unit_offset(rng) * P)
        mixed_a = rng.randint(1, 3)
        lin = (rng.randint(1, 9), Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))))
        battery = [
            ("const", 1),
            ("xpow", 1),
            ("xpow", 3),
            ("bracket", 1),
            ("bracket", 3),
            ("qrho",),
            ("exp", c),
            ("mixed", mixed_a, 2),
            ("product", (("xpow", 1), ("qrho",))),
            ("sum", lin, (("xpow", 1), ("bracket", 2))),
            ("mahler", tuple((m - 1) ** k for k in range(7))),
        ]
        self.ops = []
        for label, rho, q in regimes:
            params = rhoq.RhoQParams.from_units(P, rho, q, precision=DEEP_PREC)
            for spec in battery:
                self.ops.append((label, spec, rho, q, params, self._function(spec)))
        self.memo = _Memo()

    def _function(self, spec):
        r = self.rhoq
        kind = spec[0]
        if kind == "const":
            return r.const(spec[1])
        if kind == "xpow":
            return r.poly_in_x([0] * spec[1] + [1], label="x^%d" % spec[1])
        if kind == "bracket":
            return r.bracket_power(spec[1])
        if kind == "qrho":
            return r.ratio_exponential()
        if kind == "exp":
            return r.exponential(spec[1])
        if kind == "mixed":
            return None  # through carlitz_bernoulli
        if kind == "product":
            return r.product(*(self._function(s) for s in spec[1]))
        if kind == "sum":
            return r.linear_combination(list(spec[1]), [self._function(s) for s in spec[2]])
        if kind == "mahler":
            return r.mahler_function(spec[1])
        raise ValueError(spec)

    def run(self, op):
        _, spec, _, _, params, f = op
        integration = self.rhoq.integration
        if spec[0] == "mixed":
            return integration.carlitz_bernoulli(spec[2], spec[1], params, DEEP_LEVELS, digits=DEEP_PREC)
        return integration.volkenborn_integral(f, params, DEEP_LEVELS, digits=DEEP_PREC)

    def check(self, op, out) -> list[str]:
        label, spec, rho, q, _, _ = op
        seq = out.describe()
        f = self.memo.get(("f", label, spec), lambda: orc.integrand(spec, rho, q))
        tag = "deep %s %s" % (label, spec[0])
        bad = _seq_problems(
            tag,
            seq,
            lambda N, k: self.memo.get(("lvl", label, spec, N, k), lambda: orc.level_value(f, P, N, rho, q, k)),
            lambda k: self.memo.get(("lim", label, spec, k), lambda: orc.limit_value(f, P, rho, q, k)),
            MIN_CERTIFIED,
        )
        if spec == ("const", 1):
            bad += _rho_every_level(tag, seq, rho)
        return bad


# ---------------------------------------------------------------------------
# queries: a stream of small CLI calls, each with fresh parameters
# ---------------------------------------------------------------------------

# Per-round counts.  Sorted by typical latency the kinds run ball < rn-haar
# < integrate ~ bernoulli ~ mahler, the last three with overlapping ranges.
# ball and rn-haar make up a quarter of the stream, so p50 falls a third of
# the way into the overlapping block rather than on the gap below it.
# rn-deriv --weight x is left out: its certificate can claim a digit the
# density does not have, depending on x and the parameters (see CHANGES.md).
QUERY_MIX = {
    "ball": 80,
    "rn-haar": 70,
    "integrate": 136,
    "bernoulli": 132,
    "mahler": 160,
    "mahler-classical": 25,
}

# The choices that set a query's cost are dealt in turn, not drawn, so every
# round holds each of them equally often (the counts above are multiples of
# these cycles) and the seed moves only parameters, points and constants.
_CYCLES = {
    "ball": [n for n in range(1, 5)],
    "integrate": ["1", "x", "x^2", "[x]", "[x]^2", "qrho^x", "exp", "mixed"],
    "bernoulli": [(n, a) for n in range(4) for a in range(3)],
    "mahler": [(fn, order) for fn in ("qrho^x", "[x]") for order in range(12, 17)],
    "mahler-classical": [(fn, order) for fn in ("exp", "x^2", "x^3", "x^4", "x^5") for order in range(12, 17)],
}


def _spec_of(fn: str) -> tuple:
    if fn == "1":
        return ("const", 1)
    if fn == "x":
        return ("xpow", 1)
    if fn.startswith("x^"):
        return ("xpow", int(fn[2:]))
    if fn == "[x]":
        return ("bracket", 1)
    if fn.startswith("[x]^"):
        return ("bracket", int(fn[4:]))
    if fn == "qrho^x":
        return ("qrho",)
    if fn.startswith("exp:"):
        return ("exp", Fraction(fn[4:]))
    if fn.startswith("mixed:"):
        a, n = fn[6:].split(",")
        return ("mixed", int(a), int(n))
    raise ValueError(fn)


class Queries:
    """A few hundred desk-scale CLI queries, closed loop, one caller."""

    name = "queries"

    def __init__(self, seed: int, rhoq):
        self.rhoq = rhoq
        rng = random.Random(seed)
        kinds = [k for k, n in QUERY_MIX.items() for _ in range(n)]
        rng.shuffle(kinds)
        dealt = {k: 0 for k in QUERY_MIX}
        self.ops = []
        for kind in kinds:
            cycle = _CYCLES.get(kind)
            choice = cycle[dealt[kind] % len(cycle)] if cycle else None
            dealt[kind] += 1
            self.ops.append(self._make(kind, choice, rng))
        self.memo = _Memo()

    def _make(self, kind: str, choice, rng: random.Random):
        if kind == "mahler-classical":
            rk = qk = 0
        else:
            rk = _unit_offset(rng)
            qk = _unit_offset(rng, avoid=rk)
        rho, q = Fraction(1 + rk * P), Fraction(1 + qk * P)
        common = ["--p", str(P), "--prec", "12", "--rho", str(rk), "--q", str(qk)]
        if kind == "ball":
            n = choice
            a = rng.randrange(P**n)
            argv = ["measure", "--ball", str(a), str(n)]
            spec = (a, n)
        elif kind == "rn-haar":
            x = rng.randrange(P**4)
            argv = ["rn-deriv", "--x", str(x), "--levels", "1:6"]
            spec = x
        elif kind == "bernoulli":
            n, a = choice
            argv = ["bernoulli", "--n", str(n), "--a", str(a), "--levels", "1:5"]
            spec = ("mixed", a, n)
        elif kind == "integrate":
            fn = choice
            if fn == "exp":
                fn = "exp:%d" % (1 + _unit_offset(rng) * P)
            elif fn == "mixed":
                fn = "mixed:%d,%d" % (rng.randint(1, 2), rng.randint(1, 2))
            argv = ["integrate", "--function", fn, "--levels", "1:5"]
            spec = _spec_of(fn)
        else:  # mahler, mahler-classical
            fn, order = choice
            if fn == "exp":
                fn = "exp:%d" % (1 + _unit_offset(rng) * P)
            argv = ["mahler", "--function", fn, "--order", str(order)]
            spec = _spec_of(fn)
        return (kind, argv + common, rho, q, spec)

    def run(self, op):
        return call_cli(self.rhoq.cli, op[1])

    def check(self, op, out) -> list[str]:
        kind, argv, rho, q, spec = op
        rc, text = out
        tag = "query %s" % " ".join(argv)
        if rc != 0:
            return ["%s: exit %d" % (tag, rc)]
        payload = json.loads(text)
        memo = self.memo.get
        key = tuple(argv)
        if kind == "ball":
            a, n = spec
            got = orc.parse_digits(payload["value"], P)
            want = memo((key, got.prec), lambda: orc.haar_ball(P, a, n, rho, q, got.prec))
            bad = [] if got.agreement(want) >= got.prec else ["%s: ball value %s" % (tag, payload["value"])]
            if payload["norm"] != str(P**n):
                bad.append("%s: norm %s, want %d" % (tag, payload["norm"], P**n))
            return bad
        if kind == "rn-haar":
            x = spec
            return _seq_problems(
                tag,
                payload["sequence"],
                lambda N, k: orc.rescaled_haar(P, x, N, rho, q, k),
                lambda k: orc.unit_power(P, q / rho, x, k),
            )
        if kind in ("bernoulli", "integrate"):
            f = memo((key, "f"), lambda: orc.integrand(spec, rho, q))
            seq = payload["sequence"]
            bad = _seq_problems(
                tag,
                seq,
                lambda N, k: memo((key, N, k), lambda: orc.level_value(f, P, N, rho, q, k)),
                lambda k: memo((key, "lim", k), lambda: orc.limit_value(f, P, rho, q, k)),
            )
            if spec in (("mixed", 0, 0), ("const", 1)):
                bad += _rho_every_level(tag, seq, rho)
            return bad
        coeffs = [orc.parse_digits(c, P) for c in payload["series"]["coefficients"]]
        if kind == "mahler-classical":
            bad = []
            for n, c in enumerate(coeffs):
                want = orc.Approx(P, orc.classical_mahler(spec, n), c.prec)
                if c.agreement(want) < c.prec:
                    bad.append("%s: coefficient %d is %s" % (tag, n, payload["series"]["coefficients"][n]))
            return bad
        # deformed: the expansion must reproduce f at every node, with
        # Gaussian binomials taken from the definition
        f = memo((key, "f"), lambda: orc.integrand(spec, rho, q))
        bad = []
        for i in range(len(coeffs)):
            acc = orc.Approx(P, 0, 10**9)
            for n in range(i + 1):
                acc = acc + coeffs[n].scale(memo(("gb", i, n, rho, q), lambda: orc.gauss_binomial(i, n, rho, q)))
            if acc.agreement(orc.Approx(P, orc.ep_eval(f, i), acc.prec)) < acc.prec:
                bad.append("%s: expansion misses f(%d)" % (tag, i))
        return bad


WORKLOADS = {w.name: w for w in (Audit, DeepIntegrals, Queries)}
