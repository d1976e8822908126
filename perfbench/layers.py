"""Per-layer tracing from outside the program.

`Tracer.install(rhoq)` builds spans around the public functions of each rhoq module that
the per-layer metrics need, on every binding of each function: the defining
module, every module that imported it with ``from ... import``, the
package namespace, class attributes, and dispatch tables such as
``audit._AUDIT_FUNCTIONS``; `enable` and `disable` swap them in and
out, so traced and untraced rounds can alternate.  Each wrapper is a span; spans stay in memory as
per-group aggregates (calls, self time, inclusive time) and are read when
the run ends.  Self time is a span's duration minus its child spans.

A name that a later version of rhoq no longer has is skipped and listed in
``missing``; its metrics then read 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, group).  PadicNumber subtraction runs through
# __add__ and "/" through div, so wrapping __add__, __mul__ and div counts
# each +, -, *, / once.
SPANS = [
    ("padic", "PadicNumber.__add__", "padic.arith"),
    ("padic", "PadicNumber.__mul__", "padic.arith"),
    ("padic", "div", "padic.arith"),
    ("padic", "PadicNumber.digit_string", "padic.render"),
    ("calculus", "rhoq_integer", "calculus.bracket"),
    ("calculus", "p_power_bracket", "calculus.bracket"),
    ("calculus", "rhoq_binomial", "calculus.binomial"),
    ("calculus", "rhoq_factorial", "calculus.binomial"),
    ("sequences", "ApproximantSequence.build", "sequences.build"),
    ("measures", "Distribution.value", "measures.ball_value"),
    ("measures", "check_invariance", "measures.invariance"),
    ("measures", "radon_nikodym_derivative", "measures.rn_deriv"),
    ("measures", "lipschitz_estimate", "measures.lipschitz"),
    ("integration", "progression_sums", "integration.level_sum"),
    ("integration", "weighted_measure_sequence", "integration.weighted_ball"),
    ("integration", "weighted_measure_direct", "integration.weighted_ball"),
    ("integration", "weighted_measure", "integration.weighted_ball"),
    ("integration", "integral_against_weighted", "integration.riemann"),
    ("integration", "volkenborn_integral", "integration.integral"),
    ("integration", "carlitz_bernoulli", "integration.integral"),
    ("integration", "bernoulli_comparison_report", "integration.integral"),
    ("integration", "IntegrableFunction.evaluate", "integration.evaluate"),
    ("mahler", "mahler_coefficients", "mahler.solve"),
    ("mahler", "sup_norm_grid", "mahler.grid_norm"),
    ("mahler", "difference_quotient_norm_grid", "mahler.grid_norm"),
    ("mahler", "lipschitz_norm_grid", "mahler.grid_norm"),
    ("audit", "audit_lipschitz", "audit.thm31"),
    ("audit", "audit_weighted_measure", "audit.thm32"),
    ("audit", "audit_closed_form", "audit.thm33"),
    ("audit", "audit_decomposition", "audit.thm34"),
    ("audit", "run_audits", "audit.run"),
    ("cli", "main", "cli.main"),
]


def _level_sum_points(args, kwargs):
    params = args[1] if len(args) > 1 else kwargs["params"]
    max_level = args[2] if len(args) > 2 else kwargs["max_level"]
    return "level_sum_points", params.prime**max_level


def _memo_hit(args, kwargs):
    dist, ball = args[0], args[1] if len(args) > 1 else kwargs["ball"]
    return "ball_memo_hits", int(ball in getattr(dist, "_memo", ()))


COUNTERS = {"integration.level_sum": _level_sum_points, "measures.ball_value": _memo_hit}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack = [[None, 0]]  # [group, child ns] per open span
        self._bindings: list = []  # (put, original, span) per binding found

    def wrap(self, fn, group: str):
        stack, clock = self._stack, time.perf_counter_ns
        calls, self_ns, total_ns, counts = self.calls, self.self_ns, self.total_ns, self.counts
        counter = COUNTERS.get(group)

        def span(*args, **kwargs):
            frame = [group, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                if counter is not None:
                    key, n = counter(args, kwargs)
                    counts[key] += n
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[group] += 1
                self_ns[group] += dt - frame[1]
                if parent[0] != group:  # inclusive time of the outermost span only
                    total_ns[group] += dt
                parent[1] += dt

        return span

    def install(self, package) -> None:
        """Find every binding and build its span; `enable` puts the spans in."""
        modules = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod_name, path, group in SPANS:
            mod = sys.modules.get("%s.%s" % (package.__name__, mod_name))
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append("%s.%s" % (mod_name, path))
                continue
            if owner_name:  # a method on a class
                span = (classmethod(self.wrap(raw.__func__, group)) if isinstance(raw, classmethod)
                        else self.wrap(raw, group))
                self._bindings.append((lambda v, o=owner, a=attr: setattr(o, a, v), raw, span))
                continue
            span = self.wrap(raw, group)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is raw:
                        self._bindings.append((lambda v, m=m, n=name: setattr(m, n, v), raw, span))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is raw:
                                self._bindings.append((lambda v, d=value, k=k: d.__setitem__(k, v), raw, span))

    def enable(self) -> None:
        for put, _, span in self._bindings:
            put(span)

    def disable(self) -> None:
        for put, raw, _ in self._bindings:
            put(raw)


def calculus_caches(package) -> list:
    """The lru_cache tables of rhoq.calculus (found, not named, so they may go)."""
    mod = sys.modules.get(package.__name__ + ".calculus")
    return [v for v in vars(mod).values() if callable(v) and hasattr(v, "cache_info")] if mod else []


def all_caches(package) -> list:
    out = []
    for name, mod in list(sys.modules.items()):
        if name.startswith(package.__name__ + ".") and mod is not None:
            out += [v for v in vars(mod).values() if callable(v) and hasattr(v, "cache_clear") and hasattr(v, "cache_info")]
    return list({id(c): c for c in out}.values())


def layer_metrics(tr: Tracer, rounds: int, memo: dict, output_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics per traced round (counts repeat exactly for a seed)."""
    c, s, t, n = tr.calls, tr.self_ns, tr.total_ns, tr.counts
    per = 1.0 / rounds

    def secs(group):
        return s[group] * per / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    points = n["level_sum_points"]
    audits_total = sum(t["audit.thm3%d" % i] for i in range(1, 5))
    return {
        "integration.level_sum_calls": (c["integration.level_sum"] * per, "count"),
        "integration.level_sum_points": (points * per, "count"),
        "integration.level_sum_s": (secs("integration.level_sum"), "s"),
        "integration.ns_per_point": (ratio(s["integration.level_sum"], points), "ns"),
        "integration.weighted_ball_calls": (c["integration.weighted_ball"] * per, "count"),
        "integration.weighted_ball_s": (secs("integration.weighted_ball"), "s"),
        "integration.riemann_self_s": (secs("integration.riemann"), "s"),
        "integration.integral_s": (secs("integration.integral"), "s"),
        "integration.evaluate_calls": (c["integration.evaluate"] * per, "count"),
        "measures.ball_value_calls": (c["measures.ball_value"] * per, "count"),
        "measures.ball_memo_hit_ratio": (ratio(n["ball_memo_hits"], c["measures.ball_value"]), "ratio"),
        "measures.invariance_s": (secs("measures.invariance"), "s"),
        "measures.rn_deriv_s": (secs("measures.rn_deriv"), "s"),
        "measures.lipschitz_s": (secs("measures.lipschitz"), "s"),
        "calculus.bracket_calls": (c["calculus.bracket"] * per, "count"),
        "calculus.bracket_s": (secs("calculus.bracket"), "s"),
        "calculus.binomial_calls": (c["calculus.binomial"] * per, "count"),
        "calculus.binomial_s": (secs("calculus.binomial"), "s"),
        "calculus.memo_hit_ratio": (ratio(memo["hits"], memo["hits"] + memo["misses"]), "ratio"),
        "calculus.memo_entries": (memo["entries"], "count"),
        "padic.arith_calls": (c["padic.arith"] * per, "count"),
        "padic.arith_s": (secs("padic.arith"), "s"),
        "padic.render_calls": (c["padic.render"] * per, "count"),
        "padic.render_s": (secs("padic.render"), "s"),
        "sequences.build_calls": (c["sequences.build"] * per, "count"),
        "sequences.build_s": (secs("sequences.build"), "s"),
        "mahler.solve_calls": (c["mahler.solve"] * per, "count"),
        "mahler.solve_s": (secs("mahler.solve"), "s"),
        "mahler.grid_norm_s": (secs("mahler.grid_norm"), "s"),
        "audit.thm31_s": (secs("audit.thm31"), "s"),
        "audit.thm32_s": (secs("audit.thm32"), "s"),
        "audit.thm33_s": (secs("audit.thm33"), "s"),
        "audit.thm34_s": (secs("audit.thm34"), "s"),
        # run_audits outside the four audits: the side reports and assembly
        "audit.side_reports_s": ((t["audit.run"] - audits_total) * per / 1e9, "s"),
        "cli.self_s": (secs("cli.main"), "s"),
        "cli.output_bytes": (output_bytes * per, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
