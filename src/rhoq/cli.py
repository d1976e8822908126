"""Command-line front end: evaluate measures, integrals, expansions, audits.

Exit codes for `audit`: 0 all PASS, 1 any FAIL, 2 any INCONCLUSIVE with no
FAIL (CI-friendly).  Every command exits 3 with a one-line message on
stderr when the invocation is malformed or a library error (a PadicError
or a ValueError) escapes, so neither reads as a FAIL or an INCONCLUSIVE.
Nor does a crash: when the reader of stdout closes it early
(`rhoq audit all | head -c 10`) the command ends quietly with status 141,
as a process killed by SIGPIPE does, and any other uncaught exception
prints one `rhoq: internal error: ...` line and its traceback on stderr and
exits 4.  All output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import NoReturn

from .audit import AUDIT_ALIASES, AUDIT_IDS, AuditConfig, exit_code, level_window
from .audit import params_from_specs, parse_rational, report_to_json, run_audits, tolerance_for
from .calculus import RhoQParams
from .integration import (
    IntegrableFunction,
    WeightedDistribution,
    bernoulli_comparison_report,
    bracket_power,
    carlitz_bernoulli,
    const,
    coordinate,
    exponential,
    mixed_power,
    poly_in_x,
    ratio_exponential,
    volkenborn_integral,
)
from .mahler import mahler_coefficients
from .measures import Ball, Distribution, RhoQHaar, check_invariance, radon_nikodym_derivative
from .padic import PadicError

#: exit status of a malformed invocation or a library error
EXIT_ERROR = 3
#: exit status of an uncaught exception: a crash, never an audit verdict
EXIT_INTERNAL = 4
#: exit status when stdout is closed early: 128 + SIGPIPE, as a shell reports
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors, like library errors, are one line and exit 3."""

    def error(self, message: str) -> NoReturn:
        print("rhoq: error: %s" % message, file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


#: the form a function spec with a parameter must take, by its prefix
_SPEC_FORMS = {
    "const:": "const:C with a rational C",
    "x^": "x^K with an integer K >= 0",
    "[x]^": "[x]^K with an integer K >= 0",
    "exp:": "exp:C with a rational C",
    "mixed:": "mixed:A,N with integers A and N >= 0",
}


def parse_function(spec: str) -> IntegrableFunction:
    """Function specs: 1 | const:C | x | x^K | [x] | [x]^K | qrho^x | exp:C | mixed:A,N,
    with K, N >= 0; a spec that names no function, or whose parameter does not
    fit its form, is a usage error."""
    s = spec.strip()
    try:
        if s == "1":
            return const(1)
        if s.startswith("const:"):
            return const(parse_rational(s.split(":", 1)[1]))
        if s == "x":
            return coordinate()
        if s.startswith("x^"):
            k = int(s[2:])
            if k < 0:
                raise ValueError("n must be >= 0")
            return poly_in_x([0] * k + [1], label=s)
        if s == "[x]":
            return bracket_power(1)
        if s.startswith("[x]^"):
            return bracket_power(int(s[4:]))
        if s == "qrho^x":
            return ratio_exponential()
        if s.startswith("exp:"):
            return exponential(parse_rational(s.split(":", 1)[1]))
        if s.startswith("mixed:"):
            a, n = s.split(":", 1)[1].split(",")
            return mixed_power(int(a), int(n))
    # OverflowError: K past the size of a list; MemoryError: a list of K + 1 that cannot be had
    except (ValueError, OverflowError, MemoryError):
        form = next(form for prefix, form in _SPEC_FORMS.items() if s.startswith(prefix))
        _build_parser().error("function spec %r: expected %s" % (spec, form))
    _build_parser().error("unrecognized function spec %r" % spec)


_GLOBAL_FLAGS = [
    ("--p", dict(type=int, default=5, help="odd prime (default 5)")),
    ("--prec", dict(type=int, default=12, help="working precision in digits")),
    ("--rho", dict(default="1", help="k for 1+k*p, a rational, or digits:d0,d1,...")),
    ("--q", dict(default="2", help="k for 1+k*p, a rational, or digits:d0,d1,...")),
    ("--levels", dict(default="1:5", help="level window NMIN:NMAX")),
    ("--seed", dict(type=int, default=1, help="sampling seed")),
    ("--tol", dict(type=int, default=None, help="tolerance exponent t (p^-t)")),
    ("--out", dict(choices=("json", "csv", "table"), default="json")),
]


def _add_globals(ap: argparse.ArgumentParser, suppress: bool) -> None:
    for flag, kw in _GLOBAL_FLAGS:
        if suppress:
            kw = {**kw, "default": argparse.SUPPRESS}
        ap.add_argument(flag, **kw)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept (parsing leaves it unchanged)."""
    ap = _Parser(
        prog="rhoq",
        description="Finite-precision p-adic computations with a two-parameter "
        "deformed Haar distribution: measures, integrals, expansions, audits.",
    )
    _add_globals(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        sp = sub.add_parser(name, **kw)
        _add_globals(sp, suppress=True)  # global flags accepted after the subcommand too
        return sp

    m = add_parser("measure", help="evaluate the deformed Haar measure on a ball")
    m.add_argument("--ball", nargs=2, type=int, metavar=("A", "N"))
    m.add_argument("--invariance", action="store_true", help="classify invariance instead")
    m.add_argument("--weight", default=None, help="use the weighted family with this function")

    i = add_parser("integrate", help="integral as an approximant sequence")
    i.add_argument("--function", required=True)

    b = add_parser("bernoulli", help="Bernoulli-type integral of rho^(ax) [x]^n")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--a", type=int, default=0)
    b.add_argument("--compare", action="store_true", help="include the printed-formula comparison")

    mh = add_parser("mahler", help="expansion coefficients in the binomial basis")
    mh.add_argument("--function", required=True)
    mh.add_argument("--order", type=int, default=12)

    r = add_parser("rn-deriv", help="rescaled ball values at a point, with rates")
    r.add_argument("--x", type=int, required=True)
    r.add_argument("--weight", default=None, help="weighted family instead of the base one")

    a = add_parser("audit", help="run property audits")
    a.add_argument(
        "selector",
        choices=list(AUDIT_IDS) + list(AUDIT_ALIASES) + ["all"],
        help="which audit to run",
    )
    return ap


def _levels(arg: str) -> tuple[int, int]:
    lo, _, hi = arg.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError("--levels takes NMIN:NMAX, two integers; got %r" % arg) from None


def _emit(payload: dict, out: str) -> None:
    if out == "json":
        print(report_to_json(payload))
    elif out == "table":
        _print_table(payload)
    else:
        _print_csv(payload)


def _print_table(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print("%s%s:" % (pad, key))
            _print_table(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                print("%s%s[%d]:" % (pad, key, i))
                _print_table(item, indent + 1)
        else:
            print("%s%-24s %s" % (pad, key, value))


def _print_csv(payload: dict) -> None:
    seq = payload.get("sequence") or payload
    if "levels" in seq and "approximants" in seq:
        print("level,approximant,cauchy_rate")
        rates = seq.get("cauchy_rates", [])
        for i, (lvl, val) in enumerate(zip(seq["levels"], seq["approximants"])):
            rate = rates[i] if i < len(rates) else ""
            print('%s,"%s","%s"' % (lvl, val, rate))
        return
    if "audits" in payload:
        print("theorem,check,verdict,agreement_exponent")
        for audit in payload["audits"]:
            for c in audit["checks"]:
                print(
                    '%s,"%s",%s,%s'
                    % (
                        audit["theorem"],
                        c["name"],
                        c["verdict"],
                        c["measured"].get("agreement_exponent", ""),
                    )
                )
        print()
        print("theorem,trace,level,approximant,cauchy_rate")
        for audit in payload["audits"]:
            for name, trace in audit.get("traces", {}).items():
                tables = [trace] if "levels" in trace else list(trace.values())
                for table in tables:
                    if not isinstance(table, dict) or "levels" not in table:
                        continue
                    rates = table.get("cauchy_rates", [])
                    for i, (lvl, val) in enumerate(
                        zip(table["levels"], table["approximants"])
                    ):
                        rate = rates[i] if i < len(rates) else ""
                        print(
                            '%s,"%s",%s,"%s","%s"'
                            % (audit["theorem"], name, lvl, val, rate)
                        )
        return
    # generic flattening
    print("key,value")
    for key in sorted(payload):
        print('%s,"%s"' % (key, payload[key]))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    # OverflowError: a parsed size past an index, as in range(10**20) or sorted() of it
    except (PadicError, ValueError, OverflowError) as exc:
        print("rhoq: error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # Python's documented recipe: stdout goes to devnull, so that the
        # flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # the boundary of every command: a crash is not a verdict
        import traceback  # on this path only: the module costs a quarter MB of RSS

        print("rhoq: internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def _run(args: argparse.Namespace) -> int:
    n_min, n_max = _levels(args.levels)
    if args.command == "audit":
        return _run_audit(args, n_min, n_max)
    # the audit's n_max <= precision - SAFETY_MARGIN binds audits only
    levels = level_window(n_min, n_max)
    params = params_from_specs(args.p, args.prec, str(args.rho), str(args.q))

    if args.command == "measure":
        dist = _distribution(args, params)
        if args.invariance:
            report = check_invariance(dist, levels, seed=args.seed)
            _emit({"invariance": report.describe()}, args.out)
            return 0
        if not args.ball:
            _build_parser().error("measure needs --ball A N (or --invariance)")
        a, n = args.ball
        ball = Ball(args.p, a, n)
        value = dist.value(ball)
        _emit(
            {
                "ball": str(ball),
                "family": dist.describe(),
                "value": value.digit_string(),
                "norm": str(value.norm()),
            },
            args.out,
        )
        return 0

    if args.command == "integrate":
        f = parse_function(args.function)
        seq = volkenborn_integral(f, params, levels, digits=args.prec, target_exponent=args.tol)
        _emit({"function": f.describe(), "sequence": seq.describe()}, args.out)
        return 0

    if args.command == "bernoulli":
        seq = carlitz_bernoulli(args.n, args.a, params, levels, digits=args.prec)
        payload = {"n": args.n, "a": args.a, "sequence": seq.describe()}
        if args.compare and args.n == 0:
            payload["printed_formula_comparison"] = bernoulli_comparison_report(
                args.a, params, levels
            )
        _emit(payload, args.out)
        return 0

    if args.command == "mahler":
        f = parse_function(args.function)
        series = mahler_coefficients(f, args.order, params, digits=args.prec)
        _emit({"function": f.describe(), "series": series.describe()}, args.out)
        return 0

    # rn-deriv
    dist = _distribution(args, params)
    seq = radon_nikodym_derivative(dist, args.x, levels, tolerance_for(args.prec, args.tol))
    _emit({"x": args.x, "family": dist.describe(), "sequence": seq.describe()}, args.out)
    return 0


def _distribution(args: argparse.Namespace, params: RhoQParams) -> Distribution:
    """The family weighted by --weight, else the deformed Haar distribution."""
    if args.weight:
        return WeightedDistribution(parse_function(args.weight), params)
    return RhoQHaar(params)


def _run_audit(args: argparse.Namespace, n_min: int, n_max: int) -> int:
    selector = AUDIT_ALIASES.get(args.selector, args.selector)
    cfg = AuditConfig(
        p=args.p, precision=args.prec, rho_spec=str(args.rho), q_spec=str(args.q),
        n_min=n_min, n_max=n_max, seed=args.seed, tolerance_exponent=args.tol,
        theorems=AUDIT_IDS if selector == "all" else (selector,),
    )
    report = run_audits(cfg)
    _emit(report, args.out)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
