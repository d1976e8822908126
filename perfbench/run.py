"""Benchmark command for rhoq.

    python3 perfbench/run.py --workload {audit,deep-integrals,queries} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a checkout; rhoq is imported from its ``src``.  The run
measures set-up (seven fresh processes that import rhoq, build the inputs
and exit), then runs whole rounds of the workload's operations in this
process, closed loop, until the timed part reaches --seconds; a traced run
alternates untraced and traced rounds and reports the layers of the traced
ones.  Each round starts with the rhoq caches cleared, so rounds are alike.
Every time is reported at a reference machine speed: a fixed calibration
kernel runs between operations, and each measured time is scaled by the
kernel's reference time over its time around that operation (`calibrate`).
Outputs are checked against independent oracles after each round, outside
the timing.
The last line of standard output is the JSON result; the full record goes
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import inf
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
MIN_ROUNDS = 2  # best-of-rounds needs two; so does the audit's rerun check
CHILD_TIMEOUT_S = 60


def _fail(msg: str) -> None:
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _import_rhoq():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rhoq
    import rhoq.cli  # noqa: F401  (the CLI module is not imported by the package)

    return rhoq


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to ready, measured on fresh interpreters (s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail("set-up child failed: %s" % proc.stderr.decode(errors="replace").strip())
    return out


# The calibration kernel: the modular multiply-accumulate step of rhoq's
# level sums, p = 5 at precision 40, in a plain loop.  CAL_REF_S is its
# time on the reference machine (README, "Reference figures") in a fast
# phase; a time t measured between two calibrations that take c1 and c2
# seconds is reported as t * CAL_REF_S / ((c1 + c2) / 2).
CAL_MOD = 5**40
CAL_ITERS = 2000
CAL_REPEATS = 3
CAL_REF_S = 0.001
CAL_EVERY_S = 0.1  # at most this long between two calibrations in a round


def _kernel() -> int:
    mod = CAL_MOD
    acc, e, wt = 0, 1 + 5 * 123457, 1 + 5 * 98765
    es, wts = e * e % mod, wt * wt % mod
    for _ in range(CAL_ITERS):
        acc = (acc + e * wt) % mod
        e = e * es % mod
        wt = wt * wts % mod
    return acc


def calibrate() -> float:
    """The kernel's time now (s), fastest of a few repeats.

    On a shared machine a core's speed moves by a quarter from one second to
    the next, and drops to half speed for minutes at a time (README).  The
    program's times move with it; divided by the kernel times taken just
    before and after them, they move much less.
    """
    clock = time.perf_counter
    best = inf
    for _ in range(CAL_REPEATS):
        t0 = clock()
        _kernel()
        best = min(best, clock() - t0)
    return best


class Round:
    def __init__(self):
        self.wall = 0.0
        self.raw: list[float | None] = []  # per operation, None if it raised
        self.latencies: list[float | None] = []  # the same at reference speed
        self.cals: list[float] = []  # the calibrations taken in the round
        self.failures: list[str] = []  # operations that raised
        self.problems: list[str] = []  # outputs the checks refused
        self.output_bytes = 0


def run_round(wl, caches, tracer=None) -> Round:
    """One pass over the workload's operations (traced if a tracer is given),
    then their checks."""
    for c in caches:
        c.cache_clear()
    if tracer is not None:
        tracer.enable()
    r = Round()
    outs = []
    before = []  # per operation, the index of the last calibration before it
    clock = time.perf_counter
    t_round = clock()
    r.cals.append(calibrate())
    last_cal = clock()
    for op in wl.ops:
        before.append(len(r.cals) - 1)
        t0 = clock()
        try:
            out = wl.run(op)
        except Exception as exc:  # a crash of the program counts as a failed operation
            r.failures.append("%s raised %s: %s" % (op[0], type(exc).__name__, exc))
            out = None
        t = clock() - t0
        r.raw.append(None if out is None else t)
        outs.append(out)
        if clock() - last_cal >= CAL_EVERY_S:
            r.cals.append(calibrate())
            last_cal = clock()
    r.cals.append(calibrate())
    r.wall = clock() - t_round
    # r.cals[i + 1] is the first calibration after an operation that started
    # after r.cals[i]
    r.latencies = [None if t is None else t * 2 * CAL_REF_S / (r.cals[i] + r.cals[i + 1])
                   for t, i in zip(r.raw, before)]
    if tracer is not None:
        tracer.disable()
    for op, out in zip(wl.ops, outs):
        if out is None:
            continue
        if isinstance(out, tuple):
            r.output_bytes += len(out[1].encode())
        try:
            r.problems += wl.check(op, out)
        except Exception as exc:  # unreadable output
            r.problems.append("%s: checking raised %s: %s" % (op[0], type(exc).__name__, exc))
    return r


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def best_of_rounds(wl, rounds: list[Round], raw: bool = False) -> list[float]:
    """Each operation's fastest latency over the run's rounds (s), at
    reference speed (or as measured, with raw).

    On a shared machine a core's speed moves by a quarter from one second
    to the next; the fastest of a few repeats of an operation drops that
    part of the drift (not the slower swings that last minutes).
    """
    best = []
    for i in range(len(wl.ops)):
        seen = [(r.raw if raw else r.latencies)[i] for r in rounds if r.raw[i] is not None]
        if seen:
            best.append(min(seen))
    return best


def _summary(wl, rounds: list[Round], best: list[float]) -> dict:
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(wl.ops, best):
        by_kind.setdefault(op[0], []).append(t * 1e3)
    return {
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "round_ops_s": [sum(t for t in r.raw if t is not None) for r in rounds],
        "round_ops_scaled_s": [sum(t for t in r.latencies if t is not None) for r in rounds],
        "ops_per_round": len(wl.ops),
        "best_op_ms_p50": statistics.median(best) * 1e3,
        "best_op_ms_p90": _percentile(best, 90) * 1e3 if len(best) >= 100 else None,
        "all_op_ms_p50": statistics.median(t for r in rounds for t in r.latencies if t is not None) * 1e3,
        "raw_best_op_ms_p50": statistics.median(best_of_rounds(wl, rounds, raw=True)) * 1e3,
        "raw_wall_s": sum(best_of_rounds(wl, rounds, raw=True)),
        "round_cal_ms_median": [statistics.median(r.cals) * 1e3 for r in rounds],
        "kinds_best_ms": {
            k: {"n": len(v), "p50": statistics.median(v), "p90": _percentile(v, 90)}
            for k, v in sorted(by_kind.items())
        },
    }


def measure(args) -> dict:
    """The end-to-end run (--trace 0) or the traced run (--trace 1)."""
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    rhoq = _import_rhoq()
    import oracles
    import layers
    import workloads

    bad = oracles.selftest(3) + oracles.selftest(5)
    if bad:
        _fail("oracle self-test failed: %s" % "; ".join(bad[:5]))
    wl = workloads.WORKLOADS[args.workload](args.seed, rhoq)
    caches = layers.all_caches(rhoq)
    rounds: list[Round] = []  # the rounds the metrics come from
    untraced: list[Round] = []  # in a traced run, the alternate rounds
    timed = 0.0
    calc = layers.calculus_caches(rhoq)
    memo = {"hits": 0, "misses": 0, "entries": 0}
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install(rhoq)
    while True:
        if tracer is not None:  # alternate, so the overhead compares like with like
            untraced.append(run_round(wl, caches))
            timed += untraced[-1].wall
        r = run_round(wl, caches, tracer)
        rounds.append(r)
        timed += r.wall
        infos = [c.cache_info() for c in calc]
        memo["hits"] += sum(i.hits for i in infos)
        memo["misses"] += sum(i.misses for i in infos)
        memo["entries"] = sum(i.currsize for i in infos)
        if timed >= args.seconds and len(rounds) >= MIN_ROUNDS:
            break

    all_rounds = untraced + rounds
    attempted = len(wl.ops) * len(all_rounds)
    failures = [f for r in all_rounds for f in r.failures]
    problems = [p for r in all_rounds for p in r.problems]
    best = best_of_rounds(wl, rounds)
    summary = _summary(wl, rounds, best)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        "summary": summary,
        "failures": failures[:50],
        "problems": problems[:50],
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
    }
    if tracer is not None:
        # best-of-rounds on both sides, as for wall_s
        overhead = sum(best) - sum(best_of_rounds(wl, untraced))
        out_bytes = sum(r.output_bytes for r in rounds)
        per_layer = layers.layer_metrics(tracer, len(rounds), memo, out_bytes, overhead)
        record["untraced_round_wall_s"] = [r.wall for r in untraced]
        record["missing_spans"] = tracer.missing
        record["spans"] = {
            g: {"calls": tracer.calls[g], "self_s": tracer.self_ns[g] / 1e9, "total_s": tracer.total_ns[g] / 1e9}
            for g in sorted(tracer.calls)
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        wall = sum(best)  # one round with every operation at its best
        # A calibration right after a set-up child exits can read 50% slow,
        # so set-up takes the median calibration of the rounds, which
        # follow it within seconds: that drops the slow swings, and the
        # median of the samples the fast ones.
        cal = statistics.median(c for r in rounds for c in r.cals)
        metrics = {
            "setup_s": {"value": statistics.median(setup) * CAL_REF_S / cal, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": len(best) / wall, "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    record["metrics"] = metrics
    _write_record(record)
    for line in (failures + problems)[:20]:
        print(line, file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def _write_record(record: dict) -> None:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (record["workload"], record["seed"], record["trace"])
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")


def setup_only(args) -> None:
    rhoq = _import_rhoq()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, rhoq)


def smoke() -> int:
    """One operation per workload (one per kind for queries), every check."""
    rhoq = _import_rhoq()
    import oracles
    import workloads

    t0 = time.perf_counter()
    bad = ["oracle self-test: %s" % b for b in oracles.selftest(3) + oracles.selftest(5)]
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, rhoq)
        seen, ops = set(), []
        for op in wl.ops:
            if op[0] not in seen:
                seen.add(op[0])
                ops.append(op)
        if name == "deep-integrals":
            ops = [op for op in wl.ops if op[0] == "deformed" and op[1][0] == "bracket"][:1]
        if name == "audit":
            ops = ops * 2  # the rerun must be byte-identical
        for op in ops:
            s = time.perf_counter()
            problems = wl.check(op, wl.run(op))
            print("%-15s %-18s %7.3f s  %s" % (name, op[0], time.perf_counter() - s, "ok" if not problems else problems))
            bad += problems
    print("smoke: %s in %.1f s" % ("PASS" if not bad else "FAIL", time.perf_counter() - t0))
    return 0 if not bad else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("audit", "deep-integrals", "queries"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true", help="one operation per workload, all checks")
    args = ap.parse_args()
    if not (SRC / "rhoq" / "__init__.py").is_file():
        _fail("no rhoq sources under %s; run from the root of a checkout" % SRC)
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    if args.setup_only:
        setup_only(args)
        return 0
    result = measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
