"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/sets.py --workload audit --seeds 1-10 [--seconds 30]

Prints every run's result line and, per metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median; writes the
same to perfbench/results/set-<workload>-<seeds>.json.  This regenerates the
reference figures in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(HERE.parent), timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(json.dumps(result, sort_keys=True), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
        print("%-12s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.4f" % (name, median, q1, q3, (q3 - q1) / median))
    failed = {(r["failed"], r["attempted"]) for r in runs}
    print("correct: %s  failed/attempted: %s" % (all(r["correct"] for r in runs), sorted(failed)))
    out = HERE / "results" / ("set-%s-%s.json" % (args.workload, args.seeds))
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
