"""Run every workload and print each end-to-end metric by name, with its unit.

    python3 perfbench/all.py                 # seed 1, untraced then traced
    python3 perfbench/all.py --seeds 1-10    # spread check, untraced only

Each run is its own process (run.py), started one after another, for every
workload in BENCHMARK.json and for its run_seconds.  With one seed it also
makes the traced run, prints the tracing overhead (the drop in items/s from
untraced to traced), the share of the traced items' wall time that the
modules' self times account for, and each workload's dominant layer (the
module with the most self time).  With several seeds it prints, per metric,
the median and the quartile spread as a share of the median, the figure the
benchmark's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=[1], help="N or FIRST-LAST")
    args = p.parse_args()

    seconds = BENCHMARK["run_seconds"]
    all_correct = True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in args.seeds]
        all_correct &= all(r["correct"] for r in results)
        print(f"== {workload}: seeds {args.seeds}, attempted "
              f"{[r['attempted'] for r in results]}, correct {[r['correct'] for r in results]}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"   {name:24s} {median:12.6g} {first['unit']}"
            if len(values) >= 4:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"   spread {(q3 - q1) / median if median else 0.0:.4f}"
            print(line)
        if len(args.seeds) == 1:
            traced = run(workload, args.seeds[0], seconds, 1)
            all_correct &= traced["correct"]
            m = traced["metrics"]
            before = results[0]["metrics"]["items_per_s"]["value"]
            after = m["trace.items_per_s"]["value"]
            selfs = {k[len("self."):-len(".s")]: v["value"] for k, v in m.items()
                     if k.startswith("self.")}
            total = sum(selfs.values())
            top = max(selfs, key=selfs.get)
            print(f"   tracing overhead          {1 - after / before:12.4f} share of items/s")
            print(f"   self times cover          {m['trace.self_coverage']['value']:12.4f} share of item wall time")
            print(f"   dominant layer            {top} ({selfs[top] / total:.0%} of traced item time)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
