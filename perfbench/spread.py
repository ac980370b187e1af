#!/usr/bin/env python3
"""Run the benchmark several times with distinct seeds and report each
metric's median and quartile spread (as a share of the median).

    python3 perfbench/spread.py --workload fer-fade --runs 10 --first-seed 100

Each end-to-end spread is compared with a third of the metric's bound in
BENCHMARK.json, the steadiness target the benchmark is tuned to. Raw
results are kept in .bench_out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, "exit": proc.returncode, **last})
        print(f"seed {seed}: exit {proc.returncode} correct {last['correct']} "
              f"failed {last['failed']}/{last['attempted']}", flush=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(results, indent=1))
    ok = all(r["exit"] == 0 and r["correct"] for r in results)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        spread = stats.relative_spread(values) if len(values) >= 2 and med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            steady = spread < bound / 3
            ok = ok and spread <= bound
            verdict = "steady" if steady else "NOT below bound/3"
        print(f"  {name:<26} median {med:>14.6g}  spread {spread:7.2%}  "
              f"bound {bound if bound is not None else '-'}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
