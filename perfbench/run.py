#!/usr/bin/env python3
"""The repo benchmark: build perfbench, run one workload, check it, report.

    python3 perfbench/run.py --workload fer-fade --seed 1 --seconds 35 --trace 0

Run from the repository root. The last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The exit
code is 0 only when every cell passed its checks.

    python3 perfbench/run.py --regen-golden

re-runs one untimed pass of every workload for each golden seed and
rewrites perfbench/golden/*.json (see perfbench/README.md for when).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source directory clean
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_DIR = BENCH_DIR / "golden"

WORKLOADS = ("fer-fade", "fer-sparse", "dram-table1")
GOLDEN_SEEDS = (1, 7)  # the default seed and one held-out seed
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# name -> unit; BENCHMARK.json lists the same names with direction and bound.
END_TO_END = {
    "setup_s": "s",
    "symbols_per_s": "1/s",
    "bursts_per_s": "1/s",
    "cell_ms.p50": "ms",
    "cell_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "sim.min_util": "ratio",
}
PER_LAYER = {
    "source.busy_ms": "ms",
    "source.symbols": "count",
    "source.events": "count",
    "source.ns_per_symbol": "ns",
    "interleaver.inverse_ms": "ms",
    "interleaver.inverse_calls": "count",
    "sim.sort_ms": "ms",
    "sim.glue_ms": "ms",
    "sim.alloc_cells": "count",
    "fec.encode_ms": "ms",
    "fec.encode_calls": "count",
    "fec.decode_ms": "ms",
    "fec.decode_calls": "count",
    "fec.ns_per_decode": "ns",
    "fec.words": "count",
    "fec.touched_ratio": "ratio",
    "fec.failures": "count",
    "fec.corrected_symbols": "count",
    "dram.busy_ms": "ms",
    "dram.phase_ms": "ms",
    "dram.bursts": "count",
    "dram.picks": "count",
    "dram.activates": "count",
    "dram.refreshes": "count",
    "dram.ns_per_burst": "ns",
    "dram.sched_ns_per_pick": "ns",
    "dram.row_hit_ratio": "ratio",
    "dram.write_util": "ratio",
    "dram.read_util": "ratio",
    "dram.mixed_util": "ratio",
    "mapping.ns_per_address": "ns",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "sim").is_dir():
        fail(f"the repository sources are not next to {BENCH_DIR.name}/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        # The repo's build falls back to downloading GoogleTest; the
        # benchmark never builds the tests, so it never downloads.
        steps.append([cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
    return BUILD_DIR / "perfbench"


def run_binary(binary, *args):
    try:
        proc = subprocess.run([str(binary), *map(str, args)], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, check=True,
                              timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"perfbench process failed: {e}")
    return json.loads(proc.stdout)


def load_golden(workload):
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        fail(f"missing golden file {path.relative_to(ROOT)}; run --regen-golden")
    return json.loads(path.read_text())["seeds"]


def regen_golden(binary):
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        seeds = {}
        for seed in GOLDEN_SEEDS:
            rep = run_binary(binary, "--workload", workload, "--seed", seed, "--mode", "golden")
            bad = [c for c in rep["cells"] if c["error"]]
            if bad:
                fail(f"{workload} seed {seed}: cell {bad[0]['index']}: {bad[0]['error']}", 1)
            seeds[str(seed)] = [{"label": c["label"], "counters": c["counters"]}
                                for c in rep["cells"]]
        # One cell per line, so a re-baseline diffs cell by cell.
        blocks = []
        for seed, cells in seeds.items():
            rows = ",\n    ".join(json.dumps(c) for c in cells)
            blocks.append(f'  "{seed}": [\n    {rows}\n  ]')
        text = (f'{{"workload": "{workload}", "pass_cells": {rep["pass_cells"]},\n'
                f' "seeds": {{\n' + ",\n".join(blocks) + "\n }\n}\n")
        json.loads(text)
        (GOLDEN_DIR / f"{workload}.json").write_text(text)
        print(f"wrote {GOLDEN_DIR.relative_to(ROOT)}/{workload}.json", file=sys.stderr)


class Failures:
    """Failed records, each counted once however many checks it fails."""

    def __init__(self):
        self.why = {}

    def add(self, key, why):
        self.why.setdefault(key, why)

    def __len__(self):
        return len(self.why)


def check_cells(report, golden, failures, where):
    """Errors, pass-to-pass determinism and (for a golden seed) golden counters."""
    seed_golden = golden.get(report["seed"])
    first = {}
    for rec in report["cells"]:
        key = (where, rec["index"], rec["pass"])
        if rec["error"]:
            failures.add(key, rec["error"])
        prev = first.setdefault(rec["index"], rec["counters"])
        if prev != rec["counters"]:
            failures.add(key, "counters differ from the same cell's first pass")
        if seed_golden is not None and rec["counters"] != seed_golden[rec["index"]]["counters"]:
            failures.add(key, "counters differ from the golden file")


def check_golden_records(report, golden, failures):
    for rec in report["golden"]:
        key = ("golden", rec["seed"], rec["index"])
        if rec["error"]:
            failures.add(key, rec["error"])
        elif rec["counters"] != golden[rec["seed"]][rec["index"]]["counters"]:
            failures.add(key, "counters differ from the golden file")


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_metrics(report):
    cells = report["cells"]
    ns = [c["ns"] for c in cells]
    host_s = sum(ns) / 1e9
    ms = [x / 1e6 for x in ns]
    if report["jedec"]:
        utils = [min(r["counters"]["write_util"], r["counters"]["read_util"])
                 for r in report["jedec"] if r["label"].endswith("/optimized/write-read")]
    else:
        utils = [min(c["counters"]["write_util"], c["counters"]["read_util"]) for c in cells]
    values = {
        "setup_s": statistics.median(report["setup_ns"]) / 1e9,
        "symbols_per_s": sum(c["symbols"] for c in cells) / host_s,
        "bursts_per_s": sum(c["counters"]["bursts"] for c in cells) / host_s,
        "cell_ms.p50": stats.percentile(ms, 50),
        "cell_ms.p90": stats.percentile(ms, 90),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "sim.min_util": min(utils),
    }
    return {k: metric(v, END_TO_END[k]) for k, v in values.items()}


def traced_metrics(report, spans):
    lc = report["layers"]
    cells = report["cells"]
    table, cell_time_us, covered_us = stats.layer_table(spans)

    def total_ms(name):
        return sum(s["dur"] for s in spans if s["name"] == name) / 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    source_ms = table.get("source", 0.0) / 1e3
    dram_ms = total_ms("dram.run_interleaver") + total_ms("dram.run_streaming")
    untraced_ns = sum(c["ns"] for c in cells)
    traced_ns = sum(c["traced_ns"] for c in cells)
    values = {
        "source.busy_ms": source_ms,
        "source.symbols": lc["source_symbols"],
        "source.events": lc["source_events"],
        "source.ns_per_symbol": ratio(source_ms * 1e6, lc["source_symbols"]),
        "interleaver.inverse_ms": total_ms("interleaver.inverse"),
        "interleaver.inverse_calls": lc["inverse_calls"],
        "sim.sort_ms": total_ms("sim.sort"),
        "sim.glue_ms": table.get("sim", 0.0) / 1e3,
        "sim.alloc_cells": sum(1 for c in cells if c["allocations_per_frame"] != 0),
        "fec.encode_ms": total_ms("fec.encode"),
        "fec.encode_calls": lc["encode_calls"],
        "fec.decode_ms": total_ms("fec.decode"),
        "fec.decode_calls": lc["decode_calls"],
        "fec.ns_per_decode": ratio(total_ms("fec.decode") * 1e6, lc["decode_calls"]),
        "fec.words": lc["words"],
        "fec.touched_ratio": ratio(lc["decode_calls"], lc["words"]),
        "fec.failures": lc["word_failures"],
        "fec.corrected_symbols": lc["corrected_symbols"],
        "dram.busy_ms": dram_ms,
        "dram.phase_ms": lc["dram_phase_ns"] / 1e6,
        "dram.bursts": lc["dram_bursts"],
        "dram.picks": lc["dram_picks"],
        "dram.activates": lc["dram_activates"],
        "dram.refreshes": lc["dram_refreshes"],
        "dram.ns_per_burst": ratio(dram_ms * 1e6, lc["dram_bursts"]),
        "dram.sched_ns_per_pick": ratio(lc["dram_phase_ns"], lc["dram_picks"]),
        "dram.row_hit_ratio": ratio(lc["row_hits"], lc["row_accesses"]),
        "dram.write_util": ratio(lc["write_busy_ps"], lc["write_elapsed_ps"]),
        "dram.read_util": ratio(lc["read_busy_ps"], lc["read_elapsed_ps"]),
        "dram.mixed_util": ratio(lc["mixed_busy_ps"], lc["mixed_elapsed_ps"]),
        "mapping.ns_per_address": ratio(lc["map_ns"], lc["mapped_addresses"]),
        "trace.coverage": ratio(covered_us, cell_time_us),
        "trace.overhead": ratio(traced_ns - untraced_ns, untraced_ns),
    }
    return {k: metric(v, PER_LAYER[k]) for k, v in values.items()}, table, cell_time_us


def alloc_note(cells):
    n = sum(1 for c in cells if c["allocations_per_frame"] != 0)
    fer = sum(1 for c in cells if c["counters"]["code_words"])
    if not fer:
        return None
    return (f"  steady-state allocations: {n} of {fer} FER cells allocated after the "
            f"warm-up frame (known defect, reported not failed; see perfbench/README.md)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-golden", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        fail("--seed must be an unsigned 64-bit integer")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    binary = build()
    if args.regen_golden:
        regen_golden(binary)
        return 0
    if args.workload is None:
        fail("--workload is required")
    golden = load_golden(args.workload)
    failures = Failures()

    if args.trace == 0:
        report = run_binary(binary, "--workload", args.workload, "--seed", args.seed,
                            "--seconds", args.seconds, "--mode", "timed")
        check_cells(report, golden, failures, "timed")
        check_golden_records(report, golden, failures)
        for rec in report["jedec"]:
            if rec["error"]:
                failures.add(("jedec", rec["label"]), rec["error"])
        attempted = len(report["cells"]) + len(report["golden"]) + len(report["jedec"])
        metrics = timed_metrics(report)
        ms = [c["ns"] / 1e6 for c in report["cells"]]
        print(f"perfbench {args.workload} seed {args.seed}: {len(ms)} timed cells in "
              f"{sum(ms) / 1e3:.2f} s host time (closed loop, 1 thread, "
              f"{report['pass_cells']}-cell pass)")
        print(f"  cell_ms p50 {metrics['cell_ms.p50']['value']:.3f} "
              f"p90 {metrics['cell_ms.p90']['value']:.3f} over n = {len(ms)} cells")
        print(f"  checks: {len(report['golden'])} golden cells, "
              f"{len(report['jedec'])} JEDEC-checked cells")
        note = alloc_note(report["cells"])
    else:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        report = run_binary(binary, "--workload", args.workload, "--seed", args.seed,
                            "--mode", "traced", "--trace-out", trace_file)
        check_cells(report, golden, failures, "traced")
        attempted = len(report["cells"])
        spans = [dict(e["args"], name=e["name"], ts=e["ts"], dur=e["dur"])
                 for e in json.loads(trace_file.read_text())]
        metrics, table, cell_time = traced_metrics(report, spans)
        print(f"perfbench {args.workload} seed {args.seed}: traced pass of "
              f"{len(report['cells'])} cells; spans in {trace_file.relative_to(ROOT)}")
        print(stats.format_layer_table(args.workload, table, cell_time))
        note = alloc_note(report["cells"])

    if note:
        print(note)
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
    for (key, why) in list(failures.why.items())[:20]:
        print(f"  FAILED {key}: {why}")
    print(f"  failed {len(failures)} of {attempted} cells attempted")
    result = {"correct": len(failures) == 0, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
