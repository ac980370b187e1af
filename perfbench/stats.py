"""Arithmetic of the repo benchmark: percentiles, spreads and span self time.

Kept apart from run.py so that perfbench/tests/test_stats.py can check it
without building or running anything.
"""

import math
import statistics

# Structural spans that belong to no layer (see perfbench/src/bench.hpp).
STRUCTURAL = ("cell", "frame")


def percentile(values, pct):
    """Linear-interpolated percentile (numpy's default method) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0 <= pct <= 100:
        raise ValueError("percentile outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def relative_spread(values):
    """Quartile distance as a share of the median, as the acceptance rule takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def layer_of(name):
    """Layer a span belongs to, or None for the structural cell/frame spans."""
    if name in STRUCTURAL:
        return None
    return name.split(".", 1)[0]


def _covered(interval, children):
    """Length of the union of child intervals, clipped to the parent interval."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children if min(hi, e) > max(lo, s))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    spans: dicts with "span", "parent", "ts" and "dur" (any one time unit).
    Returns {span id: self time}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["ts"], s["ts"] + s["dur"]))
    out = {}
    for s in spans:
        own = (s["ts"], s["ts"] + s["dur"])
        out[s["span"]] = s["dur"] - _covered(own, children.get(s["span"], []))
    return out


def layer_table(spans):
    """Per-layer self time plus the traced cell time the layers share.

    Returns (per-layer self time dict, total "cell" span time, covered
    time). Spans outside any cell span (the mapping probe) are left out.
    """
    selfs = self_times(spans)
    by_id = {s["span"]: s for s in spans}

    def in_cell(s):
        while s["parent"]:
            s = by_id[s["parent"]]
        return s["name"] == "cell"

    table = {}
    cell_time = 0.0
    for s in spans:
        if not in_cell(s):
            continue
        if s["name"] == "cell":
            cell_time += s["dur"]
        layer = layer_of(s["name"])
        if layer is not None:
            table[layer] = table.get(layer, 0.0) + selfs[s["span"]]
    return table, cell_time, sum(table.values())


def format_layer_table(workload, table, cell_time):
    """Text table of self time by layer, largest first, naming the largest."""
    rows = sorted(table.items(), key=lambda kv: -kv[1])
    lines = [f"self time by layer — {workload} (traced cell time {cell_time / 1e3:.1f} ms)"]
    lines.append(f"  {'layer':<12} {'self ms':>10} {'share':>7}")
    for layer, t in rows:
        share = t / cell_time if cell_time else 0.0
        lines.append(f"  {layer:<12} {t / 1e3:>10.1f} {share:>7.1%}")
    untraced = cell_time - sum(table.values())
    lines.append(f"  {'(no layer)':<12} {untraced / 1e3:>10.1f} "
                 f"{(untraced / cell_time if cell_time else 0.0):>7.1%}")
    if rows:
        lines.append(f"  largest layer: {rows[0][0]}")
    return "\n".join(lines)
