"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import stats  # noqa: E402


def span(sid, parent, ts, dur, name):
    return {"span": sid, "parent": parent, "ts": ts, "dur": dur, "name": name}


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = list(range(1, 11))
        self.assertAlmostEqual(stats.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 9.1)
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 10)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_single_value(self):
        self.assertEqual(stats.percentile([7.5], 90), 7.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 101)

    def test_relative_spread_uses_statistics_quartiles(self):
        xs = [10, 11, 9, 10.5, 12, 8, 10, 10.2, 9.9, 11.1]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.relative_spread(xs), (q3 - q1) / med)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0, 100, "cell"),
                 span(2, 1, 10, 30, "source.events"),
                 span(3, 1, 50, 20, "fec.decode")]
        self.assertEqual(stats.self_times(spans), {1: 50, 2: 30, 3: 20})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100, "sim.words"),
                 span(2, 1, 10, 30, "fec.encode"),
                 span(3, 1, 20, 30, "fec.decode")]
        self.assertEqual(stats.self_times(spans)[1], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100, "cell"), span(2, 1, 90, 30, "dram.run_interleaver")]
        self.assertEqual(stats.self_times(spans)[1], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, 0, 100, "cell"),
                 span(2, 1, 0, 80, "frame"),
                 span(3, 2, 0, 50, "sim.words"),
                 span(4, 3, 0, 40, "fec.decode")]
        self.assertEqual(stats.self_times(spans), {1: 20, 2: 30, 3: 10, 4: 40})


class LayerTableTest(unittest.TestCase):
    def test_layers_coverage_and_probe_exclusion(self):
        spans = [span(1, 0, 0, 100, "cell"),
                 span(2, 1, 0, 90, "frame"),
                 span(3, 2, 0, 40, "source.events"),
                 span(4, 2, 40, 45, "sim.words"),
                 span(5, 4, 40, 30, "fec.decode"),
                 span(6, 0, 200, 10, "mapping.map")]
        table, cell_time, covered = stats.layer_table(spans)
        self.assertEqual(table, {"source": 40, "sim": 15, "fec": 30})
        self.assertEqual(cell_time, 100)
        # The cell's and the frame's own time (10 + 5) belong to no layer.
        self.assertEqual(covered, 85)
        text = stats.format_layer_table("w", table, cell_time)
        self.assertIn("largest layer: source", text)

    def test_layer_of(self):
        self.assertIsNone(stats.layer_of("cell"))
        self.assertIsNone(stats.layer_of("frame"))
        self.assertEqual(stats.layer_of("interleaver.inverse"), "interleaver")
        self.assertEqual(stats.layer_of("dram.run_streaming"), "dram")


class MetricNamesTest(unittest.TestCase):
    def test_run_reports_exactly_the_benchmark_json_metrics(self):
        spec_path = BENCH_DIR.parent / "BENCHMARK.json"
        if not spec_path.is_file():
            self.skipTest("BENCHMARK.json not present")
        spec = json.loads(spec_path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
