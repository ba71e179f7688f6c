"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import benchlib
import run


class PercentileRule(unittest.TestCase):
    def test_p99_when_enough_samples(self):
        values = list(range(1, 2001))           # 2000 samples
        value, pct, n = benchlib.tail_percentile(values)
        self.assertEqual(value, 1980)           # nearest rank 99%
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(n, 2000)
        self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_lowered_to_keep_ten_beyond(self):
        values = list(range(1, 201))            # 200 samples: p99 has 2 beyond
        value, pct, n = benchlib.tail_percentile(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(value, 190)
        self.assertAlmostEqual(pct, 95.0)
        self.assertEqual(n, 200)

    def test_exactly_ten_beyond_at_the_boundary(self):
        values = list(range(1000))
        value, pct, _ = benchlib.tail_percentile(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 99.0)

    def test_too_few_samples(self):
        self.assertEqual(benchlib.tail_percentile([1.0] * 10), (None, None, 10))
        value, _, _ = benchlib.tail_percentile([1.0] * 11)
        self.assertEqual(value, 1.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(benchlib.tail_percentile(values),
                         benchlib.tail_percentile(sorted(values)))


class FailureAccounting(unittest.TestCase):
    def test_failed_request_is_over_every_limit(self):
        # 99 answered requests at 1 ms plus one refused (-1 in the load result).
        lat, failed = benchlib.with_failures([1.0] * 99 + [-1.0])
        self.assertEqual(failed, 1)
        self.assertIn(benchlib.OVER_LIMIT_MS, lat)
        self.assertEqual(max(lat), benchlib.OVER_LIMIT_MS)

    def test_failures_push_the_percentiles_up(self):
        ok = [1.0] * 1000
        base, _, _ = benchlib.tail_percentile(ok)
        lat, failed = benchlib.with_failures(ok[:-20] + [-1.0] * 20)
        tail, _, _ = benchlib.tail_percentile(lat)
        self.assertEqual(failed, 20)
        self.assertEqual(base, 1.0)
        self.assertEqual(tail, benchlib.OVER_LIMIT_MS)

    def test_refusals_dominate_the_median_when_most_fail(self):
        lat, _ = benchlib.with_failures([2.0] * 4 + [-1.0] * 6)
        self.assertEqual(benchlib.median(lat), benchlib.OVER_LIMIT_MS)

    def test_failed_and_wrong_both_count_in_failed_frac(self):
        result = {"attempted": 200, "failed": 3, "wrong": 1}
        attempted, failed = run.served_tallies(result)
        self.assertEqual((attempted, failed), (200, 4))
        self.assertAlmostEqual(benchlib.failed_frac(attempted, failed), 0.02)

    def test_failed_frac_needs_an_attempt(self):
        with self.assertRaises(ValueError):
            benchlib.failed_frac(0, 0)


class SubWindows(unittest.TestCase):
    def test_median_over_sub_windows_drops_one_slow_window(self):
        quiet = [1.0] * 1000
        slow = [5.0] * 1000                      # one window of interference
        values = quiet + slow + quiet
        windows = [0] * 1000 + [1] * 1000 + [2] * 1000
        p50, tail, pct, n = benchlib.windowed_latency(values, windows, 3)
        self.assertEqual((p50, tail, n), (1.0, 1.0, 3000))
        self.assertAlmostEqual(pct, 99.0)
        pooled, _, _ = benchlib.tail_percentile(values)
        self.assertEqual(pooled, 5.0)

    def test_rule_applies_per_sub_window(self):
        values = list(range(600))
        windows = [i % 3 for i in range(600)]    # 200 samples per window
        _, _, pct, _ = benchlib.windowed_latency(values, windows, 3)
        self.assertAlmostEqual(pct, 95.0)

    def test_failures_count_in_their_sub_window(self):
        values = [1.0] * 300 + [-1.0] * 300 + [-1.0] * 300
        windows = [0] * 300 + [1] * 300 + [2] * 300
        p50, tail, _, _ = benchlib.windowed_latency(values, windows, 3)
        self.assertEqual(p50, benchlib.OVER_LIMIT_MS)
        self.assertEqual(tail, benchlib.OVER_LIMIT_MS)

    def test_too_small_a_sub_window_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.windowed_latency([1.0] * 30, [0] * 20 + [1] * 5 + [2] * 5, 3)


def span(op, name, start, end, sid=0, parent=0):
    return {"id": sid, "parent": parent, "op": op, "name": name,
            "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_parent_minus_child_on_the_same_op(self):
        spans = [
            span(1, "grid.sharded.rtk", 0, 50_000),      # 50 us
            span(1, "grid.dynamic.rtk", 0, 30_000),      # 30 us
            span(2, "grid.sharded.rkr", 0, 80_000),
            span(2, "grid.dynamic.rkr", 0, 20_000),
        ]
        self.assertEqual(benchlib.self_times(spans, "grid.sharded.", "grid.dynamic."),
                         [20.0, 60.0])
        self.assertEqual(benchlib.median_self_time(spans, "grid.sharded.", "grid.dynamic."),
                         40.0)

    def test_ops_missing_a_layer_are_skipped(self):
        spans = [
            span(1, "served.rtk", 0, 100_000),
            span(2, "served.rtk", 0, 100_000),
            span(2, "sharded_wal.rtk", 0, 40_000),
        ]
        self.assertEqual(benchlib.self_times(spans, "served.", "sharded_wal."), [60.0])

    def test_restricted_to_given_ops(self):
        spans = [
            span(1, "a.x", 0, 10_000), span(1, "b.x", 0, 4_000),
            span(2, "a.x", 0, 10_000), span(2, "b.x", 0, 9_000),
        ]
        self.assertEqual(benchlib.self_times(spans, "a.", "b.", ops={2}), [1.0])

    def test_nested_spans_give_the_uncovered_part(self):
        # A child span inside its parent's interval: self time is the part
        # of the parent the child does not cover.
        spans = [span(7, "served.rkr", 1_000, 9_000), span(7, "grid.sharded.rkr", 3_000, 6_000)]
        self.assertEqual(benchlib.self_times(spans, "served.", "grid.sharded."), [5.0])

    def test_no_pairs_means_zero(self):
        self.assertEqual(benchlib.median_self_time([span(1, "a.x", 0, 5)], "a.", "b."), 0.0)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "rtk_p99_ms", "grid.engine.batch_us_per_query.q64",
                     "io.wal.append_us", "trace.overhead_pct", "a-b", "9lives"):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", ".leading", "_leading", "has space", "slash/name", "pct%",
                    "ünicode", "x" * 65, "colon:name"):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_declared_names_are_valid_and_distinct(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            doc = json.load(f)
        names = [m["name"] for section in ("end_to_end", "per_layer") for m in doc[section]]
        names += [w["name"] for w in doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)
        self.assertEqual(sorted(w["name"] for w in doc["workloads"]), sorted(run.WORKLOADS))

    def test_metric_set_must_match_the_declaration(self):
        declared = {"a_ms": "ms", "b": "count"}
        self.assertIsNone(benchlib.metric_set_problem({"a_ms": 1.0, "b": 0}, declared))
        self.assertIn("missing", benchlib.metric_set_problem({"a_ms": 1.0}, declared))
        self.assertIn("extra", benchlib.metric_set_problem(
            {"a_ms": 1.0, "b": 2, "c": 3}, declared))
        self.assertIn("finite", benchlib.metric_set_problem(
            {"a_ms": float("inf"), "b": 2}, declared))


class StatsParsing(unittest.TestCase):
    def test_key_value_rows_only(self):
        text = ("cache_hits 12\ncache_misses 4\nshard0.endpoint 127.0.0.1:9\n"
                "latency_us[8,16) 3\nshard1.qps_share_pct 49.5\n")
        stats = benchlib.parse_stats(text)
        self.assertEqual(stats["cache_hits"], 12.0)
        self.assertEqual(stats["shard1.qps_share_pct"], 49.5)
        self.assertNotIn("shard0.endpoint", stats)
        self.assertEqual(stats["latency_us[8,16)"], 3.0)


if __name__ == "__main__":
    unittest.main()
