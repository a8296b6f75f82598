"""Tests of the benchmark's own metric code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import unittest

import stats


def span(i, parent, start, end, name="core.x"):
    return {"id": i, "parent": parent, "name": name, "request": "op-0",
            "start_ms": start, "end_ms": end}


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(1))
        self.assertIsNone(stats.tail_percentile(39))
        self.assertEqual(stats.tail_percentile(40), 75)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(199), 90)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile([3.0], 99), 3.0)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 75), 4)


class IntervalUnion(unittest.TestCase):
    def test_overlaps_count_once(self):
        self.assertEqual(stats.union_length([(0, 10), (5, 15), (20, 25)]), 20)

    def test_nested_touching_and_empty(self):
        self.assertEqual(stats.union_length([(0, 10), (2, 3), (10, 12)]), 12)
        self.assertEqual(stats.union_length([]), 0)
        self.assertEqual(stats.union_length([(4, 4), (7, 6)]), 0)

    def test_unsorted_input(self):
        self.assertEqual(stats.union_length([(20, 30), (0, 5), (3, 8)]), 18)

    def test_clip_to_span(self):
        self.assertEqual(stats.clip([(0, 10), (15, 30), (40, 50)], 5, 20), [(5, 10), (15, 20)])

    def test_driver_time_is_wall_minus_job_union(self):
        op = span(1, 0, 1000, 2000, "bench.op")
        spark = {"jobs": [{"id": 0, "span": 1, "start_ms": 1100, "end_ms": 1400},
                          {"id": 1, "span": 2, "start_ms": 1300, "end_ms": 1500},
                          {"id": 2, "span": 9, "start_ms": 1600, "end_ms": 1700}],
                 "per_span": {"1": dict.fromkeys(stats.SPARK_SUMS, 1),
                              "2": dict(dict.fromkeys(stats.SPARK_SUMS, 2), executor_run_ms=2000),
                              "9": dict.fromkeys(stats.SPARK_SUMS, 100)},
                 "plan_phases": [[1050, 1100], [1900, 2100], [3000, 3100]]}
        got = stats.spark_per_span([op, span(2, 1, 1200, 1600)], spark, op, cores=4)
        self.assertAlmostEqual(got["spark.in_jobs_s"], 0.4)
        self.assertAlmostEqual(got["spark.driver_s"], 0.6)
        self.assertAlmostEqual(got["spark.plan_s"], 0.15)
        self.assertEqual(got["spark.jobs"], 3)
        self.assertAlmostEqual(got["spark.executor_run_s"], 2.001)
        self.assertAlmostEqual(got["spark.core_util"], 2.001 / 4)


class SelfTime(unittest.TestCase):
    def test_children_covered_time_is_subtracted_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 50),
                 span(4, 2, 15, 20)]
        got = stats.self_times(spans)
        self.assertEqual(got[1], 60)
        self.assertEqual(got[2], 25)
        self.assertEqual(got[3], 20)
        self.assertEqual(got[4], 5)

    def test_child_outside_parent_is_clipped(self):
        got = stats.self_times([span(1, 0, 0, 10), span(2, 1, 5, 30)])
        self.assertEqual(got[1], 5)

    def test_layers_sum_self_time(self):
        spans = [span(1, 0, 0, 100, "bench.op"), span(2, 1, 0, 80, "core.query_all"),
                 span(3, 2, 50, 80, "eval.collect"), span(4, 1, 80, 90, "core.join_paths")]
        self.assertEqual(stats.layer_self_times(spans), {"bench": 10, "core": 60, "eval": 30})


if __name__ == "__main__":
    unittest.main()
