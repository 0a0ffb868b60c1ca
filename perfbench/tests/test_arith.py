"""Self-tests for the benchmark's own arithmetic and metric naming.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)

import arith  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class MedianTest(unittest.TestCase):
    def test_odd_count_takes_the_middle(self):
        self.assertEqual(arith.median([5.0, 1.0, 3.0]), 3.0)

    def test_even_count_averages_the_middle_pair(self):
        self.assertEqual(arith.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_single_value(self):
        self.assertEqual(arith.median([7.25]), 7.25)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            arith.median([])


class TailPercentileTest(unittest.TestCase):
    def test_thousand_samples_reach_p99_with_ten_beyond(self):
        level, value, beyond = arith.tail_percentile(range(1, 1001))
        self.assertEqual((level, value, beyond), (0.99, 990, 10))

    def test_hundred_samples_stop_at_p90(self):
        # p99 and p95 leave only 1 and 5 samples above them.
        self.assertEqual(arith.tail_percentile(range(1, 101)), (0.9, 90, 10))

    def test_unsorted_input(self):
        values = list(range(1, 101))
        values.reverse()
        self.assertEqual(arith.tail_percentile(values)[1], 90)

    def test_too_few_samples_give_none(self):
        self.assertIsNone(arith.tail_percentile([1.0] * 15))
        self.assertIsNone(arith.tail_percentile([]))

    def test_twenty_samples_give_the_median(self):
        self.assertEqual(arith.tail_percentile(range(1, 21)), (0.5, 10, 10))


class ReuseRatioTest(unittest.TestCase):
    def test_no_shared_partition(self):
        # fig2-grid: hydra asks for M cores, single-core for M-1.
        self.assertEqual(arith.reuse_ratio(2 * 100, 2 * 100), 0.0)

    def test_one_partition_shared_by_four_schemes(self):
        # adaptive-grid: four schemes, one M-core call per cell.
        self.assertEqual(arith.reuse_ratio(100, 4 * 100), 0.75)

    def test_no_rows_with_a_partition(self):
        self.assertEqual(arith.reuse_ratio(0, 0), 0.0)

    def test_more_distinct_than_rows_is_an_error(self):
        with self.assertRaises(ValueError):
            arith.reuse_ratio(5, 4)


class SanitizeTest(unittest.TestCase):
    def test_slash_becomes_dash(self):
        self.assertEqual(arith.sanitize("hydra/gp"), "hydra-gp")
        self.assertEqual(arith.sanitize("scp/barrier"), "scp-barrier")

    def test_allowed_characters_are_kept(self):
        self.assertEqual(arith.sanitize("Ab9_.-"), "Ab9_.-")

    def test_every_other_character_becomes_dash(self):
        self.assertEqual(arith.sanitize("util/worst fit=2"), "util-worst-fit-2")


class RatioTest(unittest.TestCase):
    def test_plain_division(self):
        self.assertEqual(arith.ratio(3, 4), 0.75)

    def test_empty_denominator(self):
        self.assertEqual(arith.ratio(0, 0), 0.0)
        self.assertEqual(arith.ratio(0, 0, empty=1.0), 1.0)


class HostSpeedTest(unittest.TestCase):
    def test_reference_host_has_speed_one(self):
        self.assertEqual(arith.host_speed([5.0], 1, 5.0), 1.0)

    def test_twice_the_time_is_half_the_speed(self):
        self.assertEqual(arith.host_speed([10.0], 1, 5.0), 0.5)

    def test_time_is_per_thread(self):
        self.assertEqual(arith.host_speed([20.0], 2, 5.0), 0.5)

    def test_median_of_the_tries(self):
        self.assertEqual(arith.host_speed([5.0, 50.0, 4.0], 1, 5.0), 1.0)

    def test_no_time_is_an_error(self):
        with self.assertRaises(ValueError):
            arith.host_speed([0.0], 1, 5.0)


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py reports."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                  encoding="utf-8") as spec:
            cls.spec = json.load(spec)

    def test_end_to_end_metrics_match(self):
        listed = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(listed, dict(run.END_TO_END))

    def test_per_layer_metrics_match(self):
        listed = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(listed, run.per_layer_units())

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_names_are_valid_and_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)


if __name__ == "__main__":
    unittest.main()
