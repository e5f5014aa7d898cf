"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_steadiness_check(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        # Exclusive method: positions (n+1)/4 and 3(n+1)/4.
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_relative_spread(self):
        values = [9, 10, 10, 10, 11]
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.relative_spread(values),
                               (q3 - q1) / q2)
        self.assertEqual(stats.relative_spread([5, 5, 5, 5]), 0)


class GuardedPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(99)), 90))
        # 100 samples: rank 90, ten samples beyond it.
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(stats.percentile(list(range(19)), 50))
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)

    def test_empty_and_unsorted(self):
        self.assertIsNone(stats.percentile([], 50))
        self.assertEqual(stats.percentile(list(range(20, 0, -1)), 50), 10)

    def test_failures_count_as_missing_the_limit(self):
        values = [1.0] * 15 + [math.inf] * 15
        self.assertEqual(stats.percentile(values, 50), 1.0)
        self.assertEqual(stats.percentile(values + [math.inf], 50),
                         math.inf)


def span(start, end, parent=-1):
    return {"start_ns": start, "end_ns": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span(10, 25)]), [15])

    def test_children_are_subtracted(self):
        spans = [span(0, 100), span(10, 30, 0), span(50, 60, 0)]
        self.assertEqual(stats.self_times(spans), [70, 20, 10])

    def test_parallel_children_subtract_their_union(self):
        # Two workers: [10, 60) and [20, 90) cover [10, 90).
        spans = [span(0, 100), span(10, 60, 0), span(20, 90, 0)]
        self.assertEqual(stats.self_times(spans)[0], 20)

    def test_only_direct_children_and_only_inside_the_parent(self):
        spans = [span(0, 100), span(10, 50, 0), span(20, 40, 1),
                 span(90, 120, 0)]
        self.assertEqual(stats.self_times(spans), [50, 20, 20, 30])

    def test_covered_union(self):
        self.assertEqual(stats.covered([]), 0)
        self.assertEqual(stats.covered([(0, 5), (3, 8), (10, 12)]), 10)
        self.assertEqual(stats.covered([(0, 10), (2, 3)]), 10)


if __name__ == "__main__":
    unittest.main()
