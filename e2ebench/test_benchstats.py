"""Self-tests of the benchmark's own arithmetic, on synthetic inputs.

Run from the root of the repository::

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import statistics
import unittest

from benchstats import (
    covered_length,
    failed_ratio,
    median,
    percentile,
    quartile_spread,
    self_times,
    tail_percentile,
)


class MedianTest(unittest.TestCase):
    def test_odd_count_takes_the_middle(self):
        self.assertEqual(median([5.0, 1.0, 3.0]), 3.0)

    def test_even_count_averages_the_two_middles(self):
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_agrees_with_statistics(self):
        values = [0.7, 0.1, 0.9, 0.3, 0.3, 1.5, 0.2]
        self.assertEqual(median(values), statistics.median(values))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            median([])


class TailPercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 100), 100)

    def test_p90_kept_with_ten_samples_beyond(self):
        values = [float(v) for v in range(100)]
        q_used, value = tail_percentile(values, 90, 10)
        self.assertEqual(q_used, 90)
        self.assertEqual(value, 89.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        values = [float(v) for v in range(60)]
        q_used, value = tail_percentile(values, 90, 10)
        self.assertEqual(q_used, 83)
        self.assertGreaterEqual(sum(1 for v in values if v > value), 10)
        # One percentile point higher would leave fewer than ten beyond.
        above = percentile(values, q_used + 1)
        self.assertLess(sum(1 for v in values if v > above), 10)

    def test_never_below_the_median(self):
        values = [float(v) for v in range(12)]
        q_used, value = tail_percentile(values, 90, 10)
        self.assertEqual(q_used, 50)
        self.assertEqual(value, percentile(values, 50))


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        parents = [-1, 0, 1, 0]
        self.assertEqual(self_times(starts, ends, parents),
                         [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        # Two children from different threads overlap on [3, 4].
        starts = [0.0, 1.0, 3.0]
        ends = [10.0, 4.0, 6.0]
        parents = [-1, 0, 0]
        self.assertEqual(self_times(starts, ends, parents), [5.0, 3.0, 3.0])

    def test_child_outside_its_parent_is_clipped(self):
        self.assertEqual(covered_length([(-2.0, 1.0), (9.0, 12.0)],
                                        0.0, 10.0), 2.0)

    def test_contained_child_adds_nothing(self):
        self.assertEqual(covered_length([(1.0, 8.0), (2.0, 3.0)],
                                        0.0, 10.0), 7.0)

    def test_self_times_sum_to_the_root(self):
        starts = [0.0, 1.0, 1.5, 2.0, 6.0]
        ends = [8.0, 5.0, 2.0, 4.0, 7.0]
        parents = [-1, 0, 1, 1, 0]
        self.assertAlmostEqual(sum(self_times(starts, ends, parents)), 8.0)


class FailedRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(failed_ratio(3, 12), 0.25)
        self.assertEqual(failed_ratio(0, 15), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            failed_ratio(0, 0)

    def test_more_failed_than_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            failed_ratio(4, 3)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_matches_statistics(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(quartile_spread(values),
                               (q3 - q1) / statistics.median(values))


if __name__ == "__main__":
    unittest.main()
