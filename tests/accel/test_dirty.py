"""Unit tests for the active-pair sweep pruner."""

from __future__ import annotations

import numpy as np

from repro.accel.dirty import SweepPruner


class TestFirstSweep:
    def test_everything_live_initially(self):
        pruner = SweepPruner(8)
        assert pruner.live.all()
        assert pruner.pairs_evaluated == 0
        assert pruner.pairs_skipped == 0

    def test_select_keeps_all_pairs(self):
        pruner = SweepPruner(8)
        us = np.array([0, 2, 4])
        vs = np.array([1, 3, 5])
        kept_us, kept_vs = pruner.select(us, vs)
        assert kept_us is us and kept_vs is vs
        assert pruner.pairs_evaluated == 3
        assert pruner.pairs_skipped == 0


class TestRolling:
    def test_end_sweep_keeps_only_marked(self):
        pruner = SweepPruner(6)
        pruner.mark(np.array([1]), np.array([4]))
        pruner.end_sweep()
        expected = np.array([False, True, False, False, True, False])
        np.testing.assert_array_equal(pruner.live, expected)

    def test_clean_pairs_are_skipped_after_roll(self):
        pruner = SweepPruner(6)
        pruner.mark(np.array([1]), np.array([4]))
        pruner.end_sweep()
        us = np.array([0, 1, 2])
        vs = np.array([3, 2, 5])
        kept_us, kept_vs = pruner.select(us, vs)
        # Only (1, 2) has a dirty endpoint.
        np.testing.assert_array_equal(kept_us, [1])
        np.testing.assert_array_equal(kept_vs, [2])
        assert pruner.pairs_evaluated == 1
        assert pruner.pairs_skipped == 2

    def test_mark_is_live_within_the_same_sweep(self):
        """A commit must dirty its endpoints for the *rest of this sweep*,
        not only the next one — later colour classes see fresh tiles."""
        pruner = SweepPruner(4)
        pruner.end_sweep()  # nothing marked: everything clean now
        assert not pruner.live.any()
        pruner.mark(np.array([0]), np.array([3]))
        us, vs = pruner.select(np.array([0, 1]), np.array([2, 2]))
        np.testing.assert_array_equal(us, [0])
        np.testing.assert_array_equal(vs, [2])

    def test_mark_survives_exactly_one_roll(self):
        pruner = SweepPruner(4)
        pruner.mark_pair(2, 3)
        pruner.end_sweep()
        assert pruner.live[2] and pruner.live[3]
        pruner.end_sweep()
        assert not pruner.live.any()


class TestAccounting:
    def test_mark_pair_matches_mark(self):
        vector = SweepPruner(5)
        scalar = SweepPruner(5)
        vector.mark(np.array([1, 2]), np.array([3, 4]))
        scalar.mark_pair(1, 3)
        scalar.mark_pair(2, 4)
        np.testing.assert_array_equal(vector.live, scalar.live)
        vector.end_sweep()
        scalar.end_sweep()
        np.testing.assert_array_equal(vector.live, scalar.live)

    def test_count_adds_externally_selected(self):
        pruner = SweepPruner(4)
        pruner.count(10, 6)
        assert pruner.pairs_evaluated == 10
        assert pruner.pairs_skipped == 6

    def test_stats_are_plain_ints(self):
        pruner = SweepPruner(4)
        pruner.select(np.array([0]), np.array([1]))
        stats = pruner.stats()
        assert stats == {"pairs_evaluated": 1, "pairs_skipped": 0}
        assert all(type(v) is int for v in stats.values())

    def test_sweep_counter(self):
        pruner = SweepPruner(4)
        assert pruner.sweeps == 0
        pruner.end_sweep()
        pruner.end_sweep()
        assert pruner.sweeps == 2
