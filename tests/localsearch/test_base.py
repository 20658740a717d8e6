"""Tests for local-search shared primitives."""

from __future__ import annotations

from repro.localsearch.base import ConvergenceTrace


class TestConvergenceTrace:
    def test_sweeps_counts_all_passes(self):
        trace = ConvergenceTrace(swap_counts=(5, 2, 0), totals=(100, 90, 90))
        assert trace.sweeps == 3
        assert trace.total_swaps == 7
