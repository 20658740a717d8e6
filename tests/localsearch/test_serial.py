"""Tests for the serial approximation algorithm (paper Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.matrix import total_error
from repro.exceptions import ConvergenceError
from repro.localsearch.serial import local_search_serial
from repro.tiles.permutation import random_permutation


def _no_improving_pair(matrix: np.ndarray, perm: np.ndarray) -> bool:
    """Oracle: the permutation is 2-opt optimal (no improving swap exists)."""
    s = matrix.shape[0]
    for u in range(s):
        for v in range(u + 1, s):
            if (
                matrix[perm[u], u] + matrix[perm[v], v]
                > matrix[perm[v], u] + matrix[perm[u], v]
            ):
                return False
    return True


class TestAlgorithm1:
    def test_terminates_at_2opt_optimum(self, small_error_matrix):
        result = local_search_serial(small_error_matrix)
        assert _no_improving_pair(small_error_matrix, result.permutation)

    def test_never_increases_error(self, small_error_matrix):
        start = np.arange(small_error_matrix.shape[0])
        result = local_search_serial(small_error_matrix, start)
        assert result.total <= total_error(small_error_matrix, start)

    def test_total_matches_trace(self, small_error_matrix):
        result = local_search_serial(small_error_matrix)
        assert result.total == total_error(small_error_matrix, result.permutation)
        assert result.trace.totals[-1] == result.total

    def test_per_sweep_totals_monotone(self, small_error_matrix):
        result = local_search_serial(small_error_matrix)
        totals = result.trace.totals
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_final_sweep_has_zero_swaps(self, small_error_matrix):
        result = local_search_serial(small_error_matrix)
        assert result.trace.swap_counts[-1] == 0

    def test_already_optimal_input_one_sweep(self, small_error_matrix):
        first = local_search_serial(small_error_matrix)
        again = local_search_serial(small_error_matrix, first.permutation)
        assert again.sweeps == 1
        assert again.total == first.total

    def test_bounded_below_by_optimum(self, small_error_matrix):
        from repro.assignment import get_solver

        optimal = get_solver("scipy").solve(small_error_matrix).total
        assert local_search_serial(small_error_matrix).total >= optimal

    def test_custom_initial_permutation(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        init = random_permutation(s, seed=2)
        result = local_search_serial(small_error_matrix, init)
        assert _no_improving_pair(small_error_matrix, result.permutation)

    def test_initial_not_mutated(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        init = random_permutation(s, seed=2)
        before = init.copy()
        local_search_serial(small_error_matrix, init)
        assert (init == before).all()

    def test_s1_trivial(self):
        result = local_search_serial(np.array([[9]], dtype=np.int64))
        assert result.total == 9
        assert result.sweeps == 1

    def test_s2_swap_when_beneficial(self):
        # Identity costs 10+10; swapping costs 1+1.
        m = np.array([[10, 1], [1, 10]], dtype=np.int64)
        result = local_search_serial(m)
        assert result.total == 2
        assert result.permutation.tolist() == [1, 0]

    def test_max_sweeps_guard(self, small_error_matrix):
        with pytest.raises(ConvergenceError):
            # max_sweeps=1 but the matrix needs several sweeps from identity.
            local_search_serial(small_error_matrix, max_sweeps=1)


class TestPaperClaim:
    def test_sweep_counts_small(self, small_error_matrix):
        """Paper Section IV-A: k stays in the single-to-low-double digits."""
        result = local_search_serial(small_error_matrix)
        assert result.sweeps <= 20
