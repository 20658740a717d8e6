"""Tests for the parallel approximation algorithm (paper Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring.groups import build_edge_groups
from repro.cost.matrix import total_error
from repro.exceptions import ValidationError
from repro.localsearch.parallel import local_search_parallel
from repro.localsearch.serial import local_search_serial
from repro.tiles.permutation import random_permutation


def _no_improving_pair(matrix: np.ndarray, perm: np.ndarray) -> bool:
    s = matrix.shape[0]
    for u in range(s):
        for v in range(u + 1, s):
            if (
                matrix[perm[u], u] + matrix[perm[v], v]
                > matrix[perm[v], u] + matrix[perm[u], v]
            ):
                return False
    return True


class TestAlgorithm2:
    def test_terminates_at_2opt_optimum(self, small_error_matrix):
        result = local_search_parallel(small_error_matrix)
        assert _no_improving_pair(small_error_matrix, result.permutation)

    def test_total_consistent(self, small_error_matrix):
        result = local_search_parallel(small_error_matrix)
        assert result.total == total_error(small_error_matrix, result.permutation)

    def test_monotone_totals(self, small_error_matrix):
        totals = local_search_parallel(small_error_matrix).trace.totals
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_bounded_below_by_optimum(self, small_error_matrix):
        from repro.assignment import get_solver

        optimal = get_solver("scipy").solve(small_error_matrix).total
        assert local_search_parallel(small_error_matrix).total >= optimal

    def test_error_close_to_serial(self, small_error_matrix):
        """Paper Table I: CPU-order and GPU-order totals differ slightly."""
        serial = local_search_serial(small_error_matrix).total
        parallel = local_search_parallel(small_error_matrix).total
        assert abs(serial - parallel) / serial < 0.05

    def test_kernel_launches_counted(self, small_error_matrix):
        result = local_search_parallel(small_error_matrix)
        s = small_error_matrix.shape[0]
        assert result.meta["kernel_launches"] == result.sweeps * s

    def test_custom_groups(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        groups = build_edge_groups(s, order="round")
        result = local_search_parallel(small_error_matrix, groups=groups)
        assert _no_improving_pair(small_error_matrix, result.permutation)

    def test_group_size_mismatch(self, small_error_matrix):
        with pytest.raises(ValidationError, match="edge groups"):
            local_search_parallel(small_error_matrix, groups=build_edge_groups(8))

    def test_unknown_backend(self, small_error_matrix):
        with pytest.raises(ValidationError, match="backend"):
            local_search_parallel(small_error_matrix, backend="cuda")

    def test_s1(self):
        result = local_search_parallel(np.array([[3]], dtype=np.int64))
        assert result.total == 3

    def test_s2(self):
        m = np.array([[10, 1], [1, 10]], dtype=np.int64)
        assert local_search_parallel(m).total == 2

    def test_odd_s(self, rng):
        """Odd tile counts use n-colourings with byes; must still converge."""
        m = rng.integers(0, 1000, size=(9, 9)).astype(np.int64)
        result = local_search_parallel(m)
        assert _no_improving_pair(m, result.permutation)

    def test_initial_permutation_respected(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        init = random_permutation(s, seed=4)
        result = local_search_parallel(small_error_matrix, initial=init)
        assert _no_improving_pair(small_error_matrix, result.permutation)
        assert result.total <= total_error(small_error_matrix, init)


class TestBackends:
    @pytest.mark.parametrize("backend", ["gpusim"])
    def test_backend_matches_vectorized(self, backend, small_error_matrix):
        """All backends implement the same class-synchronised semantics, so
        from the same start they commit exactly the same swaps."""
        base = local_search_parallel(small_error_matrix, backend="vectorized")
        other = local_search_parallel(small_error_matrix, backend=backend)
        assert other.total == base.total
        assert (other.permutation == base.permutation).all()
        assert other.sweeps == base.sweeps

    def test_strategy_label(self, small_error_matrix):
        assert (
            local_search_parallel(small_error_matrix, backend="gpusim").strategy
            == "parallel-gpusim"
        )


class TestSnapshotSemantics:
    def test_within_class_commits_are_independent(self):
        """Construct a class where two swaps are simultaneously improving;
        both must commit in one launch (lock-step semantics)."""
        # 4 tiles; identity is bad for (0,1) and (2,3) independently.
        m = np.array(
            [
                [9, 0, 9, 9],
                [0, 9, 9, 9],
                [9, 9, 9, 0],
                [9, 9, 0, 9],
            ],
            dtype=np.int64,
        )
        result = local_search_parallel(m)
        assert result.total == 0
        # One sweep of swapping + one clean sweep.
        assert result.sweeps == 2
