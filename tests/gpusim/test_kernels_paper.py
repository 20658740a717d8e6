"""Tests for the paper's two kernels on the virtual GPU (Section V)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring.groups import build_edge_groups
from repro.cost.matrix import error_matrix
from repro.exceptions import GpuSimError, ValidationError
from repro.gpusim.device import DeviceProperties, TESLA_K40
from repro.gpusim.kernel import KernelStats
from repro.gpusim.kernels.error_kernel import error_matrix_gpu
from repro.gpusim.kernels.swap_kernel import run_swap_class_on_device
from repro.localsearch.parallel import local_search_parallel
from repro.tiles.permutation import identity_permutation
from tests.localsearch.class_oracle import commit_class


class TestErrorKernel:
    def test_matches_host_implementation(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        assert (
            error_matrix_gpu(tiles_in, tiles_tg) == error_matrix(tiles_in, tiles_tg)
        ).all()

    def test_one_block_per_input_tile(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        stats = KernelStats()
        error_matrix_gpu(tiles_in, tiles_tg, stats=stats)
        assert stats.launches == 1
        assert stats.blocks == tiles_in.shape[0]

    def test_lane_ops_equal_exact_work(self, tile_stacks_8x8):
        """Reported ops must equal the analytic S^2 * M^2 count."""
        tiles_in, tiles_tg = tile_stacks_8x8
        stats = KernelStats()
        error_matrix_gpu(tiles_in, tiles_tg, stats=stats)
        s, m, _ = tiles_in.shape
        assert stats.lane_ops == s * s * m * m

    @pytest.mark.parametrize("block_dim", [1, 7, 64, 1024])
    def test_any_block_dim(self, block_dim, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        expected = error_matrix(tiles_in, tiles_tg)
        assert (
            error_matrix_gpu(tiles_in, tiles_tg, block_dim=block_dim) == expected
        ).all()

    def test_shared_memory_limit_enforced(self):
        """A tile too large for 48 KiB of shared memory must be rejected."""
        big = np.zeros((2, 200, 200), dtype=np.uint8)  # 80 KB of int16 staging
        with pytest.raises(GpuSimError, match="shared memory"):
            error_matrix_gpu(big, big)

    def test_rejects_mismatched_stacks(self, tile_stacks_8x8):
        tiles_in, _ = tile_stacks_8x8
        with pytest.raises(ValidationError):
            error_matrix_gpu(tiles_in, tiles_in[:5])


class TestSwapKernel:
    def test_single_class_matches_vectorized(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        groups = build_edge_groups(s)
        us, vs = groups.classes[0]
        perm_a = identity_permutation(s)
        perm_b = identity_permutation(s)
        swaps = run_swap_class_on_device(small_error_matrix, perm_a, us, vs)
        # Reference: the class-by-class vectorised commit.
        ref_swaps = commit_class(small_error_matrix, perm_b, us, vs)
        assert swaps == ref_swaps
        assert (perm_a == perm_b).all()

    def test_full_run_equals_vectorized_backend(self, small_error_matrix):
        a = local_search_parallel(small_error_matrix, backend="gpusim")
        b = local_search_parallel(small_error_matrix, backend="vectorized")
        assert a.total == b.total
        assert (a.permutation == b.permutation).all()

    def test_empty_class_is_noop(self, small_error_matrix):
        perm = identity_permutation(small_error_matrix.shape[0])
        empty = np.array([], dtype=np.intp)
        assert run_swap_class_on_device(small_error_matrix, perm, empty, empty) == 0

    def test_swap_count_reported(self):
        m = np.array([[10, 1], [1, 10]], dtype=np.int64)
        perm = identity_permutation(2)
        us = np.array([0], dtype=np.intp)
        vs = np.array([1], dtype=np.intp)
        assert run_swap_class_on_device(m, perm, us, vs) == 1
        assert perm.tolist() == [1, 0]

    def test_non_improving_pair_not_swapped(self):
        m = np.array([[1, 10], [10, 1]], dtype=np.int64)
        perm = identity_permutation(2)
        us = np.array([0], dtype=np.intp)
        vs = np.array([1], dtype=np.intp)
        assert run_swap_class_on_device(m, perm, us, vs) == 0
        assert perm.tolist() == [0, 1]

    def test_rejects_misaligned_pairs(self, small_error_matrix):
        perm = identity_permutation(small_error_matrix.shape[0])
        with pytest.raises(ValidationError, match="aligned"):
            run_swap_class_on_device(
                small_error_matrix,
                perm,
                np.array([0, 1], dtype=np.intp),
                np.array([2], dtype=np.intp),
            )

    def test_stats_launches(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        groups = build_edge_groups(s)
        perm = identity_permutation(s)
        stats = KernelStats()
        for us, vs in groups.classes:
            if us.size:
                run_swap_class_on_device(
                    small_error_matrix, perm, us, vs, stats=stats
                )
        # Even S: S-1 non-empty classes.
        assert stats.launches == s - 1
