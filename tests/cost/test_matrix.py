"""Tests for error-matrix computation (Step 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.matrix import error_matrix, total_error, total_error_of_permutation
from repro.cost.reference import error_matrix_reference
from repro.exceptions import ValidationError
from repro.tiles.permutation import random_permutation


class TestErrorMatrix:
    def test_matches_reference(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        vec = error_matrix(tiles_in, tiles_tg)
        ref = error_matrix_reference(tiles_in, tiles_tg)
        assert (vec == ref).all()

    def test_shape_and_dtype(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        assert m.shape == (64, 64)
        assert m.dtype == np.int64

    def test_orientation_row_is_input(self, tile_stacks_8x8):
        """E[u, v] must be error(input u, target v), the paper's w_{u,v}."""
        from repro.cost.sad import SADMetric

        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        metric = SADMetric()
        assert m[3, 5] == metric.tile_error(tiles_in[3], tiles_tg[5])
        assert m[5, 3] == metric.tile_error(tiles_in[5], tiles_tg[3])

    def test_identical_stacks_zero_diagonal(self, tile_stacks_8x8):
        tiles_in, _ = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_in)
        assert (np.diag(m) == 0).all()

    def test_chunking_invariant(self, tile_stacks_8x8):
        """Any chunk budget must give bit-identical results."""
        tiles_in, tiles_tg = tile_stacks_8x8
        full = error_matrix(tiles_in, tiles_tg)
        for budget in (1, 1000, 10**9):
            assert (error_matrix(tiles_in, tiles_tg, chunk_budget=budget) == full).all()

    def test_rejects_bad_chunk_budget(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        with pytest.raises(ValidationError, match="chunk_budget"):
            error_matrix(tiles_in, tiles_tg, chunk_budget=0)

    def test_rejects_mismatched_stacks(self, tile_stacks_8x8):
        tiles_in, _ = tile_stacks_8x8
        with pytest.raises(ValidationError, match="differ"):
            error_matrix(tiles_in, tiles_in[:10])

    @pytest.mark.parametrize("metric", ["sad", "ssd", "luminance"])
    def test_all_metrics_produce_valid_matrices(self, metric, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg, metric)
        assert (m >= 0).all()
        assert m.shape == (64, 64)


class TestSADKernel:
    """The cache-resident SAD kernel behind every dense Step-2 caller."""

    @staticmethod
    def _rows_per_block(s: int, f: int) -> int:
        from repro.cost.sad import BLOCK_ELEMENTS

        return max(1, BLOCK_ELEMENTS // (s * f))

    @pytest.mark.parametrize(
        "kind, s, shape",
        [
            ("grey", 70, (16, 16)),
            ("colour", 100, (8, 8, 3)),
            ("extreme", 70, (16, 16)),
        ],
    )
    def test_partial_last_block_matches_reference(self, kind, s, shape, rng):
        f = int(np.prod(shape))
        rows = self._rows_per_block(s, f)
        # More than one block, and a last block shorter than the others.
        assert rows < s and s % rows != 0
        if kind == "extreme":
            tiles_in = rng.choice(np.array([0, 255], dtype=np.uint8), (s, *shape))
            tiles_tg = rng.choice(np.array([0, 255], dtype=np.uint8), (s, *shape))
        else:
            tiles_in = rng.integers(0, 256, (s, *shape), dtype=np.uint8)
            tiles_tg = rng.integers(0, 256, (s, *shape), dtype=np.uint8)
        got = error_matrix(tiles_in, tiles_tg, "sad")
        assert got.dtype == np.int64
        assert (got == error_matrix_reference(tiles_in, tiles_tg)).all()

    def test_peak_memory_stays_near_the_output(self, rng):
        """The kernel's scratch is a few MiB, not a chunk-wide broadcast."""
        import tracemalloc

        s, side = 1024, 16
        tiles_in = rng.integers(0, 256, (s, side, side), dtype=np.uint8)
        tiles_tg = rng.integers(0, 256, (s, side, side), dtype=np.uint8)
        tracemalloc.start()
        try:
            error_matrix(tiles_in, tiles_tg, "sad")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < s * s * 8 + 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestTotalError:
    def test_identity_is_trace(self, small_error_matrix):
        perm = np.arange(small_error_matrix.shape[0])
        assert total_error(small_error_matrix, perm) == int(np.trace(small_error_matrix))

    def test_manual_sum(self, small_error_matrix):
        s = small_error_matrix.shape[0]
        perm = random_permutation(s, seed=11)
        expected = sum(int(small_error_matrix[perm[v], v]) for v in range(s))
        assert total_error(small_error_matrix, perm) == expected

    def test_matches_direct_tile_computation(self, tile_stacks_8x8):
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        perm = random_permutation(64, seed=5)
        assert total_error(m, perm) == total_error_of_permutation(
            tiles_in, tiles_tg, perm
        )

    def test_direct_computation_chunking(self, tile_stacks_8x8):
        """total_error_of_permutation must agree across its internal slabs."""
        tiles_in, tiles_tg = tile_stacks_8x8
        m = error_matrix(tiles_in, tiles_tg)
        for seed in range(3):
            perm = random_permutation(64, seed=seed)
            assert total_error(m, perm) == total_error_of_permutation(
                tiles_in, tiles_tg, perm
            )

    def test_rejects_wrong_size_perm(self, small_error_matrix):
        with pytest.raises(ValidationError):
            total_error(small_error_matrix, np.arange(5))
