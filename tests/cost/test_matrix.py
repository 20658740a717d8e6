"""Tests for error-matrix computation (Step 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.matrix import error_matrix, total_error, total_error_of_permutation
from repro.cost.reference import error_matrix_reference, tile_error_reference
from repro.cost.sad import SADMetric
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
        """Input rows per lane block of ``SADMetric.pairwise`` on ``s x s``
        pairs of uint8 tiles (peak 255, so 257-pixel uint16 chunks)."""
        from repro.cost.sad import BLOCK_ELEMENTS

        split = f & -f
        while split * split > f:
            split //= 2
        if split <= s:
            split = 1
        lane = min(f, 257 * split)
        cols = max(1, min(s, BLOCK_ELEMENTS // lane))
        return max(1, min(s, BLOCK_ELEMENTS // (lane * cols)))

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

    @pytest.mark.parametrize(
        "s, shape",
        [
            (9, (1, 257)),  # one uint16 chunk, exactly full
            (9, (1, 258)),  # one pixel over: a second, one-pixel chunk
            (5, (32, 32)),
            (6, (8, 8, 3)),
            (5, (16, 16, 3)),
            (1, (16, 16)),
            (1, (1, 258)),
        ],
    )
    def test_chunk_boundaries_match_reference(self, s, shape, rng):
        tiles_in = rng.integers(0, 256, (s, *shape), dtype=np.uint8)
        tiles_tg = rng.integers(0, 256, (s, *shape), dtype=np.uint8)
        got = error_matrix(tiles_in, tiles_tg, "sad")
        assert (got == error_matrix_reference(tiles_in, tiles_tg)).all()

    @pytest.mark.parametrize("f", [257, 258, 1024])
    def test_full_uint16_chunk_is_exact(self, f):
        """0 against 255: at F = 257 a uint16 chunk sum hits 65535, and
        any wider tile must spill into a second chunk, not wrap."""
        black = np.zeros((1, f), dtype=np.uint8)
        white = np.full((1, f), 255, dtype=np.uint8)
        tiles_in = np.stack([black, white, black])
        tiles_tg = np.stack([white, black, white])
        got = error_matrix(tiles_in, tiles_tg, "sad")
        assert got.max() == 255 * f
        assert (got == error_matrix_reference(tiles_in, tiles_tg)).all()

    @pytest.mark.parametrize(
        "rows, width, shape",
        [
            (40, 3, (16, 16)),
            (3, 40, (8, 8, 3)),
            (1, 70, (16, 16)),
            (70, 1, (1, 258)),
        ],
    )
    def test_unequal_stacks_match_reference(self, rows, width, shape, rng):
        """Greedy, library and database callers pass rows != width."""
        tiles_in = rng.integers(0, 256, (rows, *shape), dtype=np.uint8)
        tiles_tg = rng.integers(0, 256, (width, *shape), dtype=np.uint8)
        metric = SADMetric()
        got = metric.pairwise(metric.prepare(tiles_in), metric.prepare(tiles_tg))
        want = [[tile_error_reference(a, b) for b in tiles_tg] for a in tiles_in]
        assert got.dtype == np.int64
        assert (got == np.array(want)).all()

    @given(
        rows=st.integers(1, 12),
        width=st.integers(1, 12),
        f=st.integers(1, 1100),
        lo=st.integers(-16384, 255),
        span=st.integers(0, 16383),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_for_any_shape_and_range(self, rows, width, f, lo, span, seed):
        """Exact for any int16 features whose differences fit int16: the
        uint16 chunk length follows the value range of the input."""
        gen = np.random.default_rng(seed)
        a = gen.integers(lo, lo + span + 1, (rows, f)).astype(np.int16)
        b = gen.integers(lo, lo + span + 1, (width, f)).astype(np.int16)
        want = np.abs(a[:, None, :].astype(np.int64) - b[None, :, :]).sum(axis=2)
        assert (SADMetric().pairwise(a, b) == want).all()

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
