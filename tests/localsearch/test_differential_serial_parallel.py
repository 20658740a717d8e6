"""Differential regression: Algorithm 1 vs Algorithm 2 on Step-2 matrices.

The paper's serial 2-opt (Algorithm 1) and colour-class parallel 2-opt
(Algorithm 2) visit swap candidates in different orders, so they may end
at *different* pairwise-swap-optimal permutations in general.  On the
pinned instances below, however, both converge to the same
total error — and that agreement is a sensitive tripwire: a change to
sweep order, edge-group construction, tie-breaking, or the error matrix
itself will almost certainly break at least one instance.

The instances span three grid sizes (S = 16, 36, 64) and are built by
:meth:`PhotomosaicGenerator.build_error_matrix` — Steps 1 and 2 on the
raw images, without the Section II histogram match that ``generate``
applies first — so these tests also guard the matrix construction
upstream of the local search.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.cost.matrix import total_error
from repro.imaging import standard_image
from repro.localsearch import local_search_parallel, local_search_serial
from repro.mosaic.config import MosaicConfig
from repro.mosaic.generator import PhotomosaicGenerator

from .class_oracle import local_search_classwise

# (image size, tile size, grid tiles S, converged total for BOTH algorithms)
INSTANCES = [
    (48, 8, 36, 156_759),
    (64, 8, 64, 274_490),
    (64, 16, 16, 274_624),
    (96, 16, 36, 606_004),
]

IDS = [f"size{size}-tile{tile}-S{s}" for size, tile, s, _ in INSTANCES]


@lru_cache(maxsize=None)
def _matrix(size: int, tile_size: int) -> np.ndarray:
    gen = PhotomosaicGenerator(MosaicConfig(tile_size=tile_size))
    inp = standard_image("portrait", size)
    tgt = standard_image("sailboat", size)
    _, matrix = gen.build_error_matrix(inp, tgt)
    matrix.setflags(write=False)
    return matrix


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


@pytest.mark.parametrize("size,tile,s,expected", INSTANCES, ids=IDS)
class TestSerialParallelDifferential:
    def test_same_total_error(self, size, tile, s, expected):
        matrix = _matrix(size, tile)
        assert matrix.shape[0] == s
        serial = local_search_serial(matrix)
        parallel = local_search_parallel(matrix)
        assert serial.total == parallel.total == expected

    def test_monotone_sweep_totals(self, size, tile, s, expected):
        matrix = _matrix(size, tile)
        for result in (local_search_serial(matrix), local_search_parallel(matrix)):
            totals = result.trace.totals
            assert all(a >= b for a, b in zip(totals, totals[1:])), result.strategy
            assert totals[-1] == result.total

    def test_both_reach_2opt_optimum(self, size, tile, s, expected):
        matrix = _matrix(size, tile)
        serial = local_search_serial(matrix)
        parallel = local_search_parallel(matrix)
        assert _no_improving_pair(matrix, serial.permutation)
        assert _no_improving_pair(matrix, parallel.permutation)

    def test_totals_consistent_with_permutations(self, size, tile, s, expected):
        matrix = _matrix(size, tile)
        serial = local_search_serial(matrix)
        parallel = local_search_parallel(matrix)
        assert total_error(matrix, serial.permutation) == serial.total
        assert total_error(matrix, parallel.permutation) == parallel.total


@pytest.mark.parametrize("size,tile,s,expected", INSTANCES, ids=IDS)
class TestPrunedVsUnpruned:
    """Active-pair pruning of Algorithm 2 must be invisible in the
    results: the same permutation *and* the same sweep-by-sweep trace as
    the unpruned class-by-class loop, on every pinned instance, while
    provably skipping work after the first sweep."""

    def test_parallel_bit_identical(self, size, tile, s, expected):
        matrix = _matrix(size, tile)
        pruned = local_search_parallel(matrix)
        unpruned = local_search_classwise(matrix, prune=False)
        assert (pruned.permutation == unpruned.permutation).all()
        assert pruned.trace == unpruned.trace
        assert pruned.total == unpruned.total == expected

    def test_pruning_actually_skips_pairs(self, size, tile, s, expected):
        """The trace assertion: pruning is doing work, not just agreeing.
        Candidate accounting must also be exhaustive — evaluated plus
        skipped equals the full ``S(S-1)/2`` candidates of every sweep."""
        result = local_search_parallel(_matrix(size, tile))
        evaluated = result.meta["pairs_evaluated"]
        skipped = result.meta["pairs_skipped"]
        assert skipped > 0
        assert evaluated + skipped == result.sweeps * s * (s - 1) // 2


def test_divergence_is_possible_elsewhere():
    """Sanity check on the premise: the two algorithms are *not* equal on
    every instance (the S=16 instance at image size 32 diverges by a few
    units), so the pinned agreements above are meaningful, not vacuous."""
    gen = PhotomosaicGenerator(MosaicConfig(tile_size=8))
    _, matrix = gen.build_error_matrix(
        standard_image("portrait", 32), standard_image("sailboat", 32)
    )
    serial = local_search_serial(matrix)
    parallel = local_search_parallel(matrix)
    assert serial.total != parallel.total
    # ... yet both are 2-opt optimal and within the paper's ~5% band.
    assert _no_improving_pair(matrix, serial.permutation)
    assert _no_improving_pair(matrix, parallel.permutation)
    assert abs(serial.total - parallel.total) / serial.total < 0.05
