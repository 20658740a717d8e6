"""Candidate-restricted 2-opt sweeps (the sparse Step-3 consumers).

``local_search_serial`` / ``local_search_parallel`` accept a boolean
``candidates`` mask; a swap ``(u, v)`` is eligible only when both
resulting placements stay inside the mask.  An all-True mask must be a
no-op (bit-identical to the unrestricted search) and a restricted run
must never place a tile outside its candidate rows unless it started
there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost import error_matrix, sparse_error_matrix, total_error
from repro.exceptions import ValidationError
from repro.imaging import standard_image
from repro.localsearch.parallel import local_search_parallel
from repro.localsearch.serial import local_search_serial
from repro.tiles.grid import TileGrid


@pytest.fixture(scope="module")
def matrix():
    grid = TileGrid(64, 64, 8)
    return error_matrix(
        grid.split(standard_image("portrait", 64)),
        grid.split(standard_image("sailboat", 64)),
    )


@pytest.fixture(scope="module")
def sparse(request):
    grid = TileGrid(64, 64, 8)
    return sparse_error_matrix(
        grid.split(standard_image("portrait", 64)),
        grid.split(standard_image("sailboat", 64)),
        top_k=12,
        seed=2,
    )


ALL_RUNNERS = [
    ("serial", {}),
    ("parallel", {"backend": "vectorized"}),
]


def _run(kind, matrix, candidates=None, initial=None, **kw):
    if kind == "serial":
        return local_search_serial(
            matrix, initial, candidates=candidates, **kw
        )
    return local_search_parallel(matrix, initial, candidates=candidates, **kw)


@pytest.mark.parametrize("kind,kw", ALL_RUNNERS)
def test_all_true_mask_is_bit_identical_to_unrestricted(kind, kw, matrix):
    free = _run(kind, matrix, **kw)
    masked = _run(
        kind, matrix, candidates=np.ones(matrix.shape, dtype=bool), **kw
    )
    np.testing.assert_array_equal(masked.permutation, free.permutation)
    assert masked.total == free.total
    assert masked.sweeps == free.sweeps


@pytest.mark.parametrize("kind,kw", ALL_RUNNERS)
def test_restricted_sweep_never_leaves_candidate_graph(kind, kw, matrix, sparse):
    """Start from a permutation inside the candidate graph; every swap
    keeps both endpoints inside it, so the final placement must too.

    The start is the *costliest* in-graph assignment, so the sweep has
    room to move (an exact shortlist solve would already be the
    restricted optimum and leave nothing to test)."""
    from scipy.optimize import linear_sum_assignment

    s = matrix.shape[0]
    allowed = sparse.mask()
    big = int(matrix.max()) * s + 1
    tiles, positions = linear_sum_assignment(np.where(allowed, -matrix, big))
    initial = np.empty(s, dtype=np.intp)
    initial[positions] = tiles
    assert allowed[initial, np.arange(s)].all()
    result = _run(kind, matrix, candidates=allowed, initial=initial, **kw)
    # Every swap needs both new placements shortlisted, so the run stays
    # inside the graph, and it must actually improve the start.
    assert allowed[result.permutation, np.arange(s)].all()
    assert result.total == total_error(matrix, result.permutation)
    assert result.total < total_error(matrix, initial)


@pytest.mark.parametrize("kind", ["serial", "parallel"])
def test_bad_candidates_shape_rejected(kind, matrix):
    with pytest.raises(ValidationError):
        _run(kind, matrix, candidates=np.ones((3, 3), dtype=bool))


def test_gpusim_backend_rejects_candidates(matrix):
    with pytest.raises(ValidationError):
        local_search_parallel(
            matrix,
            backend="gpusim",
            candidates=np.ones(matrix.shape, dtype=bool),
        )


def test_restriction_only_reduces_reachable_improvements(matrix, sparse):
    """The restricted local optimum can never beat the unrestricted one
    from the same start (its neighbourhood is a subset)."""
    free = local_search_serial(matrix)
    restricted = local_search_serial(matrix, candidates=sparse.mask())
    assert restricted.total >= free.total
