"""Sparse-input behaviour of the assignment solvers.

Every registered solver accepts a :class:`SparseErrorMatrix` through
``solve_sparse``: complete inputs must reproduce the dense solve bit for
bit, incomplete inputs must yield a valid permutation whose reported
total is the exact Eq. (2) value, and rows the shortlist cannot serve
must fall back to dense scoring (counted in ``meta["sparse"]``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment.base import available_solvers
from repro.assignment import get_solver
from repro.cost import error_matrix, sparse_error_matrix
from repro.cost.sparse import SparseErrorMatrix
from repro.imaging import standard_image
from repro.tiles.grid import TileGrid

SOLVERS = ("scipy", "hungarian")


@pytest.fixture(scope="module")
def stacks():
    grid = TileGrid(64, 64, 8)
    return (
        grid.split(standard_image("portrait", 64)),
        grid.split(standard_image("sailboat", 64)),
    )


@pytest.fixture(scope="module")
def sparse_16(stacks):
    return sparse_error_matrix(*stacks, top_k=16, seed=4)


@pytest.fixture(scope="module")
def dense(stacks):
    return error_matrix(*stacks)


def test_case_covers_all_registered_solvers():
    assert set(SOLVERS) <= set(available_solvers())


@pytest.mark.parametrize("name", SOLVERS)
def test_complete_sparse_matches_dense_solve(name, stacks, dense):
    complete = sparse_error_matrix(*stacks, top_k=dense.shape[0], seed=4)
    dense_result = get_solver(name).solve(dense)
    sparse_result = get_solver(name).solve_sparse(complete)
    np.testing.assert_array_equal(
        sparse_result.permutation, dense_result.permutation
    )
    assert sparse_result.total == dense_result.total
    assert sparse_result.meta["sparse"]["complete"] is True
    assert sparse_result.meta["sparse"]["fallback"] == 0


@pytest.mark.parametrize("name", SOLVERS)
def test_incomplete_sparse_yields_exact_total(name, sparse_16, dense):
    result = get_solver(name).solve_sparse(sparse_16)
    perm = result.permutation
    s = dense.shape[0]
    assert sorted(perm.tolist()) == list(range(s))
    assert result.total == int(dense[perm, np.arange(s)].sum())
    assert result.optimal is False
    meta = result.meta["sparse"]
    assert meta["top_k"] == 16
    assert meta["fallback"] >= 0
    assert meta["pairs_evaluated"] == s * 16


@pytest.mark.parametrize("name", SOLVERS)
def test_incomplete_sparse_close_to_dense_optimum(name, sparse_16, dense):
    """On natural images the shortlist barely costs quality: every
    solver's sparse total stays within 15% of the dense optimum."""
    optimum = get_solver("scipy").solve(dense).total
    result = get_solver(name).solve_sparse(sparse_16)
    assert result.total <= 1.15 * optimum


def test_fallback_rows_are_exact_scored():
    """Force infeasibility: every row shortlists only columns {0, 1, 2},
    so one assignment must land on column 3 as a fallback — and the
    reported total must use the metric's true cost of that edge (via the
    retained features), not the sentinel."""
    from repro.cost import get_metric

    grid = TileGrid(16, 16, 8)  # 4 tiles of 8x8
    tiles = grid.split(standard_image("portrait", 16))
    metric = get_metric("sad")
    features = metric.prepare(tiles)
    costs = metric.pairwise(features, features)[:, :3]
    sparse = SparseErrorMatrix(
        indices=np.broadcast_to(
            np.array([0, 1, 2], dtype=np.int64), (4, 3)
        ).copy(),
        costs=costs,
        metric_name="sad",
        features_in=features,
        features_tg=features,
    )
    result = get_solver("scipy").solve_sparse(sparse)
    meta = result.meta["sparse"]
    assert meta["fallback"] == 1  # 4 rows, only 3 shortlisted columns
    assert meta["exact_fallback"] is True
    perm = result.permutation
    assert sorted(perm.tolist()) == [0, 1, 2, 3]
    dense = metric.pairwise(features, features)
    assert result.total == int(dense[perm, np.arange(4)].sum())


def test_feature_less_sparse_falls_back_to_sentinel_totals():
    """from_dense matrices carry no features; fallback edges then keep
    the sentinel cost and meta flags exact_fallback=False."""
    matrix = np.array(
        [[1, 50, 50], [2, 50, 50], [3, 50, 50]], dtype=np.int64
    )
    sparse = SparseErrorMatrix.from_dense(matrix, 1)
    result = get_solver("scipy").solve_sparse(sparse)
    meta = result.meta["sparse"]
    assert meta["fallback"] == 2
    assert meta["exact_fallback"] is False

