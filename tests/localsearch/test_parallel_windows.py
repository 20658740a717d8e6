"""Exactness of the windowed Algorithm-2 sweep against the class-by-class loop.

``local_search_parallel`` evaluates a window of consecutive colour
classes in one gather, commits only the first class that improves and
always prunes pairs whose endpoints are untouched.  It must follow the
class-by-class trajectory of :mod:`tests.localsearch.class_oracle`
exactly: the same permutation and the same swaps and totals per sweep as
the unpruned loop, and the same pruning counters as the pruned one.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.coloring.groups import build_edge_groups
from repro.cost.matrix import error_matrix
from repro.imaging.synthetic import standard_image
from repro.localsearch import parallel
from repro.localsearch.parallel import local_search_parallel
from repro.mosaic.config import MosaicConfig
from repro.mosaic.generator import PhotomosaicGenerator
from repro.tiles.grid import TileGrid

from .class_oracle import ClassPruner, local_search_classwise

SIZES = (1, 2, 3, 4, 5, 16, 17, 64, 255, 256)


def assert_same_run(matrix, initial=None, *, candidates=None):
    got = local_search_parallel(matrix, initial, candidates=candidates)
    plain = local_search_classwise(
        matrix, initial, prune=False, candidates=candidates
    )
    np.testing.assert_array_equal(got.permutation, plain.permutation)
    assert got.trace == plain.trace
    assert got.total == plain.total
    pruned = local_search_classwise(
        matrix, initial, prune=True, candidates=candidates
    )
    for key in ("pairs_evaluated", "pairs_skipped", "kernel_launches"):
        assert got.meta[key] == pruned.meta[key], key
    return got


@pytest.mark.parametrize("s", SIZES)
@pytest.mark.parametrize("start", ["identity", "random"])
@pytest.mark.parametrize("second_draw", [True, False])
@pytest.mark.parametrize("masked", [False, True])
def test_matches_class_by_class(s, start, second_draw, masked):
    """Two independent random matrices per size, start and mask."""
    rng = np.random.default_rng(s * 4 + (start == "random") * 2 + second_draw)
    matrix = rng.integers(0, 1000, size=(s, s)).astype(np.int64)
    initial = rng.permutation(s) if start == "random" else None
    candidates = rng.random((s, s)) < 0.5 if masked else None
    assert_same_run(matrix, initial, candidates=candidates)


def test_pipeline_instance_at_s1024():
    """portrait/sailboat, N=256, tile 8: the instance the perf smoke times,
    pinned here with its total, sweeps and pruning counters."""
    generator = PhotomosaicGenerator(MosaicConfig(tile_size=8))
    _, matrix = generator.build_error_matrix(
        standard_image("portrait", 256), standard_image("sailboat", 256)
    )
    assert matrix.shape == (1024, 1024)
    result = assert_same_run(matrix)
    assert result.total == 4_283_809
    assert result.sweeps == 4
    assert result.meta["pairs_evaluated"] == 651_379


def _one_improving_pair(s: int, u: int, v: int) -> np.ndarray:
    """Identity is 2-opt optimal except for the pair ``(u, v)``."""
    matrix = np.full((s, s), 10, dtype=np.int64)
    np.fill_diagonal(matrix, 0)
    matrix[u, u] = matrix[v, v] = 10
    matrix[u, v] = matrix[v, u] = 0
    return matrix


@pytest.mark.parametrize("class_id", range(15))
def test_single_committing_class(class_id):
    """From identity, only one pair of one class improves.

    The window grows 1, 2, 4, 8 classes from class 0, so classes 0, 1,
    3 and 7 commit as the first class of their window and classes 2, 6
    and 14 as the last; the rest sit inside one.
    """
    groups = build_edge_groups(16)
    us, vs = groups.classes[class_id]
    u, v = int(us[3]), int(vs[3])
    result = assert_same_run(_one_improving_pair(16, u, v))
    assert result.trace.swap_counts == (1, 0)
    assert result.permutation[u] == v and result.permutation[v] == u


@pytest.mark.parametrize("first, second", [(1, 2), (2, 3), (3, 6), (0, 14)])
def test_two_committing_classes_in_one_window(first, second):
    """A commit in the first class must not hide the second class's pair."""
    groups = build_edge_groups(16)
    pairs = []
    for class_id in (first, second):
        us, vs = groups.classes[class_id]
        pairs.append((int(us[0]), int(vs[0])))
    matrix = np.full((16, 16), 10, dtype=np.int64)
    np.fill_diagonal(matrix, 0)
    for u, v in pairs:
        matrix[u, u] = matrix[v, v] = 10
        matrix[u, v] = matrix[v, u] = 0
    assert_same_run(matrix)


@pytest.mark.parametrize("budget_classes", [1, 3])
def test_small_pair_budget_splits_windows(monkeypatch, budget_classes):
    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 1000, size=(64, 64)).astype(np.int64)
    capped = build_edge_groups(64).pairs_per_class * budget_classes
    monkeypatch.setattr(parallel, "WINDOW_PAIRS", capped)
    result = assert_same_run(matrix)
    uncapped = result.meta["host_dispatches"]
    monkeypatch.undo()
    assert local_search_parallel(matrix).meta["host_dispatches"] <= uncapped


def test_host_dispatches_reported_apart_from_kernel_launches():
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 1000, size=(64, 64)).astype(np.int64)
    result = local_search_parallel(matrix)
    assert result.meta["kernel_launches"] == result.sweeps * 64
    assert 0 < result.meta["host_dispatches"] <= result.sweeps * 63
    gpusim = local_search_parallel(matrix, backend="gpusim")
    assert gpusim.meta["host_dispatches"] == gpusim.meta["kernel_launches"]


def test_peak_memory_at_s1024():
    """Stamps plus one window's temporaries; no ``S^2`` side table."""
    grid = TileGrid.from_tile_count(512, 32)
    matrix = error_matrix(
        grid.split(standard_image("portrait", 512)),
        grid.split(standard_image("sailboat", 512)),
    )
    groups = build_edge_groups(1024)
    groups.classes  # noqa: B018 - warm the cached row views
    tracemalloc.start()
    try:
        local_search_parallel(matrix, groups=groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


class TestOraclePruner:
    """The oracle's timestamp rule, which the window loop must reproduce."""

    def test_first_sweep_evaluates_everything(self):
        pruner = ClassPruner(8)
        us = np.array([0, 2, 4])
        vs = np.array([1, 3, 5])
        kept_us, kept_vs = pruner.select(0, us, vs)
        np.testing.assert_array_equal(kept_us, us)
        np.testing.assert_array_equal(kept_vs, vs)
        assert pruner.pairs_evaluated == 3

    def test_untouched_pairs_skip_next_sweep(self):
        pruner = ClassPruner(6)
        us, vs = np.array([0, 2, 4]), np.array([1, 3, 5])
        pruner.select(0, us, vs)  # sweep 1: all evaluated, nothing committed
        kept_us, kept_vs = pruner.select(0, us, vs)  # sweep 2
        assert kept_us.size == 0 and kept_vs.size == 0
        assert pruner.pairs_skipped == 3

    def test_own_commit_does_not_retrigger(self):
        """A committed pair's gain is exactly negated — non-positive — so
        its own touch must not force a re-evaluation next sweep."""
        pruner = ClassPruner(4)
        us, vs = np.array([0]), np.array([1])
        pruner.select(0, us, vs)
        pruner.mark(us, vs)  # the pair commits itself
        kept_us, _ = pruner.select(0, us, vs)
        assert kept_us.size == 0

    def test_later_touch_retriggers(self):
        pruner = ClassPruner(4)
        class_a = (np.array([0]), np.array([1]))
        class_b = (np.array([1]), np.array([2]))
        pruner.select(0, *class_a)
        pruner.select(1, *class_b)
        pruner.mark(np.array([1]), np.array([2]))  # class b commits
        # Next sweep: class a shares endpoint 1 with the commit.
        kept_us, kept_vs = pruner.select(0, *class_a)
        np.testing.assert_array_equal(kept_us, [0])
        np.testing.assert_array_equal(kept_vs, [1])
        # ... while class b itself (self-commit only) stays clean.
        kept_us, _ = pruner.select(1, *class_b)
        assert kept_us.size == 0

    def test_partial_selection_preserves_alignment(self):
        pruner = ClassPruner(8)
        us, vs = np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])
        pruner.select(0, us, vs)
        pruner.mark(np.array([4]), np.array([5]))
        other = (np.array([5]), np.array([6]))
        pruner.select(1, *other)
        pruner.mark(*other)
        kept_us, kept_vs = pruner.select(0, us, vs)
        np.testing.assert_array_equal(kept_us, [4, 6])
        np.testing.assert_array_equal(kept_vs, [5, 7])
