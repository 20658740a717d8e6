"""Tests for rectangular assignment."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.assignment.rectangular import solve_rectangular
from repro.exceptions import SolverError, ValidationError


class TestCorrectness:
    def test_matches_scipy_rectangular(self, rng):
        for _ in range(20):
            rows = int(rng.integers(1, 25))
            cols = int(rng.integers(1, rows + 1))
            costs = rng.integers(0, 1000, size=(rows, cols)).astype(np.int64)
            choice, total = solve_rectangular(costs)
            ref_rows, ref_cols = linear_sum_assignment(costs)
            assert total == int(costs[ref_rows, ref_cols].sum())

    def test_choice_is_injective(self, rng):
        costs = rng.integers(0, 100, size=(12, 7)).astype(np.int64)
        choice, _ = solve_rectangular(costs)
        assert len(np.unique(choice)) == choice.size

    def test_total_matches_choice(self, rng):
        costs = rng.integers(0, 100, size=(10, 6)).astype(np.int64)
        choice, total = solve_rectangular(costs)
        assert total == int(costs[choice, np.arange(6)].sum())

    def test_square_case_equals_solver(self, random_matrix):
        from repro.assignment import get_solver

        choice, total = solve_rectangular(random_matrix)
        assert total == get_solver("scipy").solve(random_matrix).total

    def test_single_column(self):
        costs = np.array([[5], [2], [9]], dtype=np.int64)
        choice, total = solve_rectangular(costs)
        assert choice.tolist() == [1]
        assert total == 2

    def test_matches_exhaustive_oracle(self, rng):
        """An oracle that shares no code with SciPy: every injective
        choice of ``C`` rows out of ``R``."""
        for _ in range(10):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, rows + 1))
            costs = rng.integers(0, 100, size=(rows, cols)).astype(np.int64)
            best = min(
                int(costs[list(pick), np.arange(cols)].sum())
                for pick in itertools.permutations(range(rows), cols)
            )
            assert solve_rectangular(costs)[1] == best

    def test_memory_stays_near_costs(self, rng):
        """Solve the ``(R, C)`` matrix as is: an ``R x R`` padded square
        alone would be 10x ``costs.nbytes`` here."""
        costs = rng.integers(0, 1000, size=(2000, 200)).astype(np.int64)
        tracemalloc.start()
        try:
            solve_rectangular(costs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * costs.nbytes


class TestInjectivity:
    def test_repeated_row_rejected(self, monkeypatch):
        """A backend answer that reuses a row must not reach the caller."""
        from repro.assignment import rectangular

        monkeypatch.setattr(
            rectangular,
            "linear_sum_assignment",
            lambda costs: (np.array([0, 0]), np.array([0, 1])),
        )
        with pytest.raises(SolverError, match="distinct row"):
            solve_rectangular(np.zeros((3, 2), dtype=np.int64))


class TestValidation:
    def test_rejects_more_cols_than_rows(self):
        with pytest.raises(ValidationError, match="rows >= cols"):
            solve_rectangular(np.zeros((2, 3), dtype=np.int64))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="non-negative"):
            solve_rectangular(np.array([[-1, 2], [3, 4]], dtype=np.int64))

    def test_rejects_float(self):
        with pytest.raises(ValidationError, match="integer"):
            solve_rectangular(np.zeros((3, 2)))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="2-D"):
            solve_rectangular(np.zeros(5, dtype=np.int64))
