"""Hungarian-specific structural tests."""

from __future__ import annotations

import numpy as np

from repro.assignment.hungarian import HungarianSolver


class TestHungarian:
    def test_iterations_equals_n(self, random_matrix):
        """One augmentation per row insertion."""
        result = HungarianSolver().solve(random_matrix)
        assert result.iterations == random_matrix.shape[0]

    def test_duals_are_integers(self, random_matrix):
        result = HungarianSolver().solve(random_matrix)
        assert result.dual_row.dtype == np.int64
        assert result.dual_col.dtype == np.int64

    def test_dual_objective_equals_primal(self, random_matrix):
        result = HungarianSolver().solve(random_matrix)
        assert int(result.dual_row.sum() + result.dual_col.sum()) == result.total

