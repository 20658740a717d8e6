"""Cross-solver tests: every exact solver must agree with SciPy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment import get_solver, verify_optimality_certificate
from repro.exceptions import ValidationError

EXACT_SOLVERS = ("scipy", "hungarian")


class TestRegistry:
    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_lookup(self, name):
        assert get_solver(name).name == name

    def test_unknown_solver(self):
        with pytest.raises(ValidationError, match="unknown solver"):
            get_solver("blossom5")

    def test_instance_passthrough(self):
        solver = get_solver("hungarian")
        assert get_solver(solver) is solver


class TestAgreement:
    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_matches_scipy_on_random_matrices(self, name, rng):
        solver = get_solver(name)
        reference = get_solver("scipy")
        for _ in range(15):
            n = int(rng.integers(1, 30))
            m = rng.integers(0, 1000, size=(n, n)).astype(np.int64)
            assert solver.solve(m).total == reference.solve(m).total

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_on_real_error_matrix(self, name, small_error_matrix):
        reference = get_solver("scipy").solve(small_error_matrix).total
        assert get_solver(name).solve(small_error_matrix).total == reference

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_with_many_ties(self, name, rng):
        """Degenerate matrices with few distinct values stress tie-breaking."""
        for _ in range(8):
            n = int(rng.integers(2, 20))
            m = rng.integers(0, 3, size=(n, n)).astype(np.int64)
            assert (
                get_solver(name).solve(m).total == get_solver("scipy").solve(m).total
            )

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_large_weights(self, name, rng):
        """Weights near the SAD maximum (2048^2 image, 64 tiles): no overflow."""
        n = 12
        m = rng.integers(0, 255 * 32 * 32, size=(n, n)).astype(np.int64)
        assert get_solver(name).solve(m).total == get_solver("scipy").solve(m).total


class TestResultShape:
    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_permutation_is_valid(self, name, random_matrix):
        result = get_solver(name).solve(random_matrix)
        n = random_matrix.shape[0]
        assert (np.sort(result.permutation) == np.arange(n)).all()

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_total_consistent(self, name, random_matrix):
        result = get_solver(name).solve(random_matrix)
        n = random_matrix.shape[0]
        assert result.total == int(
            random_matrix[result.permutation, np.arange(n)].sum()
        )

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_n1(self, name):
        result = get_solver(name).solve(np.array([[7]], dtype=np.int64))
        assert result.total == 7
        assert result.permutation.tolist() == [0]

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_zero_matrix(self, name):
        result = get_solver(name).solve(np.zeros((6, 6), dtype=np.int64))
        assert result.total == 0

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_identity_optimal_matrix(self, name):
        """Diagonal strictly cheapest: identity is the unique optimum."""
        n = 8
        m = np.full((n, n), 100, dtype=np.int64)
        np.fill_diagonal(m, 1)
        result = get_solver(name).solve(m)
        assert result.total == n
        assert (result.permutation == np.arange(n)).all()

    @pytest.mark.parametrize("name", EXACT_SOLVERS)
    def test_anti_diagonal_optimum(self, name):
        n = 7
        m = np.full((n, n), 50, dtype=np.int64)
        for i in range(n):
            m[i, n - 1 - i] = 0
        result = get_solver(name).solve(m)
        assert result.total == 0
        assert (result.permutation == np.arange(n)[::-1]).all()


class TestCertificates:
    @pytest.mark.parametrize("name", ["hungarian"])
    def test_duals_certify_optimality(self, name, rng):
        for _ in range(10):
            n = int(rng.integers(1, 25))
            m = rng.integers(0, 500, size=(n, n)).astype(np.int64)
            result = get_solver(name).solve(m)
            assert verify_optimality_certificate(result, m)

    def test_scipy_carries_no_duals(self, random_matrix):
        result = get_solver("scipy").solve(random_matrix)
        assert not verify_optimality_certificate(result, random_matrix)

