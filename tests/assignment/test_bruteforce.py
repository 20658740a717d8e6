"""Tests for the exhaustive oracle (the paper's S! method)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.assignment import get_solver
from repro.assignment.bruteforce import BruteForceSolver
from repro.exceptions import ValidationError


class TestOracle:
    def test_evaluates_all_permutations(self, rng):
        n = 5
        m = rng.integers(0, 100, size=(n, n)).astype(np.int64)
        result = BruteForceSolver().solve(m)
        assert result.iterations == math.factorial(n)

    @pytest.mark.parametrize("name", ["scipy", "hungarian"])
    def test_fast_solvers_match_oracle(self, name, rng):
        """The decisive optimality test: nothing here trusts a fast solver."""
        solver = get_solver(name)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            m = rng.integers(0, 200, size=(n, n)).astype(np.int64)
            assert solver.solve(m).total == BruteForceSolver().solve(m).total

    def test_local_search_oracle_gap(self, rng):
        """2-opt can be strictly above the S! optimum — verify the direction."""
        from repro.localsearch import local_search_serial

        gaps = []
        for trial in range(10):
            n = 6
            m = rng.integers(0, 100, size=(n, n)).astype(np.int64)
            oracle = BruteForceSolver().solve(m).total
            approx = local_search_serial(m).total
            assert approx >= oracle
            gaps.append(approx - oracle)
        assert any(g == 0 for g in gaps)  # small instances usually solved


class TestGuardrails:
    def test_size_limit_enforced(self):
        m = np.zeros((10, 10), dtype=np.int64)
        with pytest.raises(ValidationError, match="brute force limited"):
            BruteForceSolver().solve(m)

    def test_limit_configurable(self):
        m = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(ValidationError):
            BruteForceSolver(factorial_limit=2).solve(m)

    def test_bad_limit(self):
        with pytest.raises(ValidationError):
            BruteForceSolver(factorial_limit=0)

    def test_registered(self):
        assert get_solver("bruteforce").name == "bruteforce"
