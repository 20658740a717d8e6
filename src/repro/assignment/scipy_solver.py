"""Reference solver wrapping :func:`scipy.optimize.linear_sum_assignment`.

SciPy's implementation (a C port of a shortest-augmenting-path LAP solver)
is the trusted oracle the from-scratch solvers are differentially tested
against, and the fastest exact option in this environment — it plays the
role Blossom V played for the paper's authors.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.assignment.base import AssignmentResult, AssignmentSolver, register_solver
from repro.types import ErrorMatrix

__all__ = ["ScipySolver"]


@register_solver
class ScipySolver(AssignmentSolver):
    """Exact solver backed by SciPy (the reproduction's Blossom V stand-in)."""

    name = "scipy"

    def _solve(self, matrix: ErrorMatrix) -> AssignmentResult:
        rows, cols = linear_sum_assignment(matrix)
        n = matrix.shape[0]
        perm = np.empty(n, dtype=np.intp)
        perm[cols] = rows  # p[position] = tile
        total = int(matrix[rows, cols].sum())
        return AssignmentResult(
            permutation=perm,
            total=total,
            optimal=True,
            iterations=n,
        )
