"""Exhaustive assignment — the paper's "straightforward method".

Section II: "a straightforward method to find the best rearrangement is to
evaluate Error(R, T) for all possible S! rearranged images R."  That is
useless in practice (the paper's point) but invaluable as a *test oracle*:
for tiny S it enumerates every permutation and therefore certifies the
fast solvers' optimality without trusting any of them.

Guarded to ``S <= factorial_limit`` (default 9, i.e. <= 362880
permutations) so it cannot be misused at scale.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.assignment.base import AssignmentResult, AssignmentSolver, register_solver
from repro.exceptions import ValidationError
from repro.types import ErrorMatrix

__all__ = ["BruteForceSolver"]


@register_solver
class BruteForceSolver(AssignmentSolver):
    """Enumerate all S! assignments (tiny instances only)."""

    name = "bruteforce"

    def __init__(self, factorial_limit: int = 9) -> None:
        if factorial_limit < 1:
            raise ValidationError(
                f"factorial_limit must be >= 1, got {factorial_limit}"
            )
        self.factorial_limit = int(factorial_limit)

    def _solve(self, matrix: ErrorMatrix) -> AssignmentResult:
        n = matrix.shape[0]
        if n > self.factorial_limit:
            raise ValidationError(
                f"brute force limited to S <= {self.factorial_limit}, got {n} "
                "(that is the paper's point — use an exact solver instead)"
            )
        positions = np.arange(n)
        best_total = None
        best_perm: tuple[int, ...] | None = None
        evaluated = 0
        for perm in permutations(range(n)):
            total = int(matrix[np.array(perm), positions].sum())
            evaluated += 1
            if best_total is None or total < best_total:
                best_total = total
                best_perm = perm
        assert best_perm is not None and best_total is not None
        return AssignmentResult(
            permutation=np.array(best_perm, dtype=np.intp),
            total=best_total,
            optimal=True,
            iterations=evaluated,
        )
