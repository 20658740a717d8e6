"""Kuhn-Munkres (Hungarian) algorithm, O(S^3).

This is the solver family the paper cites first (refs [11], [12]).  The
implementation is the modern potentials-plus-shortest-augmenting-path
formulation: rows are inserted one at a time and each insertion grows the
matching along a Dijkstra-style alternating path, maintaining dual
potentials ``u`` (rows) and ``v`` (columns) with the invariant
``u[i] + v[j] <= cost[i, j]`` (equality on tight/matched edges).  The
per-row relaxation step is vectorised over all columns, so the Python-level
loop count is O(S^2) while the arithmetic stays O(S^3) inside NumPy.

Integer arithmetic throughout: costs are ``int64``, so there is no float
drift and the dual certificate is exact.
"""

from __future__ import annotations

import numpy as np

from repro.assignment.base import AssignmentResult, AssignmentSolver, register_solver
from repro.types import ErrorMatrix

__all__ = ["HungarianSolver"]

# Large sentinel that survives repeated subtraction without overflowing int64.
_INF = np.iinfo(np.int64).max // 4


@register_solver
class HungarianSolver(AssignmentSolver):
    """From-scratch Kuhn-Munkres with vectorised relaxation."""

    name = "hungarian"

    def _solve(self, matrix: ErrorMatrix) -> AssignmentResult:
        cost = matrix
        n = cost.shape[0]
        # 1-indexed arrays with slot 0 as the virtual start column, matching
        # the classic formulation; p[j] = row currently matched to column j.
        u = np.zeros(n + 1, dtype=np.int64)
        v = np.zeros(n + 1, dtype=np.int64)
        p = np.zeros(n + 1, dtype=np.intp)
        way = np.zeros(n + 1, dtype=np.intp)
        augmentations = 0
        for i in range(1, n + 1):
            p[0] = i
            j0 = 0
            minv = np.full(n + 1, _INF, dtype=np.int64)
            used = np.zeros(n + 1, dtype=bool)
            while True:
                used[j0] = True
                i0 = p[j0]
                # Vectorised relaxation of all unused columns from row i0.
                free = ~used[1:]
                reduced = cost[i0 - 1] - u[i0] - v[1:]
                improve = free & (reduced < minv[1:])
                minv1 = minv[1:]
                way1 = way[1:]
                minv1[improve] = reduced[improve]
                way1[improve] = j0
                masked = np.where(free, minv1, _INF)
                j1 = int(np.argmin(masked)) + 1
                delta = int(masked[j1 - 1])
                # Dual update: tight set grows, reduced costs stay >= 0.
                used_cols = np.flatnonzero(used)
                u[p[used_cols]] += delta
                v[used_cols] -= delta
                minv1[free] -= delta
                j0 = j1
                if p[j0] == 0:
                    break
            # Walk the alternating path backwards, flipping matched edges.
            while j0 != 0:
                j1 = int(way[j0])
                p[j0] = p[j1]
                j0 = j1
            augmentations += 1
        perm = (p[1:] - 1).astype(np.intp)
        total = int(cost[perm, np.arange(n)].sum())
        # Re-index duals from the 1-indexed algorithm arrays: u is keyed by
        # row id, v by column id.
        dual_row = u[1:].copy()
        dual_col = v[1:].copy()
        return AssignmentResult(
            permutation=perm,
            total=total,
            optimal=True,
            dual_row=dual_row,
            dual_col=dual_col,
            iterations=augmentations,
        )
