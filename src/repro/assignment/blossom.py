"""Blossom-algorithm solver — the paper's own solver family.

Section III: the authors solve the matching with **Blossom V**, a general
(non-bipartite) minimum-weight perfect-matching implementation.  This
module recreates that choice faithfully: it builds the complete bipartite
graph of the paper's Fig. 4 and solves it with NetworkX's blossom-based
``min_weight_matching`` (Galil's variant of Edmonds' algorithm — the same
algorithm family as Blossom V, in pure Python).

On bipartite instances the result coincides with the LAP solvers — which
the tests verify — so this solver exists for fidelity and cross-checking,
not speed: the general-graph machinery pays a heavy constant, exactly the
reason this repository defaults to the assignment solvers (DESIGN.md
substitutions).  Guarded to moderate ``S`` accordingly.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.assignment.base import AssignmentResult, AssignmentSolver, register_solver
from repro.exceptions import SolverError, ValidationError
from repro.types import ErrorMatrix

__all__ = ["BlossomSolver"]


@register_solver
class BlossomSolver(AssignmentSolver):
    """Min-weight perfect matching via Edmonds' blossom algorithm."""

    name = "blossom"

    def __init__(self, size_limit: int = 512) -> None:
        if size_limit < 1:
            raise ValidationError(f"size_limit must be >= 1, got {size_limit}")
        self.size_limit = int(size_limit)

    def _solve(self, matrix: ErrorMatrix) -> AssignmentResult:
        n = matrix.shape[0]
        if n > self.size_limit:
            raise ValidationError(
                f"blossom solver limited to S <= {self.size_limit} (pure-"
                f"Python general matching), got {n}; use 'scipy'"
            )
        # The paper's Fig. 4 graph: left vertices 0..n-1 are input tiles,
        # right vertices n..2n-1 are target positions.
        graph = nx.Graph()
        graph.add_nodes_from(range(2 * n))
        for u in range(n):
            row = matrix[u]
            for v in range(n):
                graph.add_edge(u, n + v, weight=int(row[v]))
        matching = nx.min_weight_matching(graph)
        if len(matching) != n:
            raise SolverError(
                f"blossom matching has {len(matching)} edges, expected {n}"
            )
        perm = np.full(n, -1, dtype=np.intp)
        for a, b in matching:
            tile, pos = (a, b - n) if a < n else (b, a - n)
            if not (0 <= tile < n and 0 <= pos < n):
                raise SolverError(f"matching edge ({a}, {b}) crosses partitions")
            perm[pos] = tile
        total = int(matrix[perm, np.arange(n)].sum())
        return AssignmentResult(
            permutation=perm,
            total=total,
            optimal=True,
            iterations=n,
        )
