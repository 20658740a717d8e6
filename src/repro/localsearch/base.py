"""Shared result types for the local-search algorithms.

Both algorithms operate on the precomputed error matrix ``E[u, v]`` and a
permutation ``p`` (``p[v]`` = input tile at target position ``v``).  The
swap test at positions ``(a, b)`` is the paper's line 4:

``E(I_a, T_a) + E(I_b, T_b) > E(I_b, T_a) + E(I_a, T_b)``

which in matrix terms is ``E[p[a], a] + E[p[b], b] > E[p[b], a] + E[p[a], b]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import PermutationArray

__all__ = ["ConvergenceTrace", "LocalSearchResult"]


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-sweep convergence record.

    ``swap_counts[k]`` is the number of committed swaps in sweep ``k``;
    ``totals[k]`` is the total error after sweep ``k``.  The paper's
    reported quantity "the value k takes at most 9, 8, and 16" is
    :attr:`sweeps` (the number of full passes including the final
    swap-free one).
    """

    swap_counts: tuple[int, ...]
    totals: tuple[int, ...]

    @property
    def sweeps(self) -> int:
        return len(self.swap_counts)

    @property
    def total_swaps(self) -> int:
        return sum(self.swap_counts)


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a local-search run."""

    permutation: PermutationArray
    total: int
    trace: ConvergenceTrace
    strategy: str
    meta: dict = field(default_factory=dict)

    @property
    def sweeps(self) -> int:
        """Number of full sweeps performed (the paper's ``k``)."""
        return self.trace.sweeps
