"""Active-pair pruning for the serial 2-opt sweeps (Step 3).

Late sweeps of both local-search algorithms commit only a handful of
swaps, yet the unpruned loops still evaluate all ``S(S-1)/2`` pairs per
sweep.  Pruning exploits one invariant: a pair's gain depends only on
the tiles at its two endpoints, so *if neither endpoint changed since
the pair's last evaluation, the gain is unchanged* — and an unchanged
gain that did not trigger a commit then cannot trigger one now.
Skipping such pairs is exact: identical committed-swap sets, identical
trajectories, bit-identical final permutations.

The granularity must match the sweep structure:

* The colour-class sweeps of Algorithm 2 commit *every* improving pair
  of a class, so an evaluated-but-uncommitted pair is known
  non-positive and per-pair evaluation timestamps are exact.  They live
  next to the packed pair arrays they are aligned with, in
  :class:`repro.localsearch.parallel._ClassWindows`.
* :class:`SweepPruner` — a per-position dirty mask at *sweep*
  granularity, for the serial ``best_row`` strategy.  ``best_row``
  commits only the single best pair of a row, so other evaluated pairs
  of that row may hold positive gains without being committed —
  per-pair timestamps would wrongly skip them.  Row granularity
  restores exactness: if row ``u`` commits, ``u`` itself is marked
  dirty and the whole row re-evaluates next sweep; if it commits
  nothing, every pair of the row was non-positive.  ``argmax``
  tie-breaking is also preserved: ties at a *positive* maximum are all
  dirty pairs, and pruning keeps their relative order.

Dirtiness must be *live within a sweep*: a pair whose endpoint was
touched by an earlier row of the current sweep may already improve, so
:class:`SweepPruner` tests candidates against
``dirty_previous_sweep | dirty_so_far_this_sweep``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["SweepPruner"]


class SweepPruner:
    """Per-position dirty mask plus evaluation accounting.

    Works on any ``xp``-compatible array module (NumPy default, CuPy via
    :mod:`repro.accel.backend`), so the mask lives wherever the error
    matrix lives.

    Attributes
    ----------
    live:
        Boolean mask: position touched in the previous sweep *or* so far
        in the current one.  All-true initially, so sweep 1 evaluates
        every pair (there is no history to prune against yet).
    pairs_evaluated / pairs_skipped:
        Candidate-level counters across the whole run, exposed in
        :class:`~repro.localsearch.base.LocalSearchResult` meta and the
        perf-smoke benchmark.
    """

    def __init__(self, size: int, xp: Any = np) -> None:
        self.xp = xp
        self.size = size
        self.live = xp.ones(size, dtype=bool)
        self._next = xp.zeros(size, dtype=bool)
        self.pairs_evaluated = 0
        self.pairs_skipped = 0
        self.sweeps = 0

    def select(self, us: Any, vs: Any) -> tuple[Any, Any]:
        """Filter aligned pair arrays down to candidates with a dirty end."""
        mask = self.live[us] | self.live[vs]
        kept = int(mask.sum())
        self.pairs_evaluated += kept
        self.pairs_skipped += us.shape[0] - kept
        if kept == us.shape[0]:
            return us, vs
        return us[mask], vs[mask]

    def mark(self, us: Any, vs: Any) -> None:
        """Record committed swaps: both endpoints become dirty now."""
        self._next[us] = True
        self._next[vs] = True
        self.live[us] = True
        self.live[vs] = True

    def mark_pair(self, u: int, v: int) -> None:
        """Scalar variant of :meth:`mark` for the serial row loop."""
        self._next[u] = True
        self._next[v] = True
        self.live[u] = True
        self.live[v] = True

    def count(self, evaluated: int, skipped: int) -> None:
        """Account candidates selected outside :meth:`select`."""
        self.pairs_evaluated += evaluated
        self.pairs_skipped += skipped

    def end_sweep(self) -> None:
        """Roll the masks: next sweep prunes against this sweep's commits."""
        self.sweeps += 1
        self.live = self._next
        self._next = self.xp.zeros(self.size, dtype=bool)

    def stats(self) -> dict[str, int]:
        return {
            "pairs_evaluated": int(self.pairs_evaluated),
            "pairs_skipped": int(self.pairs_skipped),
        }
