"""Class-by-class Algorithm 2: the reference the window loop is tested against.

``local_search_parallel`` evaluates several colour classes in one gather
and commits only the first class that improves.  This module keeps the
plain loop it must reproduce: one gather/compare/scatter per class, in
class order, with per-pair evaluation timestamps for active-pair pruning.
It is slow on purpose: every class is its own step, so nothing here can
share a bug with the windowed sweep.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.groups import build_edge_groups
from repro.localsearch.base import ConvergenceTrace, LocalSearchResult
from repro.tiles.permutation import identity_permutation


class ClassPruner:
    """Per-pair timestamp pruning, advanced one class at a time.

    ``touched[p]`` is the class-step at which position ``p``'s tile last
    changed; each class keeps an aligned ``last_eval`` array recording
    when each of its pairs was last evaluated.  A pair is evaluated only
    when ``touched`` of an endpoint exceeds its ``last_eval`` — strictly,
    because a commit at the pair's own evaluation step leaves the gain
    exactly negated (non-positive), proving it clean until a *later*
    touch.
    """

    def __init__(self, size: int) -> None:
        self.touched = np.zeros(size, dtype=np.int64)
        self._last_eval: dict[int, np.ndarray] = {}
        self.step = 0
        self.pairs_evaluated = 0
        self.pairs_skipped = 0

    def select(self, class_id: int, us: np.ndarray, vs: np.ndarray):
        """Advance one class-step; return the pairs needing evaluation."""
        self.step += 1
        last_eval = self._last_eval.setdefault(
            class_id, np.full(us.shape[0], -1, dtype=np.int64)
        )
        need = (self.touched[us] > last_eval) | (self.touched[vs] > last_eval)
        self.pairs_evaluated += int(need.sum())
        self.pairs_skipped += int((~need).sum())
        last_eval[need] = self.step
        return us[need], vs[need]

    def mark(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Record commits of the current class-step."""
        self.touched[us] = self.step
        self.touched[vs] = self.step


def commit_class(
    matrix: np.ndarray,
    perm: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    pruner: ClassPruner | None = None,
    class_id: int = 0,
    allowed: np.ndarray | None = None,
) -> int:
    """Evaluate and commit all improving swaps of one colour class."""
    if pruner is not None:
        us, vs = pruner.select(class_id, us, vs)
    tiles_u = perm[us]
    tiles_v = perm[vs]
    current = matrix[tiles_u, us] + matrix[tiles_v, vs]
    swapped = matrix[tiles_v, us] + matrix[tiles_u, vs]
    improving = current > swapped
    if allowed is not None:
        improving &= allowed[tiles_v, us] & allowed[tiles_u, vs]
    committed_us = us[improving]
    committed_vs = vs[improving]
    perm[committed_us] = tiles_v[improving]
    perm[committed_vs] = tiles_u[improving]
    if pruner is not None:
        pruner.mark(committed_us, committed_vs)
    return int(improving.sum())


def local_search_classwise(
    matrix: np.ndarray,
    initial: np.ndarray | None = None,
    *,
    prune: bool = True,
    candidates: np.ndarray | None = None,
) -> LocalSearchResult:
    """Algorithm 2 one colour class at a time, to a 2-opt local optimum."""
    s = matrix.shape[0]
    groups = build_edge_groups(s)
    perm = identity_permutation(s) if initial is None else np.array(initial)
    pruner = ClassPruner(s) if prune else None
    positions = np.arange(s)
    swap_counts: list[int] = []
    totals: list[int] = []
    while not swap_counts or swap_counts[-1]:
        swaps = sum(
            commit_class(matrix, perm, us, vs, pruner, class_id, candidates)
            for class_id, (us, vs) in enumerate(groups.classes)
        )
        swap_counts.append(swaps)
        totals.append(int(matrix[perm, positions].sum()))
    meta = {"kernel_launches": len(swap_counts) * groups.class_count}
    if pruner is not None:
        meta["pairs_evaluated"] = pruner.pairs_evaluated
        meta["pairs_skipped"] = pruner.pairs_skipped
    return LocalSearchResult(
        permutation=perm,
        total=totals[-1],
        trace=ConvergenceTrace(tuple(swap_counts), tuple(totals)),
        strategy="parallel-classwise",
        meta=meta,
    )
