"""Parallel approximation algorithm (paper Algorithm 2).

The edge set of ``K_S`` is partitioned into colour classes
``P_1 .. P_S`` (Theorem 1, :mod:`repro.coloring`); within one class all
pairs are vertex-disjoint, so their swap tests evaluate against the same
snapshot of the permutation and commit simultaneously — exactly the
semantics of one CUDA kernel launch per class in the paper's GPU
implementation.

Execution backends:

* ``"vectorized"`` (default) — the SIMT lane-execution model: every
  "thread" (pair) runs the same gather/compare/scatter in lock step.  It
  is the measured "GPU" column of the Table III reproduction.  The host
  evaluates a *window* of consecutive colour classes in one batched
  gather over the packed pair arrays of :class:`EdgeGroups` and commits
  only the first class in the window that improves (see
  :class:`_ClassWindows`), which keeps the class-by-class trajectory
  exactly while paying one host dispatch per window instead of per class.
  After the first sweep it evaluates only pairs with an endpoint touched
  since their last evaluation (active-pair pruning), which changes no
  result; ``meta`` reports ``pairs_evaluated`` and ``pairs_skipped``.
* ``"gpusim"`` — executes each class as a kernel launch on the virtual
  GPU (:mod:`repro.gpusim`), exercising the grid/block/shared-memory code
  path used for the performance model.

Like the serial algorithm, every committed swap strictly decreases the
integer total error, so the outer repeat-until-no-swap loop terminates.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.accel.backend import ArrayBackend, get_backend
from repro.coloring.groups import EdgeGroups, build_edge_groups
from repro.exceptions import ConvergenceError, ValidationError
from repro.localsearch.base import ConvergenceTrace, LocalSearchResult
from repro.tiles.permutation import identity_permutation
from repro.types import ErrorMatrix, PermutationArray
from repro.utils.arrays import cached_positions
from repro.utils.validation import check_error_matrix, check_permutation

__all__ = ["BACKENDS", "local_search_parallel"]

#: Execution backends of :func:`local_search_parallel` (see module doc).
BACKENDS = ("vectorized", "gpusim")

#: Most pairs one window gathers.  At S=1024 a window of 64 Ki pairs
#: (128 classes) sweeps as fast as an uncapped one, within noise, and
#: the cap bounds the window's temporaries to a few MiB at any S.
WINDOW_PAIRS = 1 << 16


class _ClassWindows:
    """Algorithm 2's class-by-class sweep, run a window of classes at a time.

    A window ``[a, b)`` of consecutive classes is evaluated in one gather
    against the current permutation.  If no pair improves, running those
    classes one by one would have committed nothing and left the state
    unchanged, so they are all done.  Otherwise only the improving pairs
    of the *first* committing class ``c*`` are committed: every class
    before it committed nothing, so it saw exactly the state the window
    was evaluated on, while the classes after ``c*`` are re-evaluated by
    the next window, which starts at ``c* + 1``.  The window doubles
    after a window without commits and shrinks to ``c* - a + 1`` after
    one, capped at :data:`WINDOW_PAIRS`.

    ``cur[p] = E[perm[p], p]`` is kept up to date on commit, so a pair
    costs two matrix gathers (the post-swap placements) instead of four.

    Active-pair pruning: a pair is evaluated only when an endpoint was
    touched by a commit *after* the pair's last evaluation.
    ``touched`` holds the clock of each position's last commit and
    ``last_eval`` (aligned with the packed pairs) the clock of each
    pair's last evaluation.  The clock ticks once per committing window:
    pairs of the classes ``a .. c*`` are stamped with the clock the
    window was evaluated at, the commits of ``c*`` with the next tick —
    so later classes see them — and so are the committed pairs
    themselves, whose own swap negates their gain and needs no re-check.
    This is exact: the class commits *every* improving pair, so an
    evaluated, uncommitted pair is known non-positive until an endpoint
    changes.  Pairs of classes after ``c*`` keep their old stamps: they
    may hold positive gains that were not committed.  The stamps are
    int32; the clock ticks at most once per window.
    """

    def __init__(
        self,
        xb: ArrayBackend,
        matrix: Any,
        perm: Any,
        groups: EdgeGroups,
        allowed: Any | None,
    ) -> None:
        xp = self.xp = xb.xp
        s = self.size = matrix.shape[0]
        self.flat = xp.ascontiguousarray(matrix).reshape(-1)
        self.allowed = (
            None if allowed is None else xp.ascontiguousarray(allowed).reshape(-1)
        )
        self.perm = perm
        self.cur = self.flat.take(perm * s + xp.arange(s, dtype=perm.dtype))
        self.us = xb.asarray(groups.us.reshape(-1))
        self.vs = xb.asarray(groups.vs.reshape(-1))
        self.pairs = groups.pairs_per_class
        self.rows = groups.us.shape[0] if self.pairs else 0
        self.max_window = max(1, WINDOW_PAIRS // max(1, self.pairs))
        self.window = 1
        self.touched = xp.zeros(s, dtype=np.int32)
        self.last_eval = xp.full(self.us.shape[0], -1, dtype=np.int32)
        self.clock = 0
        self.pairs_evaluated = 0
        self.pairs_skipped = 0
        self.dispatches = 0

    def sweep(self) -> int:
        """Run every class once, in order; return the swaps committed."""
        xp, s, pairs = self.xp, self.size, self.pairs
        perm, cur, flat, touched = self.perm, self.cur, self.flat, self.touched
        swaps = 0
        a = 0
        while a < self.rows:
            lo = a * pairs
            hi = min(a + self.window, self.rows) * pairs
            us, vs = self.us[lo:hi], self.vs[lo:hi]
            self.dispatches += 1
            stamps = self.last_eval[lo:hi]
            need = xp.flatnonzero(
                (touched.take(us) > stamps) | (touched.take(vs) > stamps)
            )
            if need.size == hi - lo:
                need = None  # every pair of the window is evaluated
            else:
                us, vs = us.take(need), vs.take(need)
            tiles_u, tiles_v = perm.take(us), perm.take(vs)
            moved_u = flat.take(tiles_v * s + us)
            moved_v = flat.take(tiles_u * s + vs)
            gain = cur.take(us)
            gain += cur.take(vs)
            gain -= moved_u
            gain -= moved_v
            improving = gain > 0
            if self.allowed is not None:
                # Sparse candidate restriction: both post-swap placements
                # must be shortlisted.  Eligibility is a pure function of
                # the endpoint tiles, so pruning stays exact.
                improving &= self.allowed.take(tiles_v * s + us)
                improving &= self.allowed.take(tiles_u * s + vs)
            hits = xp.flatnonzero(improving)
            if hits.size == 0:
                self._evaluated(lo, need, hi - lo)
                a = hi // pairs
                self.window = min(2 * self.window, self.max_window)
                continue
            # The first committing class c* ends ``span`` pairs into the
            # window; only classes a .. c* count as run.
            first = int(hits[0])
            position = first if need is None else int(need[first])
            span = (position // pairs + 1) * pairs
            count = self._evaluated(lo, need, span)
            commit = hits[: int(xp.searchsorted(hits, count))]
            cu, cv = us.take(commit), vs.take(commit)
            # Disjointness of the class makes this scatter race-free.
            perm[cu] = tiles_v.take(commit)
            perm[cv] = tiles_u.take(commit)
            cur[cu] = moved_u.take(commit)
            cur[cv] = moved_v.take(commit)
            self.clock += 1
            touched[cu] = self.clock
            touched[cv] = self.clock
            own = lo + (commit if need is None else need.take(commit))
            self.last_eval[own] = self.clock
            swaps += int(commit.size)
            a += span // pairs
            self.window = span // pairs
        return swaps

    def _evaluated(self, lo: int, need: Any | None, span: int) -> int:
        """Stamp and count the evaluated pairs among the ``span`` pairs of
        the window from packed pair ``lo``; return how many there are."""
        count = span
        if need is not None:
            count = int(self.xp.searchsorted(need, span))
        self.pairs_evaluated += count
        self.pairs_skipped += span - count
        stamps = self.last_eval[lo : lo + span]
        if need is None:
            stamps[...] = self.clock
        else:
            stamps[need[:count]] = self.clock
        return count


def local_search_parallel(
    matrix: ErrorMatrix,
    initial: PermutationArray | None = None,
    *,
    groups: EdgeGroups | None = None,
    backend: str = "vectorized",
    max_sweeps: int = 10_000,
    candidates: np.ndarray | None = None,
    array_backend: str | ArrayBackend | None = None,
    on_sweep: Callable[[int, int, int], None] | None = None,
) -> LocalSearchResult:
    """Run Algorithm 2 to a 2-opt local optimum.

    Parameters
    ----------
    matrix:
        Error matrix ``E[u, v]``.
    initial:
        Starting rearrangement (identity when omitted).
    groups:
        Precomputed edge groups; built (and cached) from ``S`` when omitted
        — the paper precomputes them once per tile count (Section IV-B).
    backend:
        ``"vectorized"`` or ``"gpusim"`` (see module doc).
    max_sweeps:
        Safety bound; exceeding it raises :class:`ConvergenceError`.
    candidates:
        Optional boolean ``(S, S)`` mask over ``(tile, position)``
        placements (a :meth:`~repro.cost.sparse.SparseErrorMatrix.mask`):
        a class pair commits only when both post-swap placements are
        candidates.  All-``True`` reproduces the unrestricted search
        exactly.  Supported by the ``"vectorized"`` backend;
        ``"gpusim"`` models the paper's full-width kernels and rejects
        it.
    array_backend:
        Array library for the swap kernels (``None``/``"numpy"``,
        ``"cupy"``, ``"auto"`` — :mod:`repro.accel.backend`).  A
        non-NumPy backend moves the matrix, permutation, edge groups and
        pruning stamps to the device once and sweeps there; only the
        ``"vectorized"`` execution backend supports it.
    on_sweep:
        Optional progress hook called after every sweep with
        ``(sweep_index, swaps_committed, total_error)``; exceptions it
        raises propagate and abort the search (the gateway's
        cancellation path).
    """
    matrix = check_error_matrix(matrix)
    s = matrix.shape[0]
    if initial is None:
        perm = identity_permutation(s)
    else:
        perm = check_permutation(initial, s).copy()
    if groups is None:
        groups = build_edge_groups(s)
    if groups.size != s:
        raise ValidationError(
            f"edge groups are for S={groups.size}, matrix has S={s}"
        )
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r} (use one of {BACKENDS})"
        )
    if max_sweeps < 1:
        raise ValidationError(f"max_sweeps must be >= 1, got {max_sweeps}")
    xb = get_backend(array_backend)
    if not xb.is_numpy and backend != "vectorized":
        raise ValidationError(
            f"array backend {xb.name!r} requires the vectorized execution "
            f"backend, got {backend!r}"
        )
    if candidates is not None:
        candidates = np.asarray(candidates, dtype=bool)
        if candidates.shape != (s, s):
            raise ValidationError(
                f"candidates mask must be ({s}, {s}), got {candidates.shape}"
            )
        if backend == "gpusim":
            raise ValidationError(
                "candidate restriction is not supported by the gpusim "
                "backend (use vectorized)"
            )

    # Device residency: with a non-NumPy array backend the matrix, the
    # permutation, the packed edge groups and the pruning stamps all move
    # to the device once; sweeps run entirely there and only the scalar
    # per-sweep total (and the final permutation) cross back.
    work_matrix = matrix if xb.is_numpy else xb.asarray(matrix)
    work_perm = perm if xb.is_numpy else xb.asarray(perm)
    if backend == "gpusim":
        # Deferred import: gpusim depends on this module's sibling packages.
        from repro.gpusim.kernels.swap_kernel import run_swap_class_on_device

        positions = cached_positions(s)

        def sweep() -> int:
            return sum(
                run_swap_class_on_device(work_matrix, work_perm, us, vs)
                for us, vs in groups.classes
            )

        def total() -> int:
            return int(work_matrix[work_perm, positions].sum())

    else:
        windows = _ClassWindows(
            xb,
            work_matrix,
            work_perm,
            groups,
            None if candidates is None else xb.asarray(candidates),
        )
        sweep = windows.sweep

        def total() -> int:
            return int(windows.cur.sum())

    swap_counts: list[int] = []
    totals: list[int] = []
    while True:
        swaps = sweep()
        swap_counts.append(swaps)
        totals.append(total())
        if on_sweep is not None:
            on_sweep(len(swap_counts) - 1, swaps, totals[-1])
        if swaps == 0:
            break
        if len(swap_counts) >= max_sweeps:
            raise ConvergenceError(
                f"parallel local search exceeded {max_sweeps} sweeps"
            )
    if not xb.is_numpy:
        perm = np.asarray(xb.to_numpy(work_perm), dtype=np.intp)
    else:
        perm = work_perm
    # ``kernel_launches`` counts what the paper's GPU launches (one kernel
    # per class per sweep, the Table III model input); ``host_dispatches``
    # counts the batched evaluations this host actually ran.
    kernel_launches = len(swap_counts) * groups.class_count
    meta = {
        "kernel_launches": kernel_launches,
        "host_dispatches": (
            kernel_launches if backend == "gpusim" else windows.dispatches
        ),
        "classes": groups.class_count,
        "array_backend": xb.name,
    }
    if backend == "vectorized":
        meta["pairs_evaluated"] = windows.pairs_evaluated
        meta["pairs_skipped"] = windows.pairs_skipped
    return LocalSearchResult(
        permutation=perm,
        total=totals[-1],
        trace=ConvergenceTrace(tuple(swap_counts), tuple(totals)),
        strategy=f"parallel-{backend}",
        meta=meta,
    )
