"""Parallel approximation algorithm (paper Algorithm 2).

The edge set of ``K_S`` is partitioned into colour classes
``P_1 .. P_S`` (Theorem 1, :mod:`repro.coloring`); within one class all
pairs are vertex-disjoint, so their swap tests evaluate against the same
snapshot of the permutation and commit simultaneously — exactly the
semantics of one CUDA kernel launch per class in the paper's GPU
implementation.

Execution backends:

* ``"vectorized"`` (default) — each colour class is one batched NumPy
  gather/compare/scatter.  This is the SIMT lane-execution model: every
  "thread" (pair) runs the same instruction sequence in lock step.  It is
  the measured "GPU" column of the Table III reproduction.
* ``"gpusim"`` — executes each class as a kernel launch on the virtual
  GPU (:mod:`repro.gpusim`), exercising the grid/block/shared-memory code
  path used for the performance model.

Like the serial algorithm, every committed swap strictly decreases the
integer total error, so the outer repeat-until-no-swap loop terminates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.accel.backend import ArrayBackend, get_backend
from repro.accel.dirty import ClassPruner
from repro.coloring.groups import EdgeGroups, build_edge_groups
from repro.exceptions import ConvergenceError, ValidationError
from repro.localsearch.base import ConvergenceTrace, LocalSearchResult
from repro.tiles.permutation import identity_permutation
from repro.types import ErrorMatrix, PermutationArray
from repro.utils.arrays import cached_positions
from repro.utils.validation import check_error_matrix, check_permutation

__all__ = ["local_search_parallel"]


def _commit_class(
    matrix: np.ndarray,
    perm: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    pruner: ClassPruner | None = None,
    class_id: int = 0,
    allowed: np.ndarray | None = None,
) -> int:
    """Evaluate and commit all improving swaps of one colour class.

    With a :class:`~repro.accel.dirty.ClassPruner` the class is first
    restricted to pairs with an endpoint touched since their last
    evaluation — exact (the class commits *every* improving pair, so an
    untouched pair's gain is known non-positive; see
    :mod:`repro.accel.dirty`) — and committed endpoints are stamped with
    the current class-step.
    """
    if pruner is not None:
        us, vs = pruner.select(class_id, us, vs)
    if us.size == 0:
        return 0
    tiles_u = perm[us]
    tiles_v = perm[vs]
    current = matrix[tiles_u, us] + matrix[tiles_v, vs]
    swapped = matrix[tiles_v, us] + matrix[tiles_u, vs]
    improving = current > swapped
    if allowed is not None:
        # Sparse candidate restriction: both post-swap placements must be
        # shortlisted.  Eligibility is a pure function of the endpoint
        # tiles, so the pruner's untouched-pair skip stays exact.
        improving &= allowed[tiles_v, us] & allowed[tiles_u, vs]
    if not improving.any():
        return 0
    committed_us = us[improving]
    committed_vs = vs[improving]
    # Disjointness of the class makes this scatter race-free.
    perm[committed_us] = tiles_v[improving]
    perm[committed_vs] = tiles_u[improving]
    if pruner is not None:
        pruner.mark(committed_us, committed_vs)
    return int(improving.sum())


def local_search_parallel(
    matrix: ErrorMatrix,
    initial: PermutationArray | None = None,
    *,
    groups: EdgeGroups | None = None,
    backend: str = "vectorized",
    max_sweeps: int = 10_000,
    prune: bool = True,
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
    prune:
        Active-pair pruning (``"vectorized"`` backend only): after the
        first sweep a pair is evaluated only when an endpoint was
        touched by a committed swap since the pair's own last
        evaluation (per-pair timestamps).  Bit-identical results — the
        class commits every improving pair and an untouched pair cannot
        newly improve (see :mod:`repro.accel.dirty`) — while late
        sweeps drop from ``O(S^2)`` to ``O(S * dirty)``.  The
        ``"gpusim"`` backend models full-width execution and ignores
        it.
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
        dirty mask to the device once and sweeps there; only the
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
    if backend not in ("vectorized", "gpusim"):
        raise ValidationError(
            f"unknown backend {backend!r} (use vectorized|gpusim)"
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
    # permutation, the packed edge groups and the dirty mask all move to
    # the device once; sweeps run entirely there and only the scalar
    # per-sweep total (and the final permutation) cross back.
    work_matrix = matrix if xb.is_numpy else xb.asarray(matrix)
    work_perm = perm if xb.is_numpy else xb.asarray(perm)
    work_allowed = (
        None
        if candidates is None
        else (candidates if xb.is_numpy else xb.asarray(candidates))
    )
    classes = groups.classes
    if not xb.is_numpy:
        classes = tuple((xb.asarray(us), xb.asarray(vs)) for us, vs in classes)

    pruner = (
        ClassPruner(s, xp=xb.xp) if prune and backend == "vectorized" else None
    )
    if backend == "gpusim":
        # Deferred import: gpusim depends on this module's sibling packages.
        from repro.gpusim.kernels.swap_kernel import run_swap_class_on_device

        def commit(class_id: int, us: np.ndarray, vs: np.ndarray) -> int:
            return run_swap_class_on_device(work_matrix, work_perm, us, vs)

    else:

        def commit(class_id: int, us: np.ndarray, vs: np.ndarray) -> int:
            return _commit_class(
                work_matrix, work_perm, us, vs, pruner, class_id, work_allowed
            )

    positions = (
        cached_positions(s) if xb.is_numpy else xb.xp.arange(s, dtype=np.intp)
    )
    swap_counts: list[int] = []
    totals: list[int] = []
    kernel_launches = 0
    while True:
        swaps = 0
        for class_id, (us, vs) in enumerate(classes):
            swaps += commit(class_id, us, vs)
            kernel_launches += 1
        if pruner is not None:
            pruner.end_sweep()
        swap_counts.append(swaps)
        totals.append(int(work_matrix[work_perm, positions].sum()))
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
    meta = {
        "kernel_launches": kernel_launches,
        "classes": groups.class_count,
        "array_backend": xb.name,
    }
    if pruner is not None:
        meta.update(pruner.stats())
    return LocalSearchResult(
        permutation=perm,
        total=totals[-1],
        trace=ConvergenceTrace(tuple(swap_counts), tuple(totals)),
        strategy=f"parallel-{backend}",
        meta=meta,
    )
