"""Serial approximation algorithm (paper Algorithm 1).

Scan all pairs ``u < v`` in lexicographic order and commit every
improving swap as soon as it is found.  Implemented as a scalar Python
loop — deliberately, since this is also the measured "CPU" column of the
Table III reproduction.

Every committed swap strictly decreases the integer total error, so
termination is guaranteed; ``max_sweeps`` is only a safety net.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.localsearch.base import ConvergenceTrace, LocalSearchResult
from repro.tiles.permutation import identity_permutation
from repro.types import ErrorMatrix, PermutationArray
from repro.utils.arrays import cached_positions
from repro.utils.validation import check_error_matrix, check_permutation

__all__ = ["local_search_serial"]


def _sweep_first(matrix_list: list[list[int]], perm: list[int], s: int) -> int:
    """One Algorithm-1 sweep over all pairs; returns committed swap count.

    Operates on Python lists (not ndarrays): scalar indexing on lists is
    several times faster than on NumPy arrays, and this loop *is* the
    serial-CPU baseline being measured.
    """
    swaps = 0
    for u in range(s):
        row_u_base = perm[u]
        e_u = matrix_list[row_u_base]
        current_u = e_u[u]
        for v in range(u + 1, s):
            tile_v = perm[v]
            e_v = matrix_list[tile_v]
            # E[p[u],u] + E[p[v],v] > E[p[v],u] + E[p[u],v]
            if current_u + e_v[v] > e_v[u] + e_u[v]:
                perm[u], perm[v] = tile_v, row_u_base
                swaps += 1
                row_u_base = tile_v
                e_u = e_v
                current_u = e_u[u]
    return swaps


def _sweep_first_masked(
    matrix_list: list[list[int]],
    perm: list[int],
    s: int,
    allowed: list[list[bool]],
) -> int:
    """Algorithm-1 sweep restricted to candidate placements.

    A swap of positions ``(u, v)`` moves tile ``p[v]`` to ``u`` and tile
    ``p[u]`` to ``v``; it is evaluated only when both *new* placements
    are shortlisted in ``allowed[tile][position]``.  Kept separate from
    :func:`_sweep_first` so the measured scalar baseline stays untouched.
    """
    swaps = 0
    for u in range(s):
        tile_u = perm[u]
        e_u = matrix_list[tile_u]
        ok_u = allowed[tile_u]
        current_u = e_u[u]
        for v in range(u + 1, s):
            tile_v = perm[v]
            e_v = matrix_list[tile_v]
            if (
                allowed[tile_v][u]
                and ok_u[v]
                and current_u + e_v[v] > e_v[u] + e_u[v]
            ):
                perm[u], perm[v] = tile_v, tile_u
                swaps += 1
                tile_u = tile_v
                e_u = e_v
                ok_u = allowed[tile_u]
                current_u = e_u[u]
    return swaps


def local_search_serial(
    matrix: ErrorMatrix,
    initial: PermutationArray | None = None,
    *,
    max_sweeps: int = 10_000,
    candidates: np.ndarray | None = None,
    on_sweep: Callable[[int, int, int], None] | None = None,
) -> LocalSearchResult:
    """Run Algorithm 1 to a 2-opt local optimum.

    Parameters
    ----------
    matrix:
        Error matrix ``E[u, v]``.
    initial:
        Starting rearrangement; identity (the paper's implicit start — the
        unrearranged input) when omitted.
    max_sweeps:
        Safety bound; exceeding it raises :class:`ConvergenceError`.
    candidates:
        Optional boolean ``(S, S)`` mask over ``(tile, position)``
        placements (a :meth:`~repro.cost.sparse.SparseErrorMatrix.mask`):
        swaps are evaluated only when both resulting placements are
        candidates.  An all-``True`` mask reproduces the unrestricted
        search exactly.
    on_sweep:
        Optional progress hook called after every sweep with
        ``(sweep_index, swaps_committed, total_error)``.  Exceptions it
        raises propagate and abort the search — that is the cancellation
        path the streaming job gateway uses.
    """
    matrix = check_error_matrix(matrix)
    s = matrix.shape[0]
    if initial is None:
        perm = identity_permutation(s)
    else:
        perm = check_permutation(initial, s).copy()
    if max_sweeps < 1:
        raise ValidationError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if candidates is not None:
        candidates = np.asarray(candidates, dtype=bool)
        if candidates.shape != (s, s):
            raise ValidationError(
                f"candidates mask must be ({s}, {s}), got {candidates.shape}"
            )

    swap_counts: list[int] = []
    totals: list[int] = []
    positions = cached_positions(s)
    matrix_list = matrix.tolist()
    perm_list = perm.tolist()
    allowed_list = candidates.tolist() if candidates is not None else None
    while True:
        if allowed_list is None:
            swaps = _sweep_first(matrix_list, perm_list, s)
        else:
            swaps = _sweep_first_masked(matrix_list, perm_list, s, allowed_list)
        perm = np.array(perm_list, dtype=np.intp)
        swap_counts.append(swaps)
        totals.append(int(matrix[perm, positions].sum()))
        if on_sweep is not None:
            on_sweep(len(swap_counts) - 1, swaps, totals[-1])
        if swaps == 0:
            break
        if len(swap_counts) >= max_sweeps:
            raise ConvergenceError(
                f"serial local search exceeded {max_sweeps} sweeps"
            )
    return LocalSearchResult(
        permutation=perm,
        total=totals[-1],
        trace=ConvergenceTrace(tuple(swap_counts), tuple(totals)),
        strategy="first",
    )
