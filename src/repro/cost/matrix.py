"""Error-matrix computation — Step 2 of the paper's pipeline.

:func:`error_matrix` builds the dense ``S x S`` matrix
``E[u, v] = E(I_u, T_v)`` by chunking input tiles so the broadcast
intermediate never exceeds a memory budget (the guides' cache/memory
rules: bound the working set, keep accesses contiguous).  The default
SAD metric goes further inside each chunk: its
:meth:`~repro.cost.sad.SADMetric.pairwise` runs pixel-major over
cache-resident blocks of ``(u, v)`` lanes through one reused scratch
buffer, the host analogue of the paper's Step-2 kernel.

:func:`total_error` / :func:`total_error_of_permutation` evaluate the
paper's Eq. (2) for a given rearrangement.
"""

from __future__ import annotations

import numpy as np

from repro.accel.backend import ArrayBackend, get_backend
from repro.cost.base import CostMetric, get_metric
from repro.exceptions import ValidationError
from repro.types import ERROR_DTYPE, ErrorMatrix, PermutationArray, TileStack
from repro.utils.arrays import cached_positions
from repro.utils.validation import check_error_matrix, check_permutation

__all__ = [
    "check_tile_stacks",
    "error_matrix",
    "total_error",
    "total_error_of_permutation",
]

#: Default cap on one chunk's work, in scalar elements (``rows * S * F``).
#: Metrics that broadcast a whole chunk at once (SSD, luminance, colour)
#: hold at most this many elements — 64 Mi int16 elements is ~128 MiB,
#: large enough to keep BLAS-free kernels busy, small enough for
#: laptop-class machines.  SAD blocks each chunk further into 640 KiB
#: scratch sweeps, so for SAD the chunk only bounds its ``rows x S``
#: int64 result.
DEFAULT_CHUNK_BUDGET = 64 * 1024 * 1024


def check_tile_stacks(input_tiles: TileStack, target_tiles: TileStack) -> None:
    """Validate a matched pair of tile stacks (shared by dense and sparse
    Step-2 builders)."""
    input_tiles = np.asarray(input_tiles)
    target_tiles = np.asarray(target_tiles)
    if input_tiles.shape != target_tiles.shape:
        raise ValidationError(
            f"input and target tile stacks differ: {input_tiles.shape} vs "
            f"{target_tiles.shape}"
        )
    if input_tiles.ndim not in (3, 4) or input_tiles.shape[0] == 0:
        raise ValidationError(f"bad tile stack shape {input_tiles.shape}")


def error_matrix(
    input_tiles: TileStack,
    target_tiles: TileStack,
    metric: str | CostMetric = "sad",
    *,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    backend: str | ArrayBackend | None = None,
) -> ErrorMatrix:
    """Dense error matrix ``E[u, v] = metric(I_u, T_v)``.

    Parameters
    ----------
    input_tiles, target_tiles:
        Tile stacks of identical shape ``(S, M, M[, 3])``.
    metric:
        Registry name (``"sad"``, ``"ssd"``, ``"luminance"``, ``"color"``)
        or a :class:`CostMetric` instance.
    chunk_budget:
        Maximum number of scalar elements (``rows * S * F``) per chunk;
        the input-tile axis is chunked to respect it.
    backend:
        Array backend for the pairwise kernel (``None``/``"numpy"``,
        ``"cupy"``, ``"auto"`` — see :mod:`repro.accel.backend`).  The
        metric's NumPy-API kernel runs on the backend's arrays via
        NEP-18 dispatch; the result always comes back as a host array so
        downstream consumers are backend-agnostic.
    """
    check_tile_stacks(input_tiles, target_tiles)
    metric = get_metric(metric)
    xb = get_backend(backend)
    features_in = metric.prepare(np.asarray(input_tiles))
    features_tg = metric.prepare(np.asarray(target_tiles))
    s, f = features_in.shape
    if chunk_budget <= 0:
        raise ValidationError(f"chunk_budget must be positive, got {chunk_budget}")
    if not xb.is_numpy:
        features_in = xb.asarray(features_in)
        features_tg = xb.asarray(features_tg)
    rows_per_chunk = max(1, int(chunk_budget // max(1, s * f)))
    out = xb.xp.empty((s, s), dtype=ERROR_DTYPE)
    for start in range(0, s, rows_per_chunk):
        stop = min(start + rows_per_chunk, s)
        out[start:stop] = metric.pairwise(features_in[start:stop], features_tg)
    return np.asarray(xb.to_numpy(out), dtype=ERROR_DTYPE)


def total_error(matrix: ErrorMatrix, permutation: PermutationArray) -> int:
    """Paper Eq. (2): ``sum_v E[p[v], v]`` for rearrangement ``p``."""
    matrix = check_error_matrix(matrix)
    perm = check_permutation(permutation, matrix.shape[0])
    return int(matrix[perm, cached_positions(matrix.shape[0])].sum())


def total_error_of_permutation(
    input_tiles: TileStack,
    target_tiles: TileStack,
    permutation: PermutationArray,
    metric: str | CostMetric = "sad",
) -> int:
    """Eq. (2) evaluated directly from tiles (no precomputed matrix).

    O(S * M^2) — used to cross-check the matrix-based total in tests and to
    score single rearrangements without paying for the full ``S x S``
    matrix.  Per-row reduced distances come straight from the metric's
    :meth:`~repro.cost.base.CostMetric.rowwise` kernel (the old
    implementation materialised ``slab x slab`` pairwise blocks and took
    their trace — ``O(slab^2 * F)`` work for an ``O(slab * F)`` answer).
    """
    check_tile_stacks(input_tiles, target_tiles)
    metric = get_metric(metric)
    perm = check_permutation(permutation, np.asarray(input_tiles).shape[0])
    features_in = metric.prepare(np.asarray(input_tiles))[perm]
    features_tg = metric.prepare(np.asarray(target_tiles))
    total = 0
    # Slabs only bound the widened-dtype intermediates, not the work.
    slab = 4096
    for start in range(0, features_in.shape[0], slab):
        stop = min(start + slab, features_in.shape[0])
        rows = metric.rowwise(features_in[start:stop], features_tg[start:stop])
        total += int(rows.sum(dtype=np.int64))
    return total
