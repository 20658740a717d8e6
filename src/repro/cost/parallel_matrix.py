"""Multiprocess error-matrix computation (host-side parallel Step 2).

The paper accelerates Step 2 on a GPU; on a multicore host the same
row-block decomposition parallelises across processes: each worker
computes a contiguous slab of error-matrix rows from the shared feature
arrays.  Workers receive the feature matrices once, through the pool
initialiser (inherited under ``fork``, the Linux default; pickled once
per worker under ``spawn``), and return ``(start, block)`` pairs that the
parent scatters into the result — the same owner-computes pattern as an
``mpi4py`` row-partitioned matrix-matrix kernel.

For small S the process spin-up dominates (exactly like the paper's GPU
losing at S=16^2), so :func:`error_matrix_parallel` falls back to the
serial vectorised path below a work threshold.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.cost.base import CostMetric, get_metric
from repro.exceptions import ValidationError
from repro.types import ERROR_DTYPE, ErrorMatrix, TileStack

__all__ = ["error_matrix_parallel"]

# Below this many feature-element multiplications the pool costs more than
# it saves; measured on laptop-class hardware, intentionally conservative.
_MIN_PARALLEL_WORK = 64 * 1024 * 1024

# Worker state installed once per process by the pool initialiser, so the
# (potentially large) feature matrices are not re-pickled per task.
_WORKER_STATE: dict[str, object] = {}


def _init_worker(metric_name: str, features_in, features_tg) -> None:
    _WORKER_STATE["metric"] = get_metric(metric_name)
    _WORKER_STATE["features_in"] = features_in
    _WORKER_STATE["features_tg"] = features_tg


def _compute_slab(bounds: tuple[int, int]) -> tuple[int, np.ndarray]:
    start, stop = bounds
    metric: CostMetric = _WORKER_STATE["metric"]  # type: ignore[assignment]
    features_in: np.ndarray = _WORKER_STATE["features_in"]  # type: ignore[assignment]
    features_tg: np.ndarray = _WORKER_STATE["features_tg"]  # type: ignore[assignment]
    return start, metric.pairwise(features_in[start:stop], features_tg)


def error_matrix_parallel(
    input_tiles: TileStack,
    target_tiles: TileStack,
    metric: str = "sad",
    *,
    workers: int | None = None,
    force: bool = False,
) -> ErrorMatrix:
    """Compute the error matrix with a process pool over row slabs.

    Bit-identical to :func:`repro.cost.matrix.error_matrix`.  ``workers``
    defaults to the CPU count; ``force`` skips the small-problem fallback
    (useful for tests).  Only registry-named metrics are supported — the
    name, not the instance, crosses the process boundary.
    """
    input_tiles = np.asarray(input_tiles)
    target_tiles = np.asarray(target_tiles)
    if input_tiles.shape != target_tiles.shape:
        raise ValidationError(
            f"tile stacks differ: {input_tiles.shape} vs {target_tiles.shape}"
        )
    if not isinstance(metric, str):
        raise ValidationError("error_matrix_parallel needs a metric registry name")
    metric_obj = get_metric(metric)
    features_in = metric_obj.prepare(input_tiles)
    features_tg = metric_obj.prepare(target_tiles)
    s, f = features_in.shape
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    work = s * s * f
    if (work < _MIN_PARALLEL_WORK and not force) or workers == 1 or s == 1:
        from repro.cost.matrix import error_matrix

        return error_matrix(input_tiles, target_tiles, metric_obj)
    workers = min(workers, s)
    bounds = []
    slab = (s + workers - 1) // workers
    for start in range(0, s, slab):
        bounds.append((start, min(start + slab, s)))
    out = np.empty((s, s), dtype=ERROR_DTYPE)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(metric, features_in, features_tg),
    ) as pool:
        for start, block in pool.map(_compute_slab, bounds):
            out[start : start + block.shape[0]] = block
    return out
