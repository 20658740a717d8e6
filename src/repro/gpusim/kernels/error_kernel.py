"""Step-2 error-matrix kernel on the virtual GPU (paper Section V).

Launch shape follows the paper exactly: ``S`` CUDA blocks, block ``u``
responsible for row ``u`` of the error matrix.  Each block first stages its
input tile ``I_u`` in shared memory (all lanes cooperate in the load), then
sweeps the target tiles in lane-sized batches, each lane producing one
``E(I_u, T_v)`` value per batch step.

The kernel's arithmetic is bit-identical to
:func:`repro.cost.matrix.error_matrix` with the SAD metric — tested
differentially — while its execution goes through the metered
global/shared-memory path so launches report realistic op/byte counts.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GpuSimError, ValidationError
from repro.gpusim.device import TESLA_K40, DeviceProperties
from repro.gpusim.kernel import BlockContext, KernelStats, launch_kernel
from repro.gpusim.memory import GlobalMemory
from repro.types import ERROR_DTYPE, ErrorMatrix, TileStack

__all__ = ["error_matrix_gpu", "error_row_kernel"]


def error_row_kernel(ctx: BlockContext) -> None:
    """One block computes one row of the error matrix (SAD)."""
    u = ctx.block_idx
    input_tiles = ctx.global_mem.buffer("input_tiles")
    target_tiles = ctx.global_mem.buffer("target_tiles")
    s = input_tiles.shape[0]
    pixels = input_tiles.shape[1]
    # Cooperative load of tile I_u into shared memory (paper Section V:
    # "threads in each CUDA block read pixel values of tile I_u and store
    # them to the shared memory").
    staged = ctx.shared.alloc("tile_u", (pixels,), np.int16)
    staged[:] = ctx.global_mem.read("input_tiles", u)
    ctx.syncthreads()
    # Lanes sweep the target tiles in batches of block_dim: lane t handles
    # targets t, t + block_dim, t + 2*block_dim, ...
    for start in range(0, s, ctx.block_dim):
        batch = ctx.lanes[ctx.lanes < s - start] + start
        targets = ctx.global_mem.read("target_tiles", batch)
        errors = np.abs(targets - staged[None, :]).sum(axis=1, dtype=np.int64)
        ctx.count_ops(int(targets.shape[0]) * pixels)
        ctx.global_mem.write("error_matrix", (u, batch), errors)
    ctx.syncthreads()


def error_matrix_gpu(
    input_tiles: TileStack,
    target_tiles: TileStack,
    *,
    device: DeviceProperties = TESLA_K40,
    block_dim: int = 256,
    stats: KernelStats | None = None,
) -> ErrorMatrix:
    """Compute the SAD error matrix through the virtual GPU.

    Returns the ``(S, S)`` matrix downloaded from device global memory.
    ``stats``, when given, accumulates launch/op/byte counters across
    calls for the performance model.
    """
    input_tiles = np.asarray(input_tiles)
    target_tiles = np.asarray(target_tiles)
    if input_tiles.shape != target_tiles.shape:
        raise ValidationError(
            f"tile stacks differ: {input_tiles.shape} vs {target_tiles.shape}"
        )
    if input_tiles.ndim not in (3, 4) or input_tiles.shape[0] == 0:
        raise ValidationError(f"bad tile stack shape {input_tiles.shape}")
    s = input_tiles.shape[0]
    flat_in = input_tiles.reshape(s, -1).astype(np.int16)
    flat_tg = target_tiles.reshape(s, -1).astype(np.int16)
    if flat_in.shape[1] * flat_in.itemsize > device.shared_mem_per_block:
        raise GpuSimError(
            f"tile of {flat_in.shape[1]} px does not fit in "
            f"{device.shared_mem_per_block} B of shared memory"
        )
    gmem = GlobalMemory()
    gmem.upload("input_tiles", flat_in)
    gmem.upload("target_tiles", flat_tg)
    gmem.alloc("error_matrix", (s, s), ERROR_DTYPE)
    launch_kernel(
        device,
        gmem,
        error_row_kernel,
        grid_dim=s,
        block_dim=min(block_dim, device.max_threads_per_block),
        stats=stats,
    )
    return gmem.download("error_matrix")
