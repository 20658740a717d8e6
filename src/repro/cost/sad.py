"""Sum-of-absolute-differences metric — the paper's Eq. (1).

``E(I_u, T_v) = sum_{i,j} |I_u[i,j] - T_v[i,j]|``.  Colour tiles flatten
their channels into the feature vector, which is exactly the "only change
the error function" colour extension the paper sketches in Section II.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cost.base import CostMetric, register_metric
from repro.types import TileStack

__all__ = ["SADMetric"]

#: Scratch size of one pairwise lane block, in int16 elements.  320 Ki
#: elements is 640 KiB, so each block's differences are written, folded
#: through ``abs`` and reduced while they are still in a 2 MiB L2; sizes
#: from 256 Ki to 512 Ki measured within noise of each other
#: (docs/performance.md).
BLOCK_ELEMENTS = 320 * 1024


@register_metric
class SADMetric(CostMetric):
    """Per-pixel L1 tile error (paper Eq. 1)."""

    name = "sad"

    def prepare(self, tiles: TileStack) -> np.ndarray:
        tiles = np.asarray(tiles)
        # int16 is the narrowest dtype whose subtraction cannot overflow for
        # uint8 pixels; the pairwise kernel's scratch blocks are int16 too,
        # so a block of 320 Ki differences stays L2-resident.
        return tiles.reshape(tiles.shape[0], -1).astype(np.int16)

    def pairwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        """Pixel-major SAD block: ``out[i, j] = sum |a_i - b_j|``.

        The host form of the paper's Step-2 kernel (Section V), where
        one GPU thread owns one ``E[u, v]`` and all threads step through
        the ``M^2`` pixels in lock step.  Both stacks are transposed
        once to pixel-major; then for each block of ``(i, j)`` lanes and
        each chunk of pixels, one reused int16 scratch ``(chunk, rows,
        cols)`` takes the broadcast difference and its ``abs``, and a
        reduce over axis 0 adds contiguous lane slabs.

        Exact narrow accumulation: every ``|a - b|`` is at most ``peak``,
        the max minus the min over both stacks (255 for uint8 tiles), so
        a chunk of ``65535 // peak`` pixels sums into uint16 without
        overflow.  Chunk sums are added into the int64 result.  The
        arithmetic is integer throughout, so values are identical for
        any blocking.

        A block with few target columns would make short vector loops,
        so when a block has fewer columns than the split, pixel ``p`` of
        each pair goes to sub-lane ``p % split`` (the innermost axis),
        and the sub-lane sums are added per chunk — the split-K of a GPU
        kernel with too few output cells.  Allocation goes through
        ufuncs, ``empty_like`` and array methods, so CuPy inputs keep
        their scratch and output on the device.
        """
        rows, f = input_features.shape
        width = target_features.shape[0]
        out = np.empty_like(input_features, shape=(rows, width), dtype=np.int64)
        if out.size == 0 or f == 0:
            out.fill(0)
            return out
        lo = min(input_features.min(), target_features.min())
        hi = max(input_features.max(), target_features.max())
        # Largest power of two dividing F with split**2 <= F: one pixel row
        # of an M x M grey tile, so the uint16 chunk keeps a real depth.
        split = f & -f
        while split * split > f:
            split //= 2
        if split <= width:
            split = 1
        # (depth, lanes, split): pixel p = k * split + s sits at [k, :, s].
        a = input_features.reshape(rows, -1, split).transpose(1, 0, 2).copy()
        b = target_features.reshape(width, -1, split).transpose(1, 0, 2).copy()
        depth = a.shape[0]
        chunk = min(depth, np.iinfo(np.uint16).max // max(1, int(hi) - int(lo)))
        cols = max(1, min(width, BLOCK_ELEMENTS // (chunk * split)))
        step = max(1, min(rows, BLOCK_ELEMENTS // (chunk * split * cols)))
        scratch = np.empty_like(a, shape=(chunk * step * cols * split,))
        sums = np.empty_like(a, dtype=np.uint16, shape=(step * cols * split,))
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            for c0 in range(0, width, cols):
                c1 = min(c0 + cols, width)
                lanes = out[r0:r1, c0:c1]
                shape = (r1 - r0, c1 - c0, split)
                acc = sums[: math.prod(shape)].reshape(shape)
                for k0 in range(0, depth, chunk):
                    k1 = min(k0 + chunk, depth)
                    block = scratch[: (k1 - k0) * acc.size].reshape(k1 - k0, *shape)
                    np.subtract(a[k0:k1, r0:r1, None], b[k0:k1, None, c0:c1], out=block)
                    np.abs(block, out=block)
                    block.view(np.uint16).sum(axis=0, dtype=np.uint16, out=acc)
                    part = acc.sum(axis=2, dtype=np.int64) if split > 1 else acc[..., 0]
                    if k0:
                        lanes += part
                    else:
                        lanes[...] = part
        return self._as_error(out)

    def rowwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        diff = np.abs(input_features - target_features)
        return self._as_error(diff.sum(axis=1, dtype=np.int64))
