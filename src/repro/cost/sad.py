"""Sum-of-absolute-differences metric — the paper's Eq. (1).

``E(I_u, T_v) = sum_{i,j} |I_u[i,j] - T_v[i,j]|``.  Colour tiles flatten
their channels into the feature vector, which is exactly the "only change
the error function" colour extension the paper sketches in Section II.
"""

from __future__ import annotations

import numpy as np

from repro.cost.base import CostMetric, register_metric
from repro.types import TileStack

__all__ = ["SADMetric"]

#: Scratch size of the pairwise kernel's row blocks, in int16 elements.
#: 1 Mi elements is ~2 MiB — L2-class on current hardware, so each
#: block's broadcast intermediate is written and reduced while it is
#: still cache-resident.  At S=1024, F=256 this is 4 input rows per block.
BLOCK_ELEMENTS = 1024 * 1024


@register_metric
class SADMetric(CostMetric):
    """Per-pixel L1 tile error (paper Eq. 1)."""

    name = "sad"

    def prepare(self, tiles: TileStack) -> np.ndarray:
        tiles = np.asarray(tiles)
        # int16 is the narrowest dtype whose subtraction cannot overflow for
        # uint8 pixels; halving feature width doubles effective cache reach
        # in the pairwise kernel (the guides' cache-effects rule).
        return tiles.reshape(tiles.shape[0], -1).astype(np.int16)

    def pairwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        """Cache-resident SAD block: ``out[i, j] = sum |a_i - b_j|``.

        The host analogue of the paper's Step-2 kernel (Section V), where
        each block stages tile ``I_u`` in fast memory and sweeps every
        target against it: input rows are swept in blocks whose ``(rows,
        B, F)`` int16 broadcast intermediate stays near
        :data:`BLOCK_ELEMENTS`, and every block reuses one scratch
        buffer.  A fresh broadcast block per call is what makes a wide
        one-shot kernel memory-bound; the per-element arithmetic is
        unchanged, so values are identical for any block partition.
        Allocation goes through the ufunc and ``empty_like``, so CuPy
        inputs keep their scratch and output on the device.
        """
        rows = input_features.shape[0]
        width = target_features.shape[0]
        out = np.empty_like(input_features, shape=(rows, width), dtype=np.int64)
        step = max(1, BLOCK_ELEMENTS // max(1, width * input_features.shape[1]))
        scratch = None
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            pairs = (input_features[start:stop, None, :], target_features[None, :, :])
            if scratch is None:
                scratch = np.subtract(*pairs)
                block = scratch
            else:
                block = scratch[: stop - start]
                np.subtract(*pairs, out=block)
            np.abs(block, out=block)
            np.sum(block, axis=2, dtype=np.int64, out=out[start:stop])
        return self._as_error(out)

    def rowwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        diff = np.abs(input_features - target_features)
        return self._as_error(diff.sum(axis=1, dtype=np.int64))
