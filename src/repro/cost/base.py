"""Cost-metric abstraction.

A :class:`CostMetric` turns a stack of tiles into a feature matrix and
defines the pairwise error between feature rows.  Splitting the metric into
``prepare`` + ``pairwise`` lets the error-matrix builder (Step 2) vectorise
and chunk uniformly across metrics, and lets the GPU-simulated kernel reuse
the same features.

Metrics must be *integer-valued and non-negative* so the assignment solvers
and local search can rely on exact arithmetic (no float drift when the paper
compares sums of errors in Algorithm 1's swap test).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ValidationError
from repro.types import ERROR_DTYPE, TileStack

__all__ = ["CostMetric", "register_metric", "get_metric"]


class CostMetric(ABC):
    """Pairwise tile error, the paper's ``E(I_u, T_v)`` (Eq. 1)."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def prepare(self, tiles: TileStack) -> np.ndarray:
        """Convert a ``(S, M, M[, 3])`` tile stack into ``(S, F)`` features."""

    @abstractmethod
    def pairwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        """Dense error block: ``out[i, j] = error(input_i, target_j)``.

        Shapes: ``input_features (A, F)``, ``target_features (B, F)`` ->
        ``(A, B)`` ``int64``.  Must be safe for arbitrary chunk sizes.
        """

    def rowwise(self, input_features: np.ndarray, target_features: np.ndarray) -> np.ndarray:
        """Aligned per-row errors: ``out[i] = error(input_i, target_i)``.

        The diagonal of :meth:`pairwise` computed in ``O(rows * F)``
        instead of materialising an ``O(rows^2 * F)`` block — this is
        what Eq. (2) evaluation actually needs.  The base fallback calls
        :meth:`pairwise` one row at a time (correct for any metric);
        the built-in metrics override it with vectorised kernels.
        """
        rows = input_features.shape[0]
        out = np.empty(rows, dtype=ERROR_DTYPE)
        for i in range(rows):
            out[i] = self.pairwise(
                input_features[i : i + 1], target_features[i : i + 1]
            )[0, 0]
        return out

    def tile_error(self, tile_a: np.ndarray, tile_b: np.ndarray) -> int:
        """Error between two single tiles (convenience wrapper)."""
        tile_a = np.asarray(tile_a)
        tile_b = np.asarray(tile_b)
        if tile_a.shape != tile_b.shape:
            raise ValidationError(
                f"tile shapes differ: {tile_a.shape} vs {tile_b.shape}"
            )
        fa = self.prepare(tile_a[None])
        fb = self.prepare(tile_b[None])
        return int(self.pairwise(fa, fb)[0, 0])

    @staticmethod
    def _as_error(block: np.ndarray) -> np.ndarray:
        """Round/validate a pairwise block to the canonical error dtype."""
        if np.issubdtype(block.dtype, np.floating):
            block = np.rint(block)
        block = block.astype(ERROR_DTYPE, copy=False)
        if (block < 0).any():
            raise ValidationError("cost metric produced negative errors")
        return block


_REGISTRY: dict[str, type[CostMetric]] = {}


def register_metric(cls: type[CostMetric]) -> type[CostMetric]:
    """Class decorator: register a metric under its ``name``."""
    if not issubclass(cls, CostMetric):
        raise ValidationError(f"{cls!r} is not a CostMetric subclass")
    if cls.name in _REGISTRY:
        raise ValidationError(f"duplicate metric name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_metric(name: str | CostMetric, **kwargs: object) -> CostMetric:
    """Resolve a metric by registry name (or pass an instance through).

    >>> get_metric("sad").name
    'sad'
    """
    if isinstance(name, CostMetric):
        return name
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValidationError(
            f"unknown cost metric {name!r} (available: {sorted(_REGISTRY)})"
        )
    return cls(**kwargs)  # type: ignore[call-arg]
