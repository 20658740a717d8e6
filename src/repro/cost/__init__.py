"""Tile-error model: cost metrics and error-matrix computation (Step 2).

One Step-2 kernel path serves every caller: :func:`error_matrix` (dense)
and :func:`sparse_error_matrix` (shortlisted, delegating to the dense
path when ``top_k >= S``) both evaluate the metric's own
:meth:`~repro.cost.base.CostMetric.pairwise` /
:meth:`~repro.cost.base.CostMetric.rowwise` kernels.  The default SAD
metric's pairwise kernel runs pixel-major over cache-resident blocks of
``(u, v)`` lanes, the host analogue of the paper's Section-V kernel.
"""

from __future__ import annotations

from repro.cost.base import CostMetric, get_metric, register_metric
from repro.cost.color import WeightedColorMetric
from repro.cost.gradient import GradientMetric
from repro.cost.luminance import LuminanceMetric
from repro.cost.matrix import (
    check_tile_stacks,
    error_matrix,
    total_error,
    total_error_of_permutation,
)
from repro.cost.reference import error_matrix_reference, tile_error_reference
from repro.cost.sad import SADMetric
from repro.cost.sketch import SKETCH_KINDS, sketch_features
from repro.cost.sparse import (
    DEFAULT_TOP_K,
    SparseErrorMatrix,
    sparse_error_matrix,
)
from repro.cost.ssd import SSDMetric

__all__ = [
    "CostMetric",
    "get_metric",
    "register_metric",
    "SADMetric",
    "SSDMetric",
    "LuminanceMetric",
    "WeightedColorMetric",
    "GradientMetric",
    "check_tile_stacks",
    "error_matrix",
    "total_error",
    "total_error_of_permutation",
    "error_matrix_reference",
    "tile_error_reference",
    "SKETCH_KINDS",
    "sketch_features",
    "DEFAULT_TOP_K",
    "SparseErrorMatrix",
    "sparse_error_matrix",
]
