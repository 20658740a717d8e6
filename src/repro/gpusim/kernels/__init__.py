"""Kernels of paper Section V, written against the virtual-GPU API."""

from __future__ import annotations

from repro.gpusim.kernels.error_kernel import error_matrix_gpu
from repro.gpusim.kernels.swap_kernel import run_swap_class_on_device

__all__ = [
    "error_matrix_gpu",
    "run_swap_class_on_device",
]
