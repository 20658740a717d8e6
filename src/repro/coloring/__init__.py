"""Edge colouring of complete graphs (paper Theorem 1, Section IV-B)."""

from __future__ import annotations

from repro.coloring.groups import EdgeGroups, build_edge_groups, verify_color_classes

__all__ = [
    "EdgeGroups",
    "build_edge_groups",
    "verify_color_classes",
]
