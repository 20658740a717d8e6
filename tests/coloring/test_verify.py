"""Tests for edge-colouring verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring.groups import verify_color_classes
from repro.exceptions import ValidationError


def _packed(pair_lists):
    """Hand-written pair lists in the ``EdgeGroups.classes`` array form."""
    return tuple(
        (
            np.array([u for u, _ in pairs], dtype=np.intp),
            np.array([v for _, v in pairs], dtype=np.intp),
        )
        for pairs in pair_lists
    )


def test_accepts_valid_k4():
    classes = [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
    verify_color_classes(_packed(classes), 4)


def test_rejects_shared_vertex_in_class():
    classes = [[(0, 1), (1, 2)], [(0, 2), (1, 3)], [(0, 3), (2, 3)]]
    with pytest.raises(ValidationError, match="matching"):
        verify_color_classes(_packed(classes), 4)


def test_rejects_missing_edge():
    classes = [[(0, 1), (2, 3)], [(0, 2), (1, 3)]]  # (0,3),(1,2) missing
    with pytest.raises(ValidationError, match="covers"):
        verify_color_classes(_packed(classes), 4)


def test_rejects_duplicate_edge():
    classes = [
        [(0, 1), (2, 3)],
        [(0, 2), (1, 3)],
        [(0, 3), (1, 2)],
        [(0, 1)],
    ]
    with pytest.raises(ValidationError):
        verify_color_classes(_packed(classes), 4)


def test_rejects_unnormalised_pair():
    classes = [[(1, 0), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
    with pytest.raises(ValidationError, match="unnormalised"):
        verify_color_classes(_packed(classes), 4)


def test_rejects_out_of_range_vertex():
    classes = [[(0, 4)]]
    with pytest.raises(ValidationError):
        verify_color_classes(_packed(classes), 4)


def test_rejects_too_many_classes():
    classes = [[] for _ in range(6)]
    with pytest.raises(ValidationError, match="Theorem 1"):
        verify_color_classes(_packed(classes), 5)
