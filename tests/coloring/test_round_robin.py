"""Tests for the circle-method edge colouring (paper Theorem 1)."""

from __future__ import annotations

import pytest

from repro.coloring.groups import build_edge_groups, verify_color_classes
from repro.exceptions import ValidationError


def _pair_lists(n, *, order="paper"):
    """The colour classes of ``K_n`` as lists of 0-indexed pairs."""
    return build_edge_groups(n, order=order).as_pair_lists()


# The paper's published K_16 colouring (Section IV-B), converted to
# 0-indexed pairs.  P_16 is the empty set.
PAPER_K16 = [
    [(0, 1), (2, 14), (3, 13), (4, 12), (5, 11), (6, 10), (7, 9), (8, 15)],
    [(0, 3), (1, 2), (4, 14), (5, 13), (6, 12), (7, 11), (8, 10), (9, 15)],
    [(0, 5), (1, 4), (2, 3), (6, 14), (7, 13), (8, 12), (9, 11), (10, 15)],
    [(0, 7), (1, 6), (2, 5), (3, 4), (8, 14), (9, 13), (10, 12), (11, 15)],
    [(0, 9), (1, 8), (2, 7), (3, 6), (4, 5), (10, 14), (11, 13), (12, 15)],
    [(0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6), (12, 14), (13, 15)],
    [(0, 13), (1, 12), (2, 11), (3, 10), (4, 9), (5, 8), (6, 7), (14, 15)],
    [(0, 15), (1, 14), (2, 13), (3, 12), (4, 11), (5, 10), (6, 9), (7, 8)],
    [(0, 2), (1, 15), (3, 14), (4, 13), (5, 12), (6, 11), (7, 10), (8, 9)],
    [(0, 4), (1, 3), (2, 15), (5, 14), (6, 13), (7, 12), (8, 11), (9, 10)],
    [(0, 6), (1, 5), (2, 4), (3, 15), (7, 14), (8, 13), (9, 12), (10, 11)],
    [(0, 8), (1, 7), (2, 6), (3, 5), (4, 15), (9, 14), (10, 13), (11, 12)],
    [(0, 10), (1, 9), (2, 8), (3, 7), (4, 6), (5, 15), (11, 14), (12, 13)],
    [(0, 12), (1, 11), (2, 10), (3, 9), (4, 8), (5, 7), (6, 15), (13, 14)],
    [(0, 14), (1, 13), (2, 12), (3, 11), (4, 10), (5, 9), (6, 8), (7, 15)],
    [],
]


class TestPaperExample:
    def test_reproduces_published_k16_listing(self):
        """The exact P_1..P_16 listing from Section IV-B."""
        classes = _pair_lists(16, order="paper")
        assert [sorted(c) for c in classes] == [sorted(c) for c in PAPER_K16]

    def test_round_order_same_partition(self):
        paper = _pair_lists(16, order="paper")
        rounds = _pair_lists(16, order="round")
        assert {frozenset(c) for c in paper} == {frozenset(c) for c in rounds}


class TestTheorem1:
    @pytest.mark.parametrize("n", [2, 4, 6, 16, 64, 100, 256])
    def test_even_n_uses_n_minus_1_colors(self, n):
        classes = _pair_lists(n)
        nonempty = [c for c in classes if c]
        assert len(nonempty) == n - 1
        # Even-n convention: trailing empty class so there are S groups.
        assert classes[-1] == []

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 63, 101])
    def test_odd_n_uses_n_colors(self, n):
        classes = _pair_lists(n)
        nonempty = [c for c in classes if c]
        assert len(nonempty) == n

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 17, 64, 100])
    def test_valid_coloring(self, n):
        verify_color_classes(build_edge_groups(n).classes, n)

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_even_classes_are_perfect_matchings(self, n):
        for pairs in _pair_lists(n):
            if pairs:
                assert len(pairs) == n // 2

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_classes_leave_one_bye(self, n):
        for pairs in _pair_lists(n):
            assert len(pairs) == (n - 1) // 2


class TestEdgeCases:
    def test_n1(self):
        assert _pair_lists(1) == [[]]

    def test_n2(self):
        classes = _pair_lists(2)
        assert [c for c in classes if c] == [[(0, 1)]]

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            build_edge_groups(0)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValidationError, match="order"):
            build_edge_groups(8, order="lexicographic")

    def test_pairs_normalised(self):
        for pairs in _pair_lists(17):
            for u, v in pairs:
                assert u < v
