"""Property-based tests for the circle-method edge colouring."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.groups import build_edge_groups, verify_color_classes


@given(st.integers(min_value=1, max_value=120), st.sampled_from(["paper", "round"]))
@settings(max_examples=60)
def test_always_valid_coloring(n, order):
    """Theorem 1 invariants hold for every n and both orderings."""
    verify_color_classes(build_edge_groups(n, order=order).classes, n)


@given(st.integers(min_value=2, max_value=120))
@settings(max_examples=60)
def test_class_count_matches_theorem(n):
    classes = build_edge_groups(n).as_pair_lists()
    nonempty = sum(1 for c in classes if c)
    if n % 2 == 0:
        assert nonempty == n - 1
    else:
        assert nonempty == n


@given(st.integers(min_value=2, max_value=80))
@settings(max_examples=40)
def test_every_vertex_appears_in_every_full_class(n):
    """For even n each class is a perfect matching: all vertices used."""
    classes = build_edge_groups(n).as_pair_lists()
    for pairs in classes:
        if not pairs:
            continue
        used = {v for pair in pairs for v in pair}
        if n % 2 == 0:
            assert used == set(range(n))
        else:
            assert len(used) == n - 1  # one bye vertex
