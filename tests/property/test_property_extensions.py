"""Property-based tests for the brute-force oracle and the rectangular solver."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from repro.assignment.bruteforce import BruteForceSolver
from repro.assignment.rectangular import solve_rectangular
from repro.localsearch import local_search_parallel, local_search_serial

tiny_matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(
        st.shared(st.integers(min_value=1, max_value=6), key="tn"),
        st.shared(st.integers(min_value=1, max_value=6), key="tn"),
    ),
    elements=st.integers(min_value=0, max_value=500),
)


@given(tiny_matrices)
@settings(max_examples=30, deadline=None)
def test_bruteforce_is_true_lower_bound(m):
    """The S! oracle lower-bounds both 2-opt algorithms' results."""
    oracle = BruteForceSolver().solve(m).total
    assert local_search_serial(m).total >= oracle
    assert local_search_parallel(m).total >= oracle


@st.composite
def rect_costs(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=rows))
    return draw(
        arrays(
            dtype=np.int64,
            shape=(rows, cols),
            elements=st.integers(min_value=0, max_value=1000),
        )
    )


@given(rect_costs())
@settings(max_examples=40, deadline=None)
def test_rectangular_matches_scipy(costs):
    choice, total = solve_rectangular(costs)
    rows, cols = linear_sum_assignment(costs)
    assert total == int(costs[rows, cols].sum())
    assert len(np.unique(choice)) == choice.size
    assert total == int(costs[choice, np.arange(costs.shape[1])].sum())


@given(rect_costs(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_rectangular_shift_invariance(costs, shift):
    """Adding a constant shifts the optimum by cols*shift."""
    _, base = solve_rectangular(costs)
    _, shifted = solve_rectangular(costs + shift)
    assert shifted == base + costs.shape[1] * shift
