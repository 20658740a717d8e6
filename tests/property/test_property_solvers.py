"""Property-based differential tests for the assignment solvers."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.assignment import get_solver, verify_optimality_certificate

matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(
        st.shared(st.integers(min_value=1, max_value=14), key="n"),
        st.shared(st.integers(min_value=1, max_value=14), key="n"),
    ),
    elements=st.integers(min_value=0, max_value=10_000),
)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_all_exact_solvers_agree(m):
    reference = get_solver("scipy").solve(m).total
    assert get_solver("hungarian").solve(m).total == reference


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_duals_always_certify(m):
    result = get_solver("hungarian").solve(m)
    assert verify_optimality_certificate(result, m)


@given(matrices, st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_constant_shift_invariance(m, shift):
    """Adding a constant to every entry shifts the optimum by n*shift and
    preserves (an) optimal permutation's cost structure."""
    n = m.shape[0]
    base = get_solver("hungarian").solve(m)
    shifted = get_solver("hungarian").solve(m + shift)
    assert shifted.total == base.total + n * shift


@given(matrices)
@settings(max_examples=30, deadline=None)
def test_row_permutation_equivariance(m):
    """Permuting input rows permutes the solution without changing cost."""
    rng = np.random.default_rng(0)
    n = m.shape[0]
    sigma = rng.permutation(n)
    base = get_solver("scipy").solve(m).total
    assert get_solver("scipy").solve(m[sigma]).total == base
