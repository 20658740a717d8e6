"""Property-based differential tests: virtual-GPU kernels vs host code."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cost.matrix import error_matrix
from repro.gpusim.kernels.error_kernel import error_matrix_gpu
from repro.gpusim.kernels.swap_kernel import run_swap_class_on_device
from tests.localsearch.class_oracle import commit_class


@st.composite
def stack_pairs(draw):
    s = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.sampled_from([1, 2, 4]))
    elements = st.integers(min_value=0, max_value=255)
    a = draw(arrays(dtype=np.uint8, shape=(s, m, m), elements=elements))
    b = draw(arrays(dtype=np.uint8, shape=(s, m, m), elements=elements))
    return a, b


@given(stack_pairs(), st.sampled_from([1, 3, 32]))
@settings(max_examples=30, deadline=None)
def test_error_kernel_bit_equal_to_host(pair, block_dim):
    a, b = pair
    assert (error_matrix_gpu(a, b, block_dim=block_dim) == error_matrix(a, b)).all()


@st.composite
def class_instances(draw):
    """A matrix plus one disjoint pair class over its indices."""
    n = draw(st.integers(min_value=2, max_value=16))
    m = draw(
        arrays(
            dtype=np.int64,
            shape=(n, n),
            elements=st.integers(min_value=0, max_value=10_000),
        )
    )
    order = draw(st.permutations(list(range(n))))
    pair_count = draw(st.integers(min_value=0, max_value=n // 2))
    us = np.array(order[:pair_count], dtype=np.intp)
    vs = np.array(order[pair_count : 2 * pair_count], dtype=np.intp)
    return m, us, vs


@given(class_instances())
@settings(max_examples=40, deadline=None)
def test_swap_kernel_matches_vectorized_commit(instance):
    m, us, vs = instance
    n = m.shape[0]
    perm_gpu = np.arange(n, dtype=np.intp)
    perm_vec = np.arange(n, dtype=np.intp)
    swaps_gpu = run_swap_class_on_device(m, perm_gpu, us, vs)
    swaps_vec = commit_class(m, perm_vec, us, vs)
    assert swaps_gpu == swaps_vec
    assert (perm_gpu == perm_vec).all()


@given(class_instances())
@settings(max_examples=30, deadline=None)
def test_swap_kernel_never_increases_error(instance):
    m, us, vs = instance
    n = m.shape[0]
    perm = np.arange(n, dtype=np.intp)
    before = int(m[perm, np.arange(n)].sum())
    run_swap_class_on_device(m, perm, us, vs)
    after = int(m[perm, np.arange(n)].sum())
    assert after <= before
