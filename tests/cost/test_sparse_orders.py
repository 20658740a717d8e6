"""Vectorised preference orders vs the per-row reference loop.

``_preference_orders`` was rewritten from a per-input-tile Python loop to
row blocks (a stable argsort by sketch distance, then a stable argsort by
block key: 0 for the head clusters, else the cluster's centroid rank).
The rewrite must be **bit-identical**, ties included, because the
degree-capped selection and every sparse differential consume the full
orders.  This suite keeps the original loop as an executable
specification and diffs the two on random and heavily tied sketches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.sparse import _preference_orders
from repro.library.shortlist import kmeans


def _reference_orders(sketch_in, sketch_tg, *, clusters, probes, head_width, seed):
    """The pre-vectorisation per-row loop, kept as the specification."""

    def sq_dist_rows(point, others):
        diff = others - point[None, :]
        return np.einsum("nf,nf->n", diff, diff)

    s = sketch_tg.shape[0]
    if clusters == 0:
        clusters = max(1, int(round(s**0.5)))
    clusters = min(clusters, s)
    centroids, labels = kmeans(sketch_tg, clusters, seed=seed)
    members = [np.flatnonzero(labels == c) for c in range(clusters)]
    probes = max(1, min(probes, clusters))
    orders = np.empty((s, s), dtype=np.int64)
    for u in range(s):
        cluster_rank = np.argsort(
            sq_dist_rows(sketch_in[u], centroids), kind="stable"
        )
        head_count = 0
        covered = 0
        for rank, c in enumerate(cluster_rank):
            covered += members[c].size
            head_count = rank + 1
            if head_count >= probes and covered >= head_width:
                break
        head = np.concatenate([members[c] for c in cluster_rank[:head_count]])
        dist = sq_dist_rows(sketch_in[u], sketch_tg[head])
        parts = [head[np.lexsort((head, dist))]]
        for c in cluster_rank[head_count:]:
            m = members[c]
            dist = sq_dist_rows(sketch_in[u], sketch_tg[m])
            parts.append(m[np.lexsort((m, dist))])
        orders[u] = np.concatenate(parts)
    return orders, clusters


def _sketches(s: int, f: int, seed: int, tied: bool):
    rng = np.random.default_rng(seed)
    if tied:  # few distinct values: many equal distances
        return (
            rng.integers(0, 3, (s, f)).astype(np.float64),
            rng.integers(0, 3, (s, f)).astype(np.float64),
        )
    return rng.random((s, f)), rng.random((s, f))


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("s,f", [(1, 4), (2, 1), (37, 3), (100, 16), (256, 21)])
@pytest.mark.parametrize(
    "clusters,probes,head_width", [(0, 2, 32), (3, 1, 4), (1, 1, 1), (0, 5, 1000)]
)
def test_matches_reference(s, f, tied, clusters, probes, head_width):
    sketch_in, sketch_tg = _sketches(s, f, seed=s * 31 + f, tied=tied)
    kwargs = dict(
        clusters=clusters, probes=probes, head_width=min(s, head_width), seed=7
    )
    orders, n_clusters = _preference_orders(sketch_in, sketch_tg, **kwargs)
    expected, expected_clusters = _reference_orders(sketch_in, sketch_tg, **kwargs)
    assert n_clusters == expected_clusters
    assert orders.dtype == expected.dtype
    np.testing.assert_array_equal(orders, expected)


def test_row_blocks_do_not_change_orders(monkeypatch):
    """Orders are a pure per-row function: the block size cannot matter."""
    import repro.cost.sparse as sparse

    sketch_in, sketch_tg = _sketches(64, 8, seed=3, tied=True)
    kwargs = dict(clusters=0, probes=2, head_width=16, seed=1)
    whole, _ = _preference_orders(sketch_in, sketch_tg, **kwargs)
    monkeypatch.setattr(sparse, "ORDER_BLOCK_ELEMENTS", 1)
    one_row_at_a_time, _ = _preference_orders(sketch_in, sketch_tg, **kwargs)
    np.testing.assert_array_equal(whole, one_row_at_a_time)
