"""Sparse Step 2 — shortlisted error matrices for sublinear candidate sets.

The dense ``S x S`` matrix from :func:`repro.cost.matrix.error_matrix`
dominates poster-scale runs and grows quadratically.  This module builds
the sparse alternative the ROADMAP's "sublinear Step 2" item asks for:

1. sketch every tile in the metric's feature space
   (:mod:`repro.cost.sketch`);
2. cluster the *positions* (target tiles) with the seeded k-means from
   :mod:`repro.library.shortlist` and rank each input tile's preference
   over all positions — fine sketch-distance order inside the nearest
   clusters (the "head"), coarse centroid order beyond;
3. select ``top_k`` positions per input tile by a degree-capped
   round-robin over those preference orders (no position is shortlisted
   by more than ``top_k`` tiles), keeping the bipartite candidate graph
   ``top_k``-regular and therefore matchable — the property that keeps
   assignment quality inside the pinned envelope.  A plain per-row
   top-k concentrates candidates on popular positions and strands a
   quarter of the rows on sentinel fallbacks;
4. exact-score exactly the ``S * top_k`` selected pairs with the
   metric's kernel on the configured
   :class:`~repro.accel.backend.ArrayBackend`.

The result is a :class:`SparseErrorMatrix`: per-input-tile candidate
positions with their **exact** SAD/SSD costs — the approximation is only
in *which* pairs get scored, never in the scores themselves.  When
``top_k >= S`` the builder delegates to :func:`error_matrix` outright,
so the complete case is bit-identical to the dense path by construction
(the differential suite in ``tests/cost/test_sparse_differential.py``
pins this end to end).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.backend import ArrayBackend, get_backend
from repro.cost.base import CostMetric, get_metric
from repro.cost.matrix import DEFAULT_CHUNK_BUDGET, check_tile_stacks, error_matrix
from repro.cost.sketch import SKETCH_KINDS, sketch_features
from repro.exceptions import ValidationError
from repro.types import ERROR_DTYPE, ErrorMatrix, PermutationArray, TileStack
from repro.utils.validation import check_permutation

__all__ = ["SparseErrorMatrix", "sparse_error_matrix", "DEFAULT_TOP_K"]

#: Default shortlist width when sparsity is enabled without an explicit k.
DEFAULT_TOP_K = 32

#: The fine-ranked head of each preference order covers this many times
#: ``top_k`` candidates (nearest k-means clusters, widened to cover it).
HEAD_FACTOR = 8

#: Broadcast elements per row block when ranking preference orders.
ORDER_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class SparseErrorMatrix:
    """Top-k candidate positions per input tile, exact-scored.

    Row ``u`` lists the candidate *positions* ``v`` (dense-matrix
    columns) considered for input tile ``u``, best-first under a stable
    sort, with ``costs[u, j] = E(I_u, T_{indices[u, j]})`` computed by
    the real metric — sparse in coverage, exact in value.

    Attributes
    ----------
    indices:
        ``(S, k)`` int64 candidate positions, unique within each row.
    costs:
        ``(S, k)`` exact errors aligned with ``indices``.
    features_in, features_tg:
        The metric-prepared ``(S, F)`` feature stacks, retained so
        consumers can exact-score pairs *outside* the shortlist (solver
        fallback rows, Eq. (2) totals) without re-tiling.  ``None`` when
        constructed from a bare matrix via :meth:`from_dense`.
    metric_name:
        Registry name of the metric that produced ``costs``.
    meta:
        Build diagnostics — ``pairs_evaluated``, ``pairs_total``,
        ``sketch``, ``clusters``, ``probes``, ``seed``, ``backend``.
    """

    indices: np.ndarray
    costs: np.ndarray
    metric_name: str = "sad"
    features_in: np.ndarray | None = None
    features_tg: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices)
        costs = np.asarray(self.costs)
        if (
            indices.ndim != 2
            or indices.shape != costs.shape
            or indices.shape[0] == 0
            or indices.shape[1] == 0
        ):
            raise ValidationError(
                f"sparse matrix needs matching non-empty (S, k) index/cost "
                f"arrays, got {indices.shape} and {costs.shape}"
            )
        s, k = indices.shape
        if k > s:
            raise ValidationError(f"top_k {k} exceeds size {s}")
        if indices.min() < 0 or indices.max() >= s:
            raise ValidationError(
                f"candidate positions must lie in [0, {s}), got range "
                f"[{indices.min()}, {indices.max()}]"
            )
        sorted_rows = np.sort(indices, axis=1)
        if (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any():
            raise ValidationError("candidate rows must not repeat a position")
        if (costs < 0).any():
            raise ValidationError("sparse costs must be non-negative")
        object.__setattr__(
            self, "indices", indices.astype(np.int64, copy=False)
        )
        object.__setattr__(self, "costs", costs.astype(ERROR_DTYPE, copy=False))

    # -- shape ---------------------------------------------------------
    @property
    def size(self) -> int:
        """``S``: side length of the dense matrix this approximates."""
        return self.indices.shape[0]

    @property
    def top_k(self) -> int:
        return self.indices.shape[1]

    @property
    def complete(self) -> bool:
        """True when every dense entry is present (``top_k == S``)."""
        return self.top_k == self.size

    # -- densification -------------------------------------------------
    def sentinel(self) -> int:
        """A cost strictly worse than every shortlisted pair."""
        return int(self.costs.max()) + 1

    def mask(self) -> np.ndarray:
        """Boolean ``(S, S)``, True where ``(u, v)`` was shortlisted."""
        out = np.zeros((self.size, self.size), dtype=bool)
        rows = np.repeat(np.arange(self.size), self.top_k)
        out[rows, self.indices.ravel()] = True
        return out

    def to_dense(self, fill: int | None = None) -> ErrorMatrix:
        """Scatter back to a dense matrix; missing entries get ``fill``.

        With ``top_k == S`` every entry is present and the result is the
        exact dense matrix (scatter order is irrelevant because rows hold
        unique positions), so sparse -> dense round-trips bit-identically.
        Incomplete matrices default ``fill`` to :meth:`sentinel`, which
        any cost-minimising consumer avoids whenever a candidate exists.
        """
        if fill is None:
            fill = self.sentinel()
        out = np.full((self.size, self.size), int(fill), dtype=ERROR_DTYPE)
        rows = np.repeat(np.arange(self.size), self.top_k)
        out[rows, self.indices.ravel()] = self.costs.ravel()
        return out

    @classmethod
    def from_dense(
        cls,
        matrix: ErrorMatrix,
        top_k: int,
        *,
        metric_name: str = "sad",
        features_in: np.ndarray | None = None,
        features_tg: np.ndarray | None = None,
        meta: dict | None = None,
    ) -> "SparseErrorMatrix":
        """Keep each row's ``top_k`` cheapest positions of a dense matrix.

        Stable argsort, so ties keep ascending position order — the same
        tie-break the dense solvers see.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"from_dense needs a square matrix, got shape {matrix.shape}"
            )
        s = matrix.shape[0]
        if not 1 <= top_k <= s:
            raise ValidationError(f"top_k must be in 1..{s}, got {top_k}")
        order = np.argsort(matrix, axis=1, kind="stable")[:, :top_k]
        costs = np.take_along_axis(matrix, order, axis=1)
        return cls(
            indices=order.astype(np.int64),
            costs=costs,
            metric_name=metric_name,
            features_in=features_in,
            features_tg=features_tg,
            meta=dict(meta or {}),
        )

    # -- exact scoring beyond the shortlist ----------------------------
    def score_pairs(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Exact costs for arbitrary ``(u, v)`` pairs via stored features.

        Runs the metric's :meth:`~repro.cost.base.CostMetric.rowwise`
        kernel, so fallback edges and Eq. (2) totals use the same exact
        arithmetic as the dense matrix — never the sentinel fill.
        """
        if self.features_in is None or self.features_tg is None:
            raise ValidationError(
                "this SparseErrorMatrix carries no features; exact scoring "
                "outside the shortlist needs one built by sparse_error_matrix"
            )
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        metric = get_metric(self.metric_name)
        return metric.rowwise(self.features_in[rows], self.features_tg[cols])

    def exact_total(self, permutation: PermutationArray) -> int:
        """Paper Eq. (2) for ``p``, exact even off-shortlist."""
        perm = check_permutation(permutation, self.size)
        cols = np.arange(self.size, dtype=np.intp)
        return int(self.score_pairs(perm, cols).sum(dtype=np.int64))


def sparse_error_matrix(
    input_tiles: TileStack,
    target_tiles: TileStack,
    metric: str | CostMetric = "sad",
    *,
    top_k: int = DEFAULT_TOP_K,
    sketch: str = "mean",
    clusters: int = 0,
    probes: int = 2,
    seed: int | None = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    backend: str | ArrayBackend | None = None,
) -> SparseErrorMatrix:
    """Shortlisted Step-2 matrix: exact costs on a sketch-pruned pair set.

    Parameters
    ----------
    input_tiles, target_tiles:
        Tile stacks of identical shape ``(S, M, M[, 3])``.
    metric:
        Cost-metric registry name or instance (exact scorer).
    top_k:
        Candidate positions kept per input tile.  ``top_k >= S``
        short-circuits to the dense :func:`error_matrix` — bit-identical
        to the exact path, with every position listed per row.
    sketch:
        Sketch kind from :data:`repro.cost.sketch.SKETCH_KINDS` used for
        clustering and probing; never used for final costs.
    clusters:
        k-means cluster count over positions (0 = ``round(sqrt(S))``).
    probes:
        Minimum nearest clusters fine-ranked per input tile; the head
        widens automatically until it covers ``HEAD_FACTOR * top_k``
        candidates.
    seed:
        Seed for the k-means initialisation (fully deterministic per
        seed; ``None`` draws fresh entropy).
    chunk_budget, backend:
        As in :func:`error_matrix`; exact scoring runs on the same
        pluggable array backend.
    """
    check_tile_stacks(input_tiles, target_tiles)
    metric = get_metric(metric)
    if sketch not in SKETCH_KINDS:
        raise ValidationError(
            f"unknown sketch kind {sketch!r} (use one of {SKETCH_KINDS})"
        )
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    features_in = metric.prepare(np.asarray(input_tiles))
    features_tg = metric.prepare(np.asarray(target_tiles))
    s = features_in.shape[0]
    xb = get_backend(backend)
    base_meta = {
        "size": s,
        "sketch": sketch,
        "seed": seed,
        "backend": xb.name,
        "pairs_total": s * s,
    }

    if top_k >= s:
        # Complete case: compute the dense matrix through the exact
        # Step-2 builder so totals, assignments and renders are
        # bit-identical to a non-sparse run, then list every position.
        dense = error_matrix(
            input_tiles,
            target_tiles,
            metric,
            chunk_budget=chunk_budget,
            backend=xb,
        )
        return SparseErrorMatrix.from_dense(
            dense,
            s,
            metric_name=metric.name,
            features_in=features_in,
            features_tg=features_tg,
            meta={
                **base_meta,
                "top_k": s,
                "clusters": 0,
                "probes": 0,
                "pairs_evaluated": s * s,
                "complete": True,
            },
        )

    # Sketch both stacks in the metric's feature space.  PCA fits one
    # shared basis over the combined cloud so input and position sketches
    # live in the same coordinates.
    basis = (
        np.concatenate([features_in, features_tg], axis=0)
        if sketch == "pca"
        else None
    )
    sketch_in = sketch_features(features_in, sketch, basis_features=basis)
    sketch_tg = sketch_features(features_tg, sketch, basis_features=basis)

    orders, n_clusters = _preference_orders(
        sketch_in,
        sketch_tg,
        clusters=clusters,
        probes=probes,
        head_width=min(s, HEAD_FACTOR * top_k),
        seed=seed,
    )
    indices = _degree_capped_select(orders, top_k)

    # Exact-score exactly the selected pairs (S * top_k metric
    # evaluations) on the array backend, then order each row best-first.
    rows = np.repeat(np.arange(s, dtype=np.intp), top_k)
    flat_cols = indices.ravel().astype(np.intp)
    costs = _score_pairs_chunked(
        metric, xb, features_in, features_tg, rows, flat_cols, chunk_budget
    )
    costs = costs.reshape(s, top_k)
    best = np.argsort(costs, axis=1, kind="stable")
    return SparseErrorMatrix(
        indices=np.take_along_axis(indices, best, axis=1),
        costs=np.take_along_axis(costs, best, axis=1),
        metric_name=metric.name,
        features_in=features_in,
        features_tg=features_tg,
        meta={
            **base_meta,
            "top_k": top_k,
            "clusters": n_clusters,
            "probes": probes,
            "pairs_evaluated": s * top_k,
            "complete": False,
        },
    )


def _score_pairs_chunked(
    metric: CostMetric,
    xb: ArrayBackend,
    features_in: np.ndarray,
    features_tg: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    chunk_budget: int,
) -> np.ndarray:
    """Exact metric costs for a flat ``(rows, cols)`` pair list.

    Runs the metric's rowwise kernel in backend chunks sized by
    ``chunk_budget`` scalar elements.  The kernel is row-independent, so
    any chunk partition produces bit-identical costs.
    """
    n = int(rows.shape[0])
    if xb.is_numpy:
        fin, ftg = features_in, features_tg
    else:
        fin, ftg = xb.asarray(features_in), xb.asarray(features_tg)
    costs = np.empty(n, dtype=ERROR_DTYPE)
    step = max(1, int(chunk_budget // max(1, features_in.shape[1])))
    for start in range(0, n, step):
        stop = min(start + step, n)
        r = rows[start:stop]
        c = cols[start:stop]
        if not xb.is_numpy:
            r, c = xb.asarray(r), xb.asarray(c)
        costs[start:stop] = np.asarray(
            xb.to_numpy(metric.rowwise(fin[r], ftg[c]))
        )
    return costs


def _sq_dists(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """``(P, N)`` squared sketch distances (deterministic: explicit
    broadcast, no BLAS reductions)."""
    diff = others[None, :, :] - points[:, None, :]
    return np.einsum("pnf,pnf->pn", diff, diff)


def _preference_orders(
    sketch_in: np.ndarray,
    sketch_tg: np.ndarray,
    *,
    clusters: int,
    probes: int,
    head_width: int,
    seed: int | None,
) -> tuple[np.ndarray, int]:
    """Per-input-tile full preference order over all positions.

    Positions are clustered (seeded k-means over their sketches); each
    input tile ranks the nearest clusters' members — at least ``probes``
    clusters, widened until ``head_width`` candidates are covered — by
    true sketch distance, and the remaining clusters coarsely, in
    centroid-distance order with members distance-ranked within each
    cluster.  Full-width orders are what lets the degree-capped
    selection always find ``top_k`` free positions per row; the cluster
    structure keeps the fine ranking effort concentrated near the head.
    All ties break on ascending position, so the order is a pure
    function of the sketches and the k-means seed.

    Rows are ranked in blocks: each position gets a block key (0 for the
    head clusters, else its cluster's centroid rank) and a row's order is
    a stable sort by distance, then a stable sort by block key.
    """
    from repro.library.shortlist import kmeans

    s = sketch_tg.shape[0]
    if clusters == 0:
        clusters = max(1, int(round(s**0.5)))
    clusters = min(clusters, s)
    centroids, labels = kmeans(sketch_tg, clusters, seed=seed)
    sizes = np.bincount(labels, minlength=clusters)
    probes = max(1, min(probes, clusters))
    # Small unsigned keys make the block sort a radix sort.
    ranks = np.arange(clusters, dtype=np.min_scalar_type(clusters))
    orders = np.empty((s, s), dtype=np.int64)
    step = max(1, ORDER_BLOCK_ELEMENTS // (s * sketch_tg.shape[1]))
    for start in range(0, s, step):
        points = sketch_in[start : start + step]
        cluster_rank = np.argsort(
            _sq_dists(points, centroids), axis=1, kind="stable"
        )
        covered = np.cumsum(sizes[cluster_rank], axis=1)
        enough = (ranks + 1 >= probes) & (covered >= head_width)
        head_count = np.where(
            enough.any(axis=1), enough.argmax(axis=1) + 1, clusters
        )
        rank_of = np.empty_like(cluster_rank, dtype=ranks.dtype)
        np.put_along_axis(rank_of, cluster_rank, ranks[None, :], axis=1)
        block = rank_of[:, labels]
        block[block < head_count[:, None]] = 0
        by_dist = np.argsort(_sq_dists(points, sketch_tg), axis=1, kind="stable")
        by_block = np.argsort(
            np.take_along_axis(block, by_dist, axis=1), axis=1, kind="stable"
        )
        orders[start : start + step] = np.take_along_axis(by_dist, by_block, axis=1)
    return orders, clusters


def _degree_capped_select(orders: np.ndarray, top_k: int) -> np.ndarray:
    """Pick ``top_k`` positions per row with column degree capped at
    ``top_k``.

    Round-robin by preference rank: each still-unsatisfied row advances
    one rank per round and claims the position if its cap allows.  The
    cap makes the selected bipartite graph (near-)``top_k``-regular —
    every position shortlisted for roughly ``top_k`` tiles — which is
    what keeps the downstream assignment feasible without sentinel
    fallbacks.  Rows that exhaust their order (possible only under heavy
    contention) fill remaining slots cap-free from their best unused
    positions, preserving the exactly-``top_k``-unique-per-row invariant.
    """
    s = orders.shape[0]
    degree = np.zeros(s, dtype=np.int64)
    counts = np.zeros(s, dtype=np.int64)
    selected = np.full((s, top_k), -1, dtype=np.int64)
    ptr = np.zeros(s, dtype=np.int64)
    # Vectorised round resolution.  The reference semantics (pinned by
    # the differential and Hypothesis suites) process active rows in
    # ascending order within each round, granting a claim on position
    # ``v`` while ``degree[v] < top_k``.  Within one round each row
    # claims exactly one position, so the sequential outcome is: the
    # first ``top_k - degree[v]`` claimants of ``v`` (in row order) win.
    # A stable argsort on the claimed positions groups claimants while
    # preserving row order, and a per-group rank against the remaining
    # capacity reproduces that outcome without the per-row Python loop.
    active = np.arange(s, dtype=np.int64)
    while active.size:
        wants = orders[active, ptr[active]]
        ptr[active] += 1
        by_position = np.argsort(wants, kind="stable")
        sorted_wants = wants[by_position]
        new_group = np.empty(active.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = sorted_wants[1:] != sorted_wants[:-1]
        positions_in_round = np.arange(active.size, dtype=np.int64)
        group_start = np.maximum.accumulate(
            np.where(new_group, positions_in_round, 0)
        )
        rank_in_group = positions_in_round - group_start
        granted = np.empty(active.size, dtype=bool)
        granted[by_position] = rank_in_group < top_k - degree[sorted_wants]
        winners = active[granted]
        won = wants[granted]
        selected[winners, counts[winners]] = won
        counts[winners] += 1
        np.add.at(degree, won, 1)
        active = active[(counts[active] < top_k) & (ptr[active] < s)]
    for u in np.flatnonzero(counts < top_k):
        used = set(selected[u, : counts[u]].tolist())
        for v in orders[u]:
            if int(v) not in used:
                selected[u, counts[u]] = v
                counts[u] += 1
                used.add(int(v))
                if counts[u] == top_k:
                    break
    return selected
