"""Colour classes ``P_1 .. P_S`` of ``K_S``, packed for the parallel swap kernel.

Theorem 1 of the paper: ``K_n`` is ``(n-1)``-edge-colourable for even ``n``
and ``n``-edge-colourable for odd ``n``.  The constructive proof is the
round-robin tournament schedule ("circle method"): fix one vertex, place
the remaining ``m = n-1`` on a circle, and rotate.  In round ``r`` the fixed
vertex pairs with ``r`` and chord ``k`` pairs ``(r+k) mod m`` with
``(r-k) mod m``; each round is a perfect matching (a colour class).  For odd
``n`` the schedule runs on ``n+1`` vertices and the pairs touching the dummy
vertex ``n`` are dropped, so each class leaves one vertex idle.

For even ``n`` the classes follow the paper's published order by default
(Section IV-B lists ``P_1 .. P_16`` for ``K_16``): class ``P_i`` holds the
pairs whose 1-indexed endpoint sum is congruent to ``2i + 1`` modulo
``n - 1`` (with the fixed vertex ``n`` standing in for its circle twin), and
``P_n`` is empty.  ``order="round"`` keeps plain rotation order instead.

Section IV-B: the groups depend only on the tile count ``S``, so they are
computed once, stored as packed index arrays, and reused across images.
:class:`EdgeGroups` is that precomputed, cached artefact: two
``(classes x pairs)`` index arrays whose rows are the non-empty classes,
ready for vectorised gather/scatter in the swap kernel.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.exceptions import ValidationError
from repro.types import INDEX_DTYPE
from repro.utils.validation import check_positive_int

__all__ = ["EdgeGroups", "build_edge_groups", "verify_color_classes"]


@dataclass(frozen=True)
class EdgeGroups:
    """Colour classes of ``K_S`` packed as index-array pairs.

    ``us`` and ``vs`` are aligned ``(rows, pairs_per_class)`` ``intp``
    arrays, one row per non-empty class in class order: the ``j``-th
    concurrent swap candidate of class ``i`` is the tile pair
    ``(us[i, j], vs[i, j])``, with each row of ``us`` ascending and
    ``us < vs``.  All tiles within one class are distinct, so the class's
    swaps may commit simultaneously.  Every non-empty class has the same
    pair count, so in the flattened arrays pair ``k`` belongs to class
    ``k // pairs_per_class``.

    ``classes[i]`` is the ``(us, vs)`` row pair of class ``i`` (views, no
    copy); for even ``S`` a trailing empty class stands for the paper's
    ``P_S``.
    """

    size: int
    us: np.ndarray
    vs: np.ndarray

    @cached_property
    def classes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        classes = tuple(zip(self.us, self.vs))
        if self.size % 2 == 0:
            empty = np.empty(0, dtype=INDEX_DTYPE)
            classes += ((empty, empty),)
        return classes

    @property
    def pairs_per_class(self) -> int:
        return self.us.shape[1]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def edge_count(self) -> int:
        return self.us.size

    def as_pair_lists(self) -> list[list[tuple[int, int]]]:
        """Back-conversion to plain pair lists (for inspection/tests)."""
        return [
            [(int(u), int(v)) for u, v in zip(us, vs)] for us, vs in self.classes
        ]


@functools.lru_cache(maxsize=32)
def build_edge_groups(size: int, *, order: str = "paper") -> EdgeGroups:
    """Build (and cache) the edge groups for ``S = size`` tiles.

    Even ``S`` gives ``S`` classes, the last one empty (the paper's
    ``P_S = emptyset``); odd ``S`` gives ``S`` classes of ``(S-1)/2`` pairs.
    The construction is verified by :func:`verify_color_classes` before
    caching — an invalid schedule would silently corrupt the parallel
    algorithm, so the check is unconditional.
    """
    size = check_positive_int(size, "size")
    if order not in ("paper", "round"):
        raise ValidationError(f"unknown order {order!r} (use paper|round)")
    m = size if size % 2 else size - 1  # circle size; vertex m is fixed
    rounds = np.arange(m, dtype=INDEX_DTYPE)
    if order == "paper" and size % 2 == 0:
        # 1-indexed chord sums in round r are congruent to 2r + 2 (mod m);
        # the paper's P_i holds sums congruent to 2i + 1, so round r is
        # class i - 1 with i = (2r + 1) / 2 (mod m), and P_m at i = 0.
        inv2 = pow(2, -1, m)  # m is odd, so 2 is invertible
        rounds = np.argsort(((2 * rounds + 1) * inv2 - 1) % m)
    r = rounds[:, None]
    k = np.arange(1, m // 2 + 1, dtype=INDEX_DTYPE)
    a, b = (r + k) % m, (r - k) % m
    us, vs = np.minimum(a, b), np.maximum(a, b)
    if size % 2 == 0:  # vertex m pairs with r; for odd S it is the dummy
        us = np.hstack([us, r])
        vs = np.hstack([vs, np.full_like(r, m)])
    by_u = np.argsort(us, axis=1)
    us = np.take_along_axis(us, by_u, axis=1)
    vs = np.take_along_axis(vs, by_u, axis=1)
    groups = EdgeGroups(size=size, us=us, vs=vs)
    verify_color_classes(groups.classes, size)
    return groups


def verify_color_classes(
    classes: Sequence[tuple[np.ndarray, np.ndarray]], n: int
) -> None:
    """Raise :class:`ValidationError` unless ``classes`` is a proper edge
    colouring of ``K_n``.

    ``classes`` is shaped like :attr:`EdgeGroups.classes`: one ``(us, vs)``
    array pair per class.  The classes must be matchings, pairs normalised
    ``u < v`` within range, every edge must appear exactly once, and the
    number of classes must respect Theorem 1 (``<= n``).  Algorithm 2 is
    only correct under these conditions.
    """
    if len(classes) > max(n, 1):
        raise ValidationError(
            f"{len(classes)} colour classes exceed Theorem 1 bound {n}"
        )
    empty = np.empty(0, dtype=INDEX_DTYPE)
    us = np.concatenate([empty, *(u for u, _ in classes)])
    vs = np.concatenate([empty, *(v for _, v in classes)])
    class_ids = np.repeat(
        np.arange(len(classes)), [len(u) for u, _ in classes]
    )
    bad = np.flatnonzero((us < 0) | (us >= vs) | (vs >= n))
    if bad.size:
        j = bad[0]
        raise ValidationError(
            f"class {class_ids[j]} has out-of-range or unnormalised pair "
            f"({us[j]}, {vs[j]})"
        )
    uses = np.bincount(np.concatenate([class_ids * n + us, class_ids * n + vs]))
    reused = np.flatnonzero(uses > 1)
    if reused.size:
        index, vertex = divmod(int(reused[0]), n)
        raise ValidationError(
            f"class {index} is not a matching: vertex {vertex} used twice"
        )
    colours = np.bincount(us * n + vs)
    twice = np.flatnonzero(colours > 1)
    if twice.size:
        u, v = divmod(int(twice[0]), n)
        raise ValidationError(f"edge ({u}, {v}) coloured twice")
    expected = n * (n - 1) // 2
    if us.size != expected:
        raise ValidationError(
            f"colouring covers {us.size} edges of K_{n}, expected {expected}"
        )
