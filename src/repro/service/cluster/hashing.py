"""Rendezvous (highest-random-weight) hashing for the cluster tier.

Both shard assignments in the cluster use the same primitive:

* the coordinator shards *jobs* across worker nodes by a content hash
  of their payload (so resubmissions land where their artifacts are);
* every node shards *cache keys* across the membership so each
  content-addressed artifact has exactly one owner node that serialises
  computes (cross-node single-flight) and holds the authoritative copy.

Rendezvous hashing was chosen over a token ring because membership here
is small (a handful of nodes) and churny (nodes join and die): HRW needs
no ring state, every participant computes the same owner from just the
member list, and a membership change moves only the keys owned by the
departed node (``1/n`` of the keyspace) — the minimal-disruption
property the ISSUE's "rebalance" counters measure.

Determinism matters: scores are SHA-256 based, so every process — the
coordinator, each node, and a test asserting ownership — derives the
identical owner for a key given the same member list, regardless of
Python hash randomisation.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

__all__ = ["rendezvous_score", "rendezvous_owner", "rendezvous_ranked"]


def rendezvous_score(member: str, key: str) -> int:
    """The HRW weight of ``member`` for ``key`` (derived, not stored)."""
    digest = hashlib.sha256(f"{member}\x00{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_ranked(key: str, members: Iterable[str]) -> list[str]:
    """Members ordered best-owner-first for ``key``.

    The head is the owner; the tail is the deterministic failover order
    the coordinator walks when the preferred node rejects a dispatch.
    Ties (possible only for duplicate member ids) break lexically so the
    order stays total.
    """
    return sorted(
        set(members),
        key=lambda member: (rendezvous_score(member, key), member),
        reverse=True,
    )


def rendezvous_owner(key: str, members: Sequence[str] | set[str]) -> str | None:
    """The owning member for ``key``, or ``None`` for an empty membership."""
    best: str | None = None
    best_score = -1
    for member in members:
        score = rendezvous_score(member, key)
        if score > best_score or (score == best_score and (best is None or member > best)):
            best = member
            best_score = score
    return best
