"""Tests for packed edge groups."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.coloring.groups import build_edge_groups
from repro.exceptions import ValidationError

# sha256 of the packed arrays (class lengths, then every class's ``us``, then
# every class's ``vs``, all as little-endian int64), recorded from the
# list-based construction.  Odd S ignores ``order``, so both orders agree.
PACKED_DIGESTS = [
    (1, "paper", "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    (2, "paper", "33679eedd86f9637ab73892a064cdab3d82365cf5063b145affb2272327a6ddc"),
    (3, "paper", "c06e02f20374d13d9a8c90a7c2d7c7a63e9c15a8208e5059f8d864febe138b5e"),
    (15, "paper", "085dc9369e6c0f45323348f7d1b232c6558094770761bc04d85b28baf6e26c8f"),
    (16, "paper", "ecf1a27782563fbe0bb5575497aa60868ccb9af596cbf9ca063c97cd48f380c1"),
    (17, "paper", "76f1fd0d6d8a6e977bca5a7985bef056112f82379662bd35b0ea7919a47153ff"),
    (255, "paper", "6ec5b464ca64f0b5b39619ad5ee7acbea52df61105629ecbebea81aeba2b5d58"),
    (256, "paper", "bfdfa1ba56e5a8806db41221ac85d1fdcc420bba037004254b39dbbe68c3dd75"),
    (1023, "paper", "b6f9c8df4a71beb4a394b3c0d08f43d2a0dd52eadcbb5139dcb6f87891857963"),
    (1024, "paper", "75986cfdad62cd3c4d38fc03801930945416fd73c4b7fc3b525613e83a6e1560"),
    (1, "round", "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    (2, "round", "33679eedd86f9637ab73892a064cdab3d82365cf5063b145affb2272327a6ddc"),
    (3, "round", "c06e02f20374d13d9a8c90a7c2d7c7a63e9c15a8208e5059f8d864febe138b5e"),
    (15, "round", "085dc9369e6c0f45323348f7d1b232c6558094770761bc04d85b28baf6e26c8f"),
    (16, "round", "1993e9dea20967ff6e247bc56d82e0e190c7679dd871c9ff85d68cb65f021a0c"),
    (17, "round", "76f1fd0d6d8a6e977bca5a7985bef056112f82379662bd35b0ea7919a47153ff"),
    (255, "round", "6ec5b464ca64f0b5b39619ad5ee7acbea52df61105629ecbebea81aeba2b5d58"),
    (256, "round", "719d6834188c3800162a6afb1f2e6c7b239c5418d27575780e996e744dd95df6"),
    (1023, "round", "b6f9c8df4a71beb4a394b3c0d08f43d2a0dd52eadcbb5139dcb6f87891857963"),
    (1024, "round", "3af193b1d9cdba885f5f21d3c738c8fe8bd10c60f3773f1d3a957f6e660cd24e"),
]


def _digest(groups) -> str:
    h = hashlib.sha256()
    lengths = [us.shape[0] for us, _ in groups.classes]
    h.update(np.array(lengths, dtype="<i8").tobytes())
    for us, _ in groups.classes:
        h.update(us.astype("<i8").tobytes())
    for _, vs in groups.classes:
        h.update(vs.astype("<i8").tobytes())
    return h.hexdigest()


class TestBuildEdgeGroups:
    def test_matches_pair_lists(self):
        groups = build_edge_groups(16)
        raw = groups.as_pair_lists()
        assert raw == [
            list(zip(us.tolist(), vs.tolist())) for us, vs in groups.classes
        ]
        assert all(type(u) is int for pairs in raw for pair in pairs for u in pair)

    def test_edge_count(self):
        groups = build_edge_groups(10)
        assert groups.edge_count == 10 * 9 // 2

    def test_class_count_even(self):
        assert build_edge_groups(16).class_count == 16

    def test_class_count_odd(self):
        assert build_edge_groups(9).class_count == 9

    def test_arrays_are_intp(self):
        groups = build_edge_groups(8)
        for us, vs in groups.classes:
            assert us.dtype == np.intp
            assert vs.dtype == np.intp
            assert us.shape == vs.shape

    def test_disjoint_within_class(self):
        groups = build_edge_groups(20)
        for us, vs in groups.classes:
            ids = np.concatenate([us, vs])
            assert len(np.unique(ids)) == ids.size

    def test_caching_returns_same_object(self):
        assert build_edge_groups(12) is build_edge_groups(12)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            build_edge_groups(0)

    def test_networkx_cross_check(self):
        """Every class must be a matching of K_n per networkx."""
        import networkx as nx

        n = 14
        graph = nx.complete_graph(n)
        groups = build_edge_groups(n)
        covered = set()
        for us, vs in groups.classes:
            pairs = {(int(u), int(v)) for u, v in zip(us, vs)}
            assert nx.is_matching(graph, pairs)
            covered |= pairs
        assert covered == {(min(u, v), max(u, v)) for u, v in graph.edges}

    @pytest.mark.parametrize(("size", "order", "digest"), PACKED_DIGESTS)
    def test_packed_arrays_pinned(self, size, order, digest):
        assert _digest(build_edge_groups(size, order=order)) == digest
