"""Tests for the zero-copy (memory-mapped) disk-cache read path."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.service.diskcache import DiskCacheStore
from repro.utils.arrays import mmap_npz_arrays


@pytest.fixture()
def store(tmp_path) -> DiskCacheStore:
    return DiskCacheStore(tmp_path / "cache")


class TestMmapNpzArrays:
    def test_members_match_savez(self, tmp_path, rng):
        path = tmp_path / "p.npz"
        a = rng.integers(0, 1000, size=(9, 4)).astype(np.int64)
        b = rng.random((3, 3, 2)).astype(np.float32)
        np.savez(path, a0=a, a1=b)
        members = mmap_npz_arrays(path)
        np.testing.assert_array_equal(members["a0"], a)
        np.testing.assert_array_equal(members["a1"], b)

    def test_views_are_zero_copy(self, tmp_path):
        path = tmp_path / "p.npz"
        np.savez(path, a0=np.arange(16))
        array = mmap_npz_arrays(path)["a0"]
        # Backed by the mapping, not a heap copy, and not writable.
        assert not array.flags.owndata
        assert not array.flags.writeable

    def test_fortran_order_preserved(self, tmp_path):
        path = tmp_path / "p.npz"
        a = np.asfortranarray(np.arange(12).reshape(3, 4))
        np.savez(path, a0=a)
        out = mmap_npz_arrays(path)["a0"]
        np.testing.assert_array_equal(out, a)
        assert out.flags.f_contiguous

    def test_compressed_member_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        np.savez_compressed(path, a0=np.arange(64))
        with pytest.raises(ValueError, match="compressed"):
            mmap_npz_arrays(path)


class TestWarmHitsStopCopying:
    def test_array_warm_hit_copies_nothing(self, store, rng):
        matrix = rng.integers(0, 10_000, size=(32, 32)).astype(np.int64)
        store.put("matrix/a", matrix)
        got = store.get("matrix/a")
        np.testing.assert_array_equal(got, matrix)
        assert not got.flags.writeable
        stats = store.stats
        assert stats.mmap_hits == 1
        assert stats.hits == 1
        assert stats.copied_bytes == 0

    def test_tuple_with_none_layout(self, store, rng):
        matrix = rng.random((8, 8))
        store.put("tiles/t", (matrix, None))
        got = store.get("tiles/t")
        assert isinstance(got, tuple) and got[1] is None
        np.testing.assert_array_equal(got[0], matrix)
        assert store.stats.copied_bytes == 0

    def test_pickle_layout_still_copies(self, store):
        store.put("misc/obj", {"not": "arrays"})
        assert store.get("misc/obj") == {"not": "arrays"}
        stats = store.stats
        assert stats.mmap_hits == 0
        assert stats.copied_bytes > 0

    def test_unmappable_array_falls_back_to_copying_read(
        self, store, rng, monkeypatch
    ):
        def unmappable(payload_path, sidecar):
            raise ValueError("payload cannot be mapped")

        monkeypatch.setattr(store, "_read_mmap", unmappable)
        matrix = rng.random((16, 16))
        store.put("matrix/b", matrix)
        got = store.get("matrix/b")
        np.testing.assert_array_equal(got, matrix)
        stats = store.stats
        assert stats.mmap_hits == 0
        assert stats.copied_bytes > 0
        assert stats.hits == 1
        assert stats.corruptions == 0
        assert not os.path.isdir(os.path.join(store.root, "quarantine"))


class TestIntegrityUnderMmap:
    def _payload_path(self, store: DiskCacheStore, key: str) -> str:
        return store._entry_paths(store._algo(key), store._digest(key))[0]

    def test_bit_flip_quarantines(self, store, rng):
        store.put("matrix/c", rng.random((16, 16)))
        path = self._payload_path(store, "matrix/c")
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert store.get("matrix/c") is None
        stats = store.stats
        assert stats.corruptions == 1
        assert stats.misses == 1
        assert os.listdir(os.path.join(store.root, "quarantine"))

    def test_truncation_quarantines(self, store, rng):
        store.put("matrix/d", rng.random((16, 16)))
        path = self._payload_path(store, "matrix/d")
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert store.get("matrix/d") is None
        assert store.stats.corruptions == 1

    def test_pickled_store_keeps_mmap_mode(self, store, rng):
        clone = pickle.loads(pickle.dumps(store))
        matrix = rng.random((8, 8))
        store.put("matrix/e", matrix)
        np.testing.assert_array_equal(clone.get("matrix/e"), matrix)
        assert clone.stats.mmap_hits == 1
        assert clone.stats.copied_bytes == 0

    def test_get_or_compute_hits_mmap_path(self, store, rng):
        matrix = rng.random((8, 8))
        calls = []

        def compute():
            calls.append(1)
            return matrix

        first = store.get_or_compute("matrix/f", compute)
        second = store.get_or_compute("matrix/f", compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first, matrix)
        np.testing.assert_array_equal(second, matrix)
        assert store.stats.mmap_hits == 1  # the warm read
