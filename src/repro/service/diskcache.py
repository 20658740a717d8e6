"""Disk-first, content-addressed artifact store shared across processes.

One on-disk store backs every worker — thread *or* process — so the
expensive pipeline artifacts (Step-1 tile stacks, the Step-2 ``S x S``
error matrix) are computed once per key machine-wide.  The layout under
``root`` is::

    store/<algo>/<shard>/<digest>.npz     payload (arrays, ``np.savez``)
    store/<algo>/<shard>/<digest>.json    sidecar: key, checksum, size, layout
    index.json                            digest -> {nbytes, algo}
    locks/index.lock                      guards index updates + eviction
    locks/key-<digest>.lock               single-flight compute per key
    quarantine/                           corrupt entries moved here

where ``algo`` is the first segment of the cache key (``tiles``,
``matrix``, ...), ``shard`` is the first two hex chars of the digest and
``digest`` is the SHA-256 of the full key.

Design rules:

* **Writes are atomic** — payload and sidecar are written to a temp file,
  fsynced and ``os.replace``-d into place, so readers never observe a
  torn file; a writer killed mid-write leaves only an invisible temp.
* **Reads are lock-free** — a read opens the sidecar, verifies the
  payload length and SHA-256 checksum, and decodes.  Any mismatch
  (truncation, bit-flip, zero-length, garbage sidecar) quarantines the
  entry and reports a miss: corruption is *never* surfaced to the
  caller as an exception.
* **The index is advisory** — it tracks entry sizes for the byte budget
  and is only touched under ``locks/index.lock``.  If it is lost or
  stale it is rebuilt by scanning the store, so it can never corrupt
  the cache, only delay an eviction.
* **``get_or_compute`` is single-flight across processes** — a miss
  takes the per-key lock, re-checks, and only then computes, so N
  workers racing on one key do one compute (the stress suite asserts
  exactly-once via a filesystem counter).  If the lock cannot be
  acquired in time the caller computes anyway: availability beats
  deduplication.

Eviction is LRU by payload mtime (refreshed on every read via
``os.utime``) against ``max_bytes``; the entry just written is never
evicted, so an oversized payload is admitted alone, mirroring
:class:`~repro.service.cache.ArtifactCache`.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import pickle
import struct
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.service.locks import FileLock, LockTimeout
from repro.utils.arrays import mmap_npz_arrays

__all__ = ["DiskCacheStore", "DiskCacheStats", "encode_payload", "decode_payload"]

_MISS = object()


class _CorruptPayload(Exception):
    """Internal: payload failed length/checksum verification."""

#: Sidecar/layout format version; bump on incompatible layout changes.
FORMAT_VERSION = 1

_SIDECAR_REQUIRED = ("checksum", "nbytes", "layout", "version")


# -- payload serialisation ----------------------------------------------


def encode_payload(value: Any) -> tuple[bytes, dict]:
    """Serialise a cache payload to ``(npz_bytes, layout)``.

    Arrays and tuples/lists of arrays-or-``None`` — the shapes the
    pipeline actually caches — are stored as plain ``.npz`` members
    (``allow_pickle=False`` on load, so payload files can never execute
    code).  Anything else falls back to a pickle blob wrapped in a
    ``uint8`` array; the layout records which decoding to apply.
    """
    arrays: dict[str, np.ndarray] = {}
    layout: dict[str, Any] | None = None
    if isinstance(value, np.ndarray) and value.dtype != object:
        arrays["a0"] = value
        layout = {"kind": "array"}
    elif isinstance(value, (tuple, list)):
        elements: list[str] = []
        for i, element in enumerate(value):
            if isinstance(element, np.ndarray) and element.dtype != object:
                arrays[f"a{i}"] = element
                elements.append("array")
            elif element is None:
                elements.append("none")
            else:
                elements = []
                break
        else:
            layout = {
                "kind": "tuple" if isinstance(value, tuple) else "list",
                "elements": elements,
            }
    if layout is None:
        arrays = {
            "a0": np.frombuffer(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                dtype=np.uint8,
            )
        }
        layout = {"kind": "pickle"}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue(), layout


def decode_payload(data: bytes, layout: Mapping[str, Any]) -> Any:
    """Inverse of :func:`encode_payload`; raises on malformed input."""
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        kind = layout.get("kind")
        if kind == "array":
            return npz["a0"]
        if kind in ("tuple", "list"):
            out: list[Any] = []
            index = 0
            for element in layout["elements"]:
                if element == "none":
                    out.append(None)
                else:
                    out.append(npz[f"a{index}"])
                index += 1
            return tuple(out) if kind == "tuple" else out
        if kind == "pickle":
            return pickle.loads(npz["a0"].tobytes())
    raise ValueError(f"unknown payload layout {layout!r}")


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + fsync + ``os.replace``."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


# -- stats ---------------------------------------------------------------


@dataclass
class DiskCacheStats:
    """Per-process counters plus store-wide occupancy (from the index)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corruptions: int = 0
    entries: int = 0
    current_bytes: int = 0
    mmap_hits: int = 0
    copied_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "writes": self.writes,
            "evictions": self.evictions,
            "corruptions": self.corruptions,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "mmap_hits": self.mmap_hits,
            "copied_bytes": self.copied_bytes,
        }


class DiskCacheStore:
    """Content-addressed disk cache shared by thread and process workers.

    Array payloads are memory-mapped on read: the checksum is verified
    over the mapping and the returned arrays are read-only zero-copy
    views backed by the page cache, so warm hits on a multi-hundred-MB
    error matrix copy nothing (``stats.copied_bytes`` stays flat).
    Pickle-layout payloads, and array payloads that cannot be mapped,
    take the copying read.

    Parameters
    ----------
    root:
        Store directory (created on demand).  Safe to share between any
        number of processes on one machine.
    max_bytes:
        Byte budget over all payload files; least-recently-*read*
        entries are deleted once exceeded.  A single oversized payload
        is still admitted alone.
    lock_timeout:
        Budget for acquiring the index and per-key locks.  On expiry the
        store degrades gracefully: index updates are skipped and
        ``get_or_compute`` computes without single-flight protection.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; the
        store ticks ``cache_disk_{hits,misses,writes,evictions}_total``
        and ``cache_corruption_total`` counters live.  Dropped on
        pickling (a child process gets its own counters).
    """

    #: Safe to pickle into process workers — state lives on disk.
    process_safe = True

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int = 1 << 30,
        *,
        lock_timeout: float = 30.0,
        metrics=None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = os.fspath(root)
        self.max_bytes = int(max_bytes)
        self.lock_timeout = lock_timeout
        self.metrics = metrics
        self._stats = DiskCacheStats()
        self._stats_lock = threading.Lock()
        self._quarantine_seq = 0

    # -- pickling (process executors ship the store by configuration) ----

    def __getstate__(self) -> dict:
        return {
            "root": self.root,
            "max_bytes": self.max_bytes,
            "lock_timeout": self.lock_timeout,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["root"],
            state["max_bytes"],
            lock_timeout=state["lock_timeout"],
        )

    # -- paths -----------------------------------------------------------

    @staticmethod
    def _digest(key: str) -> str:
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    @staticmethod
    def _algo(key: str) -> str:
        head = key.split("/", 1)[0]
        if (
            head
            and head not in (".", "..")  # no path traversal via the key
            and all(c.isalnum() or c in "._-" for c in head)
        ):
            return head
        return "misc"

    def _entry_paths(self, algo: str, digest: str) -> tuple[str, str]:
        shard_dir = os.path.join(self.root, "store", algo, digest[:2])
        return (
            os.path.join(shard_dir, f"{digest}.npz"),
            os.path.join(shard_dir, f"{digest}.json"),
        )

    def _index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def _index_lock(self) -> FileLock:
        return FileLock(
            os.path.join(self.root, "locks", "index.lock"),
            timeout=self.lock_timeout,
        )

    def lock_path_for(self, key: str) -> str:
        """Path of ``key``'s single-flight compute lock file.

        Exposed for operational introspection (is anything computing
        this key?) and for crash-recovery tests that need to hold the
        lock from another process.
        """
        return os.path.join(self.root, "locks", f"key-{self._digest(key)}.lock")

    def _key_lock(self, digest: str) -> FileLock:
        return FileLock(
            os.path.join(self.root, "locks", f"key-{digest}.lock"),
            timeout=self.lock_timeout,
        )

    # -- stats helpers ---------------------------------------------------

    def _tick(self, field: str, metric: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self._stats, field, getattr(self._stats, field) + amount)
        if self.metrics is not None:
            self.metrics.counter(metric).inc(amount)

    @property
    def stats(self) -> DiskCacheStats:
        with self._stats_lock:
            snapshot = DiskCacheStats(**vars(self._stats))
        index = self._load_index()
        snapshot.entries = len(index)
        snapshot.current_bytes = sum(e.get("nbytes", 0) for e in index.values())
        return snapshot

    # -- core operations -------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Lock-free checksum-verified read; corrupt entries become misses."""
        value = self._read(key)
        return default if value is _MISS else value

    def contains(self, key: str) -> bool:
        """Whether both payload and sidecar exist (no checksum, no stats)."""
        payload, sidecar = self._entry_paths(self._algo(key), self._digest(key))
        return os.path.exists(sidecar) and os.path.exists(payload)

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Atomically persist ``key`` and enforce the byte budget.

        ``nbytes`` is accepted for :class:`CacheBackend` compatibility
        but ignored — the store charges the true serialised size.
        """
        algo, digest = self._algo(key), self._digest(key)
        payload_path, sidecar_path = self._entry_paths(algo, digest)
        data, layout = encode_payload(value)
        sidecar = {
            "version": FORMAT_VERSION,
            "key": key,
            "algo": algo,
            "nbytes": len(data),
            "checksum": hashlib.sha256(data).hexdigest(),
            "layout": layout,
        }
        os.makedirs(os.path.dirname(payload_path), exist_ok=True)
        try:
            # Payload first, sidecar second: an entry is visible to
            # readers only once its sidecar exists, so a crash between
            # the two leaves an invisible (and later pruned) payload.
            _write_atomic(payload_path, data)
            _write_atomic(
                sidecar_path, json.dumps(sidecar, sort_keys=True).encode("utf-8")
            )
        except OSError:
            return  # best-effort: a full disk degrades to recompute
        self._tick("writes", "cache_disk_writes_total")
        self._index_add(digest, algo, len(data))

    def get_or_compute(
        self, key: str, compute: Callable[[], Any], nbytes: int | None = None
    ) -> Any:
        """Return the stored value, computing at most once across processes.

        The fast path is a lock-free read.  On a miss the per-key file
        lock serialises competing workers machine-wide: the winner
        computes and stores, the losers re-check and read the fresh
        entry.  If the lock cannot be acquired within ``lock_timeout``
        the caller computes without it (duplicate work, never a stall).
        """
        value = self._read(key)
        if value is not _MISS:
            return value
        lock = self._key_lock(self._digest(key))
        try:
            lock.acquire()
        except LockTimeout:
            value = compute()
            self.put(key, value)
            return value
        try:
            value = self._read(key, count_miss=False)
            if value is not _MISS:
                return value
            value = compute()
            self.put(key, value)
            return value
        finally:
            lock.release()

    def clear(self) -> None:
        """Delete every entry and the index (quarantine is kept)."""
        with self._index_lock():
            index = self._load_index()
            for digest, entry in index.items():
                payload, sidecar = self._entry_paths(
                    entry.get("algo", "misc"), digest
                )
                for path in (payload, sidecar):
                    try:
                        os.remove(path)
                    except OSError:
                        pass
            self._store_index({})

    def __len__(self) -> int:
        return len(self._load_index())

    # -- read path -------------------------------------------------------

    def _read_mmap(self, payload_path: str, sidecar: Mapping[str, Any]) -> Any:
        """Zero-copy read: checksum over the mapping, views into it.

        Raises :class:`_CorruptPayload` on length/checksum mismatch (the
        caller quarantines), and :class:`ValueError`/``OSError`` when the
        payload simply cannot be mapped (the caller falls back to the
        copying read, which re-verifies).
        """
        if os.path.getsize(payload_path) != sidecar["nbytes"]:
            raise _CorruptPayload
        with open(payload_path, "rb") as fh:
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        # Hashing the mapping reads pages straight from the page cache —
        # no heap copy of the payload is ever made on this path.
        if hashlib.sha256(mapping).hexdigest() != sidecar["checksum"]:
            raise _CorruptPayload
        members = mmap_npz_arrays(payload_path)
        layout = sidecar["layout"]
        kind = layout.get("kind")
        if kind == "array":
            return members["a0"]
        if kind in ("tuple", "list"):
            out: list[Any] = []
            index = 0
            for element in layout["elements"]:
                if element == "none":
                    out.append(None)
                else:
                    out.append(members[f"a{index}"])
                index += 1
            return tuple(out) if kind == "tuple" else out
        raise ValueError(f"layout {kind!r} is not mappable")

    def _read(self, key: str, count_miss: bool = True) -> Any:
        algo, digest = self._algo(key), self._digest(key)
        payload_path, sidecar_path = self._entry_paths(algo, digest)
        try:
            with open(sidecar_path, "rb") as fh:
                sidecar = json.loads(fh.read().decode("utf-8"))
            if not isinstance(sidecar, dict) or any(
                field not in sidecar for field in _SIDECAR_REQUIRED
            ):
                raise ValueError("malformed sidecar")
        except FileNotFoundError:
            if count_miss:
                self._tick("misses", "cache_disk_misses_total")
            return _MISS
        except (OSError, ValueError, UnicodeDecodeError):
            self._quarantine(payload_path, sidecar_path, digest)
            if count_miss:
                self._tick("misses", "cache_disk_misses_total")
            return _MISS
        layout = sidecar["layout"]
        if isinstance(layout, dict) and layout.get("kind") in (
            "array",
            "tuple",
            "list",
        ):
            try:
                value = self._read_mmap(payload_path, sidecar)
            except _CorruptPayload:
                self._quarantine(payload_path, sidecar_path, digest)
                if count_miss:
                    self._tick("misses", "cache_disk_misses_total")
                return _MISS
            except FileNotFoundError:
                self._quarantine(payload_path, sidecar_path, digest)
                if count_miss:
                    self._tick("misses", "cache_disk_misses_total")
                return _MISS
            except (OSError, ValueError, KeyError, struct.error):
                pass  # unmappable, not necessarily corrupt: copying read
            else:
                try:
                    os.utime(payload_path)  # refresh LRU recency, lock-free
                except OSError:
                    pass
                self._tick("mmap_hits", "cache_disk_mmap_hits_total")
                self._tick("hits", "cache_disk_hits_total")
                return value
        try:
            with open(payload_path, "rb") as fh:
                data = fh.read()
        except OSError:
            # Sidecar without payload: a partial delete or external
            # tampering — quarantine what is left.
            self._quarantine(payload_path, sidecar_path, digest)
            if count_miss:
                self._tick("misses", "cache_disk_misses_total")
            return _MISS
        if (
            len(data) != sidecar["nbytes"]
            or hashlib.sha256(data).hexdigest() != sidecar["checksum"]
        ):
            self._quarantine(payload_path, sidecar_path, digest)
            if count_miss:
                self._tick("misses", "cache_disk_misses_total")
            return _MISS
        try:
            value = decode_payload(data, sidecar["layout"])
        except Exception:
            self._quarantine(payload_path, sidecar_path, digest)
            if count_miss:
                self._tick("misses", "cache_disk_misses_total")
            return _MISS
        try:
            os.utime(payload_path)  # refresh LRU recency, lock-free
        except OSError:
            pass
        self._tick("hits", "cache_disk_hits_total")
        self._tick("copied_bytes", "cache_disk_copied_bytes_total", len(data))
        return value

    def _quarantine(self, payload_path: str, sidecar_path: str, digest: str) -> None:
        """Move a corrupt entry aside so it is recomputed, never re-read."""
        qdir = os.path.join(self.root, "quarantine")
        os.makedirs(qdir, exist_ok=True)
        with self._stats_lock:
            self._quarantine_seq += 1
            seq = self._quarantine_seq
        moved = False
        for path in (payload_path, sidecar_path):
            if not os.path.exists(path):
                continue
            target = os.path.join(
                qdir, f"{os.path.basename(path)}.{os.getpid()}.{seq}"
            )
            try:
                os.replace(path, target)
                moved = True
            except OSError:
                try:
                    os.remove(path)
                    moved = True
                except OSError:
                    pass
        if moved:
            self._tick("corruptions", "cache_corruption_total")
            self._index_discard(digest)

    # -- index + eviction ------------------------------------------------

    def _load_index(self) -> dict[str, dict]:
        try:
            with open(self._index_path(), "rb") as fh:
                index = json.loads(fh.read().decode("utf-8"))
            if isinstance(index, dict):
                return {k: v for k, v in index.items() if isinstance(v, dict)}
        except (OSError, ValueError, UnicodeDecodeError):
            pass
        return {}

    def _store_index(self, index: dict[str, dict]) -> None:
        # Caller holds the index lock.
        _write_atomic(
            self._index_path(), json.dumps(index, sort_keys=True).encode("utf-8")
        )

    def _rebuild_index(self) -> dict[str, dict]:
        """Re-derive the index by scanning the store (self-healing)."""
        index: dict[str, dict] = {}
        store_dir = os.path.join(self.root, "store")
        for dirpath, _dirnames, filenames in os.walk(store_dir):
            for filename in filenames:
                if not filename.endswith(".npz") or ".tmp." in filename:
                    continue
                digest = filename[: -len(".npz")]
                path = os.path.join(dirpath, filename)
                try:
                    nbytes = os.path.getsize(path)
                except OSError:
                    continue
                algo = os.path.basename(os.path.dirname(dirpath))
                index[digest] = {"nbytes": nbytes, "algo": algo}
        return index

    def _index_add(self, digest: str, algo: str, nbytes: int) -> None:
        try:
            with self._index_lock():
                index = self._load_index()
                if not index:
                    index = self._rebuild_index()
                index[digest] = {"nbytes": nbytes, "algo": algo}
                self._evict_locked(index, keep=digest)
                self._store_index(index)
        except (LockTimeout, OSError):
            pass  # accounting is best-effort; the next writer catches up

    def _index_discard(self, digest: str) -> None:
        try:
            with self._index_lock():
                index = self._load_index()
                if digest in index:
                    del index[digest]
                    self._store_index(index)
        except (LockTimeout, OSError):
            pass

    def _evict_locked(self, index: dict[str, dict], keep: str) -> None:
        """LRU-evict (by payload mtime) until the budget holds.

        Runs under the index lock.  Entries whose payload vanished are
        pruned from the index for free; the entry just written (``keep``)
        is never evicted, so oversized payloads are admitted alone.
        """
        total = sum(e.get("nbytes", 0) for e in index.values())
        if total <= self.max_bytes:
            return
        aged: list[tuple[float, str, int]] = []
        for digest, entry in list(index.items()):
            payload, _ = self._entry_paths(entry.get("algo", "misc"), digest)
            try:
                mtime = os.path.getmtime(payload)
            except OSError:
                total -= entry.get("nbytes", 0)
                del index[digest]
                continue
            if digest != keep:
                aged.append((mtime, digest, entry.get("nbytes", 0)))
        aged.sort()
        for _mtime, digest, nbytes in aged:
            if total <= self.max_bytes:
                break
            entry = index.pop(digest)
            payload, sidecar = self._entry_paths(entry.get("algo", "misc"), digest)
            for path in (sidecar, payload):  # sidecar first: hides the entry
                try:
                    os.remove(path)
                except OSError:
                    pass
            total -= nbytes
            self._tick("evictions", "cache_disk_evictions_total")
