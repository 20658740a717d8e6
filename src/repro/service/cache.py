"""Content-addressed artifact cache for pipeline intermediates.

The dominant costs of the pipeline are Step 1 (tiling) and above all
Step 2 (the ``S x S`` error matrix).  Both are pure functions of their
inputs, so the cache keys them by content: an image is fingerprinted by
the SHA-256 of its bytes + shape + dtype, and the artifact keys compose
fingerprints with the parameters that affect the result (tile size, cost
metric, transform flag).  Two jobs that share a target image — the common
case for batch workloads rendering many inputs against one target — hit
the same Step-1/Step-2 entries and skip straight to Step 3.

Storage backends implement the small :class:`CacheBackend` protocol:

* :class:`ArtifactCache` — thread-safe in-memory LRU with a byte budget
  (evicted entries are recomputed on the next miss);
* :class:`~repro.service.diskcache.DiskCacheStore` — a disk-first store
  shared across *processes* (content-addressed files, atomic writes,
  checksums, cross-process LRU eviction);
* :class:`CacheStack` — the two-tier combination (memory front, disk
  store behind) that the service and the ``photomosaic batch`` CLI use,
  and the only backend that survives pickling into process workers.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ArtifactCache",
    "CacheBackend",
    "CacheStack",
    "CacheStats",
    "StackStats",
    "config_fingerprint",
    "image_fingerprint",
    "tile_grid_key",
    "error_matrix_key",
]

_MISS = object()


def image_fingerprint(image: np.ndarray) -> str:
    """Content hash of an image: SHA-256 over dtype, shape and raw bytes."""
    h = hashlib.sha256()
    h.update(str(image.dtype).encode())
    h.update(repr(image.shape).encode())
    h.update(np.ascontiguousarray(image).tobytes())
    return h.hexdigest()[:32]


def tile_grid_key(fingerprint: str, tile_size: int) -> str:
    """Cache key for a Step-1 tile stack of one image."""
    return f"tiles/{fingerprint}/t{tile_size}"


def error_matrix_key(
    input_fingerprint: str,
    target_fingerprint: str,
    tile_size: int,
    metric: str,
    allow_transforms: bool = False,
) -> str:
    """Cache key for a Step-2 error matrix (and its orientation codes)."""
    suffix = "+dihedral" if allow_transforms else ""
    return (
        f"matrix/{input_fingerprint}/{target_fingerprint}"
        f"/t{tile_size}/{metric}{suffix}"
    )


def config_fingerprint(config: Any) -> str:
    """Order-independent fingerprint of a configuration.

    Accepts a mapping, a dataclass (e.g. :class:`~repro.mosaic.config.
    MosaicConfig`) or any JSON-encodable value and hashes its canonical
    JSON form (sorted keys), so two dicts with the same items in any
    insertion order — or a config and its ``asdict`` — fingerprint
    identically.  Use it to key custom artifacts by pipeline settings.
    """
    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    payload = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@runtime_checkable
class CacheBackend(Protocol):
    """What the generator, worker pool and CLI need from a cache."""

    def get(self, key: str, default: Any = None) -> Any: ...

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None: ...

    def contains(self, key: str) -> bool: ...

    def get_or_compute(
        self, key: str, compute: Callable[[], Any], nbytes: int | None = None
    ) -> Any: ...


def _payload_nbytes(value: Any) -> int:
    """Best-effort byte size of a cached payload (arrays and containers)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_payload_nbytes(v) for v in value)
    if value is None:
        return 0
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # unknown payloads get a nominal charge


@dataclass
class CacheStats:
    """Counters exposed in the metrics report."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    current_bytes: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never queried)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "current_bytes": self.current_bytes,
            "entries": self.entries,
        }


@dataclass
class _Entry:
    value: Any
    nbytes: int = 0


class ArtifactCache:
    """Thread-safe content-addressed in-memory LRU cache.

    Parameters
    ----------
    max_bytes:
        In-memory budget; least-recently-used entries are evicted once
        the budget is exceeded and recomputed on their next miss.  A
        single payload larger than the budget is still admitted alone.
        Persistence across processes and runs is the
        :class:`~repro.service.diskcache.DiskCacheStore`'s job (put one
        behind this cache with :class:`CacheStack`).
    """

    def __init__(self, max_bytes: int = 256 * 2**20) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.RLock()
        self._stats = CacheStats()

    # -- core operations ------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``; counts a hit/miss and refreshes LRU order."""
        value = self._lookup(key)
        return default if value is _MISS else value

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resident — no stats impact."""
        with self._lock:
            return key in self._entries

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Insert/replace ``key``; evicts LRU entries to honour the budget."""
        size = _payload_nbytes(value) if nbytes is None else int(nbytes)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._stats.current_bytes -= old.nbytes
            self._entries[key] = _Entry(value, size)
            self._stats.current_bytes += size
            self._stats.entries = len(self._entries)
            self._evict_over_budget()

    def get_or_compute(
        self, key: str, compute: Callable[[], Any], nbytes: int | None = None
    ) -> Any:
        """Return the cached value for ``key``, computing and storing on miss.

        The compute callable runs outside the cache lock, so a slow Step-2
        computation never blocks other workers' lookups; if two workers
        race on the same key, both compute and the second insert wins —
        acceptable because payloads are pure functions of the key.
        """
        value = self._lookup(key)
        if value is not _MISS:
            return value
        value = compute()
        self.put(key, value, nbytes=nbytes)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stats.current_bytes = 0
            self._stats.entries = 0

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            snapshot = CacheStats(**vars(self._stats))
            snapshot.entries = len(self._entries)
            return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals ------------------------------------------------------

    def _lookup(self, key: str) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return entry.value
            self._stats.misses += 1
            return _MISS

    def _evict_over_budget(self) -> None:
        # Caller holds the lock.  Never evict the entry just inserted
        # (last), so oversized payloads are admitted alone.
        while self._stats.current_bytes > self.max_bytes and len(self._entries) > 1:
            _, entry = self._entries.popitem(last=False)
            self._stats.current_bytes -= entry.nbytes
            self._stats.evictions += 1
            self._stats.entries = len(self._entries)


# -- the two-tier stack --------------------------------------------------


@dataclass
class StackStats:
    """Per-tier snapshot of a :class:`CacheStack`.

    ``memory`` is this process's front tier; ``disk`` combines the
    store-wide occupancy (entries/bytes, accurate machine-wide) with the
    calling process's own hit/miss counters.
    """

    memory: CacheStats
    disk: Any = None  # DiskCacheStats | None

    @property
    def hit_rate(self) -> float:
        """Fraction of stack lookups served by either tier.

        Every lookup consults the memory tier first, so memory lookups
        count the total; a memory miss answered by the disk tier is
        still one served lookup.
        """
        lookups = self.memory.hits + self.memory.misses
        if not lookups:
            return 0.0
        served = self.memory.hits + (self.disk.hits if self.disk else 0)
        return min(1.0, served / lookups)

    def as_dict(self) -> dict:
        return {
            "hit_rate": self.hit_rate,
            "memory": self.memory.as_dict(),
            "disk": self.disk.as_dict() if self.disk else None,
        }


class CacheStack:
    """Two-tier cache: in-memory LRU front, shared disk store behind.

    Lookups hit the memory tier first; a memory miss falls through to
    the disk store and a disk hit is promoted back into memory.  Writes
    go to both tiers (write-through), so every process sharing the disk
    root benefits from any worker's compute.  ``get_or_compute``
    delegates the miss path to the disk store's cross-process
    single-flight lock, which is what makes N process workers compute
    each artifact exactly once machine-wide.

    The stack is picklable when its disk tier is (``process_safe``):
    a process worker receives a *fresh, empty* memory tier plus the
    shared on-disk store — in-memory entries never cross the process
    boundary, the disk does the sharing.
    """

    def __init__(self, memory: ArtifactCache | None = None, disk=None) -> None:
        self.memory = memory if memory is not None else ArtifactCache()
        self.disk = disk

    @property
    def process_safe(self) -> bool:
        """Whether pickling into a process worker preserves sharing."""
        return self.disk is not None and getattr(self.disk, "process_safe", False)

    def __getstate__(self) -> dict:
        return {"memory_max_bytes": self.memory.max_bytes, "disk": self.disk}

    def __setstate__(self, state: dict) -> None:
        self.memory = ArtifactCache(max_bytes=state["memory_max_bytes"])
        self.disk = state["disk"]

    # -- CacheBackend ----------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        value = self.memory.get(key, _MISS)
        if value is not _MISS:
            return value
        if self.disk is not None:
            value = self.disk.get(key, _MISS)
            if value is not _MISS:
                self.memory.put(key, value)
                return value
        return default

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        self.memory.put(key, value, nbytes=nbytes)
        if self.disk is not None:
            self.disk.put(key, value)

    def contains(self, key: str) -> bool:
        if self.memory.contains(key):
            return True
        return self.disk is not None and self.disk.contains(key)

    def get_or_compute(
        self, key: str, compute: Callable[[], Any], nbytes: int | None = None
    ) -> Any:
        value = self.memory.get(key, _MISS)
        if value is not _MISS:
            return value
        if self.disk is None:
            # Memory stats already counted the miss; insert directly to
            # avoid double-counting a second memory lookup.
            value = compute()
            self.memory.put(key, value, nbytes=nbytes)
            return value
        value = self.disk.get_or_compute(key, compute)
        self.memory.put(key, value, nbytes=nbytes)
        return value

    def clear(self) -> None:
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    @property
    def stats(self) -> StackStats:
        return StackStats(
            memory=self.memory.stats,
            disk=self.disk.stats if self.disk is not None else None,
        )

    def __len__(self) -> int:
        return len(self.memory)
