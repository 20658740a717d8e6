"""Shared fixtures for the cluster tier tests.

The central piece is :class:`MiniCluster` — a coordinator plus N worker
nodes composed in ONE asyncio loop (no subprocesses), modeled on the
``ServedFront`` harness from the HTTP tests.  Nodes carry real worker
pools and (optionally) real disk-backed cluster cache stores, so the
tests exercise the same code paths as ``photomosaic serve-node`` minus
the process boundary.  ``crash_node`` simulates a SIGKILL: heartbeats
stop and the listener vanishes without any drain or deregistration.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import pytest

from repro.service import (
    ArtifactCache,
    CacheStack,
    DiskCacheStore,
    MosaicGateway,
    WorkerPool,
)
from repro.service.cluster import (
    CacheLeaseTable,
    ClusterCacheStore,
    ClusterCoordinator,
    ClusterNodeApp,
    CoordinatorConfig,
    NodeFront,
    PeerDirectory,
)
from repro.service.http import HttpFrontConfig
from repro.service.workers import MosaicJobRunner

TOKEN = "cluster-test-token"


def run_async(coro):
    return asyncio.run(coro)


def spec_dict(name: str = "j", **overrides) -> dict:
    payload = {
        "name": name,
        "input": "portrait",
        "target": "sailboat",
        "size": 32,
        "tile_size": 8,
        "seed": 5,
    }
    payload.update(overrides)
    return payload


class SweepRunner:
    """Context-aware runner emitting slow sweep events (crash window)."""

    accepts_context = True

    def __init__(self, sweeps: int = 5, dwell: float = 0.001) -> None:
        self.sweeps = sweeps
        self.dwell = dwell
        self.first_sweep = threading.Event()

    def __call__(self, job_spec, ctx=None) -> str:
        for index in range(self.sweeps):
            if ctx is not None:
                ctx.check_cancelled()
                ctx.emit("sweep", {"sweep": index})
            self.first_sweep.set()
            time.sleep(self.dwell)
        return job_spec.name


class ClusterNode:
    """One worker node: pool + gateway + NodeFront + heartbeat app."""

    def __init__(self, node_id: str, *, runner=None, cache_root=None, workers=2):
        self.node_id = node_id
        self.directory = PeerDirectory(node_id)
        self.cluster_cache = None
        if cache_root is not None:
            store = DiskCacheStore(str(cache_root), max_bytes=1 << 30)
            self.cluster_cache = ClusterCacheStore(
                store, self.directory, token=TOKEN
            )
        cache = CacheStack(memory=ArtifactCache(), disk=self.cluster_cache)
        self.runner = runner if runner is not None else MosaicJobRunner(cache=cache)
        self.pool = WorkerPool(
            workers=workers, runner=self.runner, cache=cache, seed=0
        )
        self.gateway = MosaicGateway(self.pool, max_pending=8)
        self.front = NodeFront(
            self.gateway,
            node_id=node_id,
            directory=self.directory,
            cluster_cache=self.cluster_cache,
            leases=CacheLeaseTable(),
            config=HttpFrontConfig(
                port=0, auth_token=TOKEN, max_body_bytes=64 << 20
            ),
        )
        self.app: ClusterNodeApp | None = None
        self.crashed = False

    async def start(self, coordinator_port: int, heartbeat_interval=0.1) -> None:
        await self.front.start()
        self.app = ClusterNodeApp(
            self.front,
            coordinator_host="127.0.0.1",
            coordinator_port=coordinator_port,
            token=TOKEN,
            heartbeat_interval=heartbeat_interval,
        )
        await self.app.start()

    async def crash(self) -> None:
        """SIGKILL shape: no drain, no deregister, listener gone."""
        self.crashed = True
        if self.app is not None and self.app._task is not None:
            # Flag first: wait_for can swallow a cancel that lands in
            # the same tick a heartbeat RPC completes (bpo-37658); the
            # flag guarantees the loop exits and this await returns.
            self.app._stopping = True
            self.app._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self.app._task
            self.app._task = None
        self.front._server.close()
        # An accept already queued on the loop can materialise a NEW
        # connection task *after* close() — kill those too, repeatedly,
        # until the connection set stays empty (a real SIGKILL leaves no
        # socket behind to keep streaming the job to the coordinator).
        for _ in range(50):
            for task in list(self.front._conn_tasks):
                task.cancel()
            await asyncio.sleep(0.01)
            if not self.front._conn_tasks:
                break
        # the "dead" box must also stop computing: a SIGKILLed process
        # cannot keep running worker threads that feed the event log
        for record in self.pool.records():
            self.pool.cancel(record.job_id)

    async def stop(self) -> None:
        if self.crashed:
            # the box is "dead": abort in-flight work at the next
            # cooperation point and don't wait on stragglers (daemons)
            for record in self.pool.records():
                self.pool.cancel(record.job_id)
            self.pool.shutdown(drain=False, timeout=2.0)
            return
        if self.app is not None:
            await self.app.stop()
        await self.front.drain()


class MiniCluster:
    """Async context manager running a coordinator and N nodes."""

    def __init__(
        self,
        nodes: int = 2,
        *,
        runner_factory=None,
        cache_root=None,
        heartbeat_deadline: float = 0.8,
        workers: int = 2,
        **config_overrides,
    ) -> None:
        self.coordinator = ClusterCoordinator(
            config=CoordinatorConfig(
                port=0,
                auth_token=TOKEN,
                heartbeat_deadline=heartbeat_deadline,
                pump_retry=0.05,
                retry_after=0.1,
                **config_overrides,
            )
        )
        self._node_count = nodes
        self._runner_factory = runner_factory
        self._cache_root = cache_root
        self._workers = workers
        self.nodes: list[ClusterNode] = []

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.coordinator.port}"

    async def wait_nodes_up(self, count: int, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.coordinator.membership.live()) >= count:
                return
            await asyncio.sleep(0.02)
        raise AssertionError(
            f"only {len(self.coordinator.membership.live())}/{count} nodes up"
        )

    async def __aenter__(self) -> "MiniCluster":
        await self.coordinator.start()
        for index in range(self._node_count):
            node_id = f"n{index}"
            runner = (
                self._runner_factory(index) if self._runner_factory else None
            )
            root = (
                self._cache_root / node_id if self._cache_root is not None else None
            )
            node = ClusterNode(
                node_id, runner=runner, cache_root=root, workers=self._workers
            )
            await node.start(self.coordinator.port)
            self.nodes.append(node)
        await self.wait_nodes_up(self._node_count)
        return self

    async def __aexit__(self, *exc_info) -> None:
        for node in self.nodes:
            await node.stop()
        await self.coordinator.aclose()

    async def call(self, fn, *args):
        """Run a blocking client call off-loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, fn, *args)


@pytest.fixture
def token() -> str:
    return TOKEN
