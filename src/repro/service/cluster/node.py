"""The worker-node side of the cluster: one serve-http stack, joined up.

A cluster node is deliberately boring: it is the existing single-box
service — :class:`~repro.service.workers.WorkerPool` +
:class:`~repro.service.gateway.MosaicGateway` +
:class:`~repro.service.http.server.HttpFront` — with three additions:

* :class:`NodeFront` extends the public HTTP front with the
  ``/internal/v1/*`` RPC routes the cluster needs: membership pushes
  from the coordinator, the cache-entry transfer pair (GET/PUT with the
  payload layout in an ``X-Payload-Layout`` header and the key — which
  contains slashes — as a *query parameter*), and the compute-lease
  routes backing cross-node single-flight.  Internal routes share the
  public bearer token: one cluster, one credential.
* :class:`ClusterNodeApp` runs the node's half of membership: register
  with the coordinator, heartbeat on an interval with a stats payload
  (queue depth, cache counters) the coordinator folds into its
  cluster-level gauges, and re-register whenever a heartbeat is refused
  (the coordinator declared us dead while we were merely slow).
* :class:`PacedRunner` wraps the job runner with a wall-clock floor per
  job.  Its purpose is honest capacity benchmarking on small boxes: on a
  single-core host, N nodes contend for the same core and a jobs/sec
  curve would measure the GIL, not the cluster fabric.  A floor turns
  each job into a mostly-sleeping task (the sleep releases the GIL), so
  ``bench_cluster_capacity.py`` can measure dispatch/stream/replication
  overhead at a disclosed emulated job duration.  It is opt-in
  (``--job-floor-seconds``) and off by default.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

from repro.service.cluster.cache import ClusterCacheStore
from repro.service.cluster.leases import CacheLeaseTable
from repro.service.cluster.membership import PeerDirectory
from repro.service.cluster.rpc import RpcError, request_json
from repro.service.diskcache import decode_payload, encode_payload
from repro.service.http.protocol import HttpError, HttpRequest, response_head
from repro.service.http.server import HttpFront, HttpFrontConfig

__all__ = ["PacedRunner", "NodeFront", "ClusterNodeApp"]

_MISS = object()


class PacedRunner:
    """Wrap a job runner with a minimum wall-clock duration per job.

    Forwards the context capability of the wrapped runner, so the pool
    treats it exactly like the runner underneath.
    """

    def __init__(self, inner, floor_seconds: float) -> None:
        if floor_seconds < 0:
            raise ValueError(f"floor_seconds must be >= 0, got {floor_seconds}")
        self.inner = inner
        self.floor_seconds = floor_seconds
        self.accepts_context = bool(getattr(inner, "accepts_context", False))

    def __call__(self, spec, ctx=None):
        started = time.monotonic()
        if self.accepts_context:
            result = self.inner(spec, ctx)
        else:
            result = self.inner(spec)
        remaining = self.floor_seconds - (time.monotonic() - started)
        if remaining > 0:
            time.sleep(remaining)  # releases the GIL: jobs overlap across nodes
        return result


class NodeFront(HttpFront):
    """The public HTTP front plus the cluster's internal RPC routes.

    =====================================  ==============================
    ``POST /internal/v1/membership``       coordinator pushes the node
                                           list; stale versions ignored.
    ``GET /internal/v1/cache/entry``       serve one owned cache payload
                                           (``?key=``, layout in header).
    ``PUT /internal/v1/cache/entry``       accept a replicated payload.
    ``POST /internal/v1/cache/lease``      arbitrate a compute lease.
    ``DELETE /internal/v1/cache/lease``    release a granted lease.
    ``GET /internal/v1/status``            node identity + live counters.
    =====================================  ==============================
    """

    def __init__(
        self,
        gateway,
        *,
        node_id: str,
        directory: PeerDirectory,
        cluster_cache: ClusterCacheStore | None = None,
        leases: CacheLeaseTable | None = None,
        config: HttpFrontConfig | None = None,
        metrics=None,
    ) -> None:
        super().__init__(gateway, config=config, metrics=metrics)
        self.node_id = node_id
        self.directory = directory
        self.cluster_cache = cluster_cache
        self.leases = leases if leases is not None else CacheLeaseTable()

    async def _route_extra(self, request: HttpRequest, writer) -> int:
        path, method = request.path, request.method
        if path == "/internal/v1/membership" and method == "POST":
            return self._post_membership(request, writer)
        if path == "/internal/v1/cache/entry":
            if method == "GET":
                return self._get_cache_entry(request, writer)
            if method == "PUT":
                return self._put_cache_entry(request, writer)
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == "/internal/v1/cache/lease":
            if method == "POST":
                return self._post_lease(request, writer)
            if method == "DELETE":
                return self._delete_lease(request, writer)
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == "/internal/v1/status" and method == "GET":
            return self._reply(request, writer, 200, self.node_stats())
        return await super()._route_extra(request, writer)

    # -- membership -------------------------------------------------------

    def _post_membership(self, request: HttpRequest, writer) -> int:
        payload = request.json()
        nodes = payload.get("nodes")
        if not isinstance(nodes, dict):
            raise HttpError(400, "membership push needs a 'nodes' object")
        try:
            parsed = {
                node_id: (str(entry["host"]), int(entry["port"]))
                for node_id, entry in nodes.items()
            }
        except (TypeError, KeyError, ValueError):
            raise HttpError(
                400, "membership nodes must map id -> {host, port}"
            ) from None
        version = payload.get("version")
        accepted = self.directory.set_nodes(
            parsed, version=int(version) if version is not None else None
        )
        self.metrics.counter("cluster_membership_pushes_total").inc()
        return self._reply(
            request,
            writer,
            200,
            {"accepted": accepted, "version": self.directory.version},
        )

    # -- cache transfer ---------------------------------------------------

    def _cache_key(self, request: HttpRequest) -> str:
        # Keys contain '/' (e.g. "tiles/<fp>/t8"), so they travel as a
        # query parameter — parse_qsl unquotes them safely, whereas a
        # path segment would be mangled by the route split.
        key = request.query.get("key")
        if not key:
            raise HttpError(400, "missing 'key' query parameter")
        return key

    def _local_store(self):
        if self.cluster_cache is None:
            raise HttpError(404, "this node runs without a cluster cache")
        return self.cluster_cache.local

    def _get_cache_entry(self, request: HttpRequest, writer) -> int:
        key = self._cache_key(request)
        value = self._local_store().get(key, _MISS)
        if value is _MISS:
            raise HttpError(404, f"no cache entry for key {key!r}")
        data, layout = encode_payload(value)
        writer.write(
            response_head(
                200,
                {
                    "Content-Type": "application/octet-stream",
                    "Content-Length": str(len(data)),
                    "X-Payload-Layout": json.dumps(layout),
                    "Connection": "keep-alive" if request.keep_alive else "close",
                },
            )
            + data
        )
        self.metrics.counter("cluster_cache_served_total").inc()
        return 200

    def _put_cache_entry(self, request: HttpRequest, writer) -> int:
        key = self._cache_key(request)
        try:
            layout = json.loads(request.headers.get("x-payload-layout", ""))
        except json.JSONDecodeError:
            raise HttpError(400, "missing or malformed X-Payload-Layout") from None
        try:
            value = decode_payload(request.body, layout)
        except Exception:
            raise HttpError(400, "payload does not decode under its layout") from None
        self._local_store().put(key, value)
        self.metrics.counter("cluster_cache_accepted_total").inc()
        return self._reply(request, writer, 200, {"stored": key})

    # -- leases -----------------------------------------------------------

    def _post_lease(self, request: HttpRequest, writer) -> int:
        payload = request.json()
        key = payload.get("key")
        requester = payload.get("requester")
        if not key or not requester:
            raise HttpError(400, "lease acquire needs 'key' and 'requester'")
        decision = self.leases.acquire(
            key, requester, ready=self._local_store().contains(key)
        )
        return self._reply(request, writer, 200, decision)

    def _delete_lease(self, request: HttpRequest, writer) -> int:
        key = self._cache_key(request)
        requester = request.query.get("requester")
        if not requester:
            raise HttpError(400, "missing 'requester' query parameter")
        released = self.leases.release(key, requester)
        return self._reply(request, writer, 200, {"released": released})

    # -- status -----------------------------------------------------------

    def node_stats(self) -> dict[str, Any]:
        """The stats payload heartbeats carry to the coordinator."""
        stats: dict[str, Any] = {
            "node_id": self.node_id,
            "pending_jobs": self.gateway.pending,
            "active_streams": self._streams_active,
            "membership_version": self.directory.version,
            "leases_active": self.leases.active(),
            "leases_reclaimed": self.leases.reclaimed,
        }
        if self.cluster_cache is not None:
            stats["cache"] = self.cluster_cache.counts()
        return stats


class ClusterNodeApp:
    """The node's membership client: register, heartbeat, re-register.

    Runs inside the node's event loop next to the front.  ``start()``
    registers with the coordinator (retrying until it answers — the node
    may boot first) and launches the heartbeat task; ``stop()`` cancels
    it and best-effort deregisters so clean shutdowns don't count as
    failures in the coordinator's metrics.
    """

    def __init__(
        self,
        front: NodeFront,
        *,
        coordinator_host: str,
        coordinator_port: int,
        advertise_host: str | None = None,
        token: str | None = None,
        heartbeat_interval: float = 0.5,
        rpc_timeout: float = 5.0,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        self.front = front
        self.coordinator_host = coordinator_host
        self.coordinator_port = int(coordinator_port)
        self.advertise_host = advertise_host
        self.token = token
        self.heartbeat_interval = heartbeat_interval
        self.rpc_timeout = rpc_timeout
        self.registrations = 0
        self._task: asyncio.Task | None = None
        self._stopping = False

    async def start(self) -> "ClusterNodeApp":
        self._stopping = False
        await self._register_until_accepted()
        self._task = asyncio.create_task(self._heartbeat_loop())
        return self

    async def stop(self) -> None:
        # Set the flag before cancelling: a cancel that lands in the
        # same tick a heartbeat RPC completes gets swallowed by
        # wait_for (bpo-37658), and the loop would otherwise run — and
        # this await would hang — forever.
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        try:
            await request_json(
                self.coordinator_host,
                self.coordinator_port,
                "DELETE",
                f"/internal/v1/nodes/{self.front.node_id}",
                token=self.token,
                timeout=self.rpc_timeout,
            )
        except RpcError:
            pass  # the failure detector cleans up after us

    # -- internals --------------------------------------------------------

    def _registration_payload(self) -> dict:
        host = self.advertise_host or self.front.config.host
        return {
            "node_id": self.front.node_id,
            "host": host,
            "port": self.front.port,
        }

    async def _register(self) -> bool:
        try:
            status, _ = await request_json(
                self.coordinator_host,
                self.coordinator_port,
                "POST",
                "/internal/v1/nodes",
                self._registration_payload(),
                token=self.token,
                timeout=self.rpc_timeout,
            )
        except RpcError:
            return False
        if status == 200:
            self.registrations += 1
            return True
        return False

    async def _register_until_accepted(self) -> None:
        while not self._stopping and not await self._register():
            await asyncio.sleep(self.heartbeat_interval)

    async def _heartbeat_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.heartbeat_interval)
            try:
                status, _ = await request_json(
                    self.coordinator_host,
                    self.coordinator_port,
                    "POST",
                    f"/internal/v1/nodes/{self.front.node_id}/heartbeat",
                    {"stats": self.front.node_stats()},
                    token=self.token,
                    timeout=self.rpc_timeout,
                )
            except RpcError:
                continue  # coordinator unreachable: keep trying
            if status == 404:
                # Declared dead while we were alive (GC pause, network
                # blip): our jobs are already re-dispatched, so rejoin as
                # a fresh member and take new work.
                await self._register()
