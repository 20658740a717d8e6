"""The cluster coordinator: admission, sharding, replication, failover.

One coordinator process fronts N worker nodes.  Clients speak to it with
the exact single-box protocol — ``POST /v1/jobs``, ``GET
/v1/jobs/{id}/events?from_seq=N`` (NDJSON or WebSocket, under the same
concurrent-stream limit), ``DELETE /v1/jobs/{id}`` — served by the same
:class:`~repro.service.http.server.HttpServerCore` as a single-box
front, so :class:`~repro.service.client.MosaicServiceClient` works
against a cluster unchanged.  Behind that surface the coordinator:

* **shards jobs** with rendezvous hashing on a content hash of the
  job payload (resubmissions land on the node that already holds their
  cache entries); the ranked rendezvous order doubles as the failover
  sequence when a node refuses (429) or is unreachable;
* **replicates event logs**: every dispatched job gets a coordinator-side
  :class:`~repro.service.http.broker.EventLog` fed by a pump task that
  streams the node's NDJSON events and renumbers them into one
  gap-free coordinator sequence.  Any front-end can then serve
  ``?from_seq=N`` resume for any job, whichever node ran it — the
  node's own log is just the transport;
* **detects failures** with heartbeat deadlines
  (:class:`~repro.service.cluster.membership.ClusterMembership`): nodes
  register and heartbeat; a sweep task declares overdue nodes dead,
  pushes the shrunk membership to the survivors (moving their cache
  shards), and the pump of every non-terminal job on a dead node
  **re-dispatches** it to the next-ranked live node.  The replicated log
  keeps its sequence — consumers see a ``redispatch`` marker event, then
  the replacement run's events, then exactly one terminal event.

Replication is *pull*: the coordinator subscribes to node streams rather
than nodes pushing, so a slow coordinator backpressures naturally and a
node needs zero cluster awareness to execute jobs.  Each replicated
event's payload is stamped with a coordinator-side ``ts`` (wall clock)
at append time — the load generator measures stream lag against it.
"""

from __future__ import annotations

import asyncio
import time

from repro.service.cache import config_fingerprint
from repro.service.cluster.membership import ClusterMembership, NodeInfo
from repro.service.cluster.rpc import RpcError, request_json, stream_ndjson
from repro.service.gateway import GatewayEvent
from repro.service.http.broker import EventLog
from repro.service.http.protocol import HttpError, HttpRequest
from repro.service.http.server import HttpFrontConfig, HttpServerCore, spec_from_payload
from repro.service.metrics import MetricsRegistry

__all__ = ["ClusterJob", "ClusterCoordinator", "CoordinatorConfig"]


class CoordinatorConfig(HttpFrontConfig):
    """Listener settings plus the control plane's failure-detection knobs.

    Bind address, auth, limits and ``retry_after`` are the
    :class:`HttpFrontConfig` fields, with the coordinator's own defaults
    for ``port`` (8700) and ``retain_terminal`` (1024).
    """

    def __init__(
        self,
        *,
        heartbeat_deadline: float = 3.0,
        sweep_interval: float | None = None,
        max_pending: int = 256,
        pump_retry: float = 0.25,
        rpc_timeout: float = 10.0,
        port: int = 8700,
        retain_terminal: int = 1024,
        **listener,
    ) -> None:
        super().__init__(port=port, retain_terminal=retain_terminal, **listener)
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.heartbeat_deadline = heartbeat_deadline
        self.sweep_interval = (
            sweep_interval if sweep_interval is not None else heartbeat_deadline / 3.0
        )
        self.max_pending = max_pending
        self.pump_retry = pump_retry
        self.rpc_timeout = rpc_timeout


class ClusterJob:
    """One job as the coordinator tracks it across dispatches."""

    def __init__(
        self, job_id: str, payload: dict, shard_key: str, node_id: str, node_job_id: str
    ) -> None:
        self.job_id = job_id
        self.payload = payload  # the validated submission body, for re-dispatch
        self.shard_key = shard_key
        self.node_id = node_id
        self.node_job_id = node_job_id
        self.node_next_seq = 0  # next seq to request from the executing node
        self.next_seq = 0  # next coordinator-side (replicated) seq
        self.redispatches = 0
        self.failed_nodes: set[str] = set()
        self.log = EventLog(job_id)
        self.submitted_at = time.time()
        self.last_state: str | None = None

    @property
    def terminal(self) -> bool:
        return self.log.closed

    def summary(self) -> dict:
        return {
            "job_id": self.job_id,
            "name": self.payload.get("name") or self.job_id,
            "kind": self.payload.get("kind", "mosaic"),
            "state": self.last_state or "REPLICATING",
            "node": self.node_id,
            "events": len(self.log.events),
            "redispatches": self.redispatches,
            "submitted_at": self.submitted_at,
        }


class ClusterCoordinator(HttpServerCore):
    """Coordinator front + control plane on one asyncio loop.

    The HTTP side is the shared :class:`HttpServerCore`: the job routes
    read the coordinator's :class:`ClusterJob` table, and the
    ``/internal/v1/`` routes take node registrations and heartbeats.
    ``await start()`` binds (``.port`` holds the real port) and starts
    the failure detector; ``await aclose()`` stops it, cancels the pumps
    and releases the socket.
    """

    def __init__(
        self,
        *,
        config: CoordinatorConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            config if config is not None else CoordinatorConfig(),
            metrics if metrics is not None else MetricsRegistry(),
        )
        self.membership = ClusterMembership(
            heartbeat_deadline=self.config.heartbeat_deadline, metrics=self.metrics
        )
        self.jobs: dict[str, ClusterJob] = {}
        self._sweep_task: asyncio.Task | None = None
        self._pumps: dict[str, asyncio.Task] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "ClusterCoordinator":
        await super().start()
        self._sweep_task = asyncio.create_task(self._sweep_loop())
        return self

    async def aclose(self) -> None:
        self.begin_drain()
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            try:
                await self._sweep_task
            except asyncio.CancelledError:
                pass
            self._sweep_task = None
        for task in list(self._pumps.values()):
            task.cancel()
        if self._pumps:
            await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        self._pumps.clear()
        for job in self.jobs.values():
            job.log.close()  # no pump feeds it now: end its client streams
        await super().aclose()

    # -- failure detection ------------------------------------------------

    async def _sweep_loop(self) -> None:
        # Guarded by the drain flag, not just cancellation: wait_for can
        # swallow a cancel that lands in the same tick an inner RPC
        # completes (bpo-37658), and aclose() must still terminate.
        while not self._draining:
            await asyncio.sleep(self.config.sweep_interval)
            self.sweep_once()

    def sweep_once(self) -> list[NodeInfo]:
        """One failure-detector pass (tests drive this synchronously)."""
        dead = self.membership.sweep()
        if dead:
            # Survivors need the shrunk membership *now* — cache shards
            # owned by the dead node move to them.  Pumps notice the
            # death on their own and re-dispatch.
            asyncio.ensure_future(self.push_membership())
        return dead

    async def push_membership(self) -> None:
        """Best-effort fan-out of the membership snapshot to live nodes."""
        snapshot = self.membership.snapshot()
        live = self.membership.live()

        async def push(node: NodeInfo) -> None:
            try:
                await request_json(
                    node.host,
                    node.port,
                    "POST",
                    "/internal/v1/membership",
                    snapshot,
                    token=self.config.auth_token,
                    timeout=self.config.rpc_timeout,
                )
            except RpcError:
                pass  # it will learn the membership on the next change

        if live:
            await asyncio.gather(*(push(node) for node in live))

    # -- dispatch ---------------------------------------------------------

    @staticmethod
    def shard_key_for(spec, payload: dict) -> str:
        """Content hash of the job payload.

        The content hash spreads distinct jobs across the cluster (a
        homogeneous workload must not pile onto one node), while
        resubmissions of the *same* spec land on the same node — their
        cache entries and event history are already there.
        """
        return config_fingerprint(payload)

    async def _dispatch(self, payload: dict, shard_key: str, exclude: set[str]):
        """Walk the rendezvous ranking until a live node admits the job.

        Returns ``(node, node_job_id)``; raises :class:`HttpError` when
        no node can take it (all down, or all full -> 429 passthrough).
        """
        candidates = self.membership.ranked(shard_key, exclude=exclude)
        if not candidates:
            raise HttpError(
                503,
                "no live worker nodes",
                headers=self.retry_headers(),
            )
        saw_full = False
        for node in candidates:
            try:
                status, body = await request_json(
                    node.host,
                    node.port,
                    "POST",
                    "/v1/jobs",
                    payload,
                    token=self.config.auth_token,
                    timeout=self.config.rpc_timeout,
                )
            except RpcError:
                self.metrics.counter("cluster_dispatch_errors_total").inc()
                continue
            if status == 202 and body.get("job_id"):
                self.metrics.counter("cluster_jobs_dispatched_total").inc()
                self.metrics.counter(f"cluster_dispatched_{node.node_id}_total").inc()
                return node, str(body["job_id"])
            if status == 429:
                saw_full = True  # spill to the next-ranked node
                continue
            raise HttpError(
                status if status >= 400 else 502,
                str(body.get("error", f"node {node.node_id} answered {status}")),
            )
        if saw_full:
            raise HttpError(
                429,
                "every live node is at capacity",
                headers=self.retry_headers(),
            )
        raise HttpError(
            503,
            "no reachable worker node accepted the job",
            headers=self.retry_headers(),
        )

    async def submit(self, payload: dict) -> ClusterJob:
        """Validate, shard, dispatch and start replicating one job."""
        spec = spec_from_payload(payload)
        pending = sum(1 for job in self.jobs.values() if not job.terminal)
        if pending >= self.config.max_pending:
            self.metrics.counter("http_rejected_429_total").inc()
            raise HttpError(
                429,
                f"cluster admission full ({pending} pending)",
                headers=self.retry_headers(),
            )
        shard_key = self.shard_key_for(spec, payload)
        node, node_job_id = await self._dispatch(payload, shard_key, set())
        job_id = node_job_id
        if job_id in self.jobs:
            # Content-hashed ids can repeat across nodes/submissions;
            # keep the external id unique.
            suffix = 1
            while f"{node_job_id}-r{suffix}" in self.jobs:
                suffix += 1
            job_id = f"{node_job_id}-r{suffix}"
        job = ClusterJob(job_id, dict(payload), shard_key, node.node_id, node_job_id)
        self.jobs[job_id] = job
        self._evict_terminal()
        self._pumps[job_id] = asyncio.create_task(self._pump(job))
        return job

    def _evict_terminal(self) -> None:
        terminal = [jid for jid, job in self.jobs.items() if job.terminal]
        for jid in terminal[: max(0, len(terminal) - self.config.retain_terminal)]:
            del self.jobs[jid]

    # -- event replication ------------------------------------------------

    def _replicate(self, job: ClusterJob, event: dict) -> None:
        payload = dict(event.get("payload") or {})
        payload.setdefault("ts", time.time())  # stream-lag reference point
        replicated = GatewayEvent(
            job_id=job.job_id,
            seq=job.next_seq,
            kind=str(event.get("kind", "event")),
            payload=payload,
            terminal=bool(event.get("terminal")),
        )
        job.next_seq += 1
        node_seq = event.get("seq")
        if isinstance(node_seq, int):
            job.node_next_seq = node_seq + 1
        if replicated.kind == "state":
            job.last_state = payload.get("state")
        job.log.append(replicated)
        self.metrics.counter("cluster_events_replicated_total").inc()

    def _append_marker(
        self, job: ClusterJob, kind: str, payload: dict, terminal: bool = False
    ) -> None:
        payload = dict(payload)
        payload.setdefault("ts", time.time())
        job.log.append(
            GatewayEvent(
                job_id=job.job_id,
                seq=job.next_seq,
                kind=kind,
                payload=payload,
                terminal=terminal,
            )
        )
        job.next_seq += 1
        if terminal:
            job.last_state = payload.get("state", job.last_state)

    async def _pump(self, job: ClusterJob) -> None:
        """Replicate ``job``'s events until terminal, surviving node death.

        The loop distinguishes two failure shapes: a *transient* stream
        break while the node still heartbeats (resume from
        ``node_next_seq`` — the node's log replays history, so nothing is
        lost) and a *declared-dead* node (re-dispatch to the next-ranked
        live node, marker event in the log, sequence continues).
        """
        try:
            # The drain-flag guard (not just task cancellation) matters:
            # wait_for can swallow a cancel arriving in the same tick an
            # inner await completes, and aclose() gathers these tasks.
            while not self._draining:
                node = self.membership.get(job.node_id)
                if node is None or node.state != "up":
                    if not await self._redispatch(job):
                        return
                    continue
                path = (
                    f"/v1/jobs/{job.node_job_id}/events"
                    f"?from_seq={job.node_next_seq}"
                )
                try:
                    async for event in stream_ndjson(
                        node.host,
                        node.port,
                        path,
                        token=self.config.auth_token,
                        connect_timeout=self.config.rpc_timeout,
                    ):
                        self._replicate(job, event)
                        if job.terminal:
                            return
                except RpcError:
                    await asyncio.sleep(self.config.pump_retry)
                    continue
                # Stream closed cleanly without a terminal event (node
                # drain closes logs): brief pause, then resume/redispatch.
                await asyncio.sleep(self.config.pump_retry)
        except asyncio.CancelledError:
            raise
        finally:
            self._pumps.pop(job.job_id, None)

    async def _redispatch(self, job: ClusterJob) -> bool:
        """Move a job off its dead node; ``False`` ends the pump.

        ``False`` means either the job finished (terminal already
        replicated) or no replacement node exists — in the latter case a
        terminal FAILED event is appended so every subscriber ends
        cleanly instead of hanging on a log that will never close.
        """
        if job.terminal:
            return False
        job.failed_nodes.add(job.node_id)
        try:
            node, node_job_id = await self._dispatch(
                job.payload, job.shard_key, job.failed_nodes
            )
        except HttpError as exc:
            if exc.status == 429:
                # Capacity, not death: drop the exclusion next round and
                # keep the job alive — it re-enters dispatch after a pause.
                await asyncio.sleep(self.config.retry_after)
                job.failed_nodes.discard(job.node_id)
                return not job.terminal
            self._append_marker(
                job,
                "state",
                {
                    "state": "FAILED",
                    "error": (
                        f"node {job.node_id!r} died and no live node could "
                        f"take the job: {exc.message}"
                    ),
                },
                terminal=True,
            )
            self.metrics.counter("cluster_orphaned_jobs_total").inc()
            return False
        previous = job.node_id
        job.node_id = node.node_id
        job.node_job_id = node_job_id
        job.node_next_seq = 0
        job.redispatches += 1
        self.metrics.counter("cluster_jobs_redispatched_total").inc()
        self._append_marker(
            job,
            "redispatch",
            {"from_node": previous, "to_node": node.node_id, "attempt": job.redispatches},
        )
        return True

    # -- HTTP routes ------------------------------------------------------

    def _health(self) -> dict:
        return {
            "role": "coordinator",
            "nodes_up": len(self.membership.live()),
            "jobs": len(self.jobs),
        }

    async def _submit(self, payload: dict) -> dict:
        job = await self.submit(payload)
        return {
            "job_id": job.job_id,
            "name": job.payload.get("name") or job.job_id,
            "node": job.node_id,
            "events": f"/v1/jobs/{job.job_id}/events",
        }

    def job_summaries(self) -> list[dict]:
        return [job.summary() for job in self.jobs.values()]

    def _job_summary(self, job_id: str) -> dict | None:
        job = self.jobs.get(job_id)
        return job.summary() if job is not None else None

    def _event_log(self, job_id: str) -> EventLog | None:
        job = self.jobs.get(job_id)
        return job.log if job is not None else None

    async def _cancel(self, job_id: str) -> bool:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        node = self.membership.get(job.node_id)
        if node is None or node.state != "up" or job.terminal:
            return False
        try:
            status, body = await request_json(
                node.host,
                node.port,
                "DELETE",
                f"/v1/jobs/{job.node_job_id}",
                token=self.config.auth_token,
                timeout=self.config.rpc_timeout,
            )
        except RpcError:
            return False
        return status == 202 and bool(body.get("cancel_accepted"))

    async def _route_extra(self, request: HttpRequest, writer) -> int:
        path, method = request.path, request.method
        if path == "/internal/v1/nodes" and method == "POST":
            return self._reply(request, writer, 200, await self._post_node(request))
        if path.startswith("/internal/v1/nodes/"):
            tail = path[len("/internal/v1/nodes/"):]
            if tail.endswith("/heartbeat") and method == "POST":
                node_id = tail[: -len("/heartbeat")].rstrip("/")
                self._post_heartbeat(request, node_id)
                return self._reply(request, writer, 200, {"ok": True})
            if "/" not in tail and method == "DELETE":
                self.membership.remove(tail)
                await self.push_membership()
                return self._reply(request, writer, 200, {"removed": tail})
        if path == "/internal/v1/cluster" and method == "GET":
            body = {
                "version": self.membership.version,
                "nodes": [info.summary() for info in self.membership.all()],
                "jobs": len(self.jobs),
            }
            return self._reply(request, writer, 200, body)
        return await super()._route_extra(request, writer)

    async def _post_node(self, request: HttpRequest) -> dict:
        payload = request.json()
        node_id = payload.get("node_id")
        host = payload.get("host")
        port = payload.get("port")
        if not node_id or not host or not isinstance(port, int):
            raise HttpError(400, "registration needs node_id, host and int port")
        self.membership.register(str(node_id), str(host), port)
        await self.push_membership()
        return {"registered": node_id, "version": self.membership.version}

    def _post_heartbeat(self, request: HttpRequest, node_id: str) -> None:
        stats = None
        if request.body:
            stats = request.json().get("stats")
        if not self.membership.heartbeat(node_id, stats):
            raise HttpError(
                404, f"node {node_id!r} is not a live member (re-register)"
            )

    def _refresh_metrics(self) -> None:
        """Fold node heartbeat stats + job table into cluster gauges."""
        remote_hits = remote_misses = pending = 0
        for info in self.membership.live():
            cache = info.stats.get("cache") or {}
            remote_hits += int(cache.get("remote_hits", 0))
            remote_misses += int(cache.get("remote_misses", 0))
            pending += int(info.stats.get("pending_jobs", 0))
        lookups = remote_hits + remote_misses
        self.metrics.gauge(
            "cluster_cache_remote_hit_ratio",
            "cross-node cache hits over cross-node lookups",
        ).set(remote_hits / lookups if lookups else 0.0)
        self.metrics.gauge(
            "cluster_pending_jobs", "jobs admitted on nodes, not yet terminal"
        ).set(pending)
        assigned: dict[str, int] = {}
        for job in self.jobs.values():
            if not job.terminal:
                assigned[job.node_id] = assigned.get(job.node_id, 0) + 1
        for info in self.membership.all():
            self.metrics.gauge(
                f"cluster_jobs_assigned_{info.node_id}",
                "non-terminal jobs currently assigned to this node",
            ).set(assigned.get(info.node_id, 0))
