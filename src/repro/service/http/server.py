"""The HTTP/WebSocket network front over :class:`MosaicGateway`.

:class:`HttpServerCore` is the one HTTP server every serving role runs:
plain ``asyncio.start_server`` underneath, the tiny HTTP/1.1 parser from
:mod:`repro.service.http.protocol`, and the RFC 6455 subset from
:mod:`repro.service.http.websocket`.  It owns the job routes and their
error taxonomy; a role supplies the job table behind them.
:class:`HttpFront` is the single-box role (a gateway plus its event
broker); :class:`~repro.service.cluster.node.NodeFront` adds the
cluster's internal routes to it, and
:class:`~repro.service.cluster.coordinator.ClusterCoordinator` serves
replicated logs of jobs that run on worker nodes.

==========================  ===========================================
``POST /v1/jobs``           submit a JSON :class:`JobSpec`; ``202`` with
                            the job id, ``429`` + ``Retry-After`` when
                            admission is full (typed backpressure).
``GET /v1/jobs``            list job summaries.
``GET /v1/jobs/{id}``       one job summary.
``GET /v1/jobs/{id}/events``  the ordered event stream — NDJSON over
                            chunked transfer by default, or an RFC 6455
                            WebSocket upgrade on the same route; both
                            honour ``?from_seq=N`` resume.
``DELETE /v1/jobs/{id}``    cooperative cancellation.
``GET /healthz``            liveness + drain state (never authenticated).
``GET /metrics``            Prometheus text exposition of the shared
                            registry (scrapers go unauthenticated).
==========================  ===========================================

Operational behaviour:

* **auth** — optional static bearer token; every ``/v1/`` and
  ``/internal/`` route then requires ``Authorization: Bearer <token>``
  (constant-time compare) and replies ``401`` otherwise;
* **limits** — request bodies beyond ``max_body_bytes`` get ``413``,
  header blocks beyond ``max_header_bytes`` get ``431``, and at most
  ``max_concurrent_streams`` event streams run at once (``503`` +
  ``Retry-After`` beyond that);
* **metrics** — ``http_requests_total``, ``http_responses_total`` per
  status class, the ``http_in_flight`` / ``http_streams_active`` /
  ``http_connections_active`` gauges, and the
  ``http_request_latency_seconds`` histogram all land in the same
  :class:`MetricsRegistry` as the pool and gateway instruments;
* **graceful drain** — :meth:`HttpServerCore.begin_drain` stops
  accepting connections and answers new requests ``503 Connection:
  close`` while active event streams run to their terminal event;
  :meth:`HttpServerCore.drain` then shuts the role down in its one safe
  order.  The serving CLIs wire both to SIGINT/SIGTERM.
"""

from __future__ import annotations

import asyncio
import hmac
import os
import re
import time

from repro.exceptions import AdmissionRejected, JobError
from repro.service.gateway import MosaicGateway
from repro.service.http import websocket as ws
from repro.service.http.broker import EventLog, JobEventBroker
from repro.service.http.protocol import (
    HttpError,
    HttpRequest,
    end_chunks,
    read_request,
    response_head,
    send_json,
    write_chunk,
)
from repro.service.jobs import JOB_KINDS, JobSpec, JobState
from repro.service.metrics import MetricsRegistry

__all__ = [
    "HttpFront",
    "HttpFrontConfig",
    "HttpServerCore",
    "REQUEST_LATENCY_BUCKETS",
    "spec_from_payload",
]


def spec_from_payload(payload: dict) -> JobSpec:
    """Validate a JSON job-submission body into a :class:`JobSpec`.

    Shared by every front that accepts submissions (the single-box HTTP
    front and the cluster coordinator), so both reject malformed specs
    with identical 400 taxonomy codes.
    """
    unknown = set(payload) - JobSpec.field_names()
    if unknown:
        raise HttpError(
            400,
            f"unknown job spec fields: {', '.join(sorted(unknown))}",
            code="unknown_field",
        )
    kind = payload.get("kind", "mosaic")
    if kind not in JOB_KINDS:
        raise HttpError(
            400,
            f"unknown job kind {kind!r} (use one of {JOB_KINDS})",
            code="unknown_kind",
        )
    output = payload.get("output")
    if output is not None and (
        not isinstance(output, str)
        or os.path.isabs(output)
        or ".." in re.split(r"[/\\]", output)
    ):
        # The runner joins a relative output onto its output directory;
        # a network client must not name a file anywhere else.
        raise HttpError(
            400,
            f"invalid job spec: output must be a relative path without "
            f"'..', got {output!r}",
            code="invalid_spec",
        )
    try:
        return JobSpec(**payload)
    except (TypeError, JobError) as exc:
        raise HttpError(400, f"invalid job spec: {exc}", code="invalid_spec") from None

#: Request-latency buckets: sub-millisecond routing up to long streams.
REQUEST_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)


class HttpFrontConfig:
    """Bind address, auth and limits for one :class:`HttpServerCore`."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        auth_token: str | None = None,
        max_body_bytes: int = 1 << 20,
        max_header_bytes: int = 32 * 1024,
        max_concurrent_streams: int = 64,
        retain_terminal: int = 256,
        retry_after: float = 1.0,
    ) -> None:
        if max_body_bytes < 1 or max_header_bytes < 1:
            raise ValueError("body/header limits must be positive")
        if max_concurrent_streams < 1:
            raise ValueError(
                f"max_concurrent_streams must be >= 1, got {max_concurrent_streams}"
            )
        if retain_terminal < 1:
            raise ValueError(f"retain_terminal must be >= 1, got {retain_terminal}")
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.max_body_bytes = max_body_bytes
        self.max_header_bytes = max_header_bytes
        self.max_concurrent_streams = max_concurrent_streams
        self.retain_terminal = retain_terminal
        self.retry_after = retry_after


class HttpServerCore:
    """Asyncio HTTP/1.1 + WebSocket server with the job routes.

    Lifecycle: ``await server.start()`` binds the listener
    (``server.port`` then holds the real port, also with ``port=0``);
    ``begin_drain()`` flips to lame-duck mode; ``await server.aclose()``
    waits for open connections to finish and releases the socket;
    ``await server.drain()`` is the role's whole graceful shutdown.

    A role fills in the job table behind the routes: :meth:`_health`,
    :meth:`_submit`, :meth:`job_summaries`, :meth:`_job_summary`,
    :meth:`_cancel` and :meth:`_event_log`, plus any routes of its own in
    :meth:`_route_extra`.
    """

    def __init__(self, config: HttpFrontConfig, metrics: MetricsRegistry) -> None:
        self.config = config
        self.metrics = metrics
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._closing = False
        self._streams_active = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._idle_writers: set[asyncio.StreamWriter] = set()  # between requests

    # -- lifecycle -------------------------------------------------------

    async def start(self):
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Lame-duck: stop accepting, 503 new requests, finish streams."""
        self._draining = True
        if self._server is not None:
            self._server.close()

    async def aclose(self) -> None:
        """Drain and release the listener; idempotent.

        Responses and streams in flight finish, and a request already
        being received still gets its 503; a connection idle between
        requests is closed, so a kept-alive client cannot hold it open.
        The idle connections are closed before anything is awaited:
        ``Server.wait_closed()`` waits for every connection (Python
        3.12.1 on), so it comes last.
        """
        self._closing = True
        self.begin_drain()
        for writer in list(self._idle_writers):
            writer.close()  # its reader sees EOF; the connection loop ends
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def drain(self) -> None:
        """Graceful shutdown of the whole role (this core: the listener)."""
        await self.aclose()

    async def cancel_in_flight(self) -> None:
        """Cancel jobs still running (a second drain signal); no-op here."""

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- connection handling ---------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        # start_server runs this callback as its own task; track it so
        # aclose() can wait for in-flight connections.
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        self.metrics.gauge("http_connections_active").inc()
        try:
            while not self._closing:
                # Idle only until the next request's first byte: aclose()
                # closes an idle connection, never one partly received.
                self._idle_writers.add(writer)
                try:
                    first = await reader.read(1)
                finally:
                    self._idle_writers.discard(writer)
                if not first:
                    break  # peer closed between requests
                try:
                    request = await read_request(
                        reader,
                        max_header_bytes=self.config.max_header_bytes,
                        max_body_bytes=self.config.max_body_bytes,
                        peer=peer,
                        first=first,
                    )
                except HttpError as exc:
                    self._count_response(exc.status)
                    send_json(
                        writer,
                        exc.status,
                        exc.body(),
                        headers=exc.headers,
                        keep_alive=False,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._handle_request(request, reader, writer)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
            TimeoutError,
        ):
            pass  # peer vanished; nothing to answer
        finally:
            self.metrics.gauge("http_connections_active").dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_request(self, request: HttpRequest, reader, writer) -> bool:
        started = time.perf_counter()
        self.metrics.counter("http_requests_total").inc()
        self.metrics.gauge("http_in_flight").inc()
        status = 500
        keep_alive = False
        try:
            status, keep_alive = await self._route(request, reader, writer)
        except HttpError as exc:
            status = exc.status
            keep_alive = (
                request.keep_alive
                and exc.headers.get("Connection", "").lower() != "close"
            )
            send_json(
                writer,
                exc.status,
                exc.body(),
                headers=exc.headers,
                keep_alive=keep_alive,
            )
            await writer.drain()
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
        ):
            keep_alive = False  # client went away mid-response
            status = 499
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.metrics.counter("http_internal_errors_total").inc()
            keep_alive = False
            try:
                send_json(
                    writer,
                    500,
                    {"error": f"internal error: {type(exc).__name__}: {exc}"},
                    keep_alive=False,
                )
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass
        finally:
            self.metrics.gauge("http_in_flight").dec()
            self.metrics.histogram(
                "http_request_latency_seconds", buckets=REQUEST_LATENCY_BUCKETS
            ).observe(time.perf_counter() - started)
            self._count_response(status)
        return keep_alive

    def _count_response(self, status: int) -> None:
        self.metrics.counter("http_responses_total").inc()
        self.metrics.counter(f"http_responses_{status // 100}xx_total").inc()

    def retry_headers(self, **extra: str) -> dict[str, str]:
        """The ``Retry-After`` hint for a 429/503, plus ``extra`` headers."""
        return {"Retry-After": f"{self.config.retry_after:g}", **extra}

    # -- request routing -------------------------------------------------

    def _reply(self, request: HttpRequest, writer, status: int, body) -> int:
        send_json(writer, status, body, keep_alive=request.keep_alive)
        return status

    async def _route(self, request: HttpRequest, reader, writer) -> tuple[int, bool]:
        """Dispatch one request; returns ``(status, keep_alive)``."""
        path, method = request.path, request.method
        keep_alive = request.keep_alive
        if path == "/healthz":
            health = {"status": "draining" if self._draining else "ok"}
            health.update(self._health())
            return self._reply(request, writer, 200, health), keep_alive
        if self._draining:
            raise HttpError(
                503,
                "server is draining",
                headers=self.retry_headers(Connection="close"),
            )
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return self._get_metrics(request, writer), keep_alive

        if path.startswith(("/v1/", "/internal/")):
            self._authorize(request)
        if path == "/v1/jobs":
            if method == "POST":
                body = await self._submit(request.json())
                return self._reply(request, writer, 202, body), keep_alive
            if method == "GET":
                body = {"jobs": self.job_summaries()}
                return self._reply(request, writer, 200, body), keep_alive
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            if tail.endswith("/events") and method == "GET":
                job_id = tail[: -len("/events")].rstrip("/")
                return await self._get_events(request, reader, writer, job_id)
            if "/" not in tail:
                if method == "GET":
                    summary = self._job_summary(tail)
                    if summary is None:
                        raise HttpError(404, f"unknown job {tail!r}")
                    return self._reply(request, writer, 200, summary), keep_alive
                if method == "DELETE":
                    body = {"job_id": tail, "cancel_accepted": await self._cancel(tail)}
                    return self._reply(request, writer, 202, body), keep_alive
                raise HttpError(405, f"{method} not allowed on {path}")
        return await self._route_extra(request, writer), keep_alive

    async def _route_extra(self, request: HttpRequest, writer) -> int:
        """Routes a role adds beyond the job routes; returns the status."""
        raise HttpError(404, f"no route for {request.method} {request.path}")

    def _authorize(self, request: HttpRequest) -> None:
        token = self.config.auth_token
        if not token:
            return
        supplied = request.headers.get("authorization", "")
        scheme, _, value = supplied.partition(" ")
        if scheme.lower() == "bearer" and hmac.compare_digest(
            value.strip().encode("utf-8"), token.encode("utf-8")
        ):
            return
        self.metrics.counter("http_auth_failures_total").inc()
        raise HttpError(
            401,
            "missing or invalid bearer token",
            headers={"WWW-Authenticate": "Bearer"},
        )

    def _get_metrics(self, request: HttpRequest, writer) -> int:
        self._refresh_metrics()
        body = self.metrics.render_prometheus().encode("utf-8")
        writer.write(
            response_head(
                200,
                {
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                    "Content-Length": str(len(body)),
                    "Connection": "keep-alive" if request.keep_alive else "close",
                },
            )
            + body
        )
        return 200

    # -- the job table a role supplies -----------------------------------

    def _health(self) -> dict:
        """Role-specific ``/healthz`` fields after ``status``."""
        return {}

    async def _submit(self, payload: dict) -> dict:
        """Admit one submission body; returns the ``202`` reply."""
        raise NotImplementedError

    def job_summaries(self) -> list[dict]:
        """JSON-ready summaries of the jobs this role still retains."""
        raise NotImplementedError

    def _job_summary(self, job_id: str) -> dict | None:
        raise NotImplementedError

    async def _cancel(self, job_id: str) -> bool:
        """Request cancellation; raise ``404`` for an unknown job."""
        raise NotImplementedError

    def _event_log(self, job_id: str) -> EventLog | None:
        raise NotImplementedError

    def _refresh_metrics(self) -> None:
        """Fold role state into gauges just before a ``/metrics`` scrape."""

    # -- event streaming -------------------------------------------------

    async def _get_events(
        self, request: HttpRequest, reader, writer, job_id: str
    ) -> tuple[int, bool]:
        log = self._event_log(job_id)
        if log is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        from_seq = request.int_query("from_seq", 0)
        if from_seq < 0:
            raise HttpError(400, "from_seq must be >= 0")
        if self._streams_active >= self.config.max_concurrent_streams:
            raise HttpError(
                503,
                f"stream limit of {self.config.max_concurrent_streams} reached",
                headers=self.retry_headers(),
            )
        upgrade = request.headers.get("upgrade", "").lower()
        self._streams_active += 1
        self.metrics.counter("http_streams_total").inc()
        self.metrics.gauge("http_streams_active").set(self._streams_active)
        try:
            if upgrade == "websocket":
                await self._stream_websocket(request, reader, writer, log, from_seq)
                return 101, False  # a closed websocket never reverts to HTTP
            status = await self._stream_ndjson(request, writer, log, from_seq)
            return status, request.keep_alive
        finally:
            self._streams_active -= 1
            self.metrics.gauge("http_streams_active").set(self._streams_active)

    async def _stream_ndjson(
        self, request: HttpRequest, writer, log: EventLog, from_seq: int
    ) -> int:
        writer.write(
            response_head(
                200,
                {
                    "Content-Type": "application/x-ndjson; charset=utf-8",
                    "Transfer-Encoding": "chunked",
                    "Cache-Control": "no-store",
                    "Connection": "keep-alive" if request.keep_alive else "close",
                },
            )
        )
        async for event in log.subscribe(from_seq):
            write_chunk(writer, (event.to_json() + "\n").encode("utf-8"))
            self.metrics.counter("http_events_streamed_total").inc()
            await writer.drain()
        end_chunks(writer)
        await writer.drain()
        return 200

    async def _stream_websocket(
        self, request: HttpRequest, reader, writer, log: EventLog, from_seq: int
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        version = request.headers.get("sec-websocket-version")
        if "upgrade" not in request.headers.get("connection", "").lower() or not key:
            raise HttpError(400, "malformed websocket upgrade request")
        if version != "13":
            raise HttpError(
                426,
                f"unsupported websocket version {version!r}",
                headers={"Sec-WebSocket-Version": "13"},
            )
        writer.write(
            response_head(
                101,
                {
                    "Upgrade": "websocket",
                    "Connection": "Upgrade",
                    "Sec-WebSocket-Accept": ws.accept_key(key),
                },
            )
        )
        await writer.drain()
        self.metrics.counter("http_ws_upgrades_total").inc()

        client_gone = asyncio.Event()

        async def read_client() -> None:
            # Serve pings and notice closes; data frames are ignored.
            try:
                while True:
                    opcode, payload = await ws.read_frame(
                        reader, max_payload=self.config.max_body_bytes
                    )
                    if opcode == ws.OP_PING:
                        writer.write(ws.encode_frame(ws.OP_PONG, payload))
                        await writer.drain()
                    elif opcode == ws.OP_CLOSE:
                        return
            except (
                ws.WebSocketError,
                asyncio.IncompleteReadError,
                ConnectionError,
            ):
                return
            finally:
                client_gone.set()

        reader_task = asyncio.create_task(read_client())
        try:
            async for event in log.subscribe(from_seq):
                if client_gone.is_set():
                    return
                writer.write(
                    ws.encode_frame(ws.OP_TEXT, event.to_json().encode("utf-8"))
                )
                self.metrics.counter("http_events_streamed_total").inc()
                await writer.drain()
            writer.write(ws.encode_frame(ws.OP_CLOSE, ws.encode_close(1000)))
            await writer.drain()
            # Give the close handshake a moment to complete; a stubborn
            # client just gets its TCP stream torn down.
            try:
                await asyncio.wait_for(asyncio.shield(reader_task), timeout=1.0)
            except asyncio.TimeoutError:
                pass
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass


class HttpFront(HttpServerCore):
    """The single-box role: one gateway and its replayable event logs.

    The gateway and its pool are handed in by the caller, and
    :meth:`drain` shuts all three down.
    """

    def __init__(
        self,
        gateway: MosaicGateway,
        *,
        config: HttpFrontConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            config if config is not None else HttpFrontConfig(),
            metrics if metrics is not None else gateway.metrics,
        )
        self.gateway = gateway
        self.broker = JobEventBroker(
            gateway, retain_terminal=self.config.retain_terminal
        )

    async def drain(self) -> None:
        """Graceful shutdown, in the one order that loses no event.

        Admitted jobs finish (or end ``CANCELLED`` after
        :meth:`cancel_in_flight`), so every stream gets its terminal
        event; the broker's pumps close every log; open connections
        flush and the listener closes; only then do the workers stop.
        """
        await self.gateway.aclose(drain=True)
        await self.broker.drain()
        await self.aclose()
        self.gateway.pool.shutdown()

    async def cancel_in_flight(self) -> None:
        for job in self.broker.jobs():
            if job["state"] in (JobState.PENDING.value, JobState.RUNNING.value):
                await self.gateway.cancel(job["job_id"])

    def _health(self) -> dict:
        return {
            "pending_jobs": self.gateway.pending,
            "active_streams": self._streams_active,
        }

    async def _submit(self, payload: dict) -> dict:
        spec = spec_from_payload(payload)
        try:
            job_id = await self.broker.submit(spec)
        except AdmissionRejected as exc:
            self.metrics.counter("http_rejected_429_total").inc()
            raise HttpError(429, str(exc), headers=self.retry_headers()) from None
        return {
            "job_id": job_id,
            "name": spec.name or job_id,
            "events": f"/v1/jobs/{job_id}/events",
        }

    def job_summaries(self) -> list[dict]:
        return self.broker.jobs()

    def _job_summary(self, job_id: str) -> dict | None:
        record = self.broker.record(job_id)
        return record.summary() if record is not None else None

    async def _cancel(self, job_id: str) -> bool:
        if self.broker.record(job_id) is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return await self.broker.cancel(job_id)

    def _event_log(self, job_id: str) -> EventLog | None:
        return self.broker.log(job_id)
