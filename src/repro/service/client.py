"""Stdlib client for the mosaic HTTP front (:mod:`repro.service.http`).

No third-party dependencies — plain :mod:`http.client` under the hood —
so anything that can run Python can drive a remote mosaic service:

    client = MosaicServiceClient("http://127.0.0.1:8765", token="s3cret")
    job = client.submit({"input": "portrait", "target": "sailboat",
                         "size": 64, "tile_size": 8})
    for event in client.events(job["job_id"]):
        print(event["seq"], event["kind"])
    client.cancel(job["job_id"])

:meth:`MosaicServiceClient.events` consumes the NDJSON stream and is
resume-aware: it remembers the last sequence number it yielded and, if
the connection drops before the terminal event, transparently reconnects
with ``?from_seq=last+1`` — overlapping events are deduplicated, so the
caller sees each sequence number exactly once and exactly one terminal
event, connection blips notwithstanding.

Backpressure is typed end to end: a ``429`` from the server raises
:class:`BackpressureError` (an :class:`~repro.exceptions.
AdmissionRejected` subclass) carrying the parsed ``Retry-After`` hint.
"""

from __future__ import annotations

import json
import socket
import time
from http.client import HTTPConnection, HTTPException
from urllib.parse import urlsplit

from repro.exceptions import AdmissionRejected, JobError

__all__ = [
    "AuthenticationError",
    "BackpressureError",
    "MosaicServiceClient",
    "ServiceClientError",
]


class ServiceClientError(JobError):
    """The service answered with an unexpected error status.

    ``code`` carries the server's machine-readable error-taxonomy tag
    (``"unknown_field"``, ``"unknown_kind"``, ``"invalid_spec"``,
    ``"malformed_body"``) when the body provided one, so callers can
    branch on the class of failure instead of matching message prose.
    """

    def __init__(
        self, status: int, message: str, code: str | None = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code

class AuthenticationError(ServiceClientError):
    """The service rejected the bearer token (HTTP 401)."""


class BackpressureError(AdmissionRejected):
    """Admission was full (HTTP 429); retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _JitterStream:
    """Seedable uniform-[0, 1) stream (SplitMix64 mixer).

    The client is deliberately stdlib-http-only and the library's rng
    helpers are numpy-backed, so reconnect jitter carries its own
    few-line generator instead of importing either.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int | None) -> None:
        if seed is None:
            seed = time.time_ns() ^ id(self)
        self._state = seed & self._MASK

    def random(self) -> float:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        word = self._state
        word = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        word = ((word ^ (word >> 27)) * 0x94D049BB133111EB) & self._MASK
        word ^= word >> 31
        return (word >> 11) / float(1 << 53)


class MosaicServiceClient:
    """Blocking client for one service base URL.

    Each call opens its own connection, so one client instance is safe
    to share across threads and a dropped stream never poisons later
    unary calls.  ``timeout`` bounds unary requests; event streams use
    ``stream_timeout`` (``None`` = wait forever between events).
    """

    def __init__(
        self,
        base_url: str,
        *,
        token: str | None = None,
        timeout: float = 30.0,
        stream_timeout: float | None = None,
        jitter_seed: int | None = None,
    ) -> None:
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if split.scheme not in ("", "http"):
            raise JobError(f"only http:// service URLs are supported, got {base_url!r}")
        if not split.hostname:
            raise JobError(f"service URL {base_url!r} has no host")
        self.host = split.hostname
        self.port = split.port or 80
        self.token = token
        self.timeout = timeout
        self.stream_timeout = stream_timeout
        # Per-client jitter stream for reconnect backoff.  Seedable so
        # tests (and the seeded load generator) get reproducible delays;
        # unseeded clients draw from a fresh system-entropy stream.
        self._jitter_rng = _JitterStream(jitter_seed)
        self._sleep = time.sleep  # test seam

    # -- plumbing --------------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _connect(self, timeout: float | None) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=timeout)

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        connection = self._connect(self.timeout)
        try:
            headers = self._headers()
            body = None
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            self._raise_for_status(response.status, response, raw)
            return response.status, _decode_json(raw)
        finally:
            connection.close()

    def _raise_for_status(self, status: int, response, raw: bytes) -> None:
        if status < 400:
            return
        body = _decode_json(raw)
        message = body.get("error", raw.decode("utf-8", "replace"))
        code = body.get("code")
        if status == 401:
            raise AuthenticationError(status, message)
        if status == 429:
            raise BackpressureError(
                message, _parse_retry_after(response.getheader("Retry-After"))
            )
        raise ServiceClientError(status, message, code=code)

    # -- unary calls -----------------------------------------------------

    def submit(self, spec: dict) -> dict:
        """Submit one job spec; returns ``{"job_id", "name", "events"}``.

        Raises :class:`BackpressureError` when admission is full.
        """
        _, body = self._request("POST", "/v1/jobs", payload=dict(spec))
        return body

    def submit_when_admitted(
        self, spec: dict, *, max_wait: float = 60.0
    ) -> dict:
        """Retry :meth:`submit` on backpressure, honouring ``Retry-After``,
        until the next wait would take the waits past ``max_wait``."""
        deadline = time.monotonic() + max_wait
        waited = 0.0
        while True:
            try:
                return self.submit(spec)
            except BackpressureError as exc:
                # Count the waits (the sleep seam may pass no real time);
                # the clock still bounds a zero Retry-After.
                waited += exc.retry_after
                if waited > max_wait or time.monotonic() + exc.retry_after > deadline:
                    raise
                self._sleep(exc.retry_after)

    def job(self, job_id: str) -> dict:
        _, body = self._request("GET", f"/v1/jobs/{job_id}")
        return body

    def jobs(self) -> list[dict]:
        _, body = self._request("GET", "/v1/jobs")
        return body.get("jobs", [])

    def cancel(self, job_id: str) -> bool:
        """Request cooperative cancellation; ``True`` if accepted."""
        _, body = self._request("DELETE", f"/v1/jobs/{job_id}")
        return bool(body.get("cancel_accepted"))

    def health(self) -> dict:
        _, body = self._request("GET", "/healthz")
        return body

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition from ``/metrics``."""
        connection = self._connect(self.timeout)
        try:
            connection.request("GET", "/metrics", headers=self._headers())
            response = connection.getresponse()
            raw = response.read()
            self._raise_for_status(response.status, response, raw)
            return raw.decode("utf-8")
        finally:
            connection.close()

    # -- event streaming -------------------------------------------------

    def events(
        self,
        job_id: str,
        *,
        from_seq: int = 0,
        reconnect: bool = True,
        max_reconnects: int = 5,
        reconnect_delay: float = 0.2,
        reconnect_jitter: float = 0.5,
    ):
        """Iterate the job's ordered NDJSON event stream.

        Yields one dict per :class:`~repro.service.gateway.GatewayEvent`
        and returns after the terminal event.  On a connection drop the
        iterator resumes from the last yielded sequence number (at most
        ``max_reconnects`` consecutive times), deduplicating any overlap
        — callers never see a repeated ``seq`` or a second terminal.

        Each reconnect sleeps ``reconnect_delay`` plus a uniform random
        fraction of it (up to ``reconnect_jitter``), drawn from the
        client's seedable jitter stream: when a node restart drops a
        thousand streams at once, the herd's reconnects spread over the
        jitter window instead of landing in one synchronized burst.
        """
        if reconnect_jitter < 0:
            raise JobError(
                f"reconnect_jitter must be >= 0, got {reconnect_jitter}"
            )
        next_seq = from_seq
        drops = 0
        while True:
            try:
                for event in self._stream_once(job_id, next_seq):
                    if event.get("seq", -1) < next_seq:
                        continue  # overlap after a resume
                    next_seq = event["seq"] + 1
                    drops = 0
                    yield event
                    if event.get("terminal"):
                        return
                # Stream ended cleanly but without a terminal event: the
                # server went away mid-job.  Treat it like a drop.
                raise ConnectionError(
                    f"event stream for {job_id} ended without a terminal event"
                )
            except (ConnectionError, HTTPException, socket.timeout, OSError):
                drops += 1
                if not reconnect or drops > max_reconnects:
                    raise
                self._sleep(
                    reconnect_delay
                    * (1.0 + reconnect_jitter * self._jitter_rng.random())
                )

    def _stream_once(self, job_id: str, from_seq: int):
        connection = self._connect(self.stream_timeout)
        try:
            path = f"/v1/jobs/{job_id}/events"
            if from_seq:
                path += f"?from_seq={from_seq}"
            connection.request("GET", path, headers=self._headers())
            response = connection.getresponse()
            if response.status >= 400:
                self._raise_for_status(response.status, response, response.read())
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()


def _decode_json(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {}
    return payload if isinstance(payload, dict) else {}


def _parse_retry_after(value: str | None) -> float:
    try:
        return max(0.0, float(value))
    except (TypeError, ValueError):
        return 1.0
