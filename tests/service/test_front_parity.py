"""The single-box front and the cluster coordinator share one HTTP core.

Clients cannot tell the two apart on the error taxonomy, auth, drain and
metrics framing: the same request gets the same status from either.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json

import pytest

from .cluster.conftest import TOKEN, MiniCluster
from .http.conftest import ServedFront, echo_runner, run_async

JOB = {
    "name": "parity",
    "input": "portrait",
    "target": "sailboat",
    "size": 32,
    "tile_size": 8,
}


@contextlib.asynccontextmanager
async def serving(kind: str):
    """Yield ``(server, port)`` for one front kind, auth token set."""
    if kind == "front":
        async with ServedFront(echo_runner, auth_token=TOKEN) as served:
            yield served.front, served.port
    else:
        async with MiniCluster(nodes=1) as cluster:
            yield cluster.coordinator, cluster.coordinator.port


def request(conn, method: str, path: str, *, body=None, token=TOKEN):
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    data = json.dumps(body).encode("utf-8") if body is not None else None
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), response.read()


@pytest.mark.parametrize("kind", ["front", "coordinator"])
def test_error_taxonomy_drain_and_metrics_match(kind):
    async def scenario():
        loop = asyncio.get_running_loop()

        async def call(fn, *args, **kwargs):
            return await loop.run_in_executor(None, lambda: fn(*args, **kwargs))

        async with serving(kind) as (server, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                status, headers, _ = await call(
                    request, conn, "GET", "/v1/jobs", token=None
                )
                assert status == 401
                assert headers["WWW-Authenticate"] == "Bearer"

                status, _, body = await call(
                    request, conn, "POST", "/v1/jobs", body=JOB
                )
                assert status == 202
                job_id = json.loads(body)["job_id"]

                status, _, _ = await call(
                    request, conn, "GET", f"/v1/jobs/{job_id}/events?from_seq=-1"
                )
                assert status == 400

                status, _, body = await call(
                    request, conn, "GET", f"/v1/jobs/{job_id}/events"
                )
                assert status == 200
                events = [json.loads(line) for line in body.splitlines() if line]
                assert events[-1]["terminal"]

                status, _, _ = await call(request, conn, "GET", "/v1/jobs/job-nope")
                assert status == 404

                status, _, _ = await call(request, conn, "PUT", "/v1/jobs")
                assert status == 405

                status, _, body = await call(request, conn, "GET", "/metrics")
                assert status == 200
                text = body.decode("utf-8")
                assert "http_responses_total" in text
                assert "http_request_latency_seconds" in text

                server.begin_drain()
                status, headers, _ = await call(request, conn, "GET", "/v1/jobs")
                assert status == 503
                assert "Retry-After" in headers
            finally:
                conn.close()

    run_async(scenario())


@pytest.mark.parametrize("kind", ["front", "coordinator"])
def test_drain_closes_idle_keepalive_connections(kind):
    """A kept-alive client that sends nothing more cannot hold the drain."""

    async def scenario():
        loop = asyncio.get_running_loop()
        async with serving(kind) as (server, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                status, _, _ = await loop.run_in_executor(
                    None, lambda: request(conn, "GET", "/healthz")
                )
                assert status == 200
                await asyncio.wait_for(server.drain(), timeout=10)
            finally:
                conn.close()

    run_async(scenario())


@pytest.mark.parametrize("kind", ["front", "coordinator"])
def test_drain_answers_a_partly_received_request(kind):
    """A request half sent when the drain starts still gets the 503."""

    async def scenario():
        async with serving(kind) as (server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 4\r\n\r\n{}"
                )
                await writer.drain()
                await asyncio.sleep(0.1)  # the server now waits for the body
                draining = asyncio.ensure_future(server.drain())
                await asyncio.sleep(0.1)
                writer.write(b"  ")
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(), timeout=10)
                assert status_line.split()[1] == b"503"
                await asyncio.wait_for(draining, timeout=10)
            finally:
                writer.close()

    run_async(scenario())


def test_coordinator_drain_ends_streams_of_running_jobs():
    """Draining the coordinator stops its pumps; their streams must end."""
    from .cluster.conftest import SweepRunner, spec_dict

    async def scenario():
        loop = asyncio.get_running_loop()
        cluster = MiniCluster(
            nodes=1, runner_factory=lambda _: SweepRunner(sweeps=150, dwell=0.02)
        )
        async with cluster:
            conn = http.client.HTTPConnection(
                "127.0.0.1", cluster.coordinator.port, timeout=30
            )
            try:
                _, _, body = await loop.run_in_executor(
                    None, lambda: request(conn, "POST", "/v1/jobs", body=spec_dict())
                )
                job_id = json.loads(body)["job_id"]
                stream = loop.run_in_executor(
                    None,
                    lambda: request(conn, "GET", f"/v1/jobs/{job_id}/events"),
                )
                while not cluster.coordinator.jobs[job_id].log.events:
                    await asyncio.sleep(0.01)
                await asyncio.wait_for(cluster.coordinator.drain(), timeout=10)
                status, _, body = await asyncio.wait_for(stream, timeout=10)
                assert status == 200
                events = [json.loads(line) for line in body.splitlines() if line]
                assert events and not events[-1]["terminal"]
            finally:
                conn.close()

    run_async(scenario())
