"""HTTP front overhead: network round-trips and stream fan-out.

Answers two serving questions against the in-process gateway numbers in
:mod:`bench_gateway_stream`:

* what one ``POST /v1/jobs`` → NDJSON-stream-to-terminal round trip
  costs through the whole stack — parser, router, broker replay,
  chunked writer, loopback TCP — versus awaiting the same gateway
  stream in-process;
* how event throughput holds up when one chatty job fans out to many
  concurrent NDJSON subscribers (the broker replays its event log to
  each, so subscribers cost reads, not re-runs).

Uses a cheap scripted runner, so the numbers isolate transport overhead
rather than mosaic compute.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import JobSpec, MosaicGateway, WorkerPool
from repro.service.client import MosaicServiceClient
from repro.service.http import HttpFront, HttpFrontConfig

_WORKERS = 2
_SWEEPS = 50


class ChattyRunner:
    accepts_context = True

    def __call__(self, spec: JobSpec, ctx=None) -> str:
        if ctx is not None:
            for step in range(_SWEEPS):
                ctx.emit("sweep", {"sweep": step, "swaps": 0, "total": 0})
        return spec.name


class FrontHarness:
    """A served front on a background loop thread, reusable per round.

    The benchmark body runs blocking client calls on the pytest thread,
    so the asyncio loop serving the front gets a thread of its own —
    the same separation a real deployment has.
    """

    def __init__(self, *, max_pending: int = 64, max_streams: int = 256):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.pool = WorkerPool(workers=_WORKERS, runner=ChattyRunner(), seed=0)

        async def start():
            self.gateway = MosaicGateway(self.pool, max_pending=max_pending)
            self.front = HttpFront(
                self.gateway,
                config=HttpFrontConfig(
                    port=0, max_concurrent_streams=max_streams
                ),
            )
            await self.front.start()

        self.run(start())
        self.client = MosaicServiceClient(
            f"http://127.0.0.1:{self.front.port}"
        )

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    def close(self) -> None:
        self.run(self.front.drain())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def front():
    harness = FrontHarness()
    yield harness
    harness.close()


def _spec_dict(name: str) -> dict:
    return {"input": "x", "target": "y", "name": name}


def test_inprocess_gateway_baseline(benchmark):
    """Reference: submit+collect through the gateway, no network."""
    jobs = 8

    def run():
        async def go():
            pool = WorkerPool(workers=_WORKERS, runner=ChattyRunner(), seed=0)
            total = 0
            async with MosaicGateway(pool, max_pending=jobs) as gateway:
                streams = [
                    await gateway.submit(JobSpec(**_spec_dict(f"j{i}")))
                    for i in range(jobs)
                ]
                for stream in streams:
                    total += len(await stream.collect())
            pool.shutdown()
            return total

        return asyncio.run(go())

    total = benchmark(run)
    assert total == jobs * (_SWEEPS + 3)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["events_per_round"] = total


def test_http_submit_and_stream_round_trip(benchmark, front):
    """The same batch over loopback HTTP: POST + NDJSON to terminal."""
    jobs = 8
    rounds = [0]

    def run():
        rounds[0] += 1
        submitted = [
            front.client.submit(_spec_dict(f"r{rounds[0]}j{i}"))
            for i in range(jobs)
        ]
        total = 0
        for job in submitted:
            events = list(front.client.events(job["job_id"]))
            assert events[-1]["terminal"]
            total += len(events)
        return total

    total = benchmark(run)
    assert total == jobs * (_SWEEPS + 3)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["events_per_round"] = total


def test_http_stream_fanout(benchmark, front):
    """One job's event log replayed to many concurrent subscribers."""
    subscribers = 16
    job = front.client.submit(_spec_dict("fanout"))
    first = list(front.client.events(job["job_id"]))
    assert first[-1]["terminal"]

    def run():
        results = [None] * subscribers

        def read(index: int) -> None:
            results[index] = len(
                list(front.client.events(job["job_id"]))
            )

        threads = [
            threading.Thread(target=read, args=(i,))
            for i in range(subscribers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [len(first)] * subscribers
        return sum(results)

    total = benchmark(run)
    benchmark.extra_info["subscribers"] = subscribers
    benchmark.extra_info["events_per_round"] = total
