"""Shared helpers for the HTTP front tests.

Same philosophy as the gateway suite: plain ``asyncio.run`` (no asyncio
pytest plugin), scripted runners gated on events instead of wall-clock
sleeps, and everything over real loopback sockets — the parser, the
router and the streams are exercised exactly as a remote client would.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.service import JobSpec, MosaicGateway, WorkerPool
from repro.service.http import HttpFront, HttpFrontConfig


def spec(name: str = "j", **overrides) -> JobSpec:
    base = dict(input="portrait", target="sailboat", size=64, tile_size=8, name=name)
    base.update(overrides)
    return JobSpec(**base)


def spec_dict(name: str = "j", **overrides) -> dict:
    base = dict(input="portrait", target="sailboat", size=64, tile_size=8, name=name)
    base.update(overrides)
    return base


def echo_runner(job_spec: JobSpec) -> str:
    return job_spec.name


class SweepRunner:
    """Context-aware runner emitting ``sweeps`` sweep events per job."""

    accepts_context = True

    def __init__(self, sweeps: int = 5) -> None:
        self.sweeps = sweeps
        self.first_sweep = threading.Event()

    def __call__(self, job_spec: JobSpec, ctx=None) -> str:
        for index in range(self.sweeps):
            if ctx is not None:
                ctx.check_cancelled()
                ctx.emit("sweep", {"sweep": index, "swaps": 0, "total": 0})
            self.first_sweep.set()
            time.sleep(0.001)
        return job_spec.name


class GatedRunner:
    """Runner that spins on a gate, checking for cancellation."""

    accepts_context = True

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, job_spec: JobSpec, ctx=None) -> str:
        self.started.set()
        while not self.gate.wait(timeout=0.01):
            if ctx is not None:
                ctx.check_cancelled()
        return job_spec.name


class ServedFront:
    """One pool + gateway + HTTP front bound to an ephemeral port."""

    def __init__(self, runner, *, workers=2, max_pending=8, **config_overrides):
        self.runner = runner
        self.workers = workers
        self.max_pending = max_pending
        self.config_overrides = config_overrides
        self.pool = None
        self.gateway = None
        self.front = None

    async def __aenter__(self) -> "ServedFront":
        self.pool = WorkerPool(workers=self.workers, runner=self.runner, seed=0)
        self.gateway = MosaicGateway(self.pool, max_pending=self.max_pending)
        self.front = HttpFront(
            self.gateway,
            config=HttpFrontConfig(port=0, **self.config_overrides),
        )
        await self.front.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.front.drain()

    @property
    def port(self) -> int:
        return self.front.port

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.front.port}"

    async def call(self, fn, *args):
        """Run a blocking client call off-loop (the loop serves the HTTP
        front, so blocking on it would deadlock the test)."""
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args
        )


async def raw_request(port: int, payload: bytes) -> bytes:
    """Send raw bytes, return everything until the server closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return data


def run_async(coro):
    return asyncio.run(coro)
