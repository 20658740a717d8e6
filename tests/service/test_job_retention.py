"""Finished jobs are kept only in the front's bounded job table.

The pool and the gateway forget a job at its terminal event; the
front's :class:`JobEventBroker` keeps the last ``retain_terminal``
finished jobs for late reads.  So a long-running server holds the
results of at most that many finished jobs, and its ``drained`` record
counts admissions, not the retained summaries.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import weakref

from repro.service import JobSpec, MosaicGateway, WorkerPool
from repro.service.client import MosaicServiceClient
from repro.service.http import HttpFront, HttpFrontConfig

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class Result:
    """A job result that a weak reference can watch."""


class ResultRunner:
    def __init__(self) -> None:
        self.results: list[weakref.ref] = []

    def __call__(self, spec: JobSpec) -> Result:
        result = Result()
        self.results.append(weakref.ref(result))
        return result


def test_only_retained_results_stay_alive():
    async def main():
        runner = ResultRunner()
        pool = WorkerPool(workers=1, runner=runner, seed=0)
        gateway = MosaicGateway(pool, max_pending=4)
        front = HttpFront(gateway, config=HttpFrontConfig(retain_terminal=1))
        for name in ("a", "b", "c"):
            job_id = await front.broker.submit(
                JobSpec(input="portrait", target="sailboat", name=name)
            )
            async for _ in front.broker.log(job_id).subscribe():
                pass
        await front.drain()
        pool.join()
        assert pool.records() == []
        assert gateway._streams == {} and gateway._seq == {}
        gc.collect()
        assert [ref() is None for ref in runner.results] == [True, True, False]
        assert [job["name"] for job in front.job_summaries()] == ["c"]

    asyncio.run(main())


def test_drained_counts_every_admitted_job(tmp_path):
    """More jobs than the front retains (256 by default) still all count."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(REPO_SRC))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve-http", "--port", "0",
            "--workers", "2", "--max-pending", "512",
            "--outdir", str(tmp_path / "out"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        port = json.loads(process.stdout.readline())["port"]
        client = MosaicServiceClient(f"http://127.0.0.1:{port}")
        spec = {"input": "portrait", "target": "sailboat", "size": 16, "tile_size": 8}
        for index in range(257):
            client.submit({**spec, "name": f"j{index}"})
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    assert json.loads(out.splitlines()[-1]) == {"kind": "drained", "jobs": 257}
