#!/usr/bin/env python
"""End-to-end smoke for the HTTP front, driven like CI drives it.

Starts ``photomosaic serve-http`` as a real subprocess on a free port,
submits three jobs through the stdlib client, checks every event stream
is ordered with exactly one terminal DONE, exercises ``?from_seq``
resume, validates the Prometheus ``/metrics`` exposition, then sends
SIGTERM and requires a graceful drain (exit 0, final ``drained`` line).

Usage: PYTHONPATH=src python scripts/http_smoke.py
"""

from __future__ import annotations

import sys

import smoke_harness as harness

from repro.service.client import MosaicServiceClient

JOBS = [
    {"input": "portrait", "target": "sailboat", "size": 64, "tile_size": 8, "name": "a"},
    {"input": "peppers", "target": "sailboat", "size": 64, "tile_size": 8, "name": "b"},
    {"input": "barbara", "target": "sailboat", "size": 64, "tile_size": 8, "name": "c"},
]


def check_stream(events: list[dict]) -> None:
    harness.check_stream(events)
    assert events[0]["kind"] == "admitted"
    assert sum(e["kind"] == "phase" for e in events) >= 1


def check_metrics(text: str) -> None:
    lines = [l for l in text.splitlines() if l]
    names = {
        l.split()[2] for l in lines if l.startswith("# TYPE ")
    }
    for required in (
        "http_requests_total",
        "http_responses_2xx_total",
        "http_request_latency_seconds",
        "gateway_admitted",
        "jobs_done",
    ):
        assert required in names, f"missing {required} in /metrics"
    for line in lines:
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        name_part, _, value = line.rpartition(" ")
        float(value)  # every sample value must parse
        assert name_part, line
    samples = {
        l.rpartition(" ")[0]: float(l.rpartition(" ")[2])
        for l in lines
        if not l.startswith("#")
    }
    assert samples["gateway_admitted"] == len(JOBS)
    assert samples["jobs_done"] == len(JOBS)


def main() -> int:
    process = harness.spawn(
        "serve-http", "--port", "0", "--workers", "2", "--outdir", "http_smoke_out"
    )
    try:
        port = harness.listening(process)["port"]
        client = MosaicServiceClient(f"http://127.0.0.1:{port}")

        submitted = [client.submit(job) for job in JOBS]
        streams = {
            job["job_id"]: list(client.events(job["job_id"]))
            for job in submitted
        }
        for events in streams.values():
            check_stream(events)

        # Resume: re-fetch one stream's suffix and compare exactly.
        full = streams[submitted[0]["job_id"]]
        cut = len(full) // 2
        resumed = list(client.events(submitted[0]["job_id"], from_seq=cut))
        assert [e["seq"] for e in resumed] == [e["seq"] for e in full[cut:]]

        listing = client.jobs()
        assert sorted(j["name"] for j in listing) == ["a", "b", "c"]
        assert client.health()["status"] == "ok"
        check_metrics(client.metrics_text())

        final = harness.drain(process)
        assert final["jobs"] == len(JOBS), final
        print(
            "http smoke ok:",
            {jid: len(events) for jid, events in streams.items()},
        )
        return 0
    finally:
        harness.reap(process)


if __name__ == "__main__":
    sys.exit(main())
