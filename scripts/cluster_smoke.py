#!/usr/bin/env python
"""End-to-end smoke for the cluster tier, driven like CI drives it.

Starts ``photomosaic serve-cluster`` plus two ``serve-node`` workers as
real subprocesses, runs mixed job kinds (mosaic dense/sparse and a
library job) through the coordinator, then SIGKILLs the node that owns a
paced job mid-stream and requires the coordinator to re-dispatch it to
the survivor: the client's one event stream must stay gap-free across
the failure, carry exactly one ``redispatch`` marker and exactly one
terminal DONE, and ``?from_seq`` resume must replay the same suffix.
Finishes by validating the cluster metrics exposition and a graceful
drain of the survivors.

Usage: PYTHONPATH=src python scripts/cluster_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

import smoke_harness as harness
from smoke_harness import listening, spawn

from repro.imaging import save_image
from repro.library import LibraryIndex, synthetic_target, write_synthetic_library
from repro.service.client import MosaicServiceClient

FLOOR = 2.0  # paced jobs give the crash a comfortable mid-stream window


def library_assets(root: str) -> tuple[str, str]:
    libdir = os.path.join(root, "lib")
    write_synthetic_library(libdir, 40, size=16, seed=11)
    target = os.path.join(root, "target.pgm")
    save_image(target, synthetic_target(64, seed=6))
    index, _ = LibraryIndex.from_directory(libdir, tile_size=8, thumb_size=16)
    npz = os.path.join(root, "lib.npz")
    index.save(npz)
    return npz, target


def check_stream(events: list[dict]) -> None:
    harness.check_stream(events)
    assert events[-1]["payload"].get("result_digest"), events[-1]
    assert all("ts" in (e.get("payload") or {}) for e in events)


def main() -> int:  # noqa: PLR0915 - one linear smoke scenario
    root = tempfile.mkdtemp(prefix="cluster-smoke-")
    npz, target = library_assets(root)

    coordinator = spawn("serve-cluster", "--port", "0", "--heartbeat-deadline", "1.0")
    nodes: dict[str, subprocess.Popen] = {}
    try:
        port = listening(coordinator)["port"]
        for node_id in ("w0", "w1"):
            node = spawn(
                "serve-node",
                "--coordinator", f"127.0.0.1:{port}",
                "--node-id", node_id,
                "--port", "0",
                "--workers", "2",
                "--job-floor-seconds", str(FLOOR),
                "--heartbeat-interval", "0.3",
                "--outdir", os.path.join(root, node_id, "out"),
                "--cache-dir", os.path.join(root, node_id, "cache"),
            )
            listening(node)
            nodes[node_id] = node

        client = MosaicServiceClient(f"http://127.0.0.1:{port}")
        deadline = time.monotonic() + 30.0
        while client.health().get("nodes_up") != 2:
            assert time.monotonic() < deadline, "nodes never registered"
            time.sleep(0.1)

        # --- mixed job kinds through the coordinator -------------------
        mixed = [
            {"name": "m-dense", "input": "portrait", "target": "sailboat",
             "size": 32, "tile_size": 8, "seed": 3},
            {"name": "m-sparse", "input": "peppers", "target": "sailboat",
             "size": 32, "tile_size": 8, "seed": 3, "shortlist_top_k": 4},
            {"name": "m-library", "kind": "library", "input": npz,
             "target": target, "size": 64, "tile_size": 8,
             "thumb_size": 16, "top_k": 8, "seed": 4},
        ]
        submitted = [client.submit(job) for job in mixed]
        streams = {
            job["job_id"]: list(client.events(job["job_id"]))
            for job in submitted
        }
        for events in streams.values():
            check_stream(events)

        # resume through the coordinator, regardless of executing node
        full = streams[submitted[0]["job_id"]]
        cut = len(full) // 2
        resumed = list(client.events(submitted[0]["job_id"], from_seq=cut))
        assert [e["seq"] for e in resumed] == [e["seq"] for e in full[cut:]]

        # --- SIGKILL the owner of a paced job mid-stream ---------------
        victim_job = client.submit(
            {"name": "crash-me", "input": "barbara", "target": "sailboat",
             "size": 32, "tile_size": 8, "seed": 8}
        )
        victim = victim_job["node"]
        survivor = "w1" if victim == "w0" else "w0"
        crash_events = []
        for event in client.events(victim_job["job_id"]):
            crash_events.append(event)
            if len(crash_events) == 2:  # provably mid-stream
                nodes[victim].kill()
        check_stream(crash_events)
        markers = [e for e in crash_events if e["kind"] == "redispatch"]
        assert len(markers) == 1, crash_events
        assert markers[0]["payload"]["from_node"] == victim
        assert markers[0]["payload"]["to_node"] == survivor
        record = client.job(victim_job["job_id"])
        assert record["node"] == survivor
        assert record["redispatches"] == 1

        # late resume replays the post-crash suffix identically
        resumed = list(client.events(victim_job["job_id"], from_seq=2))
        assert [(e["seq"], e["kind"]) for e in resumed] == [
            (e["seq"], e["kind"]) for e in crash_events[2:]
        ]

        # --- cluster metrics exposition --------------------------------
        text = client.metrics_text()
        samples = {
            line.rpartition(" ")[0]: float(line.rpartition(" ")[2])
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert samples["cluster_nodes_up"] == 1.0  # the survivor
        assert samples["cluster_jobs_dispatched_total"] >= 4
        assert samples["cluster_jobs_redispatched_total"] == 1.0
        assert samples["cluster_events_replicated_total"] >= sum(
            len(s) for s in streams.values()
        )
        assert f'node_up_{survivor}' in " ".join(samples)

        # --- graceful drain of the survivors ---------------------------
        harness.drain(nodes[survivor])
        harness.drain(coordinator)

        print(
            "cluster smoke ok:",
            {
                "mixed_streams": {j: len(s) for j, s in streams.items()},
                "crash_events": len(crash_events),
                "victim": victim,
                "survivor": survivor,
            },
        )
        return 0
    finally:
        harness.reap(*nodes.values(), coordinator)


if __name__ == "__main__":
    sys.exit(main())
