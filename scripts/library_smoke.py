#!/usr/bin/env python
"""End-to-end smoke for the tile-library pipeline, driven like CI drives it.

Builds a tiny synthetic library on disk, runs ``photomosaic library
build`` twice against a shared cache directory (the second pass must be
a >= 90% warm ingest), then starts ``photomosaic serve-http`` as a real
subprocess and submits two identical ``kind="library"`` jobs: each event
stream must be ordered with the four pipeline phases
(ingest/shortlist/assign/render) and exactly one terminal DONE, the job
summaries must carry the library stats block, and the two rendered
outputs must be bit-identical (the pipeline is deterministic given the
seed).  Finishes with SIGTERM and requires a graceful drain.

Usage: PYTHONPATH=src python scripts/library_smoke.py
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys

import smoke_harness as harness

from repro.imaging import save_image
from repro.library import synthetic_target, write_synthetic_library
from repro.service.client import MosaicServiceClient

WORKDIR = "library_smoke_out"
LIBRARY_IMAGES = 60
PHASES = ("ingest", "shortlist", "assign", "render")


def run_cli(*args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=harness.cli_env(),
        timeout=120,
    )
    assert result.returncode == 0, (
        f"{' '.join(args)} exited {result.returncode}:\n{result.stderr}"
    )
    return result.stdout


def parse_build(stdout: str) -> tuple[float, str]:
    hit_rate = float(re.search(r"ingest hit rate : ([\d.]+)", stdout).group(1))
    fingerprint = re.search(r"fingerprint     : (\w+)", stdout).group(1)
    return hit_rate, fingerprint


def build_library() -> tuple[str, str]:
    libdir = os.path.join(WORKDIR, "lib")
    write_synthetic_library(libdir, LIBRARY_IMAGES, size=16, seed=20)
    target = os.path.join(WORKDIR, "target.pgm")
    save_image(target, synthetic_target(64, seed=8))

    npz = os.path.join(WORKDIR, "lib.npz")
    cache_dir = os.path.join(WORKDIR, "cache")
    build_args = (
        "library", "build", "--source", libdir, "--output", npz,
        "--tile-size", "8", "--thumb-size", "16", "--cache-dir", cache_dir,
    )
    cold_rate, cold_fp = parse_build(run_cli(*build_args))
    warm_rate, warm_fp = parse_build(run_cli(*build_args))
    assert cold_rate == 0.0, f"cold build hit rate {cold_rate}"
    assert warm_rate >= 0.9, f"warm build hit rate {warm_rate} < 0.9"
    assert cold_fp == warm_fp, "index fingerprint drifted between builds"
    print(f"library build ok: warm ingest hit rate {warm_rate:.3f}")
    return npz, target


def library_job(npz: str, target: str, name: str) -> dict:
    return {
        "kind": "library",
        "input": npz,
        "target": target,
        "size": 64,
        "tile_size": 8,
        "thumb_size": 16,
        "top_k": 8,
        "repetition_penalty": 1.0,
        "seed": 3,
        "name": name,
        "output": f"{name}.pgm",
    }


def check_stream(events: list[dict]) -> None:
    harness.check_stream(events)
    assert events[0]["kind"] == "admitted"
    phases = [e["payload"]["phase"] for e in events if e["kind"] == "phase"]
    assert phases == list(PHASES), phases


def check_summary(summary: dict) -> None:
    lib = summary["library"]
    assert lib["library_size"] == LIBRARY_IMAGES, lib
    assert lib["shortlist_k"] == 8, lib
    assert lib["max_reuse"] >= 1, lib
    assert summary["sweeps"] is None, summary
    for phase in PHASES:
        assert phase in summary["timings"], summary["timings"]


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    npz, target = build_library()

    process = harness.spawn(
        "serve-http", "--port", "0", "--workers", "2", "--outdir", WORKDIR
    )
    try:
        port = harness.listening(process)["port"]
        client = MosaicServiceClient(f"http://127.0.0.1:{port}")

        jobs = [
            client.submit(library_job(npz, target, name))
            for name in ("lib-a", "lib-b")
        ]
        for job in jobs:
            check_stream(list(client.events(job["job_id"])))
            check_summary(client.job(job["job_id"]))

        digests = {
            name: file_sha256(os.path.join(WORKDIR, f"{name}.pgm"))
            for name in ("lib-a", "lib-b")
        }
        assert digests["lib-a"] == digests["lib-b"], (
            f"library mosaic not deterministic: {digests}"
        )

        final = harness.drain(process)
        assert final["jobs"] == len(jobs), final
        print(f"library smoke ok: checksum {digests['lib-a'][:16]}")
        return 0
    finally:
        harness.reap(process)


if __name__ == "__main__":
    sys.exit(main())
