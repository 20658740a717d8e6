#!/usr/bin/env python
"""Cluster capacity curves: jobs/sec and stream lag at 1/2/3 nodes (PR 10).

Stands up a real coordinator + N ``serve-node`` worker processes (the
same CLI entrypoints operators run), drives them with the seeded
mixed-traffic load generator, and records aggregate throughput and the
p50/p99 replicate->serve stream lag per topology size.  The acceptance
envelope: three nodes must clear >= 1.6x the single-node jobs/sec under
the identical load.

Honesty note for small hosts: each job's wall-clock is floored by
``PacedRunner`` (``serve-node --job-floor-seconds``), a GIL-releasing
sleep that emulates realistically sized jobs so capacity scales with
worker slots rather than with one box's arithmetic throughput.  The
floor is disclosed in every record (``job_floor_seconds``) and in the
summary (``paced``).

The harness is **resumable** (JSON-lines, one record per experiment
key): re-runs skip finished keys, ``--no-resume`` truncates first.

CI (the cluster-smoke job) and local use::

    # tiny fresh sweep (1 vs 2 nodes, loose floor); exits 1 on failure
    PYTHONPATH=src python benchmarks/bench_cluster_capacity.py \
        --out /tmp/bench10.jsonl --no-resume --smoke

    # committed-record envelope: >= 1.6x aggregate throughput at 3 nodes
    PYTHONPATH=src python benchmarks/bench_cluster_capacity.py \
        --check benchmarks/BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.client import MosaicServiceClient  # noqa: E402
from repro.service.cluster.loadgen import LoadConfig, run_load  # noqa: E402

SCHEMA = "repro-cluster-capacity/1"

#: Acceptance envelope (ISSUE 10): three nodes must reach >= 1.6x the
#: single-node aggregate jobs/sec under the identical seeded load.
ENVELOPE_NODES = 3
ENVELOPE_MIN_SPEEDUP = 1.6

#: Looser floor for the tiny CI smoke run (1 vs 2 nodes on a noisy
#: shared runner; the committed record carries the real envelope).
SMOKE_MIN_SPEEDUP = 1.15

#: A stream-lag p99 above this means the replication fabric is stalling,
#: not merely busy — fail the envelope rather than ship the number.
MAX_LAG_P99_S = 10.0

DEFAULT_NODES_LIST = (1, 2, 3)
DEFAULT_FLOOR = 0.5
DEFAULT_CLIENTS = 6
DEFAULT_JOBS_PER_CLIENT = 4
DEFAULT_WORKERS = 2
SEED = 10


def _read_listening(process: subprocess.Popen) -> dict:
    line = process.stdout.readline()
    if not line:
        raise RuntimeError(
            f"process exited early: {process.stderr.read()[-2000:]}"
        )
    info = json.loads(line)
    assert info["kind"] == "listening", info
    return info


def _spawn(argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PHOTOMOSAIC_TOKEN", None)  # benches run the open topology
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _stop(process: subprocess.Popen, timeout: float = 30.0) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


class Topology:
    """A coordinator plus N worker-node subprocesses, torn down in order."""

    def __init__(self, nodes: int, floor: float, workers: int, root: str):
        self.coordinator = _spawn(
            ["serve-cluster", "--port", "0", "--heartbeat-deadline", "5.0"]
        )
        self.port = _read_listening(self.coordinator)["port"]
        self.nodes = []
        for index in range(nodes):
            node_root = os.path.join(root, f"n{index}")
            node = _spawn(
                [
                    "serve-node",
                    "--coordinator", f"127.0.0.1:{self.port}",
                    "--node-id", f"n{index}",
                    "--port", "0",
                    "--workers", str(workers),
                    "--job-floor-seconds", str(floor),
                    "--outdir", os.path.join(node_root, "out"),
                    "--cache-dir", os.path.join(node_root, "cache"),
                    "--heartbeat-interval", "0.5",
                ]
            )
            _read_listening(node)
            self.nodes.append(node)
        client = MosaicServiceClient(f"http://127.0.0.1:{self.port}")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.health().get("nodes_up") == nodes:
                break
            time.sleep(0.1)
        else:
            raise RuntimeError(f"{nodes} nodes never registered")

    def close(self) -> None:
        for node in self.nodes:
            _stop(node)
        _stop(self.coordinator)


def run_capacity(
    nodes: int,
    clients: int,
    jobs_per_client: int,
    floor: float,
    workers: int,
) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench10-") as root:
        topology = Topology(nodes, floor, workers, root)
        try:
            report = run_load(
                LoadConfig(
                    base_url=f"http://127.0.0.1:{topology.port}",
                    clients=clients,
                    jobs_per_client=jobs_per_client,
                    cancel_fraction=0.0,  # pure completion throughput
                    sparse_fraction=0.5,
                    seed=SEED,
                )
            )
        finally:
            topology.close()
    record = {
        "kind": "capacity",
        "nodes": nodes,
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "job_floor_seconds": floor,
        "workers_per_node": workers,
    }
    record.update(report.as_dict())
    return record


def _key(record: dict) -> str:
    if record["kind"] == "capacity":
        return (
            f"capacity|nodes={record['nodes']}|clients={record['clients']}"
            f"|jobs={record['jobs_per_client']}"
            f"|floor={record['job_floor_seconds']}"
            f"|workers={record['workers_per_node']}"
        )
    return record["kind"]


def _load_records(path: str) -> list[dict]:
    records = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records


def summarize(records: list[dict]) -> dict:
    """Envelope derived from the widest topology sweep on record."""
    capacity = [r for r in records if r["kind"] == "capacity"]
    peak = max(capacity, key=lambda r: r["nodes"], default=None)
    base = None
    speedup = None
    if peak is not None:
        base = next(
            (
                r
                for r in capacity
                if r["nodes"] == 1
                and r["clients"] == peak["clients"]
                and r["jobs_per_client"] == peak["jobs_per_client"]
                and r["job_floor_seconds"] == peak["job_floor_seconds"]
                and r["workers_per_node"] == peak["workers_per_node"]
            ),
            None,
        )
        if base is not None and base["jobs_per_second"] > 0:
            speedup = peak["jobs_per_second"] / base["jobs_per_second"]
    return {
        "kind": "summary",
        "schema": SCHEMA,
        "peak_nodes": peak["nodes"] if peak else None,
        "base_jobs_per_second": base["jobs_per_second"] if base else None,
        "peak_jobs_per_second": peak["jobs_per_second"] if peak else None,
        "speedup": speedup,
        "peak_stream_lag_p99_s": peak["stream_lag_p99_s"] if peak else None,
        "paced": bool(peak and peak["job_floor_seconds"] > 0),
        "clean": all(
            r["failed"] == 0 and r["errors"] == 0 for r in capacity
        ),
    }


def check_invariants(records: list[dict], min_speedup: float) -> list[str]:
    failures = []
    summary = summarize(records)
    if summary["peak_nodes"] is None:
        failures.append("no capacity records in the sweep")
        return failures
    if summary["base_jobs_per_second"] is None:
        failures.append(
            "no single-node baseline matching the widest topology's config"
        )
    elif summary["speedup"] < min_speedup:
        failures.append(
            f"aggregate speedup {summary['speedup']:.2f}x at "
            f"{summary['peak_nodes']} nodes < required {min_speedup:.2f}x"
        )
    if not summary["clean"]:
        failures.append("a load run saw failed jobs or submit errors")
    for record in records:
        if record["kind"] != "capacity":
            continue
        p99 = record["stream_lag_p99_s"]
        if p99 is None:
            failures.append(
                f"{_key(record)}: no stream-lag samples (ts never stamped?)"
            )
        elif p99 > MAX_LAG_P99_S:
            failures.append(
                f"{_key(record)}: stream lag p99 {p99:.2f}s > "
                f"{MAX_LAG_P99_S:.0f}s — replication fabric stalling"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_10.json", help="JSON-lines report")
    parser.add_argument(
        "--no-resume", action="store_true",
        help="truncate the report instead of skipping finished experiments",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"tiny CI sweep (1 vs 2 nodes, {SMOKE_MIN_SPEEDUP}x floor)",
    )
    parser.add_argument(
        "--check", default=None, metavar="PATH",
        help="no sweep: verify the envelope of a committed report and exit",
    )
    parser.add_argument("--nodes-list", type=int, nargs="+", default=None)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--jobs-per-client", type=int, default=None)
    parser.add_argument("--floor", type=float, default=None)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    if args.check:
        records = _load_records(args.check)
        failures = check_invariants(records, ENVELOPE_MIN_SPEEDUP)
        summary = summarize(records)
        speedup = summary["speedup"]
        print(
            f"{args.check}: {speedup:.2f}x aggregate jobs/sec at "
            f"{summary['peak_nodes']} nodes vs 1 "
            f"(p99 stream lag {summary['peak_stream_lag_p99_s']}s, "
            f"paced={summary['paced']})"
            if speedup is not None
            else f"{args.check}: incomplete record"
        )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    if args.smoke:
        nodes_list = args.nodes_list or (1, 2)
        clients = args.clients or 4
        jobs_per_client = args.jobs_per_client or 2
        floor = args.floor if args.floor is not None else 0.3
        workers = args.workers or 2
        min_speedup = SMOKE_MIN_SPEEDUP
    else:
        nodes_list = args.nodes_list or DEFAULT_NODES_LIST
        clients = args.clients or DEFAULT_CLIENTS
        jobs_per_client = args.jobs_per_client or DEFAULT_JOBS_PER_CLIENT
        floor = args.floor if args.floor is not None else DEFAULT_FLOOR
        workers = args.workers or DEFAULT_WORKERS
        min_speedup = ENVELOPE_MIN_SPEEDUP

    if args.no_resume and os.path.exists(args.out):
        os.unlink(args.out)
    records = [r for r in _load_records(args.out) if r["kind"] != "summary"]
    finished = {_key(r) for r in records}

    def emit(record: dict) -> None:
        records.append(record)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        lag = record["stream_lag_p99_s"]
        print(
            f"  nodes={record['nodes']}  "
            f"{record['jobs_per_second']:6.2f} jobs/s  "
            f"p99 lag {lag * 1e3:7.1f}ms  "
            f"({record['completed']} done, {record['failed']} failed, "
            f"{record['errors']} errors)"
            if lag is not None
            else f"  nodes={record['nodes']}  "
            f"{record['jobs_per_second']:6.2f} jobs/s  (no lag samples)"
        )

    print(
        f"cluster capacity sweep: nodes={list(nodes_list)} "
        f"clients={clients} jobs/client={jobs_per_client} "
        f"floor={floor}s workers/node={workers}"
    )
    for nodes in nodes_list:
        probe = {
            "kind": "capacity", "nodes": nodes, "clients": clients,
            "jobs_per_client": jobs_per_client, "job_floor_seconds": floor,
            "workers_per_node": workers,
        }
        if _key(probe) in finished:
            continue
        emit(run_capacity(nodes, clients, jobs_per_client, floor, workers))

    summary = summarize(records)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    failures = check_invariants(records, min_speedup)
    if summary["speedup"] is not None:
        print(
            f"aggregate: {summary['speedup']:.2f}x at "
            f"{summary['peak_nodes']} nodes "
            f"(floor {min_speedup:.2f}x, paced={summary['paced']})"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
