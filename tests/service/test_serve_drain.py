"""Graceful-drain tests for the serving CLIs, over real processes.

``photomosaic serve`` (NDJSON over stdin/stdout), ``serve-http``,
``serve-node`` and ``serve-cluster`` must treat the first SIGINT/SIGTERM
as a drain request: stop taking new work, let admitted jobs run to their
terminal event, then exit 0 — not die mid-job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

JOB_LINE = (
    json.dumps(
        {
            "input": "portrait",
            "target": "sailboat",
            "size": 64,
            "tile_size": 8,
            "name": "drainee",
        }
    )
    + "\n"
)


def spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def read_until(process: subprocess.Popen, kind: str, deadline: float = 30.0):
    """Read NDJSON stdout lines until one with ``kind`` arrives."""
    lines = []
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        line = process.stdout.readline()
        if not line:
            break
        record = json.loads(line)
        lines.append(record)
        if record.get("kind") == kind:
            return record, lines
    raise AssertionError(
        f"no {kind!r} line within {deadline}s; saw "
        f"{[r.get('kind') for r in lines]}"
    )


def finish(process: subprocess.Popen, timeout: float = 30.0) -> tuple[str, str]:
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
        raise AssertionError(f"process did not exit; stderr:\n{err}")
    return out, err


class TestServeStdinDrain:
    def test_sigint_drains_in_flight_job_then_exits(self, tmp_path):
        process = spawn(
            "serve", "--workers", "1", "--outdir", str(tmp_path / "out")
        )
        try:
            process.stdin.write(JOB_LINE)
            process.stdin.flush()
            admitted, _ = read_until(process, "admitted")
            job_id = admitted["job_id"]

            process.send_signal(signal.SIGINT)
            draining, _ = read_until(process, "draining")
            assert draining["terminal"] is False

            # The admitted job still runs to a real terminal event even
            # though stdin stays open (signal, not EOF, ended intake).
            terminal = None
            while terminal is None or not terminal["terminal"]:
                terminal, _ = read_until(process, "state")
            assert terminal["job_id"] == job_id
            assert terminal["terminal"] is True
            assert terminal["payload"]["state"] == "DONE"

            _, err = finish(process)
            assert process.returncode == 0, err
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_second_sigint_cancels_in_flight_jobs(self, tmp_path):
        process = spawn(
            "serve",
            "--workers", "1",
            "--outdir", str(tmp_path / "out"),
            # A big job so it is still mid-sweep when the signals land.
            "--timeout", "120",
        )
        big_job = json.dumps(
            {
                "input": "portrait",
                "target": "sailboat",
                "size": 256,
                "tile_size": 4,
                "name": "victim",
            }
        )
        try:
            process.stdin.write(big_job + "\n")
            process.stdin.flush()
            read_until(process, "sweep")
            process.send_signal(signal.SIGINT)
            read_until(process, "draining")
            process.send_signal(signal.SIGINT)
            terminal = None
            while terminal is None or not terminal["terminal"]:
                terminal, _ = read_until(process, "state")
            assert terminal["terminal"] is True
            assert terminal["payload"]["state"] in ("CANCELLED", "DONE")
            finish(process)
            assert process.returncode == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestServeHttpDrain:
    def test_sigterm_drains_and_reports(self, tmp_path):
        process = spawn(
            "serve-http",
            "--port", "0",
            "--workers", "1",
            "--outdir", str(tmp_path / "out"),
        )
        try:
            listening = json.loads(process.stdout.readline())
            assert listening["kind"] == "listening"
            port = listening["port"]
            assert port > 0

            from repro.service.client import MosaicServiceClient

            client = MosaicServiceClient(f"http://127.0.0.1:{port}")
            job = client.submit(json.loads(JOB_LINE))
            events = list(client.events(job["job_id"]))
            assert events[-1]["terminal"]
            assert events[-1]["payload"]["state"] == "DONE"

            process.send_signal(signal.SIGTERM)
            out, err = finish(process)
            assert process.returncode == 0, err
            records = [json.loads(line) for line in out.splitlines() if line]
            assert records[-1]["kind"] == "drained"
            assert records[-1]["jobs"] == 1
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


def fetch(port: int, path: str) -> bytes:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return resp.read()


def get_json(port: int, path: str) -> dict:
    return json.loads(fetch(port, path))


class TestClusterDrain:
    """``serve-cluster`` plus one ``serve-node``, both stopped by SIGTERM."""

    @pytest.fixture
    def cluster(self, tmp_path):
        processes = []

        def start(*argv: str) -> tuple[subprocess.Popen, dict]:
            process = spawn(*argv)
            processes.append(process)
            listening = json.loads(process.stdout.readline())
            assert listening["kind"] == "listening"
            return process, listening

        coordinator, info = start("serve-cluster", "--port", "0")
        port = info["port"]
        node, _ = start(
            "serve-node",
            "--coordinator", f"127.0.0.1:{port}",
            "--node-id", "drainee",
            "--workers", "1",
            "--heartbeat-interval", "0.2",
            "--outdir", str(tmp_path / "out"),
        )
        deadline = time.monotonic() + 30.0
        while get_json(port, "/healthz")["nodes_up"] != 1:
            assert time.monotonic() < deadline, "node never registered"
            time.sleep(0.05)
        try:
            yield coordinator, port, node
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.communicate()

    def test_sigterm_node_deregisters_and_drains(self, cluster):
        coordinator, port, node = cluster
        node.send_signal(signal.SIGTERM)
        out, err = finish(node)
        assert node.returncode == 0, err
        records = [json.loads(line) for line in out.splitlines() if line]
        assert records[-1] == {"kind": "drained", "node_id": "drainee"}

        # Deregistered, not declared dead: the node is gone from the
        # membership instead of lingering in state "down".
        view = get_json(port, "/internal/v1/cluster")
        assert view["nodes"] == []
        assert get_json(port, "/healthz")["nodes_up"] == 0
        metrics = fetch(port, "/metrics").decode("utf-8")
        assert "cluster_node_failures_total" not in metrics

    def test_sigterm_coordinator_drains(self, cluster):
        coordinator, _, _ = cluster
        coordinator.send_signal(signal.SIGTERM)
        out, err = finish(coordinator)
        assert coordinator.returncode == 0, err
        records = [json.loads(line) for line in out.splitlines() if line]
        assert records[-1] == {"kind": "drained", "role": "coordinator"}
