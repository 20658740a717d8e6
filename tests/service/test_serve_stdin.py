"""The stdin protocol of ``photomosaic serve``, over real processes.

Each test pipes JSON lines into ``serve`` and reads the NDJSON records it
prints: job events (``admitted``, ``state``, ``phase``, ``sweep``,
``retry``) and the intake's own lines (``invalid``, ``rejected``,
``cancel_request``).  The tests pin each record's ``kind``, ``terminal``,
``job_id``/``seq`` and the offending ``payload.line`` — not the wording
of error messages.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Cheap enough to finish in milliseconds.
SMALL = {"input": "portrait", "target": "sailboat", "size": 32, "tile_size": 8}
#: S=1024: runs for a good fraction of a second, so it is still in flight
#: while the next line is read.
BIG = {"input": "portrait", "target": "sailboat", "size": 256, "tile_size": 8}


def job_line(name: str, **fields) -> str:
    return json.dumps({**SMALL, "name": name, **fields})


def serve_argv(tmp_path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--workers", "1", "--outdir", str(tmp_path / "out"), *extra,
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_serve(tmp_path, lines: list[str], *extra: str):
    """Pipe ``lines`` then EOF into ``serve``; returns (records, exit code)."""
    done = subprocess.run(
        serve_argv(tmp_path, *extra),
        input="".join(line + "\n" for line in lines),
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    records = [json.loads(line) for line in done.stdout.splitlines() if line]
    return records, done.returncode, done.stderr


def job_streams(records: list[dict]) -> dict[str, list[dict]]:
    streams: dict[str, list[dict]] = {}
    for record in records:
        if record["seq"] is not None:
            streams.setdefault(record["job_id"], []).append(record)
    return streams


def assert_complete(events: list[dict], state: str) -> None:
    """One whole stream: seq 0..n, admitted first, one terminal, last."""
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[0]["kind"] == "admitted"
    assert [e["terminal"] for e in events].count(True) == 1
    assert events[-1]["terminal"]
    assert events[-1]["kind"] == "state"
    assert events[-1]["payload"]["state"] == state


class TestInvalidLines:
    def test_each_bad_line_gives_one_invalid_record(self, tmp_path):
        bad = [
            '{"input": "portrait",',  # malformed JSON
            '["portrait", "sailboat"]',  # not an object
            json.dumps({**SMALL, "colour": "red"}),  # unknown field
            json.dumps({**SMALL, "kind": "video"}),  # unknown kind
        ]
        records, code, err = run_serve(tmp_path, bad + [job_line("ok")])
        assert code == 0, err
        invalid = [r for r in records if r["kind"] == "invalid"]
        assert [r["payload"]["line"] for r in invalid] == bad
        for record in invalid:
            assert record["job_id"] is None
            assert record["seq"] is None
            assert record["terminal"] is True
        # The good line after them still runs.
        streams = job_streams(records)
        assert len(streams) == 1
        assert_complete(next(iter(streams.values())), "DONE")


class TestCancelLines:
    def test_cancel_unknown_name_is_not_accepted(self, tmp_path):
        records, code, err = run_serve(tmp_path, ['{"cancel": "nope"}'])
        assert code == 0, err
        assert records == [
            {
                "job_id": "nope",
                "seq": None,
                "kind": "cancel_request",
                "terminal": False,
                "payload": {"accepted": False},
            }
        ]

    def test_cancel_running_job_ends_it_cancelled(self, tmp_path):
        process = subprocess.Popen(
            serve_argv(tmp_path),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        try:
            process.stdin.write(json.dumps({**BIG, "name": "victim"}) + "\n")
            process.stdin.flush()
            seen = []
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                record = json.loads(process.stdout.readline())
                seen.append(record)
                if record["payload"].get("state") == "RUNNING":
                    break
            job_id = seen[0]["job_id"]
            out, err = process.communicate('{"cancel": "victim"}\n', timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        records = seen + [json.loads(line) for line in out.splitlines() if line]
        requests = [r for r in records if r["kind"] == "cancel_request"]
        assert len(requests) == 1
        assert requests[0]["job_id"] == job_id
        assert requests[0]["seq"] is None
        assert requests[0]["payload"] == {"accepted": True}
        assert_complete(job_streams(records)[job_id], "CANCELLED")


class TestAdmission:
    def test_line_beyond_max_pending_is_rejected(self, tmp_path):
        records, code, err = run_serve(
            tmp_path,
            [json.dumps({**BIG, "name": "first"}), job_line("second")],
            "--max-pending", "1",
        )
        assert code == 0, err
        rejected = [r for r in records if r["kind"] == "rejected"]
        assert len(rejected) == 1
        assert rejected[0]["job_id"] is None
        assert rejected[0]["seq"] is None
        assert rejected[0]["terminal"] is True
        assert rejected[0]["payload"]["name"] == "second"
        streams = job_streams(records)
        assert len(streams) == 1
        assert_complete(next(iter(streams.values())), "DONE")


class TestEndOfInput:
    def test_every_admitted_job_ends_once_and_exit_is_zero(self, tmp_path):
        names = ["a", "b", "c"]
        records, code, err = run_serve(
            tmp_path, [job_line(name) for name in names], "--max-pending", "8"
        )
        assert code == 0, err
        streams = job_streams(records)
        assert len(streams) == 3
        assert sorted(s[0]["payload"]["name"] for s in streams.values()) == names
        for events in streams.values():
            assert_complete(events, "DONE")

    def test_failed_job_makes_exit_code_one(self, tmp_path):
        records, code, _ = run_serve(
            tmp_path,
            [job_line("fine"), job_line("broken", input="no-such-image")],
            "--retries", "0",
        )
        assert code == 1
        by_name = {
            s[0]["payload"]["name"]: s for s in job_streams(records).values()
        }
        assert_complete(by_name["fine"], "DONE")
        assert_complete(by_name["broken"], "FAILED")

    def test_event_log_mirrors_stdout_events(self, tmp_path):
        log = tmp_path / "events.ndjson"
        records, code, err = run_serve(
            tmp_path,
            [job_line("a"), "not json", job_line("b")],
            "--event-log", str(log),
        )
        assert code == 0, err
        printed = [r for r in records if r["seq"] is not None]
        mirrored = [json.loads(line) for line in log.read_text().splitlines()]
        assert mirrored == printed
        assert len(job_streams(records)) == 2


class TestManifest:
    def test_manifest_streams_every_job_to_its_terminal_event(self, tmp_path):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(
            json.dumps(
                {
                    "defaults": {**SMALL},
                    "jobs": [{"name": f"m{i}"} for i in range(4)],
                }
            )
        )
        done = subprocess.run(
            serve_argv(tmp_path, "--manifest", str(manifest), "--max-pending", "2"),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines() if line]
        assert not [r for r in records if r["seq"] is None]
        streams = job_streams(records)
        assert sorted(s[0]["payload"]["name"] for s in streams.values()) == [
            "m0", "m1", "m2", "m3",
        ]
        for events in streams.values():
            assert_complete(events, "DONE")
