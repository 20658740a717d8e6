"""Process helpers shared by the end-to-end smoke scripts.

Each smoke starts ``photomosaic`` serving commands as real subprocesses,
reads their JSON ``listening`` line, checks the event streams it gets
back, and stops every server with SIGTERM, requiring a graceful drain:
exit 0 with a final ``drained`` record.  The scripts import this module
from their own directory (``python scripts/<name>_smoke.py`` puts
``scripts/`` on ``sys.path``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)


def cli_env() -> dict:
    """Environment for a CLI child: the repo's ``src`` importable, unbuffered
    stdout, and no inherited bearer token (the smokes run without auth)."""
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PHOTOMOSAIC_TOKEN", None)
    return env


def spawn(*argv: str) -> subprocess.Popen:
    """Start ``photomosaic <argv>`` with piped, text-mode stdout/stderr."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
        text=True,
    )


def listening(process: subprocess.Popen) -> dict:
    """The server's first stdout line: where it bound (``--port 0``)."""
    line = process.stdout.readline()
    if not line:
        raise RuntimeError(f"early exit: {process.stderr.read()[-2000:]}")
    info = json.loads(line)
    assert info["kind"] == "listening", info
    return info


def check_stream(events: list[dict]) -> None:
    """Gap-free sequence numbers and exactly one terminal ``DONE``."""
    assert [e["seq"] for e in events] == list(range(len(events))), events
    assert [e["terminal"] for e in events].count(True) == 1
    assert events[-1]["payload"]["state"] == "DONE", events[-1]


def drain(process: subprocess.Popen, timeout: float = 60) -> dict:
    """SIGTERM, wait for exit 0 and return the final ``drained`` record."""
    process.send_signal(signal.SIGTERM)
    out, err = process.communicate(timeout=timeout)
    assert process.returncode == 0, f"exit {process.returncode}:\n{err}"
    final = json.loads(out.splitlines()[-1])
    assert final["kind"] == "drained", final
    return final


def reap(*processes: subprocess.Popen) -> None:
    """Kill whatever a failed smoke left running."""
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.communicate()
