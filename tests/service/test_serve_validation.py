"""Stdin ``serve`` and ``POST /v1/jobs`` give a job line the same verdict.

Both fronts validate through ``json_object`` and ``spec_from_payload``,
so the ``invalid`` record of a bad stdin line carries the error-taxonomy
``code`` the HTTP front answers with.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.service.http import HttpError
from repro.service.http.protocol import json_object
from repro.service.http.server import spec_from_payload

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SPEC = {"input": "portrait", "target": "sailboat", "size": 32, "tile_size": 8}

BAD_LINES = [
    b"\xff\xfe",  # not UTF-8
    b'{"input": "portrait",',  # malformed JSON
    b'["portrait", "sailboat"]',  # not an object
    json.dumps({**SPEC, "colour": "red"}).encode(),  # unknown field
    json.dumps({**SPEC, "kind": "video"}).encode(),  # unknown kind
    json.dumps({**SPEC, "tile_size": -3}).encode(),  # invalid knob
]


def http_code(body: bytes) -> str:
    with pytest.raises(HttpError) as excinfo:
        spec_from_payload(json_object(body))
    return excinfo.value.code


def test_invalid_lines_carry_the_http_fronts_code(tmp_path):
    done = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", "1", "--outdir", str(tmp_path / "out"),
        ],
        input=b"".join(line + b"\n" for line in BAD_LINES),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(REPO_SRC)),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["kind"] for r in records] == ["invalid"] * len(BAD_LINES)
    assert [r["payload"]["code"] for r in records] == [
        http_code(line) for line in BAD_LINES
    ]
    assert [r["payload"]["line"] for r in records] == [
        line.decode("utf-8", "replace") for line in BAD_LINES
    ]
