"""Mistyped job-spec fields are rejected at admission, not inside a worker.

``priority`` orders the queue's heap, ``max_retries`` counts the pool's
attempts and the other fields steer the runner, so a spec carrying the
wrong type or an unknown name must fail as a 400 ``invalid_spec`` before
a pool ever counts it.  So must a network spec whose ``output`` would
leave the output directory.  A push that fails anyway leaves no record
and no open job behind.
"""

from __future__ import annotations

import pytest

from repro.exceptions import JobError
from repro.service.http.protocol import HttpError
from repro.service.http.server import spec_from_payload
from repro.service.jobs import JobSpec
from repro.service.workers import WorkerPool

BASE = {"input": "portrait", "target": "sailboat", "size": 64, "tile_size": 8}

#: Solver names the registry used to carry; a spec naming one must not queue.
REMOVED_SOLVERS = "greedy jv auction".split()


@pytest.mark.parametrize(
    "field, value",
    [
        ("priority", "x"),
        ("priority", 1.5),
        ("priority", True),
        ("priority", None),
        ("seed", 1.5),
        ("seed", "7"),
        ("seed", False),
        ("histogram_match", "x"),
        ("histogram_match", 1),
        ("metric", "nope"),
        ("max_retries", 1.5),
        ("max_retries", "2"),
        ("max_retries", True),
        ("size", "64"),
        ("size", True),
        ("size", -5),
        ("size", 0),
        ("tile_size", 8.5),
        ("shortlist_top_k", 1.5),
        ("timeout", "5"),
        ("timeout", True),
        ("solver", "nope"),
        *(("solver", name) for name in REMOVED_SOLVERS),
        ("output", "/tmp/x.png"),
        ("output", "../../x.png"),
        ("output", "sub/../../x.png"),
        ("output", 7),
    ],
)
def test_mistyped_field_is_invalid_spec(field, value):
    with pytest.raises(HttpError) as err:
        spec_from_payload({**BASE, field: value})
    assert err.value.status == 400
    assert err.value.code == "invalid_spec"
    assert field.split("_")[0] in err.value.message


@pytest.mark.parametrize(
    "field, value",
    [
        ("priority", -3),
        ("seed", None),
        ("seed", 2**63),
        ("histogram_match", False),
        ("max_retries", 0),
        ("size", 1),
        ("timeout", 5),
        ("timeout", 0.5),
        ("solver", "hungarian"),
        ("output", "job1.png"),
        ("output", "sub/job1.png"),
    ],
)
def test_well_typed_fields_pass(field, value):
    assert getattr(spec_from_payload({**BASE, field: value}), field) == value


def test_manifest_spec_keeps_its_output_path():
    """Only network submissions are confined to the output directory."""
    assert JobSpec(**BASE, output="/tmp/x.png").output == "/tmp/x.png"


def test_float_retries_cannot_reach_a_pool():
    """A float ``max_retries`` used to kill the worker thread at
    ``range(retries + 1)`` and leave the job PENDING for good."""
    with pytest.raises(JobError, match="max_retries"):
        JobSpec(**BASE, max_retries=1.5)


def test_library_spec_checks_metric_too():
    with pytest.raises(JobError, match="unknown cost metric"):
        JobSpec(**BASE, kind="library", metric="nope")


def _echo(job_spec: JobSpec) -> str:
    return job_spec.name


def test_failed_push_leaves_no_open_job(monkeypatch):
    pool = WorkerPool(workers=1, runner=_echo)
    try:

        def refuse(record):
            raise JobError("queue is closed")

        with monkeypatch.context() as patch:
            patch.setattr(pool._queue, "push", refuse)
            with pytest.raises(JobError, match="closed"):
                pool.submit(JobSpec(**BASE))
        assert pool.join(timeout=1)
        assert pool._records == {}
        # The refused job did not use up a batch position.
        record = pool.submit(JobSpec(**BASE))
        assert record.job_id == JobSpec(**BASE).job_id(0)
        assert pool.join(timeout=5)
    finally:
        pool.shutdown()
