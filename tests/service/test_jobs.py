"""Tests for the job model (specs, records, states, IDs)."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import JobError
from repro.mosaic.config import MosaicConfig
from repro.service.jobs import JobRecord, JobSpec, JobState


def spec(**overrides) -> JobSpec:
    base = dict(input="portrait", target="sailboat", size=64, tile_size=8)
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpec:
    def test_deterministic_ids(self):
        assert spec().job_id(0) == spec().job_id(0)

    def test_index_distinguishes_identical_specs(self):
        assert spec().job_id(0) != spec().job_id(1)

    def test_content_distinguishes_specs(self):
        assert spec().job_id(0) != spec(tile_size=16).job_id(0)

    def test_id_format(self):
        job_id = spec().job_id(3)
        assert job_id.startswith("job-")
        assert len(job_id) == len("job-") + 12

    def test_to_config(self):
        config = spec(
            algorithm="optimization", solver="hungarian", metric="ssd"
        ).to_config()
        assert config == MosaicConfig(
            tile_size=8, algorithm="optimization", solver="hungarian", metric="ssd"
        )

    def test_rejects_empty_images(self):
        with pytest.raises(JobError, match="non-empty"):
            JobSpec(input="", target="sailboat")

    def test_rejects_bad_timeout(self):
        with pytest.raises(JobError, match="timeout"):
            spec(timeout=0.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(JobError, match="max_retries"):
            spec(max_retries=-1)

    def test_picklable(self):
        s = spec(priority=3, timeout=1.0)
        assert pickle.loads(pickle.dumps(s)) == s

    def test_field_names_cover_manifest_keys(self):
        names = JobSpec.field_names()
        assert {"input", "target", "priority", "timeout", "seed"} <= names


class TestJobRecord:
    def test_lifecycle_happy_path(self):
        record = JobRecord(spec=spec(), job_id="job-x")
        assert record.state is JobState.PENDING
        record.transition(JobState.RUNNING)
        record.transition(JobState.DONE)
        assert record.queue_wait is not None
        assert record.latency is not None
        assert record.latency >= record.queue_wait

    def test_retry_cycle(self):
        record = JobRecord(spec=spec(), job_id="job-x")
        record.transition(JobState.RUNNING)
        record.transition(JobState.PENDING)  # retry
        record.transition(JobState.RUNNING)
        record.transition(JobState.FAILED)
        assert record.state is JobState.FAILED

    def test_illegal_transition_rejected(self):
        record = JobRecord(spec=spec(), job_id="job-x")
        with pytest.raises(JobError, match="illegal transition"):
            record.transition(JobState.DONE)  # PENDING -> DONE skips RUNNING

    def test_terminal_states_are_final(self):
        record = JobRecord(spec=spec(), job_id="job-x")
        record.transition(JobState.CANCELLED)
        with pytest.raises(JobError, match="illegal transition"):
            record.transition(JobState.RUNNING)

    def test_summary_schema(self):
        record = JobRecord(spec=spec(name="myjob"), job_id="job-x")
        record.transition(JobState.RUNNING)
        record.error = "boom"
        record.transition(JobState.FAILED)
        summary = record.summary()
        assert summary["name"] == "myjob"
        assert summary["state"] == "FAILED"
        assert summary["error"] == "boom"
        assert summary["latency_s"] > 0

    def test_picklable_without_lock(self):
        record = JobRecord(spec=spec(), job_id="job-x")
        clone = pickle.loads(pickle.dumps(record))
        clone.transition(JobState.RUNNING)  # lock was re-created
        assert clone.state is JobState.RUNNING
