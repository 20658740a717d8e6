"""Result meta must survive process-pool pickling round-trips.

Process executors ship the runner *to* the worker and the
``MosaicResult`` *back* — both cross a pickle boundary.  The counters
the pool folds from result meta (``shortlist_*``) only work if the meta
blocks survive that trip.
"""

from __future__ import annotations

import pickle

from repro.service.jobs import JobSpec, JobState
from repro.service.metrics import MetricsRegistry
from repro.service.workers import WorkerPool


def _sparse_spec(**kwargs) -> JobSpec:
    base = dict(
        input="portrait",
        target="sailboat",
        size=64,
        tile_size=16,
        shortlist_top_k=8,
        seed=3,
    )
    base.update(kwargs)
    return JobSpec(**base)


def test_result_meta_survives_a_pickle_round_trip():
    """Direct check on the payload the process executor ships back."""
    from repro.mosaic.generator import PhotomosaicGenerator
    from repro.service.workers import resolve_image

    generator = PhotomosaicGenerator(_sparse_spec().to_config())
    result = generator.generate(
        resolve_image("portrait", 64), resolve_image("sailboat", 64)
    )
    assert result.meta["shortlist"]["pairs_evaluated"] > 0
    clone = pickle.loads(pickle.dumps(result))
    assert clone.meta["shortlist"] == result.meta["shortlist"]


def test_process_pool_folds_shortlist_counters():
    """The real boundary: a process worker computes the job, the parent
    pool still sees the shortlist work in its registry."""
    metrics = MetricsRegistry()
    with WorkerPool(
        workers=1, kind="process", metrics=metrics, default_timeout=120.0
    ) as pool:
        record = pool.run([_sparse_spec()])[0]
    assert record.state is JobState.DONE, record.error
    shortlist = record.summary()["shortlist"]
    assert shortlist["pairs_evaluated"] > 0
    assert (
        metrics.counter("shortlist_pairs_evaluated").value
        == shortlist["pairs_evaluated"]
    )
