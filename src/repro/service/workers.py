"""Worker pool executing queued mosaic jobs.

``N`` supervisor threads consume the priority queue.  Each job attempt
runs through :mod:`concurrent.futures` — a thread or a process executor,
selectable per pool — so a per-attempt wall-clock timeout can be enforced
by waiting on the future: on timeout the attempt is abandoned (its
executor is shut down without waiting) and the supervisor moves on, which
is what keeps one runaway job from ever stalling the queue.  Failed and
timed-out attempts are retried with exponential backoff (jittered through
:func:`repro.utils.rng.make_rng`, so a seeded pool backs off
reproducibly) up to the job's retry budget, then marked ``FAILED``.

Shutdown is graceful by default: the queue stops accepting work, the
supervisors drain what is already queued, and ``shutdown`` returns when
they exit.  ``drain=False`` cancels everything still pending instead.

Caveat (CPython): a timed-out *thread* attempt cannot be killed — it is
abandoned and keeps running to completion in the background with its
result discarded.  Process attempts terminate with their executor.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from typing import Any, Callable, Iterable, Sequence

from dataclasses import dataclass, field

from repro.exceptions import JobCancelled, JobError, JobTimeout
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.metrics import MetricsRegistry
from repro.service.queue import JobQueue
from repro.utils.rng import make_rng, spawn_seeds
from repro.utils.timing import TimingBreakdown

__all__ = [
    "WorkerPool",
    "MosaicJobRunner",
    "JobContext",
    "SystemClock",
    "resolve_image",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("thread", "process")


class SystemClock:
    """Real time source for the pool's backoff sleeps.

    Tests inject a fake with the same two methods to make retry/backoff
    behaviour instantaneous and assertable instead of wall-clock-flaky.
    """

    monotonic = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)


@dataclass
class JobContext:
    """Execution context handed to context-aware runners.

    A runner class advertising ``accepts_context = True`` is called as
    ``runner(spec, ctx)`` (thread executors only; process workers cannot
    receive the live context and get ``ctx=None``).  The context carries
    the job identity, the cooperative-cancellation flag and an ``emit``
    hook that streams progress events to whoever observes the record.
    """

    job_id: str
    attempt: int
    cancelled: threading.Event = field(default_factory=threading.Event)
    emit: Callable[[str, dict], None] = lambda kind, payload: None

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelled` if cancellation was requested."""
        if self.cancelled.is_set():
            raise JobCancelled(f"job {self.job_id} cancelled")


def resolve_image(spec: str, size: int):
    """Resolve a standard-image name or file path to a grayscale array."""
    from repro.imaging import STANDARD_IMAGES, ensure_gray, load_image, standard_image

    if spec in STANDARD_IMAGES:
        return standard_image(spec, size)
    if os.path.exists(spec):
        return ensure_gray(load_image(spec))
    raise JobError(
        f"{spec!r} is neither a file nor a standard image "
        f"({', '.join(STANDARD_IMAGES)})"
    )


class MosaicJobRunner:
    """Default job payload: resolve images, run the pipeline, save output.

    Picklable for process executors.  A ``process_safe`` cache backend —
    a :class:`~repro.service.cache.CacheStack` over a
    :class:`~repro.service.diskcache.DiskCacheStore` — is shipped along:
    the worker process gets a fresh memory tier plus the shared on-disk
    store, so Step-1/Step-2 artifacts are still computed once
    machine-wide.  A purely in-memory cache cannot cross the process
    boundary and is dropped instead (each process would warm its own).

    The runner is context-aware: driven by a thread-executor pool it
    receives a :class:`JobContext` and then (a) streams per-phase and
    per-sweep progress events through ``ctx.emit`` and (b) aborts with
    :class:`~repro.exceptions.JobCancelled` at the next phase/sweep
    boundary once cooperative cancellation is requested.  Called without
    a context (process workers, direct use) it behaves exactly as before.
    """

    accepts_context = True

    def __init__(
        self,
        cache=None,
        outdir: str | None = None,
        default_backend: str | None = None,
    ) -> None:
        self.cache = cache
        self.outdir = outdir
        self.default_backend = default_backend

    def __getstate__(self) -> dict:
        cache = self.cache if getattr(self.cache, "process_safe", False) else None
        return {
            "cache": cache,
            "outdir": self.outdir,
            "default_backend": self.default_backend,
        }

    def __call__(self, spec: JobSpec, ctx: JobContext | None = None):
        from repro.imaging import save_image

        observer = None
        if ctx is not None:
            ctx.check_cancelled()

            def observer(kind: str, payload: dict) -> None:
                ctx.check_cancelled()  # cancellation lands between phases/sweeps
                ctx.emit(kind, payload)

        if spec.kind == "library":
            result = self._run_library(spec, observer)
        else:
            result = self._run_mosaic(spec, observer)
        if spec.output:
            path = spec.output
            if self.outdir is not None and not os.path.isabs(path):
                path = os.path.join(self.outdir, path)
            save_image(path, result.image)
        return result

    def _run_mosaic(self, spec: JobSpec, observer):
        from repro.mosaic.generator import PhotomosaicGenerator

        input_image = resolve_image(spec.input, spec.size)
        target_image = resolve_image(spec.target, spec.size)
        generator = PhotomosaicGenerator(
            spec.to_config(self.default_backend), cache=self.cache
        )
        return generator.generate(input_image, target_image, observer=observer)

    def _run_library(self, spec: JobSpec, observer):
        from repro.library.engine import LibraryMosaicEngine

        if not os.path.exists(spec.input):
            raise JobError(
                f"library source {spec.input!r} does not exist "
                "(expected a directory of images or a saved .npz index)"
            )
        target_image = resolve_image(spec.target, spec.size)
        engine = LibraryMosaicEngine(
            spec.to_library_config(self.default_backend), cache=self.cache
        )
        return engine.generate(
            spec.input, target_image, seed=spec.seed, observer=observer
        )


class WorkerPool:
    """Priority-queue worker pool with timeouts, retries and metrics.

    Parameters
    ----------
    workers:
        Number of concurrent supervisors (= max jobs in flight).
    kind:
        ``"thread"`` or ``"process"`` — the executor each attempt runs on.
        Thread attempts without a timeout run inline (no executor cost).
    runner:
        ``Callable[[JobSpec], result]``; defaults to :class:`MosaicJobRunner`
        with this pool's cache.  Must be picklable for ``kind="process"``.
    max_retries:
        Default extra attempts per job (``JobSpec.max_retries`` overrides).
    backoff / backoff_factor:
        Exponential backoff between attempts:
        ``backoff * factor**attempt``, plus up to 10% seeded jitter.
    default_timeout:
        Per-attempt budget when the spec doesn't set one.
    seed:
        Seeds the per-worker backoff jitter streams via
        :func:`~repro.utils.rng.spawn_seeds`.
    clock:
        Time source for backoff sleeps (anything with ``sleep`` and
        ``monotonic``); defaults to :class:`SystemClock`.  Tests inject a
        fake clock to make retry timing deterministic.
    """

    def __init__(
        self,
        workers: int = 2,
        kind: str = "thread",
        *,
        runner: Callable[[JobSpec], Any] | None = None,
        cache=None,
        metrics: MetricsRegistry | None = None,
        max_retries: int = 1,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        default_timeout: float | None = None,
        seed: int | None = 0,
        clock: SystemClock | None = None,
    ) -> None:
        if workers < 1:
            raise JobError(f"workers must be >= 1, got {workers}")
        if kind not in EXECUTOR_KINDS:
            raise JobError(f"unknown executor kind {kind!r} (use {EXECUTOR_KINDS})")
        if max_retries < 0:
            raise JobError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.kind = kind
        self.cache = cache
        self.metrics = metrics or MetricsRegistry()
        self.runner = runner if runner is not None else MosaicJobRunner(cache=cache)
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.default_timeout = default_timeout
        self.clock = clock if clock is not None else SystemClock()
        self.timings = TimingBreakdown()  # phase-wise sum over all DONE jobs
        self._queue = JobQueue()
        self._records: dict[str, JobRecord] = {}
        self._submitted = 0
        self._open = 0  # submitted but not yet terminal
        self._state_lock = threading.Lock()
        self._all_done = threading.Condition(self._state_lock)
        self._shut_down = False
        self.metrics.gauge("workers", "configured pool size").set(workers)
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(make_rng(worker_seed),),
                name=f"mosaic-worker-{i}",
                daemon=True,
            )
            for i, worker_seed in enumerate(spawn_seeds(seed, workers))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission / lifecycle -----------------------------------------

    def submit(self, spec: JobSpec, observer=None) -> JobRecord:
        """Queue one job; returns its (live) record.

        ``observer(record, kind, payload)``, when given, is attached to
        the record *before* it is queued, so it sees every state
        transition including the first ``RUNNING`` (the streaming gateway
        relies on this ordering).
        """
        with self._state_lock:
            if self._shut_down:
                raise JobError("pool is shut down")
            record = JobRecord(spec=spec, job_id=spec.job_id(self._submitted))
            if observer is not None:
                record.set_observer(observer)
            # Count the job only once the queue took it; holding the lock
            # keeps a worker from finishing it before it is counted.
            self._queue.push(record)
            self._submitted += 1
            self._open += 1
            self._records[record.job_id] = record
        self.metrics.counter("jobs_submitted").inc()
        self.metrics.gauge("queue_depth").set(len(self._queue))
        return record

    def run(self, specs: Iterable[JobSpec]) -> Sequence[JobRecord]:
        """Submit a batch, wait for every job to finish, return the records."""
        records = [self.submit(spec) for spec in specs]
        self.join()
        return records

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: immediately while queued, cooperatively in flight.

        A still-queued job flips straight to ``CANCELLED``.  A job already
        claimed by a supervisor gets its record's ``cancel_event`` set:
        context-aware runners observe it between sweeps and abort with
        :class:`JobCancelled`, and the supervisor also checks it before
        starting the next attempt — so cancellation lands at the next
        cooperation point rather than never.  Returns ``False`` only when
        the job is unknown or already terminal.
        """
        if self._queue.cancel(job_id):
            self.metrics.counter("jobs_cancelled").inc()
            self.metrics.gauge("queue_depth").set(len(self._queue))
            self._mark_terminal(job_id)
            return True
        with self._state_lock:
            record = self._records.get(job_id)
        if record is None or record.state in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
        ):
            return False
        record.cancel_event.set()
        self.metrics.counter("cancel_requests").inc()
        return True

    def join(self, timeout: float | None = None) -> bool:
        """Block until every submitted job reached a terminal state."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._all_done:
            while self._open > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return False
                self._all_done.wait(timeout=remaining)
            return True

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the pool: drain (default) or cancel pending jobs, join workers."""
        with self._state_lock:
            self._shut_down = True
        cancelled = self._queue.close(drain=drain)
        if cancelled:
            self.metrics.counter("jobs_cancelled").inc(cancelled)
            with self._all_done:
                self._open -= cancelled
                for record in list(self._records.values()):
                    if record.state is JobState.CANCELLED:
                        del self._records[record.job_id]
                self._all_done.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(drain=True)

    def records(self) -> list[JobRecord]:
        """Snapshot of the records of jobs not yet terminal, in submission order."""
        with self._state_lock:
            return list(self._records.values())

    # -- execution ------------------------------------------------------

    def _worker_loop(self, rng) -> None:
        while True:
            record = self._queue.pop()
            if record is None:
                return
            self.metrics.gauge("queue_depth").set(len(self._queue))
            self._execute(record, rng)
            self._mark_terminal(record.job_id)

    def _execute(self, record: JobRecord, rng) -> None:
        spec = record.spec
        retries = spec.max_retries if spec.max_retries is not None else self.max_retries
        active = self.metrics.gauge("active_workers")
        error: str | None = None
        for attempt in range(retries + 1):
            if record.cancel_event.is_set():
                record.transition(JobState.CANCELLED)
                self.metrics.counter("jobs_cancelled").inc()
                return
            record.attempts += 1  # before RUNNING so the event carries it
            record.transition(JobState.RUNNING)
            self.metrics.counter("attempts_total").inc()
            active.inc()
            started = time.perf_counter()
            try:
                result = self._run_attempt(record, spec)
            except JobTimeout as exc:
                error = str(exc)
                self.metrics.counter("job_timeouts").inc()
            except JobCancelled:
                record.transition(JobState.CANCELLED)
                self.metrics.counter("jobs_cancelled").inc()
                return
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                error = f"{type(exc).__name__}: {exc}"
            else:
                self.metrics.histogram("attempt_seconds").observe(
                    time.perf_counter() - started
                )
                self._finish_done(record, result)
                return
            finally:
                active.dec()
            self.metrics.histogram("attempt_seconds").observe(
                time.perf_counter() - started
            )
            if attempt < retries:
                record.transition(JobState.PENDING)  # requeue-in-place for retry
                self.metrics.counter("job_retries").inc()
                delay = self.backoff * self.backoff_factor**attempt
                delay *= 1.0 + 0.1 * float(rng.random())
                record.notify(
                    "retry",
                    {"attempt": record.attempts, "delay": delay, "error": error},
                )
                self.clock.sleep(delay)
        record.error = error
        record.transition(JobState.FAILED)
        self.metrics.counter("jobs_failed").inc()

    def _finish_done(self, record: JobRecord, result: Any) -> None:
        record.result = result
        record.transition(JobState.DONE)
        self.metrics.counter("jobs_done").inc()
        if record.queue_wait is not None:
            self.metrics.histogram("queue_wait_seconds").observe(record.queue_wait)
        if record.latency is not None:
            self.metrics.histogram("job_latency_seconds").observe(record.latency)
        timings = getattr(result, "timings", None)
        if isinstance(timings, TimingBreakdown):
            for phase, seconds in timings.as_dict().items():
                self.timings.add(phase, seconds)
            self.metrics.record_timings(timings, prefix="phase")
        # Per-artifact cache outcomes travel in the result meta, so they
        # survive the process boundary — the pool's registry sees hits
        # that happened inside process workers, which the cache object's
        # own (per-process) counters cannot.
        meta = getattr(result, "meta", None)
        if isinstance(meta, dict) and isinstance(meta.get("cache"), dict):
            outcomes = {"hit": 0, "miss": 0}
            for outcome in meta["cache"].values():
                if outcome in outcomes:
                    outcomes[outcome] += 1
            self.metrics.merge_counts(
                {
                    "cache_artifact_hits": outcomes["hit"],
                    "cache_artifact_misses": outcomes["miss"],
                }
            )
        if isinstance(meta, dict) and isinstance(meta.get("library"), dict):
            # Library-pipeline stats travel the same meta route as the
            # cache outcomes, so process workers' ingests are visible too.
            lib = meta["library"]
            self.metrics.merge_counts(
                {
                    "library_ingest_hits": int(lib.get("ingest_hits", 0)),
                    "library_ingest_misses": int(lib.get("ingest_misses", 0)),
                }
            )
            count_buckets = (1, 2, 4, 8, 16, 32, 64, 128, 256)
            if "shortlist_k" in lib:
                self.metrics.histogram(
                    "library_shortlist_size",
                    "exact-scored candidates per cell",
                    buckets=count_buckets,
                ).observe(float(lib["shortlist_k"]))
            if "max_reuse" in lib:
                self.metrics.histogram(
                    "library_tile_reuse_max",
                    "max cells sharing one tile, per job",
                    buckets=count_buckets,
                ).observe(float(lib["max_reuse"]))
        if isinstance(meta, dict) and isinstance(meta.get("shortlist"), dict):
            # Sparse Step-2 stats use one shared shape across job kinds —
            # mosaic shortlisting (repro.cost.sparse) and the library
            # engine's per-cell shortlist both report how many pairs were
            # exact-scored and how many assignments fell off-shortlist.
            shortlist = meta["shortlist"]
            self.metrics.merge_counts(
                {
                    "shortlist_pairs_evaluated": int(
                        shortlist.get("pairs_evaluated", 0)
                    ),
                    "shortlist_fallback_total": int(shortlist.get("fallback", 0)),
                }
            )

    def _call_for(self, record: JobRecord) -> Callable[[JobSpec], Any]:
        """The per-attempt callable: plain runner, or context-aware wrapper.

        Context-aware runners (``accepts_context = True``) receive a
        :class:`JobContext` wired to this record's cancel event and
        observer — but only on thread executors; the live context (a
        lock-bearing event plus a closure) cannot cross a process
        boundary, so process workers run ``runner(spec)`` and keep
        attempt-level granularity.
        """
        if not getattr(self.runner, "accepts_context", False) or self.kind != "thread":
            return self.runner
        context = JobContext(
            job_id=record.job_id,
            attempt=record.attempts,
            cancelled=record.cancel_event,
            emit=record.notify,
        )
        runner = self.runner
        return lambda spec: runner(spec, context)

    def _run_attempt(self, record: JobRecord, spec: JobSpec) -> Any:
        call = self._call_for(record)
        timeout = spec.timeout if spec.timeout is not None else self.default_timeout
        if timeout is None and self.kind == "thread":
            return call(spec)  # no budget to enforce: skip executor cost
        executor_cls = (
            ThreadPoolExecutor if self.kind == "thread" else ProcessPoolExecutor
        )
        executor = executor_cls(max_workers=1)
        try:
            future = executor.submit(call, spec)
            try:
                return future.result(timeout=timeout)
            except FuturesTimeoutError:
                future.cancel()
                raise JobTimeout(
                    f"job attempt exceeded its {timeout:.3f}s budget"
                ) from None
        finally:
            # On timeout we must not wait: the whole point is to abandon
            # the attempt and keep the supervisor (and queue) moving.
            executor.shutdown(wait=timeout is None, cancel_futures=True)

    def _mark_terminal(self, job_id: str) -> None:
        with self._all_done:
            self._records.pop(job_id, None)  # shutdown may have dropped it
            self._open -= 1
            self._all_done.notify_all()
