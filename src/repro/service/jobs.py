"""Job model for the mosaic job service.

A :class:`JobSpec` is an immutable description of one mosaic request —
what to render, with which pipeline knobs, and with which scheduling
parameters (priority, timeout, retries).  A :class:`JobRecord` is the
mutable execution-side twin: it tracks the state machine

    ``PENDING -> RUNNING -> DONE | FAILED | CANCELLED``

(with ``RUNNING -> PENDING`` on a retried attempt), timestamps for the
queue-wait/latency metrics, and the final :class:`~repro.mosaic.result.
MosaicResult` when the job succeeds.

Job IDs are deterministic: the same spec submitted at the same batch
position always yields the same ID, so re-running a manifest produces
stable artefact names and logs that diff cleanly.
"""

from __future__ import annotations

import enum
import hashlib
import json
import numbers
import threading
import time
from dataclasses import asdict, dataclass, field, fields

from repro.exceptions import JobError, ValidationError
from repro.mosaic.config import MosaicConfig

__all__ = ["JOB_KINDS", "JobState", "JobSpec", "JobRecord"]

#: Workloads the service can run: the paper's rearrangement pipeline
#: (``"mosaic"``) and the many-to-one tile-library engine (``"library"``).
JOB_KINDS = ("mosaic", "library")


class JobState(str, enum.Enum):
    """Lifecycle states of a submitted job."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"


#: Legal state transitions (RUNNING -> PENDING happens on a retry).
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.PENDING: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.PENDING}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


#: Integer spec fields, and those of them that may be ``None``.
_INT_FIELDS = ("priority", "size", "tile_size", "shortlist_top_k", "seed", "max_retries")
_OPTIONAL = ("seed", "max_retries")


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """One mosaic request plus its scheduling parameters.

    ``input`` and ``target`` are file paths or standard-image names,
    resolved lazily by the runner so specs stay cheap and picklable
    (process executors ship them to workers).  For ``kind="library"``,
    ``input`` is instead the tile library: a directory of candidate
    images or a saved ``.npz`` :class:`~repro.library.index.LibraryIndex`.

    Attributes
    ----------
    kind:
        One of :data:`JOB_KINDS` — which pipeline the runner executes.
    backend:
        Array backend for the job's hot paths (``"numpy"``, ``"cupy"``,
        ``"auto"``); ``None`` defers to the runner's default, so one
        ``--backend`` flag on the service CLI steers every job that
        doesn't pin its own.
    top_k, clusters, repetition_penalty, assigner, refine_iters,
    color_adjust, out_size, thumb_size:
        Library-pipeline knobs (see
        :class:`~repro.library.config.LibraryConfig`); ignored by
        ``kind="mosaic"`` jobs.
    shortlist_top_k, sketch:
        Sparse Step-2 knobs for ``kind="mosaic"`` jobs (see
        :class:`~repro.mosaic.config.MosaicConfig`): ``shortlist_top_k``
        candidate positions per input tile, shortlisted by ``sketch``
        features and exact-scored.  ``0`` keeps the dense path.  The
        job's ``seed`` doubles as the shortlister's k-means seed, so a
        seeded sparse job is bit-reproducible.  Ignored by
        ``kind="library"`` jobs (which have their own ``top_k``).
    priority:
        Higher runs first; ties are FIFO.
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = unlimited).
    max_retries:
        Extra attempts after the first failure/timeout (``None`` defers
        to the pool default).
    seed:
        Seed for any randomised pipeline component; batch submission
        derives per-job seeds from the manifest seed via
        :func:`repro.utils.rng.spawn_seeds` when unset.
    """

    input: str
    target: str
    name: str = ""
    output: str | None = None
    kind: str = "mosaic"
    size: int = 64
    tile_size: int = 16
    algorithm: str = "parallel"
    metric: str = "sad"
    solver: str = "scipy"
    histogram_match: bool = True
    backend: str | None = None
    top_k: int = 16
    clusters: int = 0
    repetition_penalty: float = 0.0
    assigner: str = "greedy"
    refine_iters: int = 0
    color_adjust: str = "none"
    out_size: int | None = None
    thumb_size: int = 32
    shortlist_top_k: int = 0
    sketch: str = "mean"
    priority: int = 0
    timeout: float | None = None
    max_retries: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.input or not self.target:
            raise JobError("job spec needs non-empty 'input' and 'target'")
        if self.kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {self.kind!r} (use one of {JOB_KINDS})"
            )
        # The queue orders on ``priority``, the pool counts attempts from
        # ``max_retries`` and the runner sizes and seeds from the rest: a
        # mistyped value must fail here, not inside a worker.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name in _OPTIONAL)):
                raise JobError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.histogram_match, bool):
            raise JobError(
                f"histogram_match must be a boolean, got {self.histogram_match!r}"
            )
        if self.size < 1:
            raise JobError(f"size must be >= 1, got {self.size}")
        if self.timeout is not None:
            if isinstance(self.timeout, bool) or not isinstance(
                self.timeout, numbers.Real
            ):
                raise JobError(f"timeout must be a number, got {self.timeout!r}")
            if self.timeout <= 0:
                raise JobError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries is not None and self.max_retries < 0:
            raise JobError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backend is not None:
            from repro.accel.backend import backend_names

            if self.backend not in backend_names():
                raise JobError(
                    f"unknown backend {self.backend!r} "
                    f"(use one of {backend_names()})"
                )
        if self.kind == "mosaic":
            # Materialising the MosaicConfig runs its full validation
            # (shortlist/sketch combinations included), so bad pipeline
            # knobs surface at submit time as JobError.
            try:
                self.to_config()
            except ValidationError as exc:
                raise JobError(str(exc)) from exc
        if self.kind == "library":
            # Materialising the LibraryConfig runs its full validation;
            # bad library knobs surface at submit time as JobError, not
            # deep inside a worker attempt.
            try:
                self.to_library_config()
            except ValidationError as exc:
                raise JobError(str(exc)) from exc

    def job_id(self, index: int = 0) -> str:
        """Deterministic ID: content hash of the spec plus batch position."""
        payload = json.dumps(
            {**asdict(self), "index": index}, sort_keys=True, default=str
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
        return f"job-{digest}"

    def resolve_backend(self, default_backend: str | None = None) -> str:
        """Array backend after falling back to the runner default."""
        backend = self.backend if self.backend is not None else default_backend
        return backend if backend is not None else "numpy"

    def to_config(self, default_backend: str | None = None) -> MosaicConfig:
        """The :class:`MosaicConfig` this spec describes."""
        return MosaicConfig(
            tile_size=self.tile_size,
            algorithm=self.algorithm,
            metric=self.metric,
            solver=self.solver,
            histogram_match=self.histogram_match,
            array_backend=self.resolve_backend(default_backend),
            shortlist_top_k=self.shortlist_top_k,
            sketch=self.sketch,
            shortlist_seed=self.seed,
        )

    def to_library_config(self, default_backend: str | None = None):
        """The :class:`~repro.library.config.LibraryConfig` this spec
        describes (``kind="library"`` jobs)."""
        from repro.library.config import LibraryConfig

        return LibraryConfig(
            tile_size=self.tile_size,
            thumb_size=self.thumb_size,
            metric=self.metric,
            top_k=self.top_k,
            clusters=self.clusters,
            repetition_penalty=self.repetition_penalty,
            assigner=self.assigner,
            refine_iters=self.refine_iters,
            color_adjust=self.color_adjust,
            out_size=self.out_size,
            array_backend=self.resolve_backend(default_backend),
        )

    @classmethod
    def field_names(cls) -> frozenset[str]:
        """Names accepted in a manifest job entry."""
        return frozenset(f.name for f in fields(cls))


@dataclass
class JobRecord:
    """Mutable execution state of one submitted job.

    All mutation goes through the helper methods, which enforce the state
    machine and are safe to call from worker threads.
    """

    spec: JobSpec
    job_id: str
    state: JobState = JobState.PENDING
    attempts: int = 0
    error: str | None = None
    result: object | None = None  # MosaicResult when DONE (kept opaque here)
    submitted_at: float = field(default_factory=time.perf_counter)
    started_at: float | None = None
    finished_at: float | None = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._observer = None
        self.cancel_event = threading.Event()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        state.pop("_observer", None)
        state.pop("cancel_event", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._observer = None
        self.cancel_event = threading.Event()

    def set_observer(self, observer) -> None:
        """Attach ``observer(record, kind, payload)``, the event hook.

        The worker pool notifies it on every state transition
        (``kind="state"``) and retry (``kind="retry"``); context-aware
        runners stream progress through it (``"phase"``, ``"sweep"``).
        The streaming gateway is the intended consumer — it must be set
        *before* the record is queued so no transition is missed, which
        is why :meth:`WorkerPool.submit` takes it as a parameter.
        """
        self._observer = observer

    def notify(self, kind: str, payload: dict) -> None:
        """Forward one event to the attached observer (no-op without one)."""
        observer = self._observer
        if observer is not None:
            observer(self, kind, payload)

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``, enforcing the lifecycle graph."""
        with self._lock:
            if new_state not in _TRANSITIONS[self.state]:
                raise JobError(
                    f"job {self.job_id}: illegal transition "
                    f"{self.state.value} -> {new_state.value}"
                )
            self.state = new_state
            now = time.perf_counter()
            if new_state is JobState.RUNNING and self.started_at is None:
                self.started_at = now
            if new_state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
                self.finished_at = now
            # Notify while still holding the lock: concurrent transitions
            # (supervisor vs. a queue-side cancel) must deliver their
            # events in commit order, or a stream could see a terminal
            # state followed by RUNNING.
            payload = {"state": new_state.value, "attempts": self.attempts}
            if new_state is JobState.DONE:
                # Ship the bit-identity witness in the terminal event, so
                # any front (including a coordinator replicating another
                # node's log) can prove which artifact this run produced.
                digest = self.result_digest()
                if digest is not None:
                    payload["result_digest"] = digest
            self.notify("state", payload)

    @property
    def queue_wait(self) -> float | None:
        """Seconds between submission and first run (``None`` if never ran)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float | None:
        """Seconds between submission and terminal state."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def result_digest(self) -> str | None:
        """SHA-256 over the result's image and permutation bytes.

        The digest is the cross-node bit-identity witness: two runs of
        the same spec on different machines must produce the same value.
        Memoized — the result is immutable once the job is terminal.

        ``None`` when there is no result or it has no image (custom
        runner payloads).
        """
        cached = getattr(self, "_result_digest", None)
        if cached is not None:
            return cached
        result = self.result
        image = getattr(result, "image", None)
        if image is None or not hasattr(image, "tobytes"):
            return None
        hasher = hashlib.sha256()
        hasher.update(repr(getattr(image, "shape", None)).encode())
        hasher.update(image.tobytes())
        permutation = getattr(result, "permutation", None)
        if permutation is not None and hasattr(permutation, "tobytes"):
            hasher.update(permutation.tobytes())
        digest = hasher.hexdigest()
        self._result_digest = digest
        return digest

    def summary(self) -> dict:
        """JSON-ready snapshot for the metrics report."""
        out = {
            "job_id": self.job_id,
            "name": self.spec.name or self.job_id,
            "state": self.state.value,
            "attempts": self.attempts,
            "priority": self.spec.priority,
            "queue_wait_s": self.queue_wait,
            "latency_s": self.latency,
            "error": self.error,
        }
        result = self.result
        if result is not None and hasattr(result, "total_error"):
            # Custom runners may return any payload; only a MosaicResult
            # (or lookalike) contributes the mosaic fields.
            out["total_error"] = int(result.total_error)
            out["sweeps"] = result.sweeps
            out["timings"] = result.timings.as_dict()
            digest = self.result_digest()
            if digest is not None:
                out["result_digest"] = digest
            meta = result.meta if isinstance(result.meta, dict) else {}
            if isinstance(meta.get("cache"), dict):
                # Per-artifact hit/miss outcomes; recorded in the worker
                # process, so a report over process executors still shows
                # which steps were served from the shared disk store.
                out["cache"] = dict(meta["cache"])
            if isinstance(meta.get("library"), dict):
                # Library-pipeline stats (ingest hit-rate, shortlist and
                # reuse profile) — same worker-side provenance as above.
                out["library"] = dict(meta["library"])
            if isinstance(meta.get("shortlist"), dict):
                # Sparse Step-2 stats — emitted by both job kinds with
                # the same keys (``pairs_evaluated``, ``fallback``), so
                # reports aggregate shortlist work uniformly.
                out["shortlist"] = dict(meta["shortlist"])
        return out
