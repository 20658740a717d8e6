"""Async streaming job gateway over the worker pool.

The batch service (:mod:`repro.service.workers`) is fire-and-forget:
submit a manifest, wait, read the records.  Long-running 2-opt jobs want
the opposite shape — callers need to watch a job converge sweep by sweep
and pull the plug when it has converged enough.  :class:`MosaicGateway`
is that intake layer:

* **bounded admission with typed backpressure** — at most ``max_pending``
  jobs may be in flight; :meth:`MosaicGateway.submit` raises
  :class:`~repro.exceptions.AdmissionRejected` beyond that instead of
  queueing unboundedly;
* **per-job async event streams** — every admitted job returns a
  :class:`JobStream`, an async iterator yielding :class:`GatewayEvent`
  objects for each :class:`~repro.service.jobs.JobState` transition,
  retry/backoff notice, per-phase timing snapshot and 2-opt sweep, ending
  with exactly one terminal event;
* **async cancellation** — :meth:`MosaicGateway.cancel` propagates to
  :meth:`WorkerPool.cancel`, which cancels queued jobs immediately and
  in-flight jobs cooperatively at the next phase/sweep boundary;
* **graceful drain** — :meth:`MosaicGateway.drain` (and ``aclose``)
  waits until every admitted stream has terminated;
* **NDJSON event logging** — every dispatched event can be appended as
  one JSON line to a log file for replay/debugging.

Threading model: worker threads emit events through the record observer;
the observer trampolines them onto the gateway's event loop with
``loop.call_soon_threadsafe``, so all bookkeeping (sequence numbers,
admission accounting, stream queues) is mutated only on the loop thread
and needs no locks.  Per-job ordering is inherited from the commit order
of the underlying record transitions.

Event schema (one dict per NDJSON line)::

    {"job_id": "job-...", "seq": 3, "kind": "state" | "retry" | "phase"
        | "sweep" | "admitted", "terminal": false, "payload": {...}}

Gateway metrics folded into the shared registry: ``gateway_admitted``,
``gateway_rejected``, ``gateway_events_streamed``,
``gateway_events_dropped``, ``gateway_cancel_requests``, the
``gateway_pending`` gauge, and the ``gateway_stream_lag_seconds``
histogram (worker-thread emit to loop-thread dispatch).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field

from repro.exceptions import AdmissionRejected, JobError
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.metrics import MetricsRegistry
from repro.service.workers import WorkerPool

__all__ = ["GatewayEvent", "JobStream", "MosaicGateway", "TERMINAL_STATES"]

#: Job states that end a stream.
TERMINAL_STATES = frozenset(
    {JobState.DONE.value, JobState.FAILED.value, JobState.CANCELLED.value}
)

#: Lag buckets: thread->loop handoff is micro- to milliseconds.
STREAM_LAG_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
)


@dataclass(frozen=True)
class GatewayEvent:
    """One event on a job's stream.

    ``seq`` is the per-job sequence number, starting at 0 with the
    ``admitted`` event and strictly increasing; ``terminal`` is true for
    exactly the last event of a stream (a ``state`` event whose state is
    ``DONE``, ``FAILED`` or ``CANCELLED``).
    """

    job_id: str
    seq: int
    kind: str
    payload: dict = field(default_factory=dict)
    terminal: bool = False

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "kind": self.kind,
            "terminal": self.terminal,
            "payload": dict(self.payload),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False, default=str)

    @property
    def state(self) -> str | None:
        """The new job state for ``kind="state"`` events, else ``None``."""
        if self.kind == "state":
            return self.payload.get("state")
        return None


class JobStream:
    """Async iterator over one admitted job's events.

    Yields :class:`GatewayEvent` in per-job order and stops after the
    terminal event.  The underlying :class:`JobRecord` stays accessible
    for the final result::

        stream = await gateway.submit(spec)
        async for event in stream:
            ...
        result = stream.record.result
    """

    def __init__(self, job_id: str, record: JobRecord, queue: asyncio.Queue) -> None:
        self.job_id = job_id
        self.record = record
        self._queue = queue

    def __aiter__(self) -> "JobStream":
        return self

    async def __anext__(self) -> GatewayEvent:
        event = await self._queue.get()
        if event is None:  # sentinel queued right after the terminal event
            raise StopAsyncIteration
        return event

    async def collect(self) -> list[GatewayEvent]:
        """Convenience: consume the stream to termination."""
        return [event async for event in self]


class MosaicGateway:
    """Asyncio streaming intake over a :class:`WorkerPool`.

    Parameters
    ----------
    pool:
        The worker pool executing jobs.  The gateway does not own it —
        shut it down separately (the ``serve`` CLI does both).
    max_pending:
        Admission bound: maximum jobs admitted but not yet terminal.
        Submissions beyond it raise :class:`AdmissionRejected`.
    metrics:
        Registry for the gateway counters; defaults to the pool's, so
        one report carries pool and gateway instruments together.
    event_log:
        Optional NDJSON sink — a path (opened append, closed by
        ``aclose``) or any object with ``write(str)``.

    All async methods must be called from one event loop (bound on first
    use).  Use as an async context manager for drain-on-exit::

        async with MosaicGateway(pool, max_pending=8) as gateway:
            stream = await gateway.submit(spec)
            async for event in stream: ...
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        max_pending: int = 16,
        metrics: MetricsRegistry | None = None,
        event_log=None,
    ) -> None:
        if max_pending < 1:
            raise JobError(f"max_pending must be >= 1, got {max_pending}")
        self.pool = pool
        self.max_pending = max_pending
        self.metrics = metrics if metrics is not None else pool.metrics
        self._loop: asyncio.AbstractEventLoop | None = None
        self._streams: dict[str, asyncio.Queue] = {}
        self._seq: dict[str, int] = {}
        self._pending = 0
        self._closed = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._log = None
        self._owns_log = False
        if event_log is not None:
            if hasattr(event_log, "write"):
                self._log = event_log
            else:
                self._log = open(os.fspath(event_log), "a", encoding="utf-8")
                self._owns_log = True

    # -- intake ----------------------------------------------------------

    async def submit(self, spec: JobSpec) -> JobStream:
        """Admit one job and return its event stream.

        Raises :class:`AdmissionRejected` when ``max_pending`` jobs are
        already in flight (typed backpressure — nothing was queued), and
        :class:`JobError` after ``aclose``.
        """
        self._bind_loop()
        if self._closed:
            raise JobError("gateway is closed")
        if self._pending >= self.max_pending:
            self.metrics.counter("gateway_rejected").inc()
            raise AdmissionRejected(
                f"admission queue full: {self._pending}/{self.max_pending} "
                "jobs in flight"
            )
        loop = self._loop

        def observer(record: JobRecord, kind: str, payload: dict) -> None:
            # Runs on worker threads; trampoline onto the loop.  The
            # emit timestamp rides along so dispatch can measure lag.
            try:
                loop.call_soon_threadsafe(
                    self._dispatch, record.job_id, kind, dict(payload),
                    time.perf_counter(),
                )
            except RuntimeError:
                # Loop already closed (gateway abandoned): drop the event
                # rather than killing the supervisor thread.
                pass

        record = self.pool.submit(spec, observer=observer)
        # Transitions may already be scheduled on the loop, but they run
        # only after this coroutine yields — so bookkeeping set up here
        # is visible to them, and "admitted" is always seq 0.
        self._pending += 1
        self._idle.clear()
        queue = self._streams[record.job_id] = asyncio.Queue()
        self._seq[record.job_id] = 0
        self.metrics.counter("gateway_admitted").inc()
        self.metrics.gauge("gateway_pending").set(self._pending)
        self._dispatch(
            record.job_id,
            "admitted",
            {"name": spec.name or record.job_id, "priority": spec.priority},
            time.perf_counter(),
        )
        return JobStream(record.job_id, record, queue)

    async def submit_when_admitted(
        self, spec: JobSpec, *, poll: float = 0.01
    ) -> JobStream:
        """Blocking-style submit: wait for an admission slot instead of
        raising.  Manifest-driven serving uses this for backpressure."""
        while True:
            try:
                return await self.submit(spec)
            except AdmissionRejected:
                await asyncio.sleep(poll)

    async def cancel(self, job_id: str) -> bool:
        """Request cancellation; see :meth:`WorkerPool.cancel` semantics.

        Queued jobs emit their ``CANCELLED`` terminal event immediately;
        in-flight jobs emit it when the runner reaches its next
        cooperation point.  Returns ``False`` for unknown/terminal jobs.
        """
        self._bind_loop()
        accepted = self.pool.cancel(job_id)
        if accepted:
            self.metrics.counter("gateway_cancel_requests").inc()
        return accepted

    # -- lifecycle -------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every admitted job's stream has terminated."""
        self._bind_loop()
        await self._idle.wait()

    async def aclose(self, drain: bool = True) -> None:
        """Stop intake; drain outstanding streams (default) and close the
        event log.  Idempotent."""
        self._closed = True
        if drain:
            await self.drain()
        if self._log is not None and self._owns_log:
            self._log.close()
            self._log = None

    async def __aenter__(self) -> "MosaicGateway":
        self._bind_loop()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose(drain=True)

    @property
    def pending(self) -> int:
        """Jobs admitted but not yet terminal."""
        return self._pending

    # -- loop-side dispatch ---------------------------------------------

    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise JobError("gateway is bound to a different event loop")

    def _dispatch(
        self, job_id: str, kind: str, payload: dict, emitted_at: float
    ) -> None:
        """Deliver one event to its stream (loop thread only)."""
        queue = self._streams.get(job_id)
        if queue is None:
            # Not admitted through this gateway, or a late emission from
            # an abandoned (timed-out) attempt after the job's terminal
            # event: never leak it into a finished stream.
            self.metrics.counter("gateway_events_dropped").inc()
            return
        seq = self._seq[job_id]
        self._seq[job_id] = seq + 1
        terminal = kind == "state" and payload.get("state") in TERMINAL_STATES
        event = GatewayEvent(
            job_id=job_id, seq=seq, kind=kind, payload=payload, terminal=terminal
        )
        self.metrics.counter("gateway_events_streamed").inc()
        self.metrics.histogram(
            "gateway_stream_lag_seconds", buckets=STREAM_LAG_BUCKETS
        ).observe(max(0.0, time.perf_counter() - emitted_at))
        if self._log is not None:
            self._log.write(event.to_json() + "\n")
        queue.put_nowait(event)
        if terminal:
            queue.put_nowait(None)  # stream sentinel
            # The stream holds the queue and the record; the gateway
            # forgets the finished job.
            del self._streams[job_id], self._seq[job_id]
            self._pending -= 1
            self.metrics.gauge("gateway_pending").set(self._pending)
            if self._pending == 0:
                self._idle.set()
