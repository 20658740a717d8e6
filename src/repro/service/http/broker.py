"""Replayable event logs over the streaming gateway.

A :class:`~repro.service.gateway.JobStream` is a one-shot consumer: each
event is delivered once, to whoever holds the stream.  A network front
needs more — several clients may watch the same job, a client may
disconnect mid-job and reconnect with ``?from_seq=N``, and a job's
events must stay fetchable after it finishes.  :class:`JobEventBroker`
provides that: it owns the gateway submission, pumps every stream into a
per-job :class:`EventLog` (an append-only list plus an ``asyncio``
condition), and hands out any number of :meth:`EventLog.subscribe`
iterators, each replaying history from an arbitrary sequence number
before following live appends.

Everything runs on one event loop (the gateway's), so the log needs no
locks — subscribers and the pump interleave only at ``await`` points.

Terminal logs are retained for late reads and listed by
:meth:`JobEventBroker.jobs`; a bounded LRU (``retain_terminal``) evicts
the oldest finished jobs so a long-lived server does not grow without
bound.  Reads of an evicted job 404 at the HTTP layer.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

from repro.service.gateway import GatewayEvent, MosaicGateway
from repro.service.jobs import JobSpec

__all__ = ["EventLog", "JobEventBroker"]


class EventLog:
    """Append-only, replayable log of one job's gateway events."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.events: list[GatewayEvent] = []
        self.closed = False
        self._changed = asyncio.Event()

    def append(self, event: GatewayEvent) -> None:
        self.events.append(event)
        if event.terminal:
            self.closed = True
        self._wake()

    def close(self) -> None:
        """Mark the log complete (no more appends will happen)."""
        self.closed = True
        self._wake()

    def _wake(self) -> None:
        self._changed.set()
        self._changed = asyncio.Event()

    async def subscribe(self, from_seq: int = 0):
        """Yield events with ``seq >= from_seq`` — history first, then
        live appends — until the log closes.  Multiple subscribers are
        independent; each sees the same per-job order the gateway
        committed.
        """
        cursor = 0
        while True:
            while cursor < len(self.events):
                event = self.events[cursor]
                cursor += 1
                if event.seq >= from_seq:
                    yield event
            if self.closed:
                return
            waiter = self._changed
            await waiter.wait()


class JobEventBroker:
    """Gateway front desk: submissions, fan-out logs, job registry."""

    def __init__(
        self, gateway: MosaicGateway, *, retain_terminal: int = 256
    ) -> None:
        if retain_terminal < 1:
            raise ValueError(
                f"retain_terminal must be >= 1, got {retain_terminal}"
            )
        self.gateway = gateway
        self.retain_terminal = retain_terminal
        self._logs: "OrderedDict[str, EventLog]" = OrderedDict()
        self._records: "OrderedDict[str, object]" = OrderedDict()
        self._pumps: dict[str, asyncio.Task] = {}

    async def submit(self, spec: JobSpec, *, wait: bool = False) -> str:
        """Admit one job; returns its id.

        Propagates :class:`~repro.exceptions.AdmissionRejected` untouched
        — the HTTP layer maps it to ``429 Retry-After`` — unless ``wait``
        makes it wait for a slot (a manifest's streaming window).
        """
        submit = self.gateway.submit_when_admitted if wait else self.gateway.submit
        stream = await submit(spec)
        log = EventLog(stream.job_id)
        self._logs[stream.job_id] = log
        self._records[stream.job_id] = stream.record
        self._pumps[stream.job_id] = asyncio.create_task(
            self._pump(stream, log)
        )
        return stream.job_id

    async def _pump(self, stream, log: EventLog) -> None:
        try:
            async for event in stream:
                log.append(event)
        finally:
            log.close()  # defensive: a pump cancellation must not wedge readers
            self._pumps.pop(log.job_id, None)
            self._evict_terminal()

    def _evict_terminal(self) -> None:
        terminal = [jid for jid, log in self._logs.items() if log.closed]
        for jid in terminal[: max(0, len(terminal) - self.retain_terminal)]:
            del self._logs[jid]
            del self._records[jid]

    def log(self, job_id: str) -> EventLog | None:
        return self._logs.get(job_id)

    def record(self, job_id: str):
        return self._records.get(job_id)

    async def cancel(self, job_id: str) -> bool:
        """Cooperative cancel; ``False`` for unknown/terminal jobs."""
        return await self.gateway.cancel(job_id)

    def jobs(self) -> list[dict]:
        """JSON-ready summaries, oldest submission first."""
        return [record.summary() for record in self._records.values()]

    async def drain(self) -> None:
        """Wait for every pumped stream to reach its terminal event."""
        pumps = list(self._pumps.values())
        if pumps:
            await asyncio.gather(*pumps, return_exceptions=True)
