"""Client library tests, focused on the reconnect-resume loop.

A scripted fake server — a raw ``asyncio.start_server`` speaking just
enough HTTP — drops the NDJSON stream mid-flight at chosen points so the
tests can pin the client-side contract: ``events()`` reconnects with
``from_seq`` set past what it already yielded, never re-yields a seq,
and stops after exactly one terminal event.
"""

from __future__ import annotations

import asyncio
import json
import time
from http.client import HTTPException

import pytest

from repro.exceptions import JobError
from repro.service.client import (
    BackpressureError,
    MosaicServiceClient,
    ServiceClientError,
)

from tests.service.http.conftest import GatedRunner, ServedFront, run_async, spec_dict

STREAM_DROP = (ConnectionError, HTTPException, OSError)


def make_events(total: int) -> list[dict]:
    events = []
    for seq in range(total):
        terminal = seq == total - 1
        events.append(
            {
                "job_id": "job-1",
                "seq": seq,
                "kind": "state" if terminal else "sweep",
                "payload": {"state": "DONE"} if terminal else {"sweep": seq},
                "terminal": terminal,
            }
        )
    return events


class FlakyStreamServer:
    """Serves ``/v1/jobs/job-1/events``, cutting the connection after a
    scripted number of events on each successive attempt."""

    def __init__(
        self,
        events: list[dict],
        cuts: list[int | None],
        *,
        honor_from_seq: bool = True,
    ) -> None:
        self.events = events
        self.cuts = cuts  # per-attempt event budget; None = serve to end
        self.honor_from_seq = honor_from_seq
        self.attempts: list[int] = []  # from_seq of each attempt
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def __aenter__(self) -> "FlakyStreamServer":
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            target = request_line.split()[1].decode()
            from_seq = 0
            if "from_seq=" in target:
                from_seq = int(target.split("from_seq=")[1].split("&")[0])
            self.attempts.append(from_seq)
            budget = (
                self.cuts[len(self.attempts) - 1]
                if len(self.attempts) <= len(self.cuts)
                else None
            )
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            sent = 0
            for event in self.events:
                if self.honor_from_seq and event["seq"] < from_seq:
                    continue
                if budget is not None and sent >= budget:
                    # Scripted mid-stream death: no terminating chunk.
                    writer.close()
                    return
                line = (json.dumps(event) + "\n").encode()
                writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
                await writer.drain()
                sent += 1
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            writer.close()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass


async def collect_events(server: FlakyStreamServer, **kwargs) -> list[dict]:
    client = MosaicServiceClient(
        f"http://127.0.0.1:{server.port}", timeout=5.0
    )
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None,
        lambda: list(
            client.events("job-1", reconnect_delay=0.01, **kwargs)
        ),
    )


class TestEventResume:
    def test_clean_stream_no_reconnect(self):
        async def main():
            async with FlakyStreamServer(make_events(6), cuts=[None]) as server:
                events = await collect_events(server)
                assert [e["seq"] for e in events] == list(range(6))
                assert server.attempts == [0]

        run_async(main())

    def test_reconnects_resume_past_last_seen_seq(self):
        async def main():
            # Die after 2, then after 2 more, then serve to the end.
            async with FlakyStreamServer(
                make_events(8), cuts=[2, 2, None]
            ) as server:
                events = await collect_events(server)
                assert [e["seq"] for e in events] == list(range(8))
                assert sum(e["terminal"] for e in events) == 1
                assert server.attempts == [0, 2, 4]

        run_async(main())

    def test_overlapping_replay_is_deduplicated(self):
        async def main():
            # Server ignores from_seq on retries (replays everything);
            # the client must still never re-yield a seq.
            async with FlakyStreamServer(
                make_events(5), cuts=[2, None], honor_from_seq=False
            ) as server:
                received = await collect_events(server)
                seqs = [e["seq"] for e in received]
                assert seqs == list(range(5))
                assert server.attempts == [0, 2]  # asked to resume, ignored

        run_async(main())

    def test_gives_up_after_max_reconnects(self):
        async def main():
            # One event of progress, then attempts that die immediately:
            # the drop counter only resets on progress, so consecutive
            # empty reconnects exhaust the budget.
            async with FlakyStreamServer(
                make_events(10), cuts=[1, 0, 0, 0, 0]
            ) as server:
                with pytest.raises(STREAM_DROP):
                    await collect_events(server, max_reconnects=2)
                assert len(server.attempts) == 3  # initial + 2 retries

        run_async(main())

    def test_progress_resets_reconnect_budget(self):
        async def main():
            # Every attempt yields one event before dying; because each
            # reconnect makes progress, a small budget still finishes.
            async with FlakyStreamServer(
                make_events(5), cuts=[1, 1, 1, 1, None]
            ) as server:
                events = await collect_events(server, max_reconnects=2)
                assert [e["seq"] for e in events] == list(range(5))
                assert server.attempts == [0, 1, 2, 3, 4]

        run_async(main())

    def test_reconnect_disabled_surfaces_drop(self):
        async def main():
            async with FlakyStreamServer(make_events(4), cuts=[2]) as server:
                with pytest.raises(STREAM_DROP):
                    await collect_events(server, reconnect=False)
                assert server.attempts == [0]

        run_async(main())

    def test_from_seq_skips_prefix(self):
        async def main():
            async with FlakyStreamServer(make_events(6), cuts=[None]) as server:
                events = await collect_events(server, from_seq=3)
                assert [e["seq"] for e in events] == [3, 4, 5]
                assert server.attempts == [3]

        run_async(main())


class TestErrorMapping:
    def test_http_error_maps_to_service_error(self):
        async def main():
            async def handle(reader, writer):
                await reader.readline()
                while (await reader.readline()) not in (b"\r\n", b""):
                    pass
                body = json.dumps({"error": "unknown job 'job-9'"}).encode()
                writer.write(
                    b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
                    + b"Content-Length: %d\r\n\r\n" % len(body)
                    + body
                )
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = MosaicServiceClient(f"http://127.0.0.1:{port}", timeout=5.0)
            loop = asyncio.get_running_loop()
            with pytest.raises(ServiceClientError) as excinfo:
                await loop.run_in_executor(None, client.job, "job-9")
            assert excinfo.value.status == 404
            assert "job-9" in str(excinfo.value)
            server.close()
            await server.wait_closed()

        run_async(main())

    def test_rejects_non_http_scheme(self):
        with pytest.raises(JobError, match="http"):
            MosaicServiceClient("ftp://example.com")


class TestReconnectJitter:
    """Seeded jitter on the reconnect backoff (herd spreading)."""

    @staticmethod
    async def collect_sleeps(
        server: FlakyStreamServer, *, jitter_seed, **kwargs
    ) -> list[float]:
        client = MosaicServiceClient(
            f"http://127.0.0.1:{server.port}", timeout=5.0, jitter_seed=jitter_seed
        )
        sleeps: list[float] = []
        client._sleep = sleeps.append
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None,
            lambda: list(client.events("job-1", reconnect_delay=0.02, **kwargs)),
        )
        return sleeps

    def test_jittered_delays_stay_in_band(self):
        async def main():
            async with FlakyStreamServer(
                make_events(8), cuts=[2, 2, 2, None]
            ) as server:
                sleeps = await self.collect_sleeps(server, jitter_seed=7)
                assert len(sleeps) == 3  # one per reconnect
                for delay in sleeps:
                    assert 0.02 <= delay <= 0.02 * 1.5  # default jitter 0.5

        run_async(main())

    def test_same_seed_same_delays_different_seed_spreads(self):
        async def run_with(seed):
            async with FlakyStreamServer(
                make_events(8), cuts=[2, 2, 2, None]
            ) as server:
                return await self.collect_sleeps(server, jitter_seed=seed)

        async def main():
            first = await run_with(11)
            second = await run_with(11)
            other = await run_with(12)
            assert first == second  # reproducible runs
            assert first != other  # distinct clients desynchronize
            assert len(set(first)) == len(first)  # and drift between retries

        run_async(main())

    def test_zero_jitter_gives_exact_backoff(self):
        async def main():
            async with FlakyStreamServer(
                make_events(6), cuts=[2, 2, None]
            ) as server:
                sleeps = await self.collect_sleeps(
                    server, jitter_seed=None, reconnect_jitter=0.0
                )
                assert sleeps == [0.02, 0.02]

        run_async(main())

    def test_negative_jitter_rejected(self):
        client = MosaicServiceClient("http://127.0.0.1:1")
        with pytest.raises(JobError, match="reconnect_jitter"):
            list(client.events("job-1", reconnect_jitter=-0.1))


class TestSubmitWhenAdmitted:
    """Backpressure retries against a real front whose admission is full."""

    def test_waits_retry_after_then_submits(self):
        async def main():
            runner = GatedRunner()
            async with ServedFront(
                runner, workers=1, max_pending=1, retry_after=2.5
            ) as served:
                client = MosaicServiceClient(served.base_url)
                await served.call(client.submit, spec_dict("holder"))
                sleeps: list[float] = []

                def sleep(seconds: float) -> None:
                    # Stands in for the wait: free the slot, then return.
                    sleeps.append(seconds)
                    runner.gate.set()
                    while served.gateway.pending:
                        time.sleep(0.005)

                client._sleep = sleep
                try:
                    job = await served.call(
                        lambda: client.submit_when_admitted(
                            spec_dict("next"), max_wait=6.0
                        )
                    )
                finally:
                    runner.gate.set()
                assert job["name"] == "next"
                assert sleeps == [2.5]

        run_async(main())

    def test_gives_up_before_passing_max_wait(self):
        async def main():
            runner = GatedRunner()
            async with ServedFront(
                runner, workers=1, max_pending=1, retry_after=2.5
            ) as served:
                client = MosaicServiceClient(served.base_url)
                await served.call(client.submit, spec_dict("holder"))
                sleeps: list[float] = []
                client._sleep = sleeps.append

                def submit() -> BaseException | None:
                    try:
                        client.submit_when_admitted(spec_dict("next"), max_wait=6.0)
                    except BackpressureError as exc:
                        return exc
                    return None

                try:
                    error = await served.call(submit)
                finally:
                    runner.gate.set()
                # 2.5 + 2.5 fits in 6 s; a third wait would not.
                assert sleeps == [2.5, 2.5]
                assert isinstance(error, BackpressureError)
                assert error.retry_after == pytest.approx(2.5)

        run_async(main())
