"""The ``service-http`` workload: a ``serve-http`` subprocess under load.

The server is started through the public CLI with ``--port 0``, a fresh
cache directory and a fresh output directory, and is stopped with SIGTERM;
its ``drained`` exit is checked.  One closed-loop client drives it through
``MosaicServiceClient``: it submits one job, reads its event stream to the
terminal event, and submits the next.
"""

from __future__ import annotations

import bisect
import os
import random
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import zlib

import numpy as np

import shared

N = 256
TILE = 16
#: Closed-loop client connections.  One leaves the second core to the
#: server's own threads; with two, client, HTTP front and workers contend
#: for both cores and the latencies spread about a third more from run to
#: run (see README.md).
CONNECTIONS = 1
WORKERS = 2
#: The timed phase runs at least this many jobs, so that at least ten
#: latencies lie beyond p90.
MIN_JOBS = 120
#: Distinct images in the pool; fresh jobs use unused ordered pairs of them.
POOL = [(name, variant) for variant in range(4) for name in (
    "airplane", "baboon", "barbara", "peppers", "portrait", "sailboat", "tiffany")]
ALGORITHMS = ("parallel", "optimization")
#: serve-http --cache-mb: room for about 25 fresh pairs of S256 artifacts.
MEMORY_CACHE_MB = 16


# -- the benchmark's own PNG codec for 8-bit grey images ---------------------

def write_png(path: str, image: np.ndarray) -> None:
    h, w = image.shape
    rows = np.zeros((h, w + 1), dtype=np.uint8)
    rows[:, 1:] = image

    def chunk(tag: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))

    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)))
        fh.write(chunk(b"IDAT", zlib.compress(rows.tobytes(), 1)))
        fh.write(chunk(b"IEND", b""))


def read_png(path: str) -> np.ndarray:
    """Decode an 8-bit grey, non-interlaced PNG whose rows use filter 0.

    That is the only format the program writes; anything else is reported
    as unreadable rather than guessed at.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG file")
    pos, idat, header = 8, b"", None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat += body
    if header is None or header[2:] != (8, 0, 0, 0, 0):
        raise ValueError(f"unsupported PNG header {header}")
    w, h = header[:2]
    rows = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, w + 1)
    if rows[:, 0].any():
        raise ValueError("unsupported PNG row filter")
    return rows[:, 1:]


# -- server lifecycle ---------------------------------------------------------

class Server:
    """One ``photomosaic serve-http`` process with its own directories."""

    def __init__(self, rundir: str, seed: int) -> None:
        self.rundir = rundir
        self.outdir = os.path.join(rundir, "out")
        self.log = open(os.path.join(rundir, "server.log"), "wb")
        # A memory tier smaller than the run's artifacts fills early in every
        # run, so that repeats are also served from the disk tier and the
        # server's peak RSS does not grow with the number of jobs.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-http", "--port", "0",
             "--workers", str(WORKERS), "--cache-dir", os.path.join(rundir, "cache"),
             "--cache-mb", str(MEMORY_CACHE_MB), "--outdir", self.outdir, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=self.log, env=shared.child_env(), text=True,
        )
        self.url = None

    def wait_listening(self) -> str:
        import json

        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("serve-http exited before listening")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"
        return self.url

    def stop(self) -> bool:
        """SIGTERM, wait, and report whether it drained and exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.log.close()
        return self.proc.returncode == 0 and '"drained"' in (rest or "")


def _job_payload(inputs, spec, index, seed) -> dict:
    a, b, algorithm = spec
    return {"input": inputs[a], "target": inputs[b], "size": N, "tile_size": TILE,
            "algorithm": algorithm, "output": f"job{index}.png", "seed": seed}


def _run_one(client, payload) -> tuple[str | None, float, float, dict | None]:
    """Submit and stream to the terminal event: ``(job_id, submit_s, total_s, terminal)``."""
    t0 = time.perf_counter()
    job_id = client.submit(payload)["job_id"]
    t1 = time.perf_counter()
    terminal = None
    for event in client.events(job_id):
        if event.get("terminal"):
            terminal = event
    return job_id, t1 - t0, time.perf_counter() - t0, terminal


def setup(rundir: str, seed: int):
    """Start a server, write the input pool, and run one warm-up job per algorithm."""
    from repro.service.client import MosaicServiceClient

    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(os.path.join(rundir, "inputs"))
    server = Server(rundir, seed)
    try:
        images = [shared.perturbed_image(name, N, seed, variant) for name, variant in POOL]
        inputs = []
        for i, image in enumerate(images):
            inputs.append(os.path.join(rundir, "inputs", f"img{i}.png"))
            write_png(inputs[-1], image)
        client = MosaicServiceClient(server.wait_listening(), timeout=60)
        client.health()
        for k, algorithm in enumerate(ALGORITHMS):
            _run_one(client, _job_payload(inputs, (0, 1, algorithm), f"warm{k}", seed))
    except BaseException:
        server.stop()
        raise
    return server, images, inputs


def job_sequence(seed: int, count: int) -> list[tuple[int, int, str]]:
    """Seeded job mix in shuffled blocks of nine jobs.

    Each block holds three fresh pairs (one exact) and six repeats of earlier
    specs (two exact), so a third of the jobs miss the cache and two thirds
    run the approximation: p50 then falls inside the approximation hits and
    p90 inside its misses.
    """
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(len(POOL)) for b in range(len(POOL)) if a != b and (a, b) != (0, 1)]
    rng.shuffle(pairs)
    fresh = iter(pairs)
    block = [(True, "parallel")] * 2 + [(True, "optimization")] + \
        [(False, "parallel")] * 4 + [(False, "optimization")] * 2
    specs: list[tuple[int, int, str]] = []
    positions: dict[str, list[int]] = {a: [] for a in ALGORITHMS}
    while len(specs) < count:
        rng.shuffle(block)
        for is_fresh, algorithm in block:
            # A repeat reaches at least four back, so its first run has
            # almost surely finished.
            earlier = bisect.bisect_right(positions[algorithm], len(specs) - 4)
            positions[algorithm].append(len(specs))
            if is_fresh or not earlier:
                pair = next(fresh, None)
                if pair is None:
                    return specs
                specs.append((*pair, algorithm))
            else:
                specs.append(specs[positions[algorithm][rng.randrange(earlier)]])
    return specs


def closed_loop(url: str, inputs, specs, seed: int, seconds: float, first: int = 0,
                min_jobs: int = MIN_JOBS):
    """Run ``CONNECTIONS`` closed-loop clients for ``seconds`` and ``min_jobs``.

    Jobs are taken from ``specs`` starting at index ``first``.
    """
    from repro.service.client import MosaicServiceClient

    lock = threading.Lock()
    issued = [first]
    records: list[dict] = []
    start = time.perf_counter()

    def client_loop() -> None:
        client = MosaicServiceClient(url, timeout=60)
        while True:
            with lock:
                index = issued[0]
                enough = time.perf_counter() - start >= seconds and index - first >= min_jobs
                if enough or index >= len(specs):
                    return
                issued[0] += 1
            record = {"index": index, "spec": specs[index], "start": time.perf_counter()}
            try:
                job_id, submit_s, total_s, terminal = _run_one(
                    client, _job_payload(inputs, specs[index], index, seed))
                record.update(job_id=job_id, submit_s=submit_s, latency_s=total_s,
                              state=(terminal or {}).get("payload", {}).get("state"),
                              digest=(terminal or {}).get("payload", {}).get("result_digest"))
                # The server keeps only recent terminal jobs, so the client
                # reads each summary as soon as its stream ends.
                record["summary"] = client.job(job_id)
            except Exception as exc:  # a refused or broken job counts as failed
                record.update(job_id=None, error=repr(exc), latency_s=None, state=None)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda r: r["index"])
    return records, time.perf_counter() - start


def check_jobs(records, server: Server, images) -> dict:
    """Check every job's output file, reported total and digest."""
    failed, problems, digests, ratios = 0, [], {}, {}
    matched: dict = {}
    for record in records:
        found = []
        spec = record["spec"]
        summary = record.get("summary") or {}
        if record.get("state") != "DONE" or summary.get("state") != "DONE":
            found.append(f"ended {record.get('state')} ({record.get('error') or summary.get('error')})")
        else:
            a, b, _ = spec
            if (a, b) not in matched:
                matched[(a, b)] = shared.reference_match_histogram(images[a], images[b])
            try:
                image = read_png(os.path.join(server.outdir, f"job{record['index']}.png"))
                found += shared.check_output(image, summary["total_error"], matched[(a, b)], images[b], TILE)
            except (OSError, ValueError) as exc:
                found.append(f"output unreadable: {exc}")
            if digests.setdefault(spec, record["digest"]) != record["digest"]:
                found.append("repeated spec gave a different result digest")
            if not found and record["index"] < MIN_JOBS:
                optimum = shared.optimum_total(matched[(a, b)], images[b], TILE)
                ratios[spec] = summary["total_error"] / optimum
        if found:
            failed += 1
            problems.append(f"job {record['index']} {spec}: {'; '.join(found)}")
    return {"failed": failed, "problems": problems, "ratios": list(ratios.values())}


def parse_metrics(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        match = re.match(r"^([A-Za-z_:][A-Za-z0-9_:]*) ([0-9.eE+-]+|NaN)$", line)
        if match:
            out[match.group(1)] = float(match.group(2))
    return out


def run(seed: int, seconds: float, rundir: str, setup_runs: int = 3, trace: bool = False) -> dict:
    """One measured run: set-ups, the timed phase, then checks.

    The timed phase is cut into ``setup_runs`` segments on the first server.
    Each further set-up (a fresh server, started and drained) runs between
    two segments, so that the samples spread over the whole run.
    """
    from repro.service.client import MosaicServiceClient

    specs = job_sequence(seed, 2000)
    t0 = time.perf_counter()
    server, images, inputs = setup(os.path.join(rundir, "setup0"), seed)
    report: dict = {"setup_s": [time.perf_counter() - t0]}
    records: list[dict] = []
    wall = 0.0
    try:
        if trace:
            # Untraced first, then traced, on one server.
            report["untraced"], _ = closed_loop(server.url, inputs, specs, seed, seconds / 2)
            first = report["untraced"][-1]["index"] + 1
            records, wall = closed_loop(server.url, inputs, specs, seed, seconds / 2, first)
        for k in range(0 if trace else setup_runs):
            last = k == setup_runs - 1
            part, part_wall = closed_loop(
                server.url, inputs, specs, seed, seconds / setup_runs,
                first=records[-1]["index"] + 1 if records else 0,
                min_jobs=MIN_JOBS - len(records) if last else 0)
            records += part
            wall += part_wall
            if not last:
                t0 = time.perf_counter()
                extra, _, _ = setup(os.path.join(rundir, f"setup{k + 1}"), seed)
                report["setup_s"].append(time.perf_counter() - t0)
                if not extra.stop():
                    raise RuntimeError("serve-http did not drain cleanly after set-up")
                shutil.rmtree(extra.rundir, ignore_errors=True)
        peak_mb = shared.status_kb("VmHWM", server.proc.pid) / 1024.0
        counters = parse_metrics(MosaicServiceClient(server.url, timeout=60).metrics_text())
    finally:
        drained = server.stop()
    checked = check_jobs(report.get("untraced", []) + records, server, images)
    if not drained:
        checked["problems"].append("serve-http did not drain cleanly on SIGTERM")
    report.update(records=records, wall_s=wall, peak_rss_mb=peak_mb,
                  counters=counters, drained=drained, images=images, **checked)
    return report
