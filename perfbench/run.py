"""Photomosaic benchmark: one command for every workload and metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-ladder --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate run that records spans around the calls into each layer
and reports the per-layer metrics (spans go to ``.bench_out/``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import shared

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-ladder", "service-http")
CHILD_TIMEOUT_S = 150


def declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(shared.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- ladders ------------------------------------------------------------------

SEGMENTS = 3


class Worker:
    """A ``ladder.py`` process, timed from start until it prints ``ready``."""

    def __init__(self, seed: int, seconds: float, role: str) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "ladder.py"),
             "--seed", str(seed), "--seconds", str(seconds), "--role", role],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=shared.child_env(), text=True)
        self.expect("ready")
        self.setup_s = time.perf_counter() - t0

    def expect(self, word: str) -> None:
        line = self.proc.stdout.readline()
        if line.strip() != word:
            self.close()
            raise RuntimeError(f"ladder worker said {line.strip()!r}, expected {word!r}")

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self) -> dict:
        """Wait for the worker to exit; return its report."""
        try:
            output, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"ladder worker failed with code {self.proc.returncode}")
        return json.loads(output.strip().splitlines()[-1]) if output.strip() else {}


def ladder_processes(seed: int, seconds: float, trace: bool):
    """Start-to-ready times of the worker processes, and the measuring one's report.

    The timed phase is cut into segments, and each extra set-up runs in its
    own process between two segments, so that the samples spread over the
    whole run rather than one block of it.
    """
    if trace:
        worker = Worker(seed, seconds, "trace")
        return [worker.setup_s], worker.close()
    worker = Worker(seed, seconds, "run")
    setup_times = [worker.setup_s]
    try:
        for k in range(SEGMENTS):
            worker.send(f"{'last' if k == SEGMENTS - 1 else 'segment'} {seconds / SEGMENTS}")
            worker.expect("paused")
            if k < SEGMENTS - 1:
                extra = Worker(seed, seconds, "setup")
                setup_times.append(extra.setup_s)
                extra.close()
        worker.send("finish")
    except BaseException:
        worker.proc.kill()
        worker.proc.wait()
        raise
    return setup_times, worker.close()


def ladder_metrics(seed: int, seconds: float) -> tuple[dict, dict]:
    setup_times, report = ladder_processes(seed, seconds, trace=False)
    # Per class (rung/algorithm/pipeline): the median time of each pair.
    classes = {key: [shared.median(t) for t in by_pair.values()]
               for key, by_pair in report["times"].items()}
    for key in sorted(classes):
        counts = [len(t) for t in report["times"][key].values()]
        print(f"paper-ladder {key}: {sum(counts)} samples over {len(counts)} pairs, "
              f"median {shared.median(classes[key]):.4f} s")

    def per_algorithm(algorithm):
        return shared.geomean(shared.median(v) for k, v in classes.items() if f"/{algorithm}/" in k)

    attempted = report["attempted"]
    metrics = {
        "setup_s": shared.median(setup_times),
        "approx_s": per_algorithm("parallel"),
        "exact_s": per_algorithm("optimization"),
        "jobs_per_s": attempted / report["wall_s"],
        "job_p50_s": shared.geomean(shared.percentile(v, 50) for v in classes.values()),
        "job_p90_s": shared.geomean(shared.percentile(v, 90) for v in classes.values()),
        "total_error_ratio": shared.geomean(report["ratios"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_share": 1.0 - report["failed"] / attempted,
    }
    return metrics, report


def ladder_layers(seed: int, seconds: float) -> tuple[dict, dict]:
    _, report = ladder_processes(seed, seconds, trace=True)
    print(f"paper-ladder: {report['attempted']} jobs replayed layer by layer")
    return report["layers"], report


# -- service ------------------------------------------------------------------

def service_metrics(seed: int, seconds: float, rundir: str) -> tuple[dict, dict]:
    import service

    report = service.run(seed, seconds, rundir)
    records = report["records"]
    done = [r for r in records if r.get("state") == "DONE"]
    # A failed or refused job counts as missing every latency limit.
    latencies = [r["latency_s"] if r.get("state") == "DONE" else report["wall_s"] for r in records]
    by_algorithm = {a: [r["latency_s"] for r in done if r["spec"][2] == a] for a in service.ALGORITHMS}
    for algorithm, values in by_algorithm.items():
        print(f"service-http S256/{algorithm}: {len(values)} samples")
    metrics = {
        "setup_s": shared.median(report["setup_s"]),
        "approx_s": shared.median(by_algorithm["parallel"]),
        "exact_s": shared.median(by_algorithm["optimization"]),
        "jobs_per_s": len(done) / report["wall_s"],
        "job_p50_s": shared.percentile(latencies, 50),
        "job_p90_s": shared.percentile(latencies, 90),
        "total_error_ratio": shared.geomean(report["ratios"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_share": 1.0 - report["failed"] / len(records),
    }
    report["attempted"] = len(records)
    return metrics, report


def service_layers(seed: int, seconds: float, rundir: str) -> tuple[dict, dict]:
    import numpy as np

    import service
    from repro.imaging import load_image, save_image
    from repro.mosaic.config import MosaicConfig
    from repro.mosaic.generator import PhotomosaicGenerator

    report = service.run(seed, seconds, rundir, setup_runs=1, trace=True)
    untraced, records = report["untraced"], report["records"]
    tracer = shared.Tracer()
    joined = []
    for r in records:
        summary = r.get("summary")
        if r.get("state") != "DONE" or not summary:
            continue
        root = len(tracer.spans)
        tracer.spans.append({"name": "client.job", "start": r["start"], "end": r["start"] + r["latency_s"],
                             "parent": None, "job": r["job_id"], "server": summary})
        tracer.spans.append({"name": "http.submit", "start": r["start"], "end": r["start"] + r["submit_s"],
                             "parent": root, "job": r["job_id"]})
        tracer.spans.append({"name": "http.stream", "start": r["start"] + r["submit_s"],
                             "end": r["start"] + r["latency_s"], "parent": root, "job": r["job_id"]})
        joined.append((r, summary))
    cache = [s.get("cache", {}) for _, s in joined]

    def hit_share(keys):
        outcomes = [c[k] for c in cache for k in keys if k in c]
        return sum(o == "hit" for o in outcomes) / max(1, len(outcomes))

    counters = report["counters"]
    layers = {
        "http.submit_s": shared.median(r["submit_s"] for r, _ in joined),
        "http.delivery_s": shared.median(r["latency_s"] - s["latency_s"] for r, s in joined),
        "queue.wait_s": shared.median(s["queue_wait_s"] for _, s in joined),
        "workers.run_s": shared.median(s["latency_s"] - s["queue_wait_s"] for _, s in joined),
        "workers.retries": sum(s["attempts"] - 1 for _, s in joined),
        "cache.step1_hit_share": hit_share(("step1_input", "step1_target")),
        "cache.step2_hit_share": hit_share(("step2_matrix",)),
        "diskcache.hits_total": counters.get("cache_disk_hits_total", 0.0),
        "diskcache.misses_total": counters.get("cache_disk_misses_total", 0.0),
        "diskcache.writes_total": counters.get("cache_disk_writes_total", 0.0),
        "gateway.events_streamed": counters.get("gateway_events_streamed", 0.0),
    }
    # The PNG codec the server runs per job, timed standalone on the job images.
    images = report["images"]
    codec_dir = os.path.join(rundir, "codec")
    os.makedirs(codec_dir, exist_ok=True)
    encode, decode = [], []
    for i, image in enumerate(images):
        path = os.path.join(codec_dir, f"{i}.png")
        t0 = time.perf_counter()
        save_image(path, image)
        t1 = time.perf_counter()
        load_image(path)
        encode.append(t1 - t0)
        decode.append(time.perf_counter() - t1)
    layers["imaging.png_encode_s"] = shared.median(encode)
    layers["imaging.png_decode_s"] = shared.median(decode)
    # The compute layers of the jobs, replayed on the same arrays.
    replayed, failed = [], 0
    seen = []
    for r, _ in joined:
        if r["spec"] not in seen and sum(s[2] == r["spec"][2] for s in seen) < 2:
            seen.append(r["spec"])
    for a, b, algorithm in seen:
        generator = PhotomosaicGenerator(MosaicConfig(tile_size=service.TILE, algorithm=algorithm))
        generator.generate(images[a], images[b])  # warm-up, as on the server
        t0 = time.perf_counter()
        expected = generator.generate(images[a], images[b])
        generate_s = time.perf_counter() - t0
        root, perm, total = shared.replay_job(
            tracer, f"replay/{a}-{b}/{algorithm}", images[a], images[b],
            tile_size=service.TILE, algorithm=algorithm)
        if total != expected.total_error or not np.array_equal(perm, expected.permutation):
            failed += 1
            report["problems"].append(f"replay {a}-{b} {algorithm} differs from generate()")
        replayed.append((root, "S256", algorithm, generate_s))
    layers.update(shared.layer_metrics(tracer, replayed))
    layers["trace.overhead_s"] = (
        shared.median(r["latency_s"] for r, _ in joined)
        - shared.median(r["latency_s"] for r in untraced if r.get("state") == "DONE")
    )
    tracer.write(os.path.join(shared.OUT, f"trace-service-http-{seed}.json"))
    print(f"service-http: {len(untraced)} untraced and {len(records)} traced jobs, "
          f"{len(replayed)} replayed")
    report["attempted"] = len(records) + len(untraced) + len(replayed)
    report["failed"] += failed
    return layers, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    shared.require_program()
    end_to_end, per_layer = declared_metrics()
    trace = bool(args.trace)
    rundir = os.path.join(shared.OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.workload == "service-http":
            measure = service_layers if trace else service_metrics
            values, report = measure(args.seed, args.seconds, rundir)
        else:
            measure = ladder_layers if trace else ladder_metrics
            values, report = measure(args.seed, args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    declared = per_layer if trace else end_to_end
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise SystemExit(f"benchmark: metrics missing from BENCHMARK.json: {unknown}")
    # A layer this workload does not run did no work: it reads 0.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    for problem in report.get("problems", []):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0 and not report.get("problems"),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
