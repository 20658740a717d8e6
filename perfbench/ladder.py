"""Library worker for the ``paper-ladder`` workload.

Started by ``run.py`` as its own process, so that set-up is timed from
process start.  It prints ``ready`` once set-up is done (``--role setup``
exits there), then measures ``PhotomosaicGenerator.generate`` calls
(``--role run``) or replays them layer by layer (``--role trace``), and
prints one JSON line with its findings.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

import shared

WORKLOAD = "paper-ladder"
N = 512
#: rung -> tile size M at N = 512.
TILE_SIZES = {"S256": 32, "S1024": 16}
ALGORITHMS = ("parallel", "optimization")
#: Step-2 pipeline -> ``shortlist_top_k`` (0 is the dense matrix).
PIPELINES = {"dense": 0, "sparse": 32}


def setup(seed: int):
    """Imports, inputs and one warm-up job per rung, algorithm and pipeline."""
    from repro.mosaic.config import MosaicConfig
    from repro.mosaic.generator import PhotomosaicGenerator

    pairs = [
        (shared.perturbed_image(a, N, seed), shared.perturbed_image(b, N, seed))
        for a, b in shared.PAPER_PAIRS
    ]
    generators = {
        (rung, algorithm, pipeline): PhotomosaicGenerator(MosaicConfig(
            tile_size=m, algorithm=algorithm, shortlist_top_k=top_k, shortlist_seed=seed,
        ))
        for rung, m in TILE_SIZES.items()
        for algorithm in ALGORITHMS
        for pipeline, top_k in PIPELINES.items()
    }
    for generator in generators.values():
        generator.generate(*pairs[0])
    return pairs, generators


def job_order(pairs, generators, seed: int):
    """Endless rounds over every (pair, rung, algorithm), each in seeded order."""
    order = [(p, key) for p in range(len(pairs)) for key in generators]
    rng = random.Random(seed)
    while True:
        rng.shuffle(order)
        yield from order


def timed_segment(pairs, generators, order, jobs, seconds: float, first_round: int) -> float:
    """Run jobs from ``order`` for ``seconds``, and until ``first_round`` jobs are done."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(jobs) < first_round:
        p, key = next(order)
        t0 = time.perf_counter()
        result = generators[key].generate(*pairs[p])
        jobs.append((p, key, time.perf_counter() - t0, result))
    return time.perf_counter() - start


def check_jobs(jobs, pairs) -> dict:
    """Check every timed output; return failures and the error ratio."""
    failed = 0
    problems = []
    digests: dict = {}
    ratios = {}
    matched = {p: shared.reference_match_histogram(*pairs[p]) for p in range(len(pairs))}
    for p, key, _, result in jobs:
        m = TILE_SIZES[key[0]]
        found = shared.check_output(
            result.image, result.total_error, matched[p], pairs[p][1], m, result.permutation
        )
        digest = shared.result_digest(result.image, result.permutation)
        if digests.setdefault((p, key), digest) != digest:
            found.append("repeated spec gave a different result digest")
        if found:
            failed += 1
            problems.append(f"pair {p} {'/'.join(key)}: {'; '.join(found)}")
            continue
        optimum = shared.optimum_total(matched[p], pairs[p][1], m)
        ratios[(p, key)] = result.total_error / optimum
    return {"failed": failed, "problems": problems, "ratios": list(ratios.values())}


def run(seed: int) -> dict:
    """Timed segments, each started by a ``segment|last <seconds>`` line on stdin.

    The orchestrator runs the other set-ups between segments, so that the
    samples spread over the whole run.  ``finish`` ends the timed phase; the
    last segment also completes the first round, so that every instance
    has at least one sample.
    """
    pairs, generators = setup(seed)
    print("ready", flush=True)
    order = job_order(pairs, generators, seed)
    jobs: list = []
    wall = 0.0
    for line in iter(sys.stdin.readline, ""):
        if line.strip() == "finish":
            break
        last = line.split()[0] == "last"
        wall += timed_segment(pairs, generators, order, jobs, float(line.split()[1]),
                              len(pairs) * len(generators) if last else 0)
        print("paused", flush=True)
    peak_mb = shared.status_kb("VmHWM") / 1024.0
    times: dict = {}
    for p, key, elapsed, _ in jobs:
        times.setdefault("/".join(key), {}).setdefault(p, []).append(elapsed)
    checked = check_jobs(jobs, pairs)
    return {
        "times": times,
        "wall_s": wall, "peak_rss_mb": peak_mb, "attempted": len(jobs), **checked,
    }


def trace(seed: int, seconds: float) -> dict:
    """Replay jobs layer by layer; each beside an untraced ``generate``."""
    pairs, generators = setup(seed)
    print("ready", flush=True)
    tracer = shared.Tracer()
    replayed = []
    failed = 0
    problems = []
    order = list(range(len(pairs)))
    random.Random(seed).shuffle(order)
    start = time.perf_counter()
    for p in order:
        if replayed and time.perf_counter() - start >= seconds:
            break
        for (rung, algorithm, pipeline), generator in generators.items():
            job = f"pair{p}/{rung}/{algorithm}/{pipeline}"
            t0 = time.perf_counter()
            expected = generator.generate(*pairs[p])
            generate_s = time.perf_counter() - t0
            root, perm, total = shared.replay_job(
                tracer, job, *pairs[p], tile_size=TILE_SIZES[rung], algorithm=algorithm,
                top_k=PIPELINES[pipeline], seed=seed,
            )
            if total != expected.total_error or not (perm == expected.permutation).all():
                failed += 1
                problems.append(f"{job}: replay differs from generate()")
            replayed.append((root, rung, algorithm, generate_s))
    tracer.write(os.path.join(shared.OUT, f"trace-{WORKLOAD}-{seed}.json"))
    return {
        "layers": shared.layer_metrics(tracer, replayed), "attempted": len(replayed),
        "failed": failed, "problems": problems,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    shared.require_program()
    if args.role == "setup":
        setup(args.seed)
        print("ready", flush=True)
        return 0
    report = run(args.seed) if args.role == "run" else trace(args.seed, args.seconds)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
