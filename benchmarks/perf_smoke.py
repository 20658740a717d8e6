#!/usr/bin/env python
"""Machine-readable perf smoke for the acceleration layer (PR 4).

Measures the quantities the hot-path acceleration layer promises —
error-matrix build time, cold colour-class build time, 2-opt sweep time
(with the colour classes already built), pair evaluations saved by
active-pair pruning, and bytes copied on warm cache hits — and writes
them to ``BENCH_4.json``.  Invariants (>= 3x fewer pair evaluations than
full-width sweeps at S >= 1024, zero copied bytes on a warm hit of a
default store) are asserted on every run.  With ``--baseline`` the
sweep's machine-independent results (total error, sweeps, pairs
evaluated) must equal the committed ones and wall-clock numbers must
stay within ``--max-ratio`` of them (the CI perf-smoke job fails on a
> 2x regression).  That pruning changes no result is pinned by the test
suite, against the unpruned class-by-class oracle on this same instance.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py --out BENCH_4.json
    PYTHONPATH=src python benchmarks/perf_smoke.py \
        --baseline benchmarks/BENCH_4_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

import numpy as np

from repro.coloring import build_edge_groups
from repro.imaging import standard_image
from repro.localsearch import local_search_parallel
from repro.mosaic.config import MosaicConfig
from repro.mosaic.generator import PhotomosaicGenerator
from repro.service.diskcache import DiskCacheStore

SCHEMA = "repro-perf-smoke/2"

#: Timing fields checked against the baseline within ``--max-ratio``.
TIMED_FIELDS = (
    ("error_matrix", "seconds"),
    ("coloring", "build_seconds"),
    ("sweeps", "pruned_seconds"),
)

#: Machine-independent sweep results that must equal the baseline's.
EXACT_FIELDS = ("total_error", "sweeps", "pairs_evaluated_pruned")


def build_instance(s: int, tile: int) -> tuple[np.ndarray, float]:
    """Steps 1 + 2 error matrix with ``s`` tiles per image, and its build
    time in seconds.

    Built by :meth:`PhotomosaicGenerator.build_error_matrix` on the raw
    images: no histogram match, unlike ``generate``.
    """
    side = int(round(s**0.5))
    if side * side != s:
        raise SystemExit(f"--s must be a perfect square, got {s}")
    size = side * tile
    gen = PhotomosaicGenerator(MosaicConfig(tile_size=tile))
    inp = standard_image("portrait", size)
    tgt = standard_image("sailboat", size)
    start = time.perf_counter()
    _, matrix = gen.build_error_matrix(inp, tgt)
    elapsed = time.perf_counter() - start
    return matrix, elapsed


def bench_coloring(s: int) -> dict:
    """Cold build of the colour classes, so the sweeps below start warm."""
    build_edge_groups.cache_clear()
    start = time.perf_counter()
    build_edge_groups(s)
    return {"build_seconds": time.perf_counter() - start}


def bench_sweeps(matrix: np.ndarray) -> dict:
    s = matrix.shape[0]
    # Untimed warm-up: the first run in a process also pays the
    # allocator's first page faults for the window temporaries.
    local_search_parallel(matrix)
    start = time.perf_counter()
    pruned = local_search_parallel(matrix)
    pruned_seconds = time.perf_counter() - start
    sweeps = len(pruned.trace.swap_counts)
    # What full-width sweeps would evaluate: every pair, every sweep.
    pairs_full = sweeps * s * (s - 1) // 2
    pairs_pruned = pruned.meta["pairs_evaluated"]
    return {
        "s": s,
        "sweeps": sweeps,
        "pruned_seconds": pruned_seconds,
        "pairs_full": pairs_full,
        "pairs_evaluated_pruned": pairs_pruned,
        "pairs_skipped": pruned.meta["pairs_skipped"],
        "eval_ratio": pairs_full / max(1, pairs_pruned),
        "total_error": int(pruned.total),
    }


def bench_warm_cache(matrix: np.ndarray) -> dict:
    """Bytes heap-copied by a warm hit on a default (mapping) store."""
    with tempfile.TemporaryDirectory(prefix="perf-smoke-") as root:
        store = DiskCacheStore(root)
        store.put("matrix/bench", matrix)
        warm = store.get("matrix/bench")
        assert np.array_equal(warm, matrix)
        return {
            "mmap_copied_bytes": store.stats.copied_bytes,
            "mmap_mmap_hits": store.stats.mmap_hits,
        }


def check_invariants(report: dict) -> list[str]:
    failures = []
    sweeps = report["sweeps"]
    if sweeps["s"] >= 1024 and sweeps["eval_ratio"] < 3.0:
        failures.append(
            f"pruning saved only {sweeps['eval_ratio']:.2f}x pair "
            f"evaluations at S={sweeps['s']} (need >= 3x)"
        )
    cache = report["warm_cache"]
    if cache["mmap_copied_bytes"] != 0:
        failures.append(
            f"warm mmap hit copied {cache['mmap_copied_bytes']} bytes"
        )
    if cache["mmap_mmap_hits"] != 1:
        failures.append("warm hit on a default store was not served by mmap")
    return failures


def check_baseline(report: dict, baseline: dict, max_ratio: float) -> list[str]:
    failures = []
    for field in EXACT_FIELDS:
        old = baseline["sweeps"][field]
        new = report["sweeps"][field]
        if new != old:
            failures.append(f"sweeps.{field}: {new} vs baseline {old}")
    for section, field in TIMED_FIELDS:
        old = baseline.get(section, {}).get(field)
        new = report.get(section, {}).get(field)
        if not old or not new:
            continue
        if new > old * max_ratio:
            failures.append(
                f"{section}.{field}: {new:.3f}s vs baseline {old:.3f}s "
                f"(> {max_ratio:.1f}x regression)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--s", type=int, default=1024, help="grid tiles S")
    parser.add_argument("--tile", type=int, default=8, help="tile side M")
    parser.add_argument("--out", default="BENCH_4.json", help="report path")
    parser.add_argument(
        "--baseline", default=None, help="compare timings against this report"
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when a timing exceeds baseline by this factor",
    )
    args = parser.parse_args(argv)

    matrix, matrix_seconds = build_instance(args.s, args.tile)
    report = {
        "schema": SCHEMA,
        "s": args.s,
        "tile": args.tile,
        "error_matrix": {"seconds": matrix_seconds, "backend": "numpy"},
        "coloring": bench_coloring(args.s),
        "sweeps": bench_sweeps(matrix),
        "warm_cache": bench_warm_cache(matrix),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    print(
        f"  error matrix  : {matrix_seconds:.3f}s at S={args.s}\n"
        f"  colour classes: {report['coloring']['build_seconds']:.3f}s cold\n"
        f"  sweeps        : {report['sweeps']['pruned_seconds']:.3f}s, "
        f"{report['sweeps']['eval_ratio']:.2f}x fewer pair evaluations "
        "than full width\n"
        f"  warm cache    : {report['warm_cache']['mmap_copied_bytes']} B copied"
        " under mmap"
    )

    failures = check_invariants(report)
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            failures += check_baseline(report, json.load(fh), args.max_ratio)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
