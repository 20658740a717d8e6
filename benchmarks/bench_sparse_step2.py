#!/usr/bin/env python
"""Quality-vs-speed frontier of the sparse Step-2 pipeline (PR 8).

Runs the canonical portrait/sailboat instance at poster scale (S=1024
tiles by default) through the 2-opt parallel pipeline — once exact
(dense Step 2) and once per shortlist width — and records the frontier:
pairs exact-scored, end-to-end seconds, total mosaic error, and the
error ratio against the exact run.  Written to ``BENCH_8.json``.

Invariants asserted on every run:

* the complete shortlist (``top_k = S``, checked at reduced scale to
  keep the run fast) is **bit-identical** to the dense pipeline;
* at ``S >= 1024``, ``top_k = 32`` exact-scores <= 10% of the S^2 pairs
  while landing within 2% of the exact total error, with zero fallback
  rows (the acceptance envelope pinned by ISSUE 8);
* sparse runs get faster than exact as the shortlist narrows.

Wall-clock fields are additionally compared against a committed record
with ``--baseline`` (the CI sparse-smoke job fails on a > 2x
regression)::

    PYTHONPATH=src python benchmarks/bench_sparse_step2.py --out BENCH_8.json
    PYTHONPATH=src python benchmarks/bench_sparse_step2.py \
        --baseline benchmarks/BENCH_8.json --max-ratio 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.imaging import standard_image
from repro.mosaic.generator import generate_photomosaic

SCHEMA = "repro-sparse-step2/1"

#: Shortlist widths swept for the frontier (the envelope is pinned at 32).
TOP_KS = (8, 16, 32, 64)

#: Seed for the shortlister's k-means, fixed so the record is reproducible.
SHORTLIST_SEED = 11

#: Acceptance envelope at S >= 1024, top_k = 32 (ISSUE 8).
ENVELOPE_TOP_K = 32
ENVELOPE_MAX_PAIRS_FRAC = 0.10
ENVELOPE_MAX_ERROR_RATIO = 1.02

#: Timing fields checked against the baseline (quality numbers are
#: machine-independent and asserted directly instead).
TIMED_FIELDS = ("exact_seconds",)


def _instance(s: int, tile: int):
    side = int(round(s**0.5))
    if side * side != s:
        raise SystemExit(f"--s must be a perfect square, got {s}")
    size = side * tile
    return (
        standard_image("portrait", size),
        standard_image("sailboat", size),
    )


def _run(inp, tgt, tile: int, top_k: int = 0):
    start = time.perf_counter()
    result = generate_photomosaic(
        inp,
        tgt,
        tile_size=tile,
        algorithm="parallel",
        shortlist_top_k=top_k,
        shortlist_seed=SHORTLIST_SEED,
    )
    return result, time.perf_counter() - start


def bench_frontier(s: int, tile: int) -> dict:
    inp, tgt = _instance(s, tile)
    # Untimed warm-up: the first run alone would pay the cold colour-class
    # build and inflate every speedup below.
    _run(inp, tgt, tile)
    exact, exact_seconds = _run(inp, tgt, tile)
    frontier = []
    for top_k in TOP_KS:
        sparse, seconds = _run(inp, tgt, tile, top_k=top_k)
        shortlist = sparse.meta["shortlist"]
        frontier.append(
            {
                "top_k": top_k,
                "seconds": seconds,
                "speedup": exact_seconds / seconds,
                "total_error": int(sparse.total_error),
                "error_ratio": sparse.total_error / exact.total_error,
                "pairs_evaluated": int(shortlist["pairs_evaluated"]),
                "pairs_frac": shortlist["pairs_evaluated"]
                / shortlist["pairs_total"],
                "fallback": int(shortlist["fallback"]),
            }
        )
    return {
        "s": s,
        "tile": tile,
        "algorithm": "parallel",
        "sketch": "mean",
        "shortlist_seed": SHORTLIST_SEED,
        "exact_seconds": exact_seconds,
        "exact_total_error": int(exact.total_error),
        "frontier": frontier,
    }


def bench_bit_identity(tile: int, size: int = 128) -> dict:
    """``top_k = S`` must reproduce the dense pipeline bit for bit."""
    inp = standard_image("portrait", size)
    tgt = standard_image("sailboat", size)
    s = (size // tile) ** 2
    dense, _ = _run(inp, tgt, tile)
    complete, _ = _run(inp, tgt, tile, top_k=s)
    return {
        "s": s,
        "identical": bool(
            dense.total_error == complete.total_error
            and (dense.permutation == complete.permutation).all()
            and (np.asarray(dense.image) == np.asarray(complete.image)).all()
        ),
    }


def check_invariants(report: dict) -> list[str]:
    failures = []
    if not report["bit_identity"]["identical"]:
        failures.append("complete shortlist is not bit-identical to dense")
    frontier = report["frontier"]["frontier"]
    if report["frontier"]["s"] >= 1024:
        row = next(
            (r for r in frontier if r["top_k"] == ENVELOPE_TOP_K), None
        )
        if row is None:
            failures.append(f"frontier is missing top_k={ENVELOPE_TOP_K}")
        else:
            if row["pairs_frac"] > ENVELOPE_MAX_PAIRS_FRAC:
                failures.append(
                    f"top_k={ENVELOPE_TOP_K} exact-scored "
                    f"{row['pairs_frac']:.1%} of pairs "
                    f"(envelope: <= {ENVELOPE_MAX_PAIRS_FRAC:.0%})"
                )
            if row["error_ratio"] > ENVELOPE_MAX_ERROR_RATIO:
                failures.append(
                    f"top_k={ENVELOPE_TOP_K} total error ratio "
                    f"{row['error_ratio']:.4f} "
                    f"(envelope: <= {ENVELOPE_MAX_ERROR_RATIO})"
                )
            if row["fallback"] != 0:
                failures.append(
                    f"top_k={ENVELOPE_TOP_K} left {row['fallback']} "
                    "fallback rows (degree-capped selection should leave 0)"
                )
        narrowest = min(frontier, key=lambda r: r["top_k"])
        if narrowest["speedup"] < 1.0:
            failures.append(
                f"top_k={narrowest['top_k']} is not faster than exact "
                f"({narrowest['speedup']:.2f}x)"
            )
    return failures


def check_baseline(report: dict, baseline: dict, max_ratio: float) -> list[str]:
    failures = []
    for field in TIMED_FIELDS:
        old = baseline.get("frontier", {}).get(field)
        new = report.get("frontier", {}).get(field)
        if not old or not new:
            continue
        if new > old * max_ratio:
            failures.append(
                f"frontier.{field}: {new:.3f}s vs baseline {old:.3f}s "
                f"(> {max_ratio:.1f}x regression)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--s", type=int, default=1024, help="grid tiles S")
    parser.add_argument("--tile", type=int, default=8, help="tile side M")
    parser.add_argument("--out", default="BENCH_8.json", help="report path")
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

    report = {
        "schema": SCHEMA,
        "frontier": bench_frontier(args.s, args.tile),
        "bit_identity": bench_bit_identity(args.tile),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    frontier = report["frontier"]
    print(
        f"  exact         : {frontier['exact_seconds']:.3f}s, "
        f"total {frontier['exact_total_error']} at S={frontier['s']}"
    )
    for row in frontier["frontier"]:
        print(
            f"  top_k={row['top_k']:<4}    : {row['seconds']:.3f}s "
            f"({row['speedup']:.2f}x), ratio {row['error_ratio']:.4f}, "
            f"{row['pairs_frac']:.1%} of pairs, {row['fallback']} fallback"
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
