#!/usr/bin/env python
"""Regenerate the golden pipeline checksums in ``tests/data/goldens.json``.

The golden layer pins full end-to-end pipeline outputs — the permutation,
the rendered mosaic, the total error, and the bytes the uncompressed
image writers produce — for a small table of deterministic cases.  The
case table and the checksum computation live HERE, and the golden test
imports them from this script, so test and regeneration can never drift
apart.

Run from the repository root after an intentional output-changing change:

    PYTHONPATH=src python scripts/regen_goldens.py

then commit the updated ``tests/data/goldens.json`` together with the
change that motivated it.  The diff of the JSON file is the review
artifact: an unexpected checksum change means the pipeline's output
changed when it should not have.

Determinism notes:

* cases use the in-repo ``hungarian`` solver rather than ``scipy`` so
  optimal-assignment tie-breaking cannot drift with library versions;
* PGM and BMP files are written uncompressed, so their raw bytes are
  checksummed; PNG involves zlib, whose output may vary across zlib
  builds, so PNG is covered by a write/read pixel roundtrip instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

SCRIPT_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPT_DIR)
GOLDENS_PATH = os.path.join(REPO_ROOT, "tests", "data", "goldens.json")

#: The golden case table.  Every knob that affects output is spelled out
#: explicitly, so a default drifting elsewhere cannot silently change
#: what these cases mean.
CASES: dict[str, dict] = {
    "optimization-hungarian-48": {
        "input": "portrait",
        "target": "sailboat",
        "size": 48,
        "tile_size": 8,
        "algorithm": "optimization",
        "solver": "hungarian",
    },
    "approximation-serial-48": {
        "input": "portrait",
        "target": "sailboat",
        "size": 48,
        "tile_size": 8,
        "algorithm": "approximation",
    },
    "parallel-vectorized-64": {
        "input": "peppers",
        "target": "baboon",
        "size": 64,
        "tile_size": 8,
        "algorithm": "parallel",
        "parallel_backend": "vectorized",
    },
    # Sparse Step 2 (repro.cost.sparse) at poster scale: S=1024 tiles,
    # top_k=32 sketch-shortlisted candidates per tile, 2-opt polishing a
    # solver warm start inside the candidate graph.  Pins the whole
    # sparse pipeline — sketching, seeded k-means preference orders,
    # degree-capped selection, exact scoring, sparse warm start and the
    # candidate-restricted sweeps.
    "sparse-2opt-256": {
        "input": "portrait",
        "target": "sailboat",
        "size": 256,
        "tile_size": 8,
        "algorithm": "parallel",
        "parallel_backend": "vectorized",
        "shortlist_top_k": 32,
        "sketch": "mean",
        "shortlist_seed": 11,
    },
    # Many-to-one library pipeline (repro.library): a seeded synthetic
    # 500-image library composed onto a synthetic target.  Pins the
    # chosen-tile vector and the rendered mosaic, plus the reuse profile
    # the repetition penalty is responsible for.
    "library-greedy-500": {
        "kind": "library",
        "library_count": 500,
        "library_image_size": 16,
        "library_seed": 2025,
        "target_size": 64,
        "target_seed": 9,
        "tile_size": 8,
        "thumb_size": 16,
        "top_k": 12,
        "repetition_penalty": 1.0,
        "seed": 7,
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_library_case(name: str):
    """Run one library-pipeline golden case; returns (result, index)."""
    from repro.library import (
        LibraryConfig,
        LibraryIndex,
        LibraryMosaicEngine,
        synthetic_library_images,
        synthetic_target,
    )

    params = dict(CASES[name])
    params.pop("kind")
    images = synthetic_library_images(
        params.pop("library_count"),
        size=params.pop("library_image_size"),
        seed=params.pop("library_seed"),
    )
    target = synthetic_target(
        params.pop("target_size"), seed=params.pop("target_seed")
    )
    seed = params.pop("seed")
    config = LibraryConfig(
        tile_size=params.pop("tile_size"),
        thumb_size=params.pop("thumb_size"),
        **params,
    )
    index = LibraryIndex.from_images(
        images,
        tile_size=config.tile_size,
        thumb_size=config.thumb_size,
        sketch_grid=config.sketch_grid,
    )
    return LibraryMosaicEngine(config).generate(index, target, seed=seed), index


def compute_library_case(name: str) -> dict:
    """Run one library-pipeline golden case and return its record."""
    import numpy as np

    from repro.imaging.iohub import write_pgm

    result, index = run_library_case(name)

    record = {
        "total_error": int(result.total_error),
        "choice_sha256": _sha256(
            np.asarray(result.choice, dtype=np.int64).tobytes()
        ),
        "image_sha256": _sha256(
            np.ascontiguousarray(result.image, dtype=np.uint8).tobytes()
        ),
        "image_shape": list(result.image.shape),
        "max_reuse": int(result.max_reuse),
        "unique_tiles": int(result.unique_tiles),
        "index_fingerprint": index.content_fingerprint(),
    }
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pgm = os.path.join(tmp, "mosaic.pgm")
        write_pgm(pgm, result.image)
        with open(pgm, "rb") as fh:
            record["pgm_sha256"] = _sha256(fh.read())
    return record


def run_mosaic_case(name: str):
    """Run one rearrangement-pipeline golden case; returns the result."""
    from repro import generate_photomosaic, standard_image

    params = dict(CASES[name])
    inp = standard_image(params.pop("input"), params.pop("size"))
    tgt = standard_image(params.pop("target"), inp.shape[0])
    return generate_photomosaic(inp, tgt, **params)


def render_case(name: str):
    """Run any golden case and return the rendered mosaic image."""
    if CASES[name].get("kind") == "library":
        return run_library_case(name)[0].image
    return run_mosaic_case(name).image


def compute_case(name: str) -> dict:
    """Run one golden case end to end and return its checksum record."""
    import numpy as np

    from repro.imaging.iohub import write_bmp, write_pgm

    if CASES[name].get("kind") == "library":
        return compute_library_case(name)
    result = run_mosaic_case(name)

    record = {
        "total_error": int(result.total_error),
        "permutation_sha256": _sha256(
            np.asarray(result.permutation, dtype=np.int64).tobytes()
        ),
        "image_sha256": _sha256(
            np.ascontiguousarray(result.image, dtype=np.uint8).tobytes()
        ),
        "image_shape": list(result.image.shape),
    }

    # Uncompressed writers: pin the exact file bytes.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pgm = os.path.join(tmp, "mosaic.pgm")
        bmp = os.path.join(tmp, "mosaic.bmp")
        write_pgm(pgm, result.image)
        write_bmp(bmp, result.image)
        with open(pgm, "rb") as fh:
            record["pgm_sha256"] = _sha256(fh.read())
        with open(bmp, "rb") as fh:
            record["bmp_sha256"] = _sha256(fh.read())
    return record


def compute_all() -> dict:
    return {name: compute_case(name) for name in sorted(CASES)}


def main() -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    goldens = {
        "_comment": (
            "Golden end-to-end pipeline checksums. Regenerate with "
            "`PYTHONPATH=src python scripts/regen_goldens.py` and commit "
            "the diff alongside the change that altered the output."
        ),
        "cases": compute_all(),
    }
    os.makedirs(os.path.dirname(GOLDENS_PATH), exist_ok=True)
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens['cases'])} golden cases to {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
