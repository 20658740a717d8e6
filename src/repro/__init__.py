"""repro — Photomosaic Generation by Rearranging Subimages.

A full reproduction of Yang, Ito & Nakano (IPDPS Workshops 2017): an input
image is divided into tiles which are rearranged — by exact minimum-weight
bipartite matching or by (serial / parallel) 2-opt local search — so the
rearranged image reproduces a given target image.  GPU acceleration is
reproduced through a SIMT virtual-GPU substrate and a calibrated
performance model (see DESIGN.md).

Quickstart::

    from repro import generate_photomosaic, standard_image

    result = generate_photomosaic(
        standard_image("portrait", 512),
        standard_image("sailboat", 512),
        tile_size=16,             # 32 x 32 tiles
        algorithm="parallel",     # paper Algorithm 2
    )
    print(result.total_error, result.sweeps)
"""

from __future__ import annotations

from repro.assignment import AssignmentResult, get_solver
from repro.cost import error_matrix, get_metric, total_error
from repro.imaging import (
    load_image,
    match_histogram,
    save_image,
    standard_image,
    standard_image_color,
    synthetic_image,
)
from repro.localsearch import local_search_parallel, local_search_serial
from repro.mosaic import (
    DatabaseMosaic,
    MosaicConfig,
    MosaicResult,
    PhotomosaicGenerator,
    TileDatabase,
    VideoMosaicSession,
    generate_photomosaic,
)
from repro.tiles import TileGrid

__version__ = "1.0.0"

__all__ = [
    "AssignmentResult",
    "get_solver",
    "error_matrix",
    "get_metric",
    "total_error",
    "load_image",
    "save_image",
    "match_histogram",
    "standard_image",
    "standard_image_color",
    "synthetic_image",
    "local_search_serial",
    "local_search_parallel",
    "VideoMosaicSession",
    "MosaicConfig",
    "MosaicResult",
    "PhotomosaicGenerator",
    "generate_photomosaic",
    "TileDatabase",
    "DatabaseMosaic",
    "TileGrid",
    "__version__",
]
