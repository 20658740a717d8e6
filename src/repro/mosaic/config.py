"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError

__all__ = ["MosaicConfig", "ALGORITHMS"]

#: Rearrangement algorithms: the paper's optimization (Section III), serial
#: approximation (Algorithm 1), parallel approximation (Algorithm 2), and
#: the coarse-to-fine pyramid extension.
ALGORITHMS = ("optimization", "approximation", "parallel", "pyramid")


@dataclass(frozen=True)
class MosaicConfig:
    """All knobs of the rearrangement pipeline.

    Attributes
    ----------
    tile_size:
        Side length ``M`` of each square tile.
    algorithm:
        One of :data:`ALGORITHMS`.
    metric:
        Cost-metric registry name (``"sad"`` reproduces the paper).
    solver:
        Assignment-solver registry name for the optimization algorithm
        (``"scipy"`` is the Blossom V stand-in; ``"hungarian"``, ``"jv"``,
        ``"auction"``, ``"greedy"``, ``"blossom"`` (Edmonds' blossom via
        networkx) and ``"bruteforce"`` (all ``S!`` assignments, tiny ``S``
        only) are also registered).
    histogram_match:
        Pre-adjust the input's intensity distribution to the target's
        (paper Section II).  The paper's adjustment is defined on
        intensity histograms, so for colour images it is skipped with a
        :class:`UserWarning` unless ``color_histogram_match`` is set.
    color_histogram_match:
        Extend histogram matching to colour pairs by matching each RGB
        channel independently (an extension beyond the paper; channel-wise
        matching can shift hues since channels are remapped separately).
        Only meaningful when ``histogram_match`` is enabled.
    serial_strategy:
        Sweep strategy for ``algorithm="approximation"``
        (``"first"`` = Algorithm 1 verbatim, ``"best_row"`` = vectorised).
    parallel_backend:
        Backend for ``algorithm="parallel"``
        (``"vectorized"`` | ``"gpusim"``).
    allow_transforms:
        Permit the 8 dihedral orientations (rotations/flips) per tile; the
        pairing error becomes the minimum over orientations (an extension
        beyond the paper — see ``repro.tiles.transforms``).
    pyramid_factor:
        Tiles per super-tile side for ``algorithm="pyramid"``: the coarse
        stage solves an exact assignment on ``S / pyramid_factor**2``
        super-tiles before 2-opt refines single tiles.  Must divide both
        tile-grid dimensions.
    max_sweeps:
        Safety bound for the local-search algorithms.
    array_backend:
        Array library for the Step-2/Step-3 hot paths: ``"numpy"``
        (default), ``"cupy"`` (GPU, when installed), or ``"auto"`` (best
        available) — see :mod:`repro.accel.backend`.  Orthogonal to
        :attr:`parallel_backend`, which picks the *execution model*.
    shortlist_top_k:
        Sparse Step 2: keep only this many sketch-shortlisted candidate
        positions per input tile and exact-score just those pairs
        (:mod:`repro.cost.sparse`).  ``0`` (default) computes the full
        dense matrix; any value ``>= S`` is equivalent to the dense path
        bit for bit.  Incompatible with ``allow_transforms`` and the
        ``pyramid`` algorithm (both need the full matrix), and with the
        ``gpusim`` parallel backend (full-width kernels).
    sketch:
        Sketch kind used for shortlisting
        (:data:`repro.cost.sketch.SKETCH_KINDS`): ``"mean"``,
        ``"pyramid"`` or ``"pca"``.  Never affects final costs — only
        which pairs get exact-scored.
    shortlist_seed:
        Seed for the shortlister's k-means clustering; a fixed seed makes
        sparse runs bit-reproducible.  ``None`` draws fresh entropy.
    """

    tile_size: int = 16
    algorithm: str = "parallel"
    metric: str = "sad"
    solver: str = "scipy"
    histogram_match: bool = True
    color_histogram_match: bool = False
    serial_strategy: str = "first"
    parallel_backend: str = "vectorized"
    allow_transforms: bool = False
    pyramid_factor: int = 2
    max_sweeps: int = 10_000
    array_backend: str = "numpy"
    shortlist_top_k: int = 0
    sketch: str = "mean"
    shortlist_seed: int | None = None

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ValidationError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {self.algorithm!r} (use one of {ALGORITHMS})"
            )
        if self.max_sweeps < 1:
            raise ValidationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.pyramid_factor < 1:
            raise ValidationError(
                f"pyramid_factor must be >= 1, got {self.pyramid_factor}"
            )
        if self.algorithm == "pyramid" and self.allow_transforms:
            raise ValidationError(
                "pyramid and allow_transforms cannot combine: the coarse "
                "stage has no orientation bookkeeping"
            )
        if self.shortlist_top_k < 0:
            raise ValidationError(
                f"shortlist_top_k must be >= 0, got {self.shortlist_top_k}"
            )
        from repro.cost.sketch import SKETCH_KINDS

        if self.sketch not in SKETCH_KINDS:
            raise ValidationError(
                f"unknown sketch kind {self.sketch!r} "
                f"(use one of {SKETCH_KINDS})"
            )
        if self.shortlist_top_k > 0:
            if self.allow_transforms:
                raise ValidationError(
                    "shortlist_top_k and allow_transforms cannot combine: "
                    "orientation search needs the full dense matrix"
                )
            if self.algorithm == "pyramid":
                raise ValidationError(
                    "shortlist_top_k and the pyramid algorithm cannot "
                    "combine: the coarse-to-fine warm start needs the full "
                    "dense matrix"
                )
            if self.algorithm == "parallel" and self.parallel_backend == "gpusim":
                raise ValidationError(
                    "shortlist_top_k is not supported by the gpusim "
                    "parallel backend (full-width kernels); use "
                    "vectorized"
                )
        from repro.accel.backend import backend_names

        if self.array_backend not in backend_names():
            raise ValidationError(
                f"unknown array backend {self.array_backend!r} "
                f"(use one of {backend_names()})"
            )
