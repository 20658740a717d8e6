"""The end-to-end rearrangement pipeline (paper Section II, Steps 1-3).

Step 1 divides the input and target images into ``S`` tiles; Step 2
computes the ``S x S`` error matrix; Step 3 rearranges the input tiles with
the configured algorithm.  The input image is histogram-matched to the
target first (Section II) unless disabled.

:func:`generate_photomosaic` is the one-call convenience wrapper;
:class:`PhotomosaicGenerator` keeps the configuration and exposes the
intermediate artefacts (tiles, error matrix) for callers that reuse them —
e.g. the video example, which re-solves Step 3 for each frame while
keeping the Step-1 decomposition.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from repro.assignment import get_solver
from repro.cost import error_matrix, sparse_error_matrix, total_error
from repro.cost.sparse import SparseErrorMatrix
from repro.exceptions import ValidationError
from repro.imaging.histogram import match_histogram
from repro.localsearch import local_search_parallel, local_search_serial
from repro.mosaic.config import MosaicConfig
from repro.mosaic.result import MosaicResult
from repro.tiles.grid import TileGrid
from repro.types import AnyImage, ErrorMatrix
from repro.utils.arrays import cached_positions
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import check_image

__all__ = ["PhotomosaicGenerator", "generate_photomosaic"]


class PhotomosaicGenerator:
    """Configured photomosaic pipeline.

    Pass any :class:`~repro.service.cache.CacheBackend` as ``cache`` to
    memoize the Step-1 tile stacks and Step-2 error matrix by content:
    repeated targets or input libraries then skip straight to Step 3.
    The job service shares one backend across all its workers this way —
    an :class:`~repro.service.cache.ArtifactCache` for threads in one
    process, or a :class:`~repro.service.cache.CacheStack` over a
    :class:`~repro.service.diskcache.DiskCacheStore` to share artifacts
    across *process* workers through one on-disk store.  Each artifact's
    hit/miss outcome is reported in ``result.meta["cache"]``.
    """

    def __init__(
        self,
        config: MosaicConfig | None = None,
        *,
        cache=None,
    ) -> None:
        self.config = config or MosaicConfig()
        self.cache = cache

    def preprocess(self, input_image: AnyImage, target_image: AnyImage) -> AnyImage:
        """Histogram-match the input to the target (Section II).

        The paper's adjustment is defined on intensity histograms, so for
        colour images matching is skipped with a :class:`UserWarning` —
        unless :attr:`MosaicConfig.color_histogram_match` is set, in which
        case each RGB channel is matched independently.  Returns the
        adjusted input image (the original when matching is disabled or
        skipped).
        """
        input_image = check_image(input_image, "input_image")
        target_image = check_image(target_image, "target_image")
        if not self.config.histogram_match:
            return input_image
        if input_image.ndim == 2 and target_image.ndim == 2:
            return match_histogram(input_image, target_image)
        if (
            self.config.color_histogram_match
            and input_image.ndim == 3
            and target_image.ndim == 3
        ):
            return np.stack(
                [
                    match_histogram(input_image[..., c], target_image[..., c])
                    for c in range(3)
                ],
                axis=-1,
            )
        warnings.warn(
            "histogram matching skipped: the paper's Section-II adjustment is "
            "defined on intensity histograms, not colour images; set "
            "MosaicConfig(color_histogram_match=True) for per-channel matching "
            "or histogram_match=False to silence this warning",
            UserWarning,
            stacklevel=2,
        )
        return input_image

    def build_error_matrix(
        self, input_image: AnyImage, target_image: AnyImage
    ) -> tuple[TileGrid, ErrorMatrix]:
        """Steps 1 + 2 only: tile grid and error matrix (no rearrangement)."""
        input_image = check_image(input_image, "input_image")
        target_image = check_image(target_image, "target_image")
        if input_image.shape != target_image.shape:
            raise ValidationError(
                f"input {input_image.shape} and target {target_image.shape} "
                "must have identical shapes"
            )
        grid = TileGrid.for_image(input_image, self.config.tile_size)
        matrix = error_matrix(
            grid.split(input_image),
            grid.split(target_image),
            self.config.metric,
            backend=self.config.array_backend,
        )
        return grid, matrix

    def rearrange(
        self,
        matrix: ErrorMatrix,
        on_sweep: Callable[[int, int, int], None] | None = None,
        *,
        sparse: SparseErrorMatrix | None = None,
    ) -> tuple[np.ndarray, object, dict]:
        """Step 3 only: returns ``(permutation, trace_or_None, meta)``.

        ``on_sweep`` is forwarded to the local-search algorithms (called
        after every 2-opt sweep); the optimisation path has no sweeps and
        ignores it.  With an incomplete ``sparse`` matrix (the sparse
        Step-2 path), the solver runs over the shortlist via
        :meth:`~repro.assignment.base.AssignmentSolver.solve_sparse` and
        the local searches restrict their sweeps to candidate placements;
        ``matrix`` must then be its sentinel densification.  A complete
        sparse matrix is ignored — the dense code path already is the
        exact computation.
        """
        cfg = self.config
        if sparse is not None and sparse.complete:
            sparse = None
        candidates = None if sparse is None else sparse.mask()
        if cfg.algorithm == "optimization":
            solver = get_solver(cfg.solver)
            result = (
                solver.solve(matrix)
                if sparse is None
                else solver.solve_sparse(sparse)
            )
            meta = {
                "solver": cfg.solver,
                "optimal": result.optimal,
                "iterations": result.iterations,
            }
            return result.permutation, None, meta
        if cfg.algorithm == "pyramid":
            raise ValidationError(
                "the pyramid algorithm needs tile stacks; use generate() "
                "or call repro.mosaic.pyramid.coarse_to_fine_rearrange directly"
            )
        # Sparse mode warm-starts 2-opt from the configured solver's
        # shortlist assignment: the identity start would strand tiles on
        # off-shortlist positions that candidate-restricted swaps cannot
        # always repair, and 2-opt then polishes inside the candidate
        # graph.  ``config.solver`` is otherwise unused by the
        # local-search algorithms, so the knob doubles as the sparse
        # warm-start choice (every registered solver is exact, so the
        # choice changes only run time and tie-breaking).
        initial = None
        if sparse is not None:
            initial = get_solver(cfg.solver).solve_sparse(sparse).permutation
        if cfg.algorithm == "approximation":
            result = local_search_serial(
                matrix,
                initial,
                max_sweeps=cfg.max_sweeps,
                candidates=candidates,
                on_sweep=on_sweep,
            )
        else:  # "parallel"
            result = local_search_parallel(
                matrix,
                initial,
                backend=cfg.parallel_backend,
                max_sweeps=cfg.max_sweeps,
                candidates=candidates,
                array_backend=cfg.array_backend,
                on_sweep=on_sweep,
            )
        meta = {"strategy": result.strategy, **result.meta}
        if sparse is not None:
            meta["warm_start"] = f"{cfg.solver}-sparse"
        return result.permutation, result.trace, meta

    def generate(
        self,
        input_image: AnyImage,
        target_image: AnyImage,
        *,
        observer: Callable[[str, dict], None] | None = None,
    ) -> MosaicResult:
        """Run the full pipeline and return a :class:`MosaicResult`.

        ``observer(kind, payload)`` is an optional progress hook: it is
        called with ``("phase", {"phase": name, "seconds": s})`` as each
        pipeline phase completes and ``("sweep", {"sweep": k, "swaps": n,
        "total": e})`` after every Step-3 local-search sweep.  Exceptions
        raised by the observer propagate and abort the pipeline — the job
        gateway cancels in-flight jobs this way.
        """
        input_image = check_image(input_image, "input_image")
        target_image = check_image(target_image, "target_image")
        if input_image.shape != target_image.shape:
            raise ValidationError(
                f"input {input_image.shape} and target {target_image.shape} "
                "must have identical shapes"
            )
        timings = TimingBreakdown()
        cache_meta: dict[str, str] = {}

        def phase_done(phase: str) -> None:
            if observer is not None:
                observer("phase", {"phase": phase, "seconds": timings.get(phase)})

        on_sweep = None
        if observer is not None:

            def on_sweep(sweep: int, swaps: int, total: int) -> None:
                observer("sweep", {"sweep": sweep, "swaps": swaps, "total": total})

        with timings.measure("histogram_match"):
            adjusted = self.preprocess(input_image, target_image)
        phase_done("histogram_match")
        with timings.measure("step1_tiling"):
            grid = TileGrid.for_image(adjusted, self.config.tile_size)
            if self.cache is None:
                input_tiles = grid.split(adjusted)
                target_tiles = grid.split(target_image)
            else:
                input_tiles, target_tiles, fingerprints = self._cached_tiles(
                    grid, adjusted, target_image, cache_meta
                )
        phase_done("step1_tiling")
        orientation_codes = None
        sparse_matrix: SparseErrorMatrix | None = None
        with timings.measure("step2_error_matrix"):
            if self.config.shortlist_top_k > 0:
                # Sparse Step 2: sketch-shortlisted candidates, exact-scored.
                # The artifact cache stores only full dense matrices, so
                # sparse runs bypass it (step-1 tile caching still applies).
                sparse_matrix = sparse_error_matrix(
                    input_tiles,
                    target_tiles,
                    self.config.metric,
                    top_k=self.config.shortlist_top_k,
                    sketch=self.config.sketch,
                    seed=self.config.shortlist_seed,
                    backend=self.config.array_backend,
                )
                matrix = sparse_matrix.to_dense()
                if self.cache is not None:
                    cache_meta["step2_matrix"] = "bypass"
            elif self.cache is None:
                matrix, orientation_codes = self._compute_matrix(
                    input_tiles, target_tiles
                )
            else:
                from repro.service.cache import error_matrix_key

                key = error_matrix_key(
                    *fingerprints,
                    self.config.tile_size,
                    self.config.metric,
                    self.config.allow_transforms,
                )
                cache_meta["step2_matrix"] = (
                    "hit" if self.cache.contains(key) else "miss"
                )
                matrix, orientation_codes = self.cache.get_or_compute(
                    key,
                    lambda: self._compute_matrix(input_tiles, target_tiles),
                )
        phase_done("step2_error_matrix")
        with timings.measure("step3_rearrangement"):
            if self.config.algorithm == "pyramid":
                from repro.mosaic.pyramid import coarse_to_fine_rearrange

                pyramid = coarse_to_fine_rearrange(
                    input_tiles,
                    target_tiles,
                    grid,
                    factor=self.config.pyramid_factor,
                    metric=self.config.metric,
                    solver=self.config.solver,
                    fine_matrix=matrix,
                )
                perm = pyramid.permutation
                trace = pyramid.fine_result.trace
                meta = {
                    "coarse_total": pyramid.coarse_total,
                    "warm_start_total": pyramid.warm_start_total,
                    "pyramid_factor": self.config.pyramid_factor,
                }
            else:
                perm, trace, meta = self.rearrange(
                    matrix, on_sweep=on_sweep, sparse=sparse_matrix
                )
        phase_done("step3_rearrangement")
        placed = input_tiles[perm]
        if orientation_codes is not None:
            from repro.tiles.transforms import apply_transforms_to_stack

            positions = cached_positions(grid.tile_count)
            chosen = orientation_codes[perm, positions].astype(np.intp)
            placed = apply_transforms_to_stack(placed, chosen)
            meta = {
                **meta,
                "orientations": chosen,
                "transformed_fraction": float((chosen != 0).mean()),
            }
        image = grid.assemble(placed)
        if cache_meta:
            meta = {**meta, "cache": cache_meta}
        final_total = total_error(matrix, perm)
        if sparse_matrix is not None:
            positions = cached_positions(grid.tile_count)
            off_shortlist = int(
                (~sparse_matrix.mask()[perm, positions]).sum()
            )
            if not sparse_matrix.complete:
                # The densified matrix holds sentinels off-shortlist; the
                # reported total is always the true Eq. (2) value, scored
                # from the retained features.
                final_total = sparse_matrix.exact_total(perm)
            meta = {
                **meta,
                "shortlist": {
                    "top_k": sparse_matrix.top_k,
                    "sketch": self.config.sketch,
                    "complete": sparse_matrix.complete,
                    "pairs_evaluated": int(
                        sparse_matrix.meta.get("pairs_evaluated", 0)
                    ),
                    "pairs_total": int(
                        sparse_matrix.meta.get(
                            "pairs_total", grid.tile_count**2
                        )
                    ),
                    "fallback": off_shortlist,
                },
            }
        return MosaicResult(
            image=image,
            permutation=perm,
            total_error=final_total,
            timings=timings,
            config=self.config,
            trace=trace,
            meta=meta,
        )

    def _compute_matrix(
        self, input_tiles: np.ndarray, target_tiles: np.ndarray
    ) -> tuple[ErrorMatrix, np.ndarray | None]:
        """Step 2 proper: ``(matrix, orientation_codes_or_None)``."""
        if self.config.allow_transforms:
            from repro.cost.transformed import transformed_error_matrix

            return transformed_error_matrix(
                input_tiles, target_tiles, self.config.metric
            )
        return (
            error_matrix(
                input_tiles,
                target_tiles,
                self.config.metric,
                backend=self.config.array_backend,
            ),
            None,
        )

    def _cached_tiles(
        self,
        grid: TileGrid,
        adjusted: AnyImage,
        target_image: AnyImage,
        cache_meta: dict[str, str],
    ) -> tuple[np.ndarray, np.ndarray, tuple[str, str]]:
        """Step 1 through the artifact cache, keyed by image content."""
        from repro.service.cache import image_fingerprint, tile_grid_key

        fp_input = image_fingerprint(adjusted)
        fp_target = image_fingerprint(target_image)
        key_input = tile_grid_key(fp_input, self.config.tile_size)
        key_target = tile_grid_key(fp_target, self.config.tile_size)
        cache_meta["step1_input"] = "hit" if self.cache.contains(key_input) else "miss"
        cache_meta["step1_target"] = (
            "hit" if self.cache.contains(key_target) else "miss"
        )
        input_tiles = self.cache.get_or_compute(
            key_input, lambda: grid.split(adjusted)
        )
        target_tiles = self.cache.get_or_compute(
            key_target, lambda: grid.split(target_image)
        )
        return input_tiles, target_tiles, (fp_input, fp_target)


def generate_photomosaic(
    input_image: AnyImage,
    target_image: AnyImage,
    *,
    tile_size: int = 16,
    algorithm: str = "parallel",
    **config_kwargs: object,
) -> MosaicResult:
    """One-call photomosaic generation.

    >>> from repro.imaging import standard_image
    >>> result = generate_photomosaic(
    ...     standard_image("portrait", 64),
    ...     standard_image("sailboat", 64),
    ...     tile_size=8,
    ... )
    >>> result.image.shape
    (64, 64)
    """
    config = MosaicConfig(tile_size=tile_size, algorithm=algorithm, **config_kwargs)  # type: ignore[arg-type]
    return PhotomosaicGenerator(config).generate(input_image, target_image)
