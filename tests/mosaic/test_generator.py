"""Tests for the end-to-end pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.matrix import error_matrix, total_error
from repro.exceptions import ValidationError
from repro.imaging.histogram import match_histogram
from repro.mosaic.config import MosaicConfig
from repro.mosaic.generator import PhotomosaicGenerator, generate_photomosaic
from repro.tiles.grid import TileGrid


class TestGenerate:
    @pytest.mark.parametrize("algorithm", ["optimization", "approximation", "parallel"])
    def test_all_algorithms_run(self, algorithm, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(inp, tgt, tile_size=8, algorithm=algorithm)
        assert result.image.shape == inp.shape
        assert result.total_error >= 0

    def test_output_is_tile_permutation_of_adjusted_input(self, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(inp, tgt, tile_size=8, algorithm="parallel")
        adjusted = match_histogram(inp, tgt)
        # Pixel multiset preserved: output tiles are a permutation of input tiles.
        assert (np.sort(result.image.ravel()) == np.sort(adjusted.ravel())).all()

    def test_total_error_consistent_with_matrix(self, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(inp, tgt, tile_size=8, algorithm="optimization")
        grid = TileGrid.for_image(inp, 8)
        matrix = error_matrix(grid.split(match_histogram(inp, tgt)), grid.split(tgt))
        assert result.total_error == total_error(matrix, result.permutation)

    def test_optimization_lower_bounds_others(self, small_pair):
        inp, tgt = small_pair
        errors = {
            alg: generate_photomosaic(inp, tgt, tile_size=8, algorithm=alg).total_error
            for alg in ("optimization", "approximation", "parallel")
        }
        assert errors["optimization"] <= errors["approximation"]
        assert errors["optimization"] <= errors["parallel"]

    def test_rearrangement_improves_over_identity(self, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(inp, tgt, tile_size=8, algorithm="parallel")
        grid = TileGrid.for_image(inp, 8)
        matrix = error_matrix(grid.split(match_histogram(inp, tgt)), grid.split(tgt))
        identity_error = total_error(matrix, np.arange(grid.tile_count))
        assert result.total_error <= identity_error

    def test_timings_recorded(self, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(inp, tgt, tile_size=8)
        for phase in ("step1_tiling", "step2_error_matrix", "step3_rearrangement"):
            assert phase in result.timings.phases

    def test_trace_present_for_local_search(self, small_pair):
        inp, tgt = small_pair
        assert generate_photomosaic(inp, tgt, tile_size=8, algorithm="parallel").sweeps
        assert (
            generate_photomosaic(inp, tgt, tile_size=8, algorithm="optimization").sweeps
            is None
        )

    def test_shape_mismatch_rejected(self, small_pair):
        inp, _ = small_pair
        tgt = np.zeros((32, 32), dtype=np.uint8)
        with pytest.raises(ValidationError, match="identical shapes"):
            generate_photomosaic(inp, tgt, tile_size=8)

    def test_color_pipeline(self, rng):
        inp = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
        tgt = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
        with pytest.warns(UserWarning, match="histogram matching skipped"):
            result = generate_photomosaic(inp, tgt, tile_size=8, metric="color")
        assert result.image.shape == (32, 32, 3)
        # Histogram matching is gray-only by default: colour passes through.
        assert (np.sort(result.image.ravel()) == np.sort(inp.ravel())).all()

    @pytest.mark.parametrize("solver", ["scipy", "hungarian"])
    def test_all_exact_solvers_same_total(self, solver, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(
            inp, tgt, tile_size=8, algorithm="optimization", solver=solver
        )
        reference = generate_photomosaic(
            inp, tgt, tile_size=8, algorithm="optimization", solver="scipy"
        )
        assert result.total_error == reference.total_error

    def test_histogram_match_flag(self, small_pair):
        inp, tgt = small_pair
        on = generate_photomosaic(inp, tgt, tile_size=8, histogram_match=True)
        off = generate_photomosaic(inp, tgt, tile_size=8, histogram_match=False)
        # Without adjustment the pixel multiset is the raw input's.
        assert (np.sort(off.image.ravel()) == np.sort(inp.ravel())).all()
        assert on.total_error != off.total_error


class TestPyramidAlgorithm:
    def test_runs_end_to_end(self, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(inp, tgt, tile_size=8, algorithm="pyramid")
        assert result.image.shape == inp.shape
        assert result.meta["pyramid_factor"] == 2
        assert result.meta["coarse_total"] > 0

    def test_quality_between_optimal_and_identity(self, small_pair):
        inp, tgt = small_pair
        pyramid = generate_photomosaic(inp, tgt, tile_size=8, algorithm="pyramid")
        optimal = generate_photomosaic(
            inp, tgt, tile_size=8, algorithm="optimization"
        )
        assert pyramid.total_error >= optimal.total_error
        assert pyramid.total_error <= 1.1 * optimal.total_error

    def test_custom_factor(self, small_pair):
        inp, tgt = small_pair
        result = generate_photomosaic(
            inp, tgt, tile_size=8, algorithm="pyramid", pyramid_factor=4
        )
        assert result.meta["pyramid_factor"] == 4

    def test_rearrange_stage_rejects_pyramid(self, small_error_matrix):
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8, algorithm="pyramid"))
        with pytest.raises(ValidationError, match="tile stacks"):
            gen.rearrange(small_error_matrix)

    def test_pyramid_with_transforms_rejected(self):
        with pytest.raises(ValidationError, match="cannot combine"):
            MosaicConfig(algorithm="pyramid", allow_transforms=True)


class TestStagedAPI:
    def test_build_error_matrix(self, small_pair):
        inp, tgt = small_pair
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8))
        grid, matrix = gen.build_error_matrix(inp, tgt)
        assert grid.tile_count == 64
        assert matrix.shape == (64, 64)

    def test_rearrange_stage(self, small_error_matrix):
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8, algorithm="parallel"))
        perm, trace, meta = gen.rearrange(small_error_matrix)
        assert perm.shape == (64,)
        assert trace is not None
        assert "kernel_launches" in meta

    def test_preprocess_matches_histograms(self, small_pair):
        inp, tgt = small_pair
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8))
        adjusted = gen.preprocess(inp, tgt)
        assert (adjusted == match_histogram(inp, tgt)).all()

    def test_preprocess_disabled(self, small_pair):
        inp, tgt = small_pair
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8, histogram_match=False))
        assert gen.preprocess(inp, tgt) is inp


class TestColorHistogramMatch:
    """The Section-II adjustment is intensity-only; colour behaviour is an
    explicit choice: warn-and-skip (default) or per-channel matching."""

    @pytest.fixture()
    def color_pair(self, rng):
        return (
            rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8),
            rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8),
        )

    def test_skip_warns_by_default(self, color_pair):
        inp, tgt = color_pair
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8))
        with pytest.warns(UserWarning, match="color_histogram_match"):
            assert gen.preprocess(inp, tgt) is inp

    def test_disabled_matching_does_not_warn(self, color_pair):
        import warnings

        inp, tgt = color_pair
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8, histogram_match=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gen.preprocess(inp, tgt) is inp

    def test_per_channel_matching(self, color_pair):
        inp, tgt = color_pair
        gen = PhotomosaicGenerator(
            MosaicConfig(tile_size=8, color_histogram_match=True)
        )
        adjusted = gen.preprocess(inp, tgt)
        assert adjusted.shape == inp.shape
        for channel in range(3):
            expected = match_histogram(inp[..., channel], tgt[..., channel])
            assert (adjusted[..., channel] == expected).all()

    def test_per_channel_end_to_end(self, color_pair):
        inp, tgt = color_pair
        result = generate_photomosaic(
            inp, tgt, tile_size=8, metric="color", color_histogram_match=True
        )
        assert result.image.shape == inp.shape

    def test_mixed_ndim_warns_and_skips(self, color_pair, small_pair):
        inp_color, _ = color_pair
        _, tgt_gray = small_pair
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8))
        with pytest.warns(UserWarning, match="skipped"):
            assert gen.preprocess(inp_color, tgt_gray[:32, :32]) is inp_color


class TestArtifactCacheHooks:
    def test_second_run_hits_cache(self, small_pair):
        from repro.service.cache import ArtifactCache

        inp, tgt = small_pair
        cache = ArtifactCache()
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8), cache=cache)
        first = gen.generate(inp, tgt)
        second = gen.generate(inp, tgt)
        assert first.meta["cache"] == {
            "step1_input": "miss", "step1_target": "miss", "step2_matrix": "miss"
        }
        assert second.meta["cache"] == {
            "step1_input": "hit", "step1_target": "hit", "step2_matrix": "hit"
        }
        assert second.total_error == first.total_error

    def test_shared_target_hits_target_tiles(self, small_pair):
        from repro.imaging import standard_image
        from repro.service.cache import ArtifactCache

        inp, tgt = small_pair
        cache = ArtifactCache()
        gen = PhotomosaicGenerator(MosaicConfig(tile_size=8), cache=cache)
        gen.generate(inp, tgt)
        other = gen.generate(standard_image("peppers", 64), tgt)
        assert other.meta["cache"]["step1_target"] == "hit"
        assert other.meta["cache"]["step2_matrix"] == "miss"  # new input

    def test_cached_equals_uncached(self, small_pair):
        from repro.service.cache import ArtifactCache

        inp, tgt = small_pair
        config = MosaicConfig(tile_size=8, algorithm="optimization")
        cached = PhotomosaicGenerator(config, cache=ArtifactCache())
        plain = PhotomosaicGenerator(config)
        assert (
            cached.generate(inp, tgt).total_error
            == plain.generate(inp, tgt).total_error
        )

    def test_metric_change_misses_matrix_cache(self, small_pair):
        from repro.service.cache import ArtifactCache

        inp, tgt = small_pair
        cache = ArtifactCache()
        sad = PhotomosaicGenerator(MosaicConfig(tile_size=8, metric="sad"), cache=cache)
        ssd = PhotomosaicGenerator(MosaicConfig(tile_size=8, metric="ssd"), cache=cache)
        sad.generate(inp, tgt)
        result = ssd.generate(inp, tgt)
        assert result.meta["cache"]["step2_matrix"] == "miss"
        assert result.meta["cache"]["step1_input"] == "hit"  # tiles metric-free

    def test_no_cache_means_no_meta(self, small_pair):
        inp, tgt = small_pair
        result = PhotomosaicGenerator(MosaicConfig(tile_size=8)).generate(inp, tgt)
        assert "cache" not in result.meta

    def test_transforms_cached_with_orientations(self, small_pair):
        from repro.service.cache import ArtifactCache

        inp, tgt = small_pair
        cache = ArtifactCache()
        gen = PhotomosaicGenerator(
            MosaicConfig(tile_size=8, allow_transforms=True), cache=cache
        )
        first = gen.generate(inp, tgt)
        second = gen.generate(inp, tgt)
        assert second.meta["cache"]["step2_matrix"] == "hit"
        assert (second.meta["orientations"] == first.meta["orientations"]).all()
        assert second.total_error == first.total_error
