"""Target construction: conservation, normalization, and label semantics."""

import numpy as np
import pytest

from countgrad.raster import PointAnnotations, disk_mask, render_scene, square_mask, ShapePaint
from countgrad.targets import (
    CardinalityMap,
    WeakGrids,
    default_sigma,
    gaussian_density,
    grid_cardinality,
    pixel_cardinality,
    strong_class_grid,
    weak_label_grids,
)


def random_masks(rng, shape=(64, 64), max_n=10):
    masks = []
    for _ in range(rng.integers(0, max_n + 1)):
        r = rng.uniform(8, shape[0] - 8)
        c = rng.uniform(8, shape[1] - 8)
        if rng.random() < 0.5:
            masks.append(disk_mask((r, c), rng.uniform(1.5, 6), shape))
        else:
            masks.append(square_mask((r, c), rng.uniform(1.0, 5), shape))
    return masks


class TestPixelCardinality:
    def test_single_mask_uniform_mass(self):
        m = square_mask((3.5, 3.5), 0.6, (8, 8))  # 2x2 footprint
        assert m.area == 4
        grid = pixel_cardinality([m], (8, 8))
        assert np.all(grid[m.pixels] == 0.25)
        assert grid.sum() == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_masks_total(self):
        a = square_mask((2.0, 2.0), 0.5, (16, 16))
        b = disk_mask((10.0, 10.0), 1.2, (16, 16))
        grid = pixel_cardinality([a, b], (16, 16))
        assert grid.sum() == pytest.approx(2.0, abs=1e-12)

    def test_overlap_adds(self):
        # two 1x2 dominoes sharing one pixel, areas 2 and 2
        pa = np.zeros((4, 4), dtype=bool)
        pa[1, 1:3] = True
        pb = np.zeros((4, 4), dtype=bool)
        pb[1, 2:4] = True
        from countgrad.raster import InstanceMask

        grid = pixel_cardinality([InstanceMask(pa), InstanceMask(pb)], (4, 4))
        assert grid[1, 2] == pytest.approx(1.0)
        assert grid.sum() == pytest.approx(2.0, abs=1e-12)

    def test_shape_mismatch(self):
        m = square_mask((2.0, 2.0), 0.5, (8, 8))
        with pytest.raises(ValueError):
            pixel_cardinality([m], (16, 16))


class TestGridCardinality:
    def test_mask_within_one_cell(self):
        m = square_mask((3.0, 3.0), 1.0, (64, 64))
        cmap = grid_cardinality(pixel_cardinality([m], (64, 64)))
        assert cmap.grid[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert cmap.grid.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(cmap.grid) == 1

    def test_straddling_mask_splits_evenly(self):
        # 2x2 square centered on the cell boundary at column 8
        m = square_mask((4.0, 7.5), 0.9, (64, 64))
        cmap = grid_cardinality(pixel_cardinality([m], (64, 64)))
        assert cmap.grid[0, 0] == pytest.approx(0.5)
        assert cmap.grid[0, 1] == pytest.approx(0.5)

    def test_conservation_random_scenes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            masks = random_masks(rng)
            cmap = grid_cardinality(pixel_cardinality(masks, (64, 64)))
            q = len(masks)
            assert abs(cmap.total - q) <= 1e-9 * max(q, 1)

    def test_order_invariance(self):
        rng = np.random.default_rng(12)
        masks = random_masks(rng, max_n=8)
        while len(masks) < 2:
            masks = random_masks(rng, max_n=8)
        g1 = grid_cardinality(pixel_cardinality(masks, (64, 64)))
        g2 = grid_cardinality(pixel_cardinality(masks[::-1], (64, 64)))
        np.testing.assert_allclose(g1.grid, g2.grid, atol=1e-12)

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            grid_cardinality(np.zeros((60, 64)))

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError):
            CardinalityMap(np.array([[-0.1]]))


class TestGaussianDensity:
    def test_single_point_unit_mass(self):
        d = gaussian_density(np.array([[32, 32]]), 4.0, (64, 64))
        assert d.sum() == pytest.approx(1.0, abs=1e-6)

    def test_k_points_total(self):
        rng = np.random.default_rng(13)
        pts = rng.integers(0, 64, size=(9, 2))
        d = gaussian_density(pts, 3.0, (64, 64))
        assert d.sum() == pytest.approx(9.0, abs=9e-6)

    def test_corner_point_renormalized(self):
        d = gaussian_density(np.array([[0, 0]]), 6.0, (64, 64))
        assert d.sum() == pytest.approx(1.0, abs=1e-6)

    def test_totals_match_cardinality_within_one_percent(self):
        rng = np.random.default_rng(14)
        masks = [disk_mask(tuple(rng.uniform(12, 52, 2)), 4.0, (64, 64)) for _ in range(5)]
        cmap = grid_cardinality(pixel_cardinality(masks, (64, 64)))
        pts = np.array([[int(np.mean(np.nonzero(m.pixels)[0])), int(np.mean(np.nonzero(m.pixels)[1]))] for m in masks])
        d = gaussian_density(pts, default_sigma(masks), (64, 64))
        assert abs(d.sum() - cmap.total) <= 0.01 * cmap.total

    def test_out_of_bounds_point(self):
        with pytest.raises(ValueError):
            gaussian_density(np.array([[70, 2]]), 2.0, (64, 64))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_density(np.array([[1, 1]]), 0.0, (64, 64))


class TestStrongClassGrid:
    def test_empty_scene(self):
        g = strong_class_grid([], (64, 64))
        assert not g.any()

    def test_returns_bool_grid_array(self):
        g = strong_class_grid([square_mask((20.0, 30.0), 3.0, (64, 64))], (64, 64))
        assert type(g) is np.ndarray
        assert g.dtype == np.bool_ and g.shape == (8, 8)

    def test_full_cell_coverage(self):
        m = square_mask((3.5, 3.5), 3.9, (64, 64))  # covers pixels 0..7 exactly
        assert m.area == 64
        g = strong_class_grid([m], (64, 64))
        assert g[0, 0]
        assert g.sum() == 1

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(15)
        masks = random_masks(rng)
        g = strong_class_grid(masks, (64, 64))
        for u in range(8):
            for v in range(8):
                expect = any(
                    m.pixels[u * 8 : (u + 1) * 8, v * 8 : (v + 1) * 8].any() for m in masks
                )
                assert g[u, v] == expect


class TestWeakLabelGrids:
    def test_distinct_cells(self):
        pts = PointAnnotations(np.array([[4, 4], [20, 20], [40, 40]]), np.array([[60, 60]]))
        wg = weak_label_grids(pts, (64, 64))
        assert wg.positive.sum() == 3
        assert wg.count == 3
        assert wg.negative.sum() == 1

    def test_positive_collision_preserves_k(self):
        pts = PointAnnotations(np.array([[1, 1], [2, 2]]), np.zeros((0, 2), dtype=int))
        wg = weak_label_grids(pts, (64, 64))
        assert wg.positive.sum() == 1
        assert wg.count == 2

    def test_positive_wins_over_negative(self):
        pts = PointAnnotations(np.array([[1, 1]]), np.array([[2, 2]]))
        wg = weak_label_grids(pts, (64, 64))
        assert wg.positive[0, 0]
        assert not wg.negative[0, 0]
        assert wg.annotated.sum() == 1

    @pytest.mark.parametrize("row", [58, 10])  # in the last 4 rows, and above them
    def test_divisibility_guard(self, row):
        pts = PointAnnotations(np.array([[row, 10]]), np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError, match="does not divide"):
            weak_label_grids(pts, (60, 64))

    def test_disjointness_enforced_by_type(self):
        both = np.zeros((2, 2), dtype=bool)
        both[0, 0] = True
        with pytest.raises(ValueError):
            WeakGrids(both, both, 1)

    def test_scene_round_trip(self):
        # labels derived from a rendered scene locate its instances
        a = disk_mask((10.0, 10.0), 3.0, (64, 64))
        b = disk_mask((40.0, 50.0), 4.0, (64, 64))
        scene = render_scene([ShapePaint(0, a, 0.8), ShapePaint(0, b, 0.8)], (64, 64))
        pts = PointAnnotations(np.array([[10, 10], [40, 50]]), np.array([[0, 63]]))
        pts.validate_against(scene, 0)
        wg = weak_label_grids(pts, (64, 64))
        assert wg.positive[1, 1] and wg.positive[5, 6]
        assert wg.count == 2


class TestDefaultSigma:
    def test_floor_and_scaling(self):
        assert default_sigma([]) == 1.0
        big = square_mask((32.0, 32.0), 10.0, (64, 64))
        assert default_sigma([big]) == pytest.approx(0.25 * np.sqrt(big.area))
        tiny = square_mask((2.0, 2.0), 0.5, (64, 64))
        assert default_sigma([tiny]) == 1.0
