"""Scene construction, occlusion bookkeeping, rescaling, and the component oracle."""

import re
import time

import numpy as np
import pytest
from scipy import ndimage  # test-only reference for the component oracle

from countgrad import autodiff as ad
from countgrad.harness import init_blob_params, render_blob_scene
from countgrad.raster import (
    ORACLE_THRESHOLD,
    InstanceMask,
    PointAnnotations,
    Scene,
    SceneInstance,
    ShapePaint,
    _linear_weights,
    disk_mask,
    downscale_and_pad,
    downscale_image,
    oracle_count_components,
    render_scene,
    square_mask,
)


def brute_force_disk_area(center, radius, shape):
    # independent pixel-by-pixel oracle
    n = 0
    for i in range(shape[0]):
        for j in range(shape[1]):
            if (i - center[0]) ** 2 + (j - center[1]) ** 2 <= radius**2:
                n += 1
    return n


def looped_linear_weights(n_out, n_in, ratio):
    # the row-by-row construction the vectorized sampling matrix replaced
    w = np.zeros((n_out, n_in))
    for i in range(n_out):
        s = min(max((i + 0.5) * ratio - 0.5, 0.0), n_in - 1.0)
        i0 = int(np.floor(s))
        frac = s - i0
        w[i, i0] += 1.0 - frac
        w[i, min(i0 + 1, n_in - 1)] += frac
    return w


def looped_render(paints, shape, background):
    # the occlusion loop the owner canvas replaced: each new paint clears
    # its pixels from every earlier paint's visible mask
    image = np.full(shape, background, dtype=np.float64)
    visible = []
    for paint in paints:
        image[paint.mask.pixels] = paint.intensity
        visible.append(paint.mask.pixels.copy())
        for earlier in visible[:-1]:
            earlier &= ~paint.mask.pixels
    return image, visible


def random_stack(rng, shape=(24, 24)):
    paints = []
    for _ in range(int(rng.integers(1, 41))):
        size = rng.uniform(1.0, 5.0)
        center = tuple(rng.uniform(6.0, 17.0, size=2))
        maker = disk_mask if rng.random() < 0.5 else square_mask
        paints.append(ShapePaint(int(rng.integers(2)), maker(center, size, shape), rng.uniform(0.3, 1.0)))
    return paints


class TestMasks:
    def test_square_footprint(self):
        m = square_mask((4.0, 4.0), 1.0, (8, 8))
        assert m.area == 9
        assert m.pixels[3:6, 3:6].all()

    def test_disk_matches_brute_force(self):
        for center, radius in [((10.0, 12.0), 4.0), ((20.5, 15.5), 6.3), ((16.0, 16.0), 2.0)]:
            m = disk_mask(center, radius, (32, 32))
            assert m.area == brute_force_disk_area(center, radius, (32, 32))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            disk_mask((2.0, 2.0), 4.0, (16, 16))
        with pytest.raises(ValueError):
            square_mask((15.0, 8.0), 2.0, (16, 16))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            InstanceMask(np.zeros((4, 4), dtype=bool))

    def test_subpixel_exactly_when_maskless(self):
        assert SceneInstance(0, None).subpixel
        assert not SceneInstance(0, square_mask((4.0, 4.0), 1.0, (8, 8))).subpixel


class TestRenderScene:
    def test_single_square(self):
        m = square_mask((4.0, 4.0), 1.0, (8, 8))
        scene = render_scene([ShapePaint(0, m, 0.8)], (8, 8))
        assert scene.count() == 1
        assert scene.instances[0].mask.area == 9
        assert scene.image[4, 4] == 0.8
        assert scene.image[0, 0] == 0.1

    def test_two_disjoint_disks(self):
        a = disk_mask((8.0, 8.0), 3.0, (32, 32))
        b = disk_mask((22.0, 22.0), 4.0, (32, 32))
        scene = render_scene([ShapePaint(0, a, 0.7), ShapePaint(1, b, 0.9)], (32, 32))
        assert scene.count() == 2
        assert scene.count(0) == 1 and scene.count(1) == 1
        areas = sorted(i.mask.area for i in scene.instances)
        assert areas == sorted([a.area, b.area])

    def test_full_occlusion_drops_instance(self):
        small = square_mask((8.0, 8.0), 1.0, (16, 16))
        big = square_mask((8.0, 8.0), 3.0, (16, 16))
        scene = render_scene([ShapePaint(0, small, 0.5), ShapePaint(0, big, 0.9)], (16, 16))
        assert scene.count() == 1
        assert scene.instances[0].mask.area == big.area

    def test_partial_occlusion_keeps_visible_pixels(self):
        back = square_mask((8.0, 6.0), 2.0, (16, 16))
        front = square_mask((8.0, 9.0), 2.0, (16, 16))
        scene = render_scene([ShapePaint(0, back, 0.5), ShapePaint(0, front, 0.9)], (16, 16))
        assert scene.count() == 2
        vis_back = next(i.mask for i in scene.instances if i.mask.area < back.area)
        assert not (vis_back.pixels & front.pixels).any()
        # visible + occluded pixels reconstruct the original footprint
        assert vis_back.area == back.area - int((back.pixels & front.pixels).sum())

    def test_random_stacks_equal_the_looped_occlusion_bit_for_bit(self):
        rng = np.random.default_rng(11)
        dropped = 0
        for _ in range(60):
            paints = random_stack(rng)
            scene = render_scene(paints, (24, 24))
            image, visible = looped_render(paints, (24, 24), 0.1)
            kept = [(p.category_id, v) for p, v in zip(paints, visible) if v.any()]
            dropped += len(paints) - len(kept)
            assert scene.image.tobytes() == image.tobytes()
            assert [i.category_id for i in scene.instances] == [c for c, _ in kept]
            for inst, (_, v) in zip(scene.instances, kept):
                assert np.array_equal(inst.mask.pixels, v)
        assert dropped > 0  # some stacks hide whole instances

    def test_low_contrast_rejected(self):
        m = square_mask((4.0, 4.0), 1.0, (8, 8))
        with pytest.raises(ValueError):
            render_scene([ShapePaint(0, m, 0.25)], (8, 8), background=0.1)

    def test_noise_stays_in_range_and_needs_rng(self):
        m = square_mask((4.0, 4.0), 1.0, (8, 8))
        rng = np.random.default_rng(0)
        scene = render_scene([ShapePaint(0, m, 0.95)], (8, 8), noise_amplitude=0.1, rng=rng)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
        with pytest.raises(ValueError):
            render_scene([ShapePaint(0, m, 0.95)], (8, 8), noise_amplitude=0.1)

    def test_empty_scene(self):
        scene = render_scene([], (8, 8))
        assert scene.count() == 0
        np.testing.assert_array_equal(scene.image, np.full((8, 8), 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        # NaN fails neither side of the [0, 1] range comparison
        image = np.full((8, 8), 0.5)
        image[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            Scene(image, (), 0.1)


class TestDownscaleAndPad:
    def make_scene(self, seed=0, n=4):
        rng = np.random.default_rng(seed)
        paints = []
        for _ in range(n):
            r = rng.uniform(10, 54)
            c = rng.uniform(10, 54)
            paints.append(ShapePaint(0, disk_mask((r, c), rng.uniform(3, 6), (64, 64)), 0.8))
        return render_scene(paints, (64, 64), noise_amplitude=0.02, rng=rng)

    def test_ratio_one_is_identity(self):
        scene = self.make_scene()
        out = downscale_and_pad(scene, 1.0)
        np.testing.assert_array_equal(out.image, scene.image)
        for a, b in zip(out.instances, scene.instances):
            np.testing.assert_array_equal(a.mask.pixels, b.mask.pixels)

    def test_ratio_two_occupies_top_left(self):
        scene = self.make_scene()
        out = downscale_and_pad(scene, 2.0)
        assert out.shape == scene.shape
        # everything outside the 32x32 corner is background
        assert np.all(out.image[32:, :] == scene.background)
        assert np.all(out.image[:, 32:] == scene.background)
        assert out.image[:32, :32].max() > scene.background

    def test_counts_preserved_at_every_ratio(self):
        scene = self.make_scene(seed=3, n=6)
        for ratio in [1.0, 1.5, 2.0, 3.0, 4.0, 8.0]:
            out = downscale_and_pad(scene, ratio)
            cats = {i.category_id for i in (*scene.instances, *out.instances)}
            assert {c: out.count(c) for c in cats} == {c: scene.count(c) for c in cats}

    def test_disk_area_scales_quadratically(self):
        m = disk_mask((32.0, 32.0), 8.0, (64, 64))
        scene = render_scene([ShapePaint(0, m, 0.8)], (64, 64))
        out = downscale_and_pad(scene, 2.0)
        shrunk = out.instances[0].mask.area
        assert abs(shrunk - m.area / 4) <= 0.2 * m.area / 4

    def test_subpixel_flagging(self):
        m = disk_mask((32.0, 32.0), 1.0, (64, 64))
        scene = render_scene([ShapePaint(0, m, 0.8)], (64, 64))
        out = downscale_and_pad(scene, 8.0)
        assert out.count() == 1
        inst = out.instances[0]
        assert inst.mask is None and inst.subpixel

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            downscale_and_pad(self.make_scene(), 0.5)
        with pytest.raises(ValueError):
            downscale_image(self.make_scene().image, 0.5, 0.1)

    @pytest.mark.parametrize("n_in", [64, 128, 37])
    @pytest.mark.parametrize("ratio", [1.0, 1.37, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_linear_weights_equal_row_loop_bitwise(self, n_in, ratio):
        n_out = max(1, round(n_in / ratio))
        np.testing.assert_array_equal(
            _linear_weights(n_out, n_in, ratio), looped_linear_weights(n_out, n_in, ratio)
        )

    def test_masks_stay_boolean_and_inside_corner(self):
        scene = self.make_scene(seed=5)
        out = downscale_and_pad(scene, 3.0)
        h2 = round(64 / 3.0)
        for inst in out.instances:
            if inst.mask is None:
                continue
            assert inst.mask.pixels.dtype == np.bool_
            assert not inst.mask.pixels[h2:, :].any()
            assert not inst.mask.pixels[:, h2:].any()


class TestOracle:
    def test_blank_image(self):
        assert oracle_count_components(np.full((16, 16), 0.1), 0.5) == 0

    def test_two_disjoint_disks(self):
        a = disk_mask((8.0, 8.0), 3.0, (32, 32))
        b = disk_mask((22.0, 22.0), 4.0, (32, 32))
        scene = render_scene([ShapePaint(0, a, 0.9), ShapePaint(0, b, 0.9)], (32, 32))
        assert oracle_count_components(scene.image, 0.5) == 2

    def test_overlapping_disks_merge(self):
        a = disk_mask((15.0, 13.0), 4.0, (32, 32))
        b = disk_mask((15.0, 17.0), 4.0, (32, 32))
        scene = render_scene([ShapePaint(0, a, 0.9), ShapePaint(0, b, 0.9)], (32, 32))
        assert oracle_count_components(scene.image, 0.5) == 1

    def test_diagonal_touch_counts_separately(self):
        img = np.zeros((4, 4))
        img[0, 0] = 1.0
        img[1, 1] = 1.0
        assert oracle_count_components(img, 0.5) == 2

    def test_matches_q_on_disjoint_scenes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            paints = []
            centers = []
            for _ in range(rng.integers(0, 8)):
                for _attempt in range(100):
                    r, c = rng.uniform(8, 56, size=2)
                    rad = rng.uniform(2, 5)
                    if all((r - rr) ** 2 + (c - cc) ** 2 > (rad + rr2 + 2) ** 2 for rr, cc, rr2 in centers):
                        centers.append((r, c, rad))
                        paints.append(ShapePaint(0, disk_mask((r, c), rad, (64, 64)), 0.8))
                        break
            scene = render_scene(paints, (64, 64), noise_amplitude=0.02, rng=rng)
            assert oracle_count_components(scene.image, 0.45) == scene.count()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            oracle_count_components(np.zeros((4, 4)), 1.5)

    @pytest.mark.parametrize("shape", [(3, 16, 16), (16,), ()])
    def test_rejects_anything_but_one_2d_image(self, shape):
        with pytest.raises(ValueError, match=rf"one 2-d image, got shape {re.escape(str(shape))}"):
            oracle_count_components(np.zeros(shape), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pixels(self, bad):
        img = np.zeros((8, 8))
        img[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite pixels"):
            oracle_count_components(img, 0.5)


def scipy_count(image, threshold):
    return ndimage.label(image > threshold)[1]  # default structure: the 4-connected cross


def serpentine(n):
    """Every even row set, odd rows joined at alternating ends: one path through n²/2 pixels."""
    img = np.zeros((n, n))
    img[::2] = 1.0
    img[1::4, -1] = 1.0
    img[3::4, 0] = 1.0
    return img


class TestOracleMatchesScipyLabel:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_thresholded_images(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            h, w = rng.integers(1, 48, size=2)
            noise = rng.random((h, w))
            blobs = ndimage.gaussian_filter(noise, 1.5)
            for img in (noise, blobs):
                t = float(rng.choice([rng.uniform(0.05, 0.95), np.median(img)]))
                assert oracle_count_components(img, t) == scipy_count(img, t)

    @pytest.mark.parametrize("shape", [(32, 32), (31, 32), (1, 17), (17, 1)])
    def test_checkerboard_pixels_are_each_alone(self, shape):
        img = (np.indices(shape).sum(axis=0) % 2).astype(float)
        n = oracle_count_components(img, 0.5)
        assert n == scipy_count(img, 0.5) == int(img.sum())

    @pytest.mark.parametrize("n_on", [1, 4, 8, 12])
    def test_rendered_guidance_scenes(self, n_on):
        # what every caller passes: a 64 px blob render at the guidance cutoff
        rng = np.random.default_rng(n_on)
        for grow in (0.0, 1.0, 2.0, 3.0):  # the widest radii merge some neighbours
            params = init_blob_params(rng, n_slots=12, n_on=n_on)
            params = params.with_values({"radius_raw": params.radius_raw + grow})
            img = render_blob_scene(ad.Tape(), params, params.as_dict())
            assert oracle_count_components(img, ORACLE_THRESHOLD) == scipy_count(img, ORACLE_THRESHOLD)

    @pytest.mark.parametrize("case", ["serpentine", "serpentine_transposed", "noise"])
    def test_heavy_64px_images_in_bounded_time(self, case):
        if case == "noise":
            img = np.random.default_rng(0).random((64, 64))  # ~1000 short runs and their edges
            expected = scipy_count(img, 0.5)
        else:
            img = serpentine(64).T.copy() if case == "serpentine_transposed" else serpentine(64)
            assert img.sum() == 2080
            expected = 1
        assert scipy_count(img, 0.5) == expected
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            assert oracle_count_components(img, 0.5) == expected
            times.append(time.perf_counter() - t0)
        # about 0.05 ms on the serpentine, 0.5 ms on its transpose (2048
        # one-pixel runs) and 0.25 ms on noise; a propagation one pixel per
        # step would take ~2000 steps on the serpentine
        assert min(times) < 0.01

    @pytest.mark.parametrize(
        "img, expected",
        [
            (np.zeros((0, 0)), 0),
            (np.zeros((0, 5)), 0),
            (np.zeros((9, 9)), 0),
            (np.ones((9, 9)), 1),
            (np.ones((1, 1)), 1),
            (np.zeros((1, 1)), 0),
            (np.pad(np.ones((1, 1)), ((3, 4), (5, 2))), 1),
        ],
    )
    def test_empty_full_and_single_pixel(self, img, expected):
        assert oracle_count_components(img, 0.5) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_strips(self, seed):
        rng = np.random.default_rng(seed)
        row = rng.random((1, 200))
        for img in (row, row.T, np.ones((1, 50)), np.ones((50, 1))):
            assert oracle_count_components(img, 0.5) == scipy_count(img, 0.5)


class TestPointAnnotations:
    def test_validation(self):
        m = square_mask((4.0, 4.0), 1.0, (8, 8))
        scene = render_scene([ShapePaint(0, m, 0.8)], (8, 8))
        good = PointAnnotations(np.array([[4, 4]]), np.array([[0, 0]]))
        good.validate_against(scene, 0)
        with pytest.raises(ValueError):
            PointAnnotations(np.array([[0, 0]]), np.zeros((0, 2), dtype=int)).validate_against(scene, 0)
        with pytest.raises(ValueError):
            PointAnnotations(np.array([[4, 4]]), np.array([[4, 3]])).validate_against(scene, 0)
        with pytest.raises(ValueError):
            PointAnnotations(np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int)).validate_against(scene, 0)

    def test_validation_sees_one_category(self):
        # a target square (category 0) and a distractor square (category 1)
        target = square_mask((4.0, 4.0), 1.0, (16, 16))
        distractor = square_mask((11.0, 11.0), 1.0, (16, 16))
        scene = render_scene([ShapePaint(0, target, 0.8), ShapePaint(1, distractor, 0.6)], (16, 16))
        none = np.zeros((0, 2), dtype=int)
        # the distractor is neither counted nor a mask of the target category
        PointAnnotations(np.array([[4, 4]]), np.array([[11, 11]])).validate_against(scene, 0)
        PointAnnotations(np.array([[11, 11]]), np.array([[4, 4]])).validate_against(scene, 1)
        with pytest.raises(ValueError, match="lies on no mask"):
            PointAnnotations(np.array([[11, 11]]), none).validate_against(scene, 0)
        with pytest.raises(ValueError, match="2 positive points for 1 instances"):
            PointAnnotations(np.array([[4, 4], [11, 11]]), none).validate_against(scene, 0)
        with pytest.raises(ValueError, match="lies on a mask"):
            PointAnnotations(np.array([[11, 11]]), np.array([[11, 10]])).validate_against(scene, 1)
