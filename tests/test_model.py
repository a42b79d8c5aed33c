"""Network contracts: shapes, ranges, gradients, count extraction, checkpoints."""

import json
import math
import zlib

import numpy as np
import pytest

from countgrad import autodiff as ad
from countgrad.model import (
    IMAGES_PER_FORWARD,
    CheckpointError,
    CountModel,
    ModelConfig,
    count_above,
    load_checkpoint,
    save_checkpoint,
)

SMALL = ModelConfig(input_size=16, channels=(2, 3, 4), fused_channels=4, embed_dim=3, seed=1)


def random_image(rng, size=64):
    return rng.uniform(0.0, 1.0, (size, size))


class TestForward:
    def test_output_shapes_and_ranges(self):
        model = CountModel.create()
        rng = np.random.default_rng(0)
        y_cnt, y_cls = model.forward(random_image(rng), 0)
        assert y_cnt.shape == (8, 8) and y_cls.shape == (8, 8)
        assert (y_cnt >= 0).all()
        assert ((y_cls > 0) & (y_cls < 1)).all()

    def test_determinism(self):
        model = CountModel.create()
        rng = np.random.default_rng(1)
        img = random_image(rng)
        a_cnt, a_cls = model.forward(img, 1)
        b_cnt, b_cls = model.forward(img, 1)
        np.testing.assert_array_equal(a_cnt, b_cnt)
        np.testing.assert_array_equal(a_cls, b_cls)

    def test_input_validation(self):
        model = CountModel.create()
        with pytest.raises(ValueError):
            model.forward(np.zeros((32, 32)), 0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((64, 64)), 5)
        # a stack's shape is checked once, before its chunks run
        with pytest.raises(ValueError, match=r"image shape \(5, 32, 32\) does not match"):
            model.forward(np.zeros((5, 32, 32)), 0)
        # guidance's count-only path checks its category and image alike
        with pytest.raises(ValueError, match="unknown category 5"):
            model.frozen_conditioning(5)
        with pytest.raises(ValueError, match=r"image shape \(32, 32\) does not match input size 64"):
            model.count_on_tape(np.zeros((32, 32)), model.frozen_conditioning(0))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_image_rejected(self, bad):
        model = CountModel.create(SMALL)
        image = np.full((16, 16), 0.5)
        image[5, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            model.predict_count(image, 0)
        with pytest.raises(ValueError, match="finite"):
            model.forward(np.stack([np.zeros((16, 16)), image]), 1)

    def test_category_conditioning_changes_output(self):
        model = CountModel.create()
        rng = np.random.default_rng(2)
        img = random_image(rng)
        a, _ = model.forward(img, 0)
        b, _ = model.forward(img, 1)
        assert not np.array_equal(a, b)

    def test_embedding_permutation_equivariance(self):
        model = CountModel.create()
        rng = np.random.default_rng(3)
        img = random_image(rng)
        swapped = {k: v.copy() for k, v in model.weights.items()}
        swapped["embed"] = swapped["embed"][[1, 0]]
        twin = CountModel(model.config, swapped)
        for head in (0, 1):
            np.testing.assert_array_equal(
                model.forward(img, 0)[head], twin.forward(img, 1)[head]
            )
            np.testing.assert_array_equal(
                model.forward(img, 1)[head], twin.forward(img, 0)[head]
            )

    def test_batch_rows_match_single_image_forwards(self):
        # rows never interact; they differ from batch-of-1 only by GEMM rounding.
        # The reference is the training forward, which shares no code path
        # with forward's stack beyond the network itself
        model = CountModel.create()
        rng = np.random.default_rng(9)
        images = rng.uniform(0.0, 1.0, (5, 64, 64))
        cats = [0, 1, 1, 0, 1]
        y_cnt, y_cls = model.forward(images, cats)
        assert y_cnt.shape == (5, 8, 8) and y_cls.shape == (5, 8, 8)
        for i, cat in enumerate(cats):
            one = model.forward_on_tape(ad.Tape(), images[i], cat)
            np.testing.assert_allclose(y_cnt[i], one.y_cnt.values, rtol=1e-12, atol=0)
            np.testing.assert_allclose(y_cls[i], ad.sigmoid(one.cls_logits.values), rtol=1e-12, atol=0)

    def test_batch_category_validation(self):
        model = CountModel.create()
        images = np.zeros((3, 64, 64))
        with pytest.raises(ValueError):
            model.forward(images, [0, 1])
        with pytest.raises(ValueError):
            model.forward(images, [0, 1, 2])

    @pytest.mark.parametrize("n", [1, 5, 6, 2 * IMAGES_PER_FORWARD + 1])
    def test_chunked_stack_rows_equal_single_forwards_bitwise(self, n):
        # forward runs a stack in chunks of IMAGES_PER_FORWARD, the last one partial
        model = CountModel.create()
        rng = np.random.default_rng(20 + n)
        images = rng.uniform(0.0, 1.0, (n, 64, 64))
        cats = [i % 2 for i in range(n)]
        for cat_arg, row_cats in ((cats, cats), (1, [1] * n)):
            y_cnt, y_cls = model.forward(images, cat_arg)
            assert y_cnt.shape == (n, 8, 8) and y_cls.shape == (n, 8, 8)
            for i in range(n):
                # a single image is a one-row stack, so the reference is the
                # training forward of that image, its logits through the sigmoid
                one = model.forward_on_tape(ad.Tape(), images[i], row_cats[i])
                np.testing.assert_array_equal(y_cnt[i], one.y_cnt.values)
                np.testing.assert_array_equal(y_cls[i], ad.sigmoid(one.cls_logits.values))

    def test_chunked_stack_category_validation(self):
        model = CountModel.create()
        images = np.zeros((IMAGES_PER_FORWARD + 1, 64, 64))
        with pytest.raises(ValueError, match="category"):
            model.forward(images, [0] * IMAGES_PER_FORWARD)
        with pytest.raises(ValueError, match="category"):
            model.forward(images, [0] * (IMAGES_PER_FORWARD + 2))
        with pytest.raises(ValueError, match="category"):
            model.forward(images, [0] * IMAGES_PER_FORWARD + [2])

    def test_frozen_paths_equal_the_training_forward_bitwise(self):
        # one network definition: frozen weights only fold, never change a bit
        model = CountModel.create(SMALL)
        images = np.random.default_rng(10).uniform(0.0, 1.0, (3, 16, 16))
        cats = [1, 0, 1]
        trained = model.forward_on_tape(ad.Tape(), images, cats)
        y_cnt, y_cls = model.forward(images, cats)
        assert y_cnt.tobytes() == trained.y_cnt.values.tobytes()
        assert y_cls.tobytes() == ad.sigmoid(trained.cls_logits.values).tobytes()
        # a constant image through the guidance forward records nothing
        for i, cat in enumerate(cats):
            grid = model.count_on_tape(images[i : i + 1], model.frozen_conditioning(cat))
            assert isinstance(grid, np.ndarray)
            assert grid.tobytes() == trained.y_cnt.values[i : i + 1].tobytes()

    def test_each_conv_layer_is_one_tape_node(self):
        # 23 weight leaves and 29 interior nodes, the last the class logits;
        # a conv layer's bias and rectifier live inside its conv2d node
        model = CountModel.create(SMALL)
        tape = ad.Tape()
        model.forward_on_tape(tape, np.zeros((IMAGES_PER_FORWARD, 16, 16)), 0)
        assert len(model.weights) == 23
        assert len(tape) == 52
        # guidance: the image is the only leaf, and the count path records
        # its 13 descendants (reshape, three stages, two gates, upsample,
        # concat, fuse, count head, count conv, softplus, reshape)
        tape = ad.Tape()
        model.count_on_tape(ad.new_param(tape, np.zeros((16, 16))), model.frozen_conditioning(0))
        assert len(tape) == 14

    @pytest.mark.parametrize("cat", [0, 1])
    def test_count_on_tape_equals_forward_count_grid_bitwise(self, cat):
        # guidance's count-only path: the training forward's grid and image
        # gradient, with no class head and no weight leaves
        model = CountModel.create(SMALL)
        img = np.random.default_rng(11 + cat).uniform(0.2, 0.8, (16, 16))
        weights = np.random.default_rng(12).normal(size=(2, 2))
        cond = model.frozen_conditioning(cat)

        def grid_and_grad(count_grid):
            tape = ad.Tape()
            x = ad.new_param(tape, img)
            y_cnt = count_grid(x)
            grad = ad.backward(tape, ad.reduce_sum(ad.mul(y_cnt, weights))).wrt(x)
            return y_cnt.values, grad, len(tape)

        ref, ref_grad, ref_nodes = grid_and_grad(lambda x: model.forward_on_tape(x.tape, x, cat).y_cnt)
        got, got_grad, got_nodes = grid_and_grad(lambda x: model.count_on_tape(x, cond))
        assert got.tobytes() == ref.tobytes()
        assert got_grad.tobytes() == ref_grad.tobytes()
        assert np.abs(got_grad).max() > 0.0
        # image leaf, forward and two loss nodes; the count path records
        # no weight leaves, and neither the class head's conv nor its chain
        assert (ref_nodes, got_nodes) == (56, 16)
        stack = np.stack([img, img[::-1], img.T])
        plain = model.count_on_tape(stack, cond)
        assert plain.tobytes() == model.forward_on_tape(ad.Tape(), stack, cat).y_cnt.values.tobytes()

    def test_repeated_forward_stays_finite(self):
        model = CountModel.create(SMALL)
        rng = np.random.default_rng(4)
        for _ in range(200):
            y_cnt, y_cls = model.forward(random_image(rng, 16), int(rng.integers(2)))
            assert np.isfinite(y_cnt).all() and np.isfinite(y_cls).all()


class TestGradients:
    def test_image_gradient_matches_finite_differences(self):
        model = CountModel.create(SMALL)
        rng = np.random.default_rng(5)

        cond = model.frozen_conditioning(0)

        def fn(img):
            return ad.reduce_sum(model.count_on_tape(img, cond))

        # wider stencil than the primitive checks: at depth, h=1e-5 sits in
        # the cancellation-noise regime for small gradient coordinates
        res = ad.grad_check(fn, rng.uniform(0.2, 0.8, (16, 16)), step=3e-4)
        assert res.max_rel_error <= 1e-4

    def test_weight_gradients_match_finite_differences(self):
        # perturb full weight tensors through the training forward
        cfg = SMALL
        base = CountModel.create(cfg)
        rng = np.random.default_rng(6)
        img = rng.uniform(0.2, 0.8, (16, 16))

        for wname in ("cnt_out_k", "cls_proj_w", "attn2_w", "stage3_k", "embed"):
            # the training forward gives the analytic grad; numeric side
            # nudges single weight coordinates through the plain forward
            tape = ad.Tape()
            fp = CountModel(cfg, base.weights).forward_on_tape(tape, img, 1)
            loss = ad.add(ad.reduce_sum(fp.y_cnt), ad.reduce_sum(ad.sigmoid(fp.cls_logits)))
            analytic = ad.backward(tape, loss).wrt(fp.params[wname])

            w0 = base.weights[wname]
            flat = w0.ravel()
            idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            step = 1e-5
            for i in idx:
                for sign, store in ((+1, "p"), (-1, "m")):
                    nudged = dict(base.weights)
                    arr = w0.copy().ravel()
                    arr[i] += sign * step
                    nudged[wname] = arr.reshape(w0.shape)
                    y_cnt, y_cls = CountModel(cfg, nudged).forward(img, 1)
                    if sign > 0:
                        fp_val = y_cnt.sum() + y_cls.sum()
                    else:
                        fm_val = y_cnt.sum() + y_cls.sum()
                numeric = (fp_val - fm_val) / (2 * step)
                a = analytic.ravel()[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                assert rel <= 1e-4, f"{wname}[{i}]: rel {rel:.2e}"

    def test_cls_head_does_not_leak_into_count_gradient(self):
        # the count output must not depend on classification-head weights
        cfg = SMALL
        model = CountModel.create(cfg)
        tape = ad.Tape()
        rng = np.random.default_rng(7)
        fp = model.forward_on_tape(tape, rng.uniform(0.2, 0.8, (16, 16)), 0)
        grads = ad.backward(tape, ad.reduce_sum(fp.y_cnt))
        for name in ("head_cls_k", "cls_proj_w", "cls_logit_scale", "cls_logit_bias"):
            np.testing.assert_array_equal(grads.wrt(fp.params[name]), 0.0)
        assert np.abs(grads.wrt(fp.params["cnt_out_k"])).max() > 0.0


class TestCounts:
    def test_zeroed_count_head_closed_form(self):
        model = CountModel.create()
        model.weights["cnt_out_k"] = np.zeros_like(model.weights["cnt_out_k"])
        rng = np.random.default_rng(8)
        expect = np.logaddexp(0.0, -3.0) * 64
        assert model.predict_count(random_image(rng), 0) == pytest.approx(expect, rel=1e-12)

    def test_count_nonnegative(self):
        model = CountModel.create()
        rng = np.random.default_rng(9)
        for _ in range(5):
            assert model.predict_count(random_image(rng), 0) >= 0.0

    def test_threshold_zero_bit_exact(self):
        model = CountModel.create()
        rng = np.random.default_rng(10)
        for _ in range(20):
            img = random_image(rng)
            assert model.thresholded_count(img, 0, 0.0) == model.predict_count(img, 0)

    def test_threshold_monotone(self):
        model = CountModel.create()
        rng = np.random.default_rng(11)
        img = random_image(rng)
        counts = [model.thresholded_count(img, 0, k) for k in np.arange(0.0, 0.95, 0.05)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_threshold_high_cuts_everything(self):
        model = CountModel.create()
        rng = np.random.default_rng(12)
        assert model.thresholded_count(random_image(rng), 0, 0.999999) == 0.0

    def test_kappa_validation(self):
        model = CountModel.create()
        with pytest.raises(ValueError):
            model.thresholded_count(np.zeros((64, 64)), 0, 1.0)

    def test_tiled_single_tile_equals_predict(self):
        model = CountModel.create()
        rng = np.random.default_rng(13)
        img = random_image(rng)
        assert model.tiled_count(img, 0) == model.predict_count(img, 0)

    def test_tiled_additivity(self):
        model = CountModel.create()
        rng = np.random.default_rng(14)
        big = rng.uniform(0.0, 1.0, (128, 128))
        tiles = [big[i : i + 64, j : j + 64] for i in (0, 64) for j in (0, 64)]
        expect = math.fsum(model.predict_count(t, 0) for t in tiles)
        assert model.tiled_count(big, 0) == expect
        assert model.predict_count(big, 0) == expect

    def test_tiled_pads_ragged_images(self):
        model = CountModel.create()
        rng = np.random.default_rng(15)
        val = model.tiled_count(rng.uniform(0.0, 1.0, (100, 70)), 0)
        assert np.isfinite(val) and val >= 0.0

    @pytest.mark.parametrize("shape", [(100, 70), (192, 128)])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_tiled_count_equals_per_tile_loop_bitwise(self, shape, kappa):
        # (100, 70) pads to 2x2 tiles; (192, 128) is 6 tiles, so one chunk is partial
        model = CountModel.create()
        rng = np.random.default_rng(16)
        img = rng.uniform(0.0, 1.0, shape)
        nr, nc = math.ceil(shape[0] / 64), math.ceil(shape[1] / 64)
        padded = np.full((nr * 64, nc * 64), img.min())
        padded[: shape[0], : shape[1]] = img
        for cat in (0, 1):
            per_tile = [
                model.thresholded_count(padded[i : i + 64, j : j + 64], cat, kappa)
                for i in range(0, nr * 64, 64)
                for j in range(0, nc * 64, 64)
            ]
            assert model.tiled_count(img, cat, kappa=kappa) == math.fsum(per_tile)

    @pytest.mark.parametrize("shape", [(40, 40), (63, 64), (128, 60)])
    def test_images_smaller_than_input_rejected(self, shape):
        model = CountModel.create()
        image = np.zeros(shape)
        msg = rf"image shape \({shape[0]}, {shape[1]}\) does not match input size 64"
        for count in (
            lambda: model.predict_count(image, 0),
            lambda: model.thresholded_count(image, 0, 0.5),
            lambda: model.tiled_count(image, 0),
        ):
            with pytest.raises(ValueError, match=msg):
                count()

    def test_counts_rejects_no_images_and_bad_kappas(self):
        model = CountModel.create()
        image = np.zeros((64, 64))
        with pytest.raises(ValueError, match="no images"):
            model.counts([], 0)
        for empty in ((), np.array([])):
            with pytest.raises(ValueError, match="kappas is empty"):
                model.counts([image], 0, empty)
        with pytest.raises(ValueError, match="kappa must lie"):
            model.counts([image], 0, (0.2, -0.1))

    def test_counts_take_numpy_kappas(self):
        # a numpy array of kappas counts as the same tuple does, bit for bit
        model = CountModel.create()
        images = list(np.random.default_rng(21).uniform(0.0, 1.0, (2, 64, 64)))
        for kappas in ((0.0,), (0.0, 0.5)):
            assert model.counts(images, [0, 1], np.array(kappas)) == model.counts(images, [0, 1], kappas)

    @pytest.mark.parametrize("kappas", [(0.0,), (0.0, 0.3), tuple(i / 10 for i in range(10))])
    def test_counts_equal_count_above_of_forward_grids_bitwise(self, kappas):
        # counts runs the class head only when a kappa is above 0; every
        # count still equals the one thresholding rule over both grids
        model = CountModel.create()
        rng = np.random.default_rng(17)
        img = random_image(rng)
        one = model.forward(img, 1)
        assert model.counts([img], 1, kappas) == [[count_above(*one, k)] for k in kappas]
        # 13 images of both categories: chunks of IMAGES_PER_FORWARD, the last partial
        stack = rng.uniform(0.0, 1.0, (13, 64, 64))
        cats = [i % 3 % 2 for i in range(13)]
        y_cnt, y_cls = model.forward(stack, cats)
        expect = [[count_above(c, p, k) for c, p in zip(y_cnt, y_cls)] for k in kappas]
        assert model.counts(list(stack), cats, kappas) == expect
        # 128 px images, four tiles each
        bigs = [rng.uniform(0.0, 1.0, (128, 128)) for _ in range(3)]
        big_cats = [1, 0, 1]
        tiles = [[b[i : i + 64, j : j + 64] for i in (0, 64) for j in (0, 64)] for b in bigs]
        grids = [[model.forward(t, cat) for t in ts] for ts, cat in zip(tiles, big_cats)]
        expect = [[math.fsum(count_above(*g, k) for g in gs) for gs in grids] for k in kappas]
        assert model.counts(bigs, big_cats, kappas) == expect

    def test_stack_conditioning_built_once_equals_per_chunk_bitwise(self):
        model = CountModel.create()
        w, k = model.weights, IMAGES_PER_FORWARD
        stack = np.random.default_rng(18).uniform(0.0, 1.0, (13, 64, 64))
        # no two chunks share a category pattern, so rows sliced wrongly show
        cats = np.array([i % 3 % 2 for i in range(13)])
        y_cnt, y_cls = model._forward_stack(stack, cats)
        only_cnt, no_cls = model._forward_stack(stack, cats, classes=False)
        assert no_cls is None and only_cnt.tobytes() == y_cnt.tobytes()
        for i in range(0, len(stack), k):
            b = len(stack[i : i + k])
            x = stack[i : i + k].reshape(b, 64, 64, 1)
            cond = model._conditioning(w, cats[i : i + k])
            cnt, logits = model._network(w, x, cond, (b, 8, 8))
            assert cnt.tobytes() == y_cnt[i : i + k].tobytes()
            assert ad.sigmoid(logits).tobytes() == y_cls[i : i + k].tobytes()

    def test_kappa_zero_applies_no_class_filter(self):
        # a class logit bias of -1000 underflows every class probability to
        # 0.0: kappa 0 still counts every cell, kappa 0.1 counts none
        model = CountModel.create()
        model.weights["cls_logit_bias"] = np.asarray(-1000.0)
        img = random_image(np.random.default_rng(19))
        y_cnt, y_cls = model.forward(img, 1)
        assert (y_cls == 0.0).all() and (y_cnt > 0.0).all()
        whole = math.fsum(y_cnt.ravel())
        assert count_above(y_cnt, None, 0.0) == whole
        assert model.predict_count(img, 1) == whole
        assert model.thresholded_count(img, 1, 0.1) == 0.0
        assert model.counts([img], 1, (0.0, 0.1)) == [[whole], [0.0]]

    def test_tile_size_must_match_input(self):
        model = CountModel.create()
        with pytest.raises(ValueError):
            model.tiled_count(np.zeros((128, 128)), 0, tile_size=32)
        with pytest.raises(ValueError):
            model.tiled_count(np.zeros((128, 128)), 0, tile_size=0)


def rewrite_config_echo(path, edit):
    """Pass a checkpoint's config JSON through ``edit(dict)``, keeping the envelope valid."""
    blob = path.read_bytes()
    body = blob[4:-4]
    n = int.from_bytes(body[2:6], "little")
    cfg = json.loads(body[6 : 6 + n])
    edit(cfg)
    text = json.dumps(cfg, sort_keys=True).encode()
    body = body[:2] + len(text).to_bytes(4, "little") + text + body[6 + n :]
    path.write_bytes(blob[:4] + body + zlib.crc32(body).to_bytes(4, "little"))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = CountModel.create(ModelConfig(seed=42))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert list(loaded.weights) == list(model.weights)
        for name in model.weights:
            np.testing.assert_array_equal(loaded.weights[name], model.weights[name])
            assert loaded.weights[name].dtype == np.float64

    def test_round_trip_after_training_like_mutation(self, tmp_path):
        model = CountModel.create()
        rng = np.random.default_rng(16)
        for k in model.weights:
            model.weights[k] = model.weights[k] + rng.normal(size=model.weights[k].shape)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name in model.weights:
            np.testing.assert_array_equal(loaded.weights[name], model.weights[name])

    def test_legacy_grid_factor_loads_bitwise(self, tmp_path):
        # version-1 files written while ModelConfig had grid_factor echo it as 8
        model = CountModel.create(SMALL)
        path = tmp_path / "legacy.ckpt"
        save_checkpoint(model, path)
        rewrite_config_echo(path, lambda cfg: cfg.update(grid_factor=8))
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.weights:
            np.testing.assert_array_equal(loaded.weights[name], model.weights[name])

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda cfg: cfg.update(grid_factor=4), "grid_factor"),
            (lambda cfg: cfg.update(depth=3), "depth"),
            (lambda cfg: cfg.pop("embed_dim"), "embed_dim"),
            (lambda cfg: cfg.update(input_size="16"), "input_size"),
            (lambda cfg: cfg.update(input_size=16.0), "input_size"),
            (lambda cfg: cfg.update(input_size=20), "input_size"),
            (lambda cfg: cfg.update(channels=[2, 3]), "channels"),
        ],
        ids=["legacy-grid-factor-4", "unknown", "missing", "wrong-type", "float-size", "bad-size", "bad-channels"],
    )
    def test_bad_config_echo_names_the_field(self, tmp_path, edit, field):
        path = tmp_path / "m.ckpt"
        save_checkpoint(CountModel.create(SMALL), path)
        rewrite_config_echo(path, edit)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        # a well-formed file whose weights hold a NaN must not load
        model = CountModel.create(SMALL)
        model.weights["stage2_k"][1, 1, 0, 0] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match="stage2_k has non-finite values"):
            load_checkpoint(path)

    def test_bad_magic_reports_position(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(CountModel.create(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="byte 0"):
            load_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(CountModel.create(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(CountModel.create(SMALL), path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(input_size=60)
        with pytest.raises(ValueError):
            ModelConfig(channels=(4, 8))
        with pytest.raises(ValueError):
            ModelConfig(num_categories=0)

    @pytest.mark.parametrize("width", [0, -3])
    def test_fused_channels_must_be_positive(self, width):
        with pytest.raises(ValueError, match=f"fused_channels must be positive, got {width}"):
            ModelConfig(fused_channels=width)

    def test_legacy_grid_factor(self):
        cfg = ModelConfig(input_size=32)
        assert "grid_factor" not in json.loads(cfg.to_json())
        legacy = {**json.loads(cfg.to_json()), "grid_factor": 8}
        assert ModelConfig.from_json(json.dumps(legacy)) == cfg
        with pytest.raises(ValueError, match="grid_factor"):
            ModelConfig.from_json(json.dumps({**legacy, "grid_factor": 4}))

    def test_json_round_trip(self):
        cfg = ModelConfig(input_size=32, channels=(4, 6, 8), seed=9)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_param_groups_partition_weights(self):
        model = CountModel.create()
        groups = model.param_groups()
        together = groups["trunk"] + groups["heads"]
        assert sorted(together) == sorted(model.weights)
        assert set(groups["trunk"]).isdisjoint(groups["heads"])
