"""Optimizer, metrics, training mechanics, blob rendering, and experiment plumbing."""

from dataclasses import replace

import numpy as np
import pytest

from countgrad import autodiff as ad
from countgrad.harness import blob
from countgrad.harness import train as train_mod
from countgrad.datagen import Corpus, SceneSpec, make_corpus
from countgrad.harness import (
    Adam,
    BlobSceneParams,
    GuidanceConfig,
    SizeBiasRow,
    StageData,
    ThresholdRow,
    TrainConfig,
    TrainingDivergence,
    compute_metrics,
    evaluate,
    guide_optimize,
    init_blob_params,
    predict_counts,
    render_blob_scene,
    run_ablation,
    size_bias_sweep,
    size_bias_tables,
    threshold_sweep,
    train_stage,
)
from countgrad.losses import LossWeights, guidance_loss
from countgrad.model import CountModel, ModelConfig, count_above
from countgrad.raster import SceneInstance, downscale_image, oracle_count_components
from countgrad.targets import WeakGrids

TINY_MODEL = ModelConfig(input_size=16, channels=(2, 3, 4), fused_channels=4, embed_dim=3, seed=2)


def tiny_spec(**kw):
    base = dict(
        image_size=16,
        count_range=(1, 3),
        radius_range=(1.5, 2.5),
        min_separation=0.8,
        n_negative_points=4,
        seed=3,
    )
    base.update(kw)
    return SceneSpec(**base)


def tiny_data(n_train=10, n_val=6, **kw):
    spec = tiny_spec(**kw)
    return StageData(
        make_corpus(spec, n_train),
        make_corpus(spec, n_val, split="val", first_id=9000),
    )


class TestAdam:
    def test_descends_quadratic(self):
        opt = Adam({"x": 0.1})
        w = {"x": np.array([5.0, -3.0])}
        for _ in range(200):
            opt.step(w, {"x": 2.0 * w["x"]})
        assert np.abs(w["x"]).max() < 1e-2

    def test_group_rates_differ(self):
        opt = Adam({"fast": 1e-1, "slow": 1e-3})
        w = {"fast": np.array([1.0]), "slow": np.array([1.0])}
        opt.step(w, {"fast": np.array([1.0]), "slow": np.array([1.0])})
        moved_fast = 1.0 - w["fast"][0]
        moved_slow = 1.0 - w["slow"][0]
        assert moved_fast == pytest.approx(100 * moved_slow, rel=1e-6)

    def test_unknown_param_rejected(self):
        opt = Adam({"x": 0.1})
        with pytest.raises(KeyError):
            opt.step({"y": np.zeros(1)}, {"y": np.ones(1)})

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            Adam({"x": 0.0})


class TestMetrics:
    def test_hand_case(self):
        truths = np.array([5.0, 5.0, 5.0, 5.0, 5.0])
        preds = truths + np.array([1.0, -1.0, 3.0, -3.0, 0.0])
        m = compute_metrics(preds, truths)
        assert m.mae == 1.6
        assert m.rmse == 2.0
        assert m.n == 5

    def test_perfect_predictions(self):
        m = compute_metrics([2.0, 7.0], [2.0, 7.0])
        assert m.mae == 0.0 and m.rmse == 0.0

    def test_single_image_identity(self):
        m = compute_metrics([4.5], [7.0])
        assert m.mae == m.rmse == 2.5

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            preds = rng.uniform(0, 20, 7)
            truths = rng.uniform(0, 20, 7)
            m = compute_metrics(preds, truths)
            assert m.rmse >= m.mae >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])

    def test_evaluate_runs_and_validates(self):
        data = tiny_data()
        model = CountModel.create(TINY_MODEL)
        m = evaluate(model, data.val)
        assert m.n == len(data.val) and np.isfinite(m.mae)
        with pytest.raises(ValueError):
            evaluate(model, Corpus(data.val.spec, "empty", ()))


def mixed_corpus(n):
    """n 64 px scenes; from n = 2 on they hold both categories."""
    corpus = make_corpus(SceneSpec(count_range=(1, 10), seed=1), n, split="test")
    assert n == 1 or {s.category_id for s in corpus.samples()} == {0, 1}
    return corpus


def looped_counts(model, corpus, kappa=0.0, ratio=1.0):
    """Per-image counts, one ``counts`` call each, of the scenes shrunk by ``ratio``."""
    out = []
    for s in corpus.samples():
        image = s.scene.image if ratio == 1.0 else downscale_image(s.scene.image, ratio, s.scene.background)
        out.append(model.counts([image], s.category_id, (kappa,))[0][0])
    return out


def truths_of(corpus):
    return [s.scene.count(s.category_id) for s in corpus.samples()]


class TestBatchedInference:
    """Batched inference against per-image loops, bit for bit.

    Corpora of 1, 5 and 6 images leave the last chunk of IMAGES_PER_FORWARD
    partial.
    """

    @pytest.mark.parametrize("n", [1, 5, 6])
    def test_evaluate_equals_per_image_loop(self, n):
        corpus = mixed_corpus(n)
        model = CountModel.create()
        for kappa in (0.0, 0.5):
            preds = looped_counts(model, corpus, kappa)
            assert predict_counts(model, corpus, kappa) == preds
            assert evaluate(model, corpus, kappa) == compute_metrics(preds, truths_of(corpus))

    def test_mixed_size_corpus_equals_per_image_tiled_count(self):
        # 64 and 128 px scenes in one corpus: their 11 tiles run as one stack,
        # with chunks of IMAGES_PER_FORWARD that straddle images
        small = mixed_corpus(3)
        big = make_corpus(SceneSpec(image_size=128, count_range=(4, 20), seed=2), 2, first_id=100)
        corpus = Corpus(small.spec, "test", small.items[:2] + big.items + small.items[2:])
        model = CountModel.create()
        for kappa in (0.0, 0.5):
            preds = looped_counts(model, corpus, kappa)
            assert predict_counts(model, corpus, kappa) == preds
            assert evaluate(model, corpus, kappa) == compute_metrics(preds, truths_of(corpus))

    def test_tiled_evaluate_needs_no_tile_size(self):
        corpus = make_corpus(SceneSpec(image_size=128, count_range=(4, 20), seed=2), 3)
        model = CountModel.create()
        assert evaluate(model, corpus) == evaluate(model, corpus, tile_size=64)
        with pytest.raises(ValueError, match="tile size must equal the model input size"):
            evaluate(model, corpus, tile_size=32)

    def test_evaluate_rejects_images_smaller_than_input(self):
        corpus = make_corpus(SceneSpec(image_size=32, count_range=(1, 4), seed=2), 2)
        with pytest.raises(ValueError, match=r"image shape \(32, 32\) does not match input size 64"):
            evaluate(CountModel.create(), corpus)

    @pytest.mark.parametrize("n", [1, 5, 6])
    def test_threshold_sweep_equals_per_image_count_above(self, n):
        corpus = mixed_corpus(n)
        model = CountModel.create()
        kappas = (0.0, 0.3, 0.5, 0.7)
        grids = [model.forward(s.scene.image, s.category_id) for s in corpus.samples()]
        expect = []
        for kappa in kappas:
            m = compute_metrics([count_above(c, p, kappa) for c, p in grids], truths_of(corpus))
            expect.append(ThresholdRow(kappa, m.mae, m.rmse))
        rows, best = threshold_sweep(model, corpus, kappas)
        assert rows == expect
        assert best == min(expect, key=lambda r: r.mae).kappa

    @pytest.mark.parametrize("n", [1, 5, 6])
    def test_size_bias_sweep_equals_per_scene_rescale(self, n):
        corpus = mixed_corpus(n)
        model = CountModel.create()
        ratios = (1.0, 1.5, 2.0, 3.0)
        base = looped_counts(model, corpus)
        expect = []
        for ratio in ratios:
            preds = looped_counts(model, corpus, ratio=ratio)
            drifts = np.asarray([p - b for p, b in zip(preds, base)])
            mae = compute_metrics(preds, truths_of(corpus)).mae
            expect.append(
                SizeBiasRow("m", ratio, float(drifts.mean()), float(np.abs(drifts).mean()), mae)
            )
        assert size_bias_sweep({"m": model}, corpus, ratios) == expect

    def test_kappa_zero_counts_run_no_class_head(self, monkeypatch):
        corpus = mixed_corpus(5)
        model = CountModel.create()
        image = corpus.samples()[0].scene.image

        def no_class_head(*args, **kwargs):
            raise AssertionError("class head ran")

        monkeypatch.setattr(CountModel, "_class_grid", no_class_head)
        assert evaluate(model, corpus).n == 5
        assert model.predict_count(image, 0) >= 0.0
        assert len(size_bias_tables({"m": model}, corpus, (1.0, 2.0), by_size_class=False)[0]) == 2
        with pytest.raises(AssertionError, match="class head ran"):
            threshold_sweep(model, corpus, (0.0, 0.3))


class TestTrainStage:
    def test_one_epoch_log(self):
        model = CountModel.create(TINY_MODEL)
        cfg = TrainConfig(stage="strong", epochs=1, batch_size=4, seed=0)
        _, log = train_stage(model, tiny_data(), cfg)
        assert len(log) == 1
        rec = log[0]
        assert np.isfinite(rec["loss_cnt"]) and np.isfinite(rec["val_mae"])
        assert rec["n_strong"] == 10 and rec["n_weak"] == 0

    def test_bit_reproducible(self):
        data = tiny_data()
        cfg = TrainConfig(stage="strong", epochs=2, batch_size=4, seed=5)
        m1, _ = train_stage(CountModel.create(TINY_MODEL), data, cfg)
        m2, _ = train_stage(CountModel.create(TINY_MODEL), data, cfg)
        for name in m1.weights:
            np.testing.assert_array_equal(m1.weights[name], m2.weights[name])

    def test_best_val_weights_restored(self):
        data = tiny_data(n_train=12)
        cfg = TrainConfig(stage="strong", epochs=5, batch_size=4, seed=1, patience=5)
        model, log = train_stage(CountModel.create(TINY_MODEL), data, cfg)
        best_logged = min(rec["val_mae"] for rec in log)
        assert evaluate(model, data.val).mae == best_logged

    def test_early_stopping_respects_patience(self):
        data = tiny_data(n_train=8)
        cfg = TrainConfig(stage="strong", epochs=40, batch_size=4, seed=2, patience=2)
        _, log = train_stage(CountModel.create(TINY_MODEL), data, cfg)
        assert len(log) < 40
        tail = [rec["val_mae"] for rec in log][-2:]
        assert all(v >= min(rec["val_mae"] for rec in log) for v in tail)

    def test_weak_stage_mix_bookkeeping(self):
        data = tiny_data(n_train=12)
        mixed = StageData(data.train, data.val, strong_mix=data.train)
        weights = LossWeights(gamma=0.25)
        cfg = TrainConfig(stage="weak", weights=weights, epochs=1, batch_size=4, seed=0)
        _, log = train_stage(CountModel.create(TINY_MODEL), mixed, cfg)
        # 3 batches of 4, each swapping in round(0.25*4)=1 strong sample
        assert log[0]["n_strong"] == 3
        assert log[0]["n_weak"] == 9

    def test_replays_capped_by_short_trailing_batch(self):
        data = tiny_data(n_train=10)
        mixed = StageData(data.train, data.val, strong_mix=data.train)
        weights = LossWeights(gamma=0.75)
        cfg = TrainConfig(stage="weak", weights=weights, epochs=2, batch_size=4, seed=0)
        _, log = train_stage(CountModel.create(TINY_MODEL), mixed, cfg)
        # batches of 4, 4 and 2 take round(0.75*4)=3, 3 and (capped) 2 replays
        assert len(log) == 2
        assert all(rec["n_strong"] == 8 and rec["n_weak"] == 2 for rec in log)

    def test_weak_stage_needs_strong_mix_when_gamma_positive(self):
        data = tiny_data()
        cfg = TrainConfig(stage="weak", weights=LossWeights(gamma=0.1), epochs=1)
        with pytest.raises(ValueError):
            train_stage(CountModel.create(TINY_MODEL), data, cfg)
        empty = StageData(data.train, data.val, strong_mix=Corpus(data.train.spec, "train", ()))
        with pytest.raises(ValueError, match="non-empty strong_mix"):
            train_stage(CountModel.create(TINY_MODEL), empty, cfg)

    @pytest.mark.parametrize("split,name", [("train", "training"), ("val", "validation")])
    def test_empty_corpus_rejected_before_any_step(self, split, name):
        data = tiny_data()
        empty = Corpus(data.train.spec, split, ())
        stage = StageData(empty, data.val) if split == "train" else StageData(data.train, empty)
        model = CountModel.create(TINY_MODEL)
        before = {k: v.copy() for k, v in model.weights.items()}
        with pytest.raises(ValueError, match=f"empty {name} corpus"):
            train_stage(model, stage, TrainConfig(stage="strong", epochs=1, batch_size=4, seed=0))
        for k, v in model.weights.items():
            np.testing.assert_array_equal(v, before[k])

    @pytest.mark.parametrize("batch_size", [6, 10])  # gamma * batch_size 0.3, and 0.5 rounding to even
    def test_weak_stage_rejects_gamma_that_rounds_to_no_replays(self, batch_size):
        weights = LossWeights(gamma=0.05)
        with pytest.raises(ValueError, match=rf"gamma 0.05 at batch_size {batch_size} .* = 0"):
            TrainConfig(stage="weak", weights=weights, batch_size=batch_size)
        TrainConfig(stage="strong", weights=weights, batch_size=batch_size)  # no replays there
        assert TrainConfig(stage="weak", weights=weights, batch_size=batch_size + 6).n_replay == 1

    def test_weak_stage_gamma_zero_runs_without_mix(self):
        data = tiny_data()
        cfg = TrainConfig(
            stage="weak", weights=LossWeights(gamma=0.0), epochs=1, batch_size=4, seed=0
        )
        _, log = train_stage(CountModel.create(TINY_MODEL), data, cfg)
        assert log[0]["n_strong"] == 0

    def test_divergence_detected(self):
        # A count-head bias at float64's edge makes the summed prediction
        # overflow, so the very first batch must abort with a diagnostic.
        data = tiny_data(n_train=8)
        model = CountModel.create(TINY_MODEL)
        model.weights["cnt_out_b"][...] = 1e308
        cfg = TrainConfig(stage="strong", epochs=1, batch_size=4, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergence, match="epoch 0"):
            train_stage(model, data, cfg)

    def test_subpixel_corpus_rejected_for_strong_stage(self):
        data = tiny_data()
        shrunk_items = []
        for item in data.train.items:
            # every instance fell below one pixel: no mask, but still counted
            scene = item.sample.scene
            instances = tuple(SceneInstance(i.category_id, None) for i in scene.instances)
            sample = replace(item.sample, scene=replace(scene, instances=instances))
            shrunk_items.append(replace(item, sample=sample))
        bad = Corpus(data.train.spec, "train", tuple(shrunk_items))
        cfg = TrainConfig(stage="strong", epochs=1)
        with pytest.raises(ValueError, match="subpixel"):
            train_stage(CountModel.create(TINY_MODEL), StageData(bad, data.val), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(stage="medium")
        with pytest.raises(ValueError):
            TrainConfig(target="pointwise")
        with pytest.raises(ValueError):
            TrainConfig(lr_heads=0.0)

    @pytest.mark.parametrize(
        "weights",
        [LossWeights(), LossWeights(alpha1=0.0, beta2=0.0), LossWeights(beta1=0.0, alpha2=0.0)],
    )
    def test_group_gradient_equals_per_example_sum(self, weights):
        # one tape over a mixed group must give the per-example gradients' sum
        data = tiny_data(n_train=12)
        cfg = TrainConfig(stage="weak", weights=weights)
        strong = train_mod._prepare_strong(data.train, cfg)
        weak = train_mod._prepare_weak(data.train)
        by_cat = {c: [i for i, ex in enumerate(strong) if ex.category_id == c] for c in (0, 1)}
        assert by_cat[0] and by_cat[1], "need both categories"
        unlabelled = replace(
            weak[by_cat[0][-1]], cls=WeakGrids(np.zeros((2, 2), bool), np.zeros((2, 2), bool), 3)
        )
        group = [
            strong[by_cat[0][0]],
            weak[by_cat[1][0]],
            strong[by_cat[1][0]],
            unlabelled,
            weak[by_cat[0][1]],
            strong[by_cat[0][1]],
        ]
        model = CountModel.create(TINY_MODEL)

        def grads(items):
            sums = {k: np.zeros_like(v) for k, v in model.weights.items()}
            cnt, cls = train_mod._accumulate(model, items, weights, sums, "test")
            return sums, cnt, cls

        batched, cnt, cls = grads(group)
        summed = {k: np.zeros_like(v) for k, v in model.weights.items()}
        magnitude = {k: np.zeros_like(v) for k, v in model.weights.items()}
        cnt_sum = cls_sum = 0.0
        for item in group:
            g, c, l = grads([item])
            cnt_sum, cls_sum = cnt_sum + c, cls_sum + l
            for k in summed:
                summed[k] += g[k]
                magnitude[k] += np.abs(g[k])
        for k in summed:
            # relative to the summands: a sum that cancels keeps their rounding
            scale = magnitude[k].max()
            np.testing.assert_allclose(batched[k], summed[k], rtol=0, atol=1e-12 * scale, err_msg=k)
        assert cnt == pytest.approx(cnt_sum, rel=1e-12)
        assert cls == pytest.approx(cls_sum, rel=1e-12)
        assert any(np.abs(v).max() > 0 for v in batched.values())

    def test_density_target_trains(self):
        data = tiny_data(n_train=8)
        cfg = TrainConfig(stage="strong", target="density", epochs=1, batch_size=4, seed=0)
        _, log = train_stage(CountModel.create(TINY_MODEL), data, cfg)
        assert np.isfinite(log[0]["loss_cnt"])


class TestBlobScene:
    def test_all_slots_off_gives_background(self):
        params = init_blob_params(np.random.default_rng(0), n_slots=6, n_on=0)
        params = params.with_values({**params.as_dict(), "presence": np.full(6, -30.0)})
        tape = ad.Tape()
        img = render_blob_scene(tape, params)
        np.testing.assert_allclose(img.values, 0.1, atol=1e-8)

    def test_single_hard_blob_counted_by_oracle(self):
        rng = np.random.default_rng(1)
        params = init_blob_params(rng, n_slots=1, n_on=1)
        params = params.with_values(
            {
                **params.as_dict(),
                "radius_raw": np.array([blob.inverse_softplus(5.0)]),
                "presence": np.array([30.0]),
                "center_row": np.array([32.0]),
                "center_col": np.array([32.0]),
            }
        )
        tape = ad.Tape()
        img = render_blob_scene(tape, params)
        assert oracle_count_components(img.values, 0.35) == 1
        assert img.values[32, 32] > 0.5
        assert img.values[0, 0] == pytest.approx(0.1, abs=1e-3)

    def test_render_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        base = init_blob_params(rng, n_slots=3, n_on=2, canvas=16)

        for pname in ("center_row", "radius_raw", "presence", "intensity_raw"):

            def fn(v):
                tape = v.tape
                nodes = {
                    k: (v if k == pname else ad.new_param(tape, arr))
                    for k, arr in base.as_dict().items()
                }
                img = render_blob_scene(tape, base, nodes)
                return ad.reduce_sum(ad.mul(img, img))

            res = ad.grad_check(fn, base.as_dict()[pname], step=1e-5)
            assert res.max_rel_error <= 1e-5, pname

    def test_plain_latents_render_without_recording(self):
        params = init_blob_params(np.random.default_rng(4), n_slots=12, n_on=6)
        recorded = render_blob_scene(ad.Tape(), params)
        assert isinstance(recorded, ad.DiffArray)
        tape = ad.Tape()
        image = render_blob_scene(tape, params, params.as_dict())
        assert isinstance(image, np.ndarray) and len(tape) == 0
        np.testing.assert_array_equal(image, recorded.values)

    def test_init_layout(self):
        params = init_blob_params(np.random.default_rng(3), n_slots=12, n_on=5)
        assert params.n_slots == 12
        assert (params.presence > 0).sum() == 5
        assert params.center_row.min() > 0 and params.center_row.max() < 64
        assert np.allclose(np.logaddexp(0, params.radius_raw), 3.0, atol=1e-9)

    @pytest.mark.parametrize("name", ["presence", "center_row", "radius_raw"])
    def test_rejects_non_finite_latents(self, name):
        params = init_blob_params(np.random.default_rng(0), n_slots=3, n_on=1)
        values = {k: v.copy() for k, v in params.as_dict().items()}
        values[name][1] = np.nan if name == "presence" else np.inf
        with pytest.raises(ValueError, match=f"{name} has non-finite values"):
            params.with_values(values)

    def test_rejects_empty_canvas(self):
        params = init_blob_params(np.random.default_rng(0), n_slots=3, n_on=1)
        with pytest.raises(ValueError, match="canvas"):
            replace(params, canvas=0)

    def test_init_rejects_no_slots(self):
        with pytest.raises(ValueError, match="n_slots"):
            init_blob_params(np.random.default_rng(0), n_slots=0, n_on=0)

    def test_guidance_config_validation(self):
        with pytest.raises(ValueError):
            GuidanceConfig(q_req=-1)
        with pytest.raises(ValueError):
            GuidanceConfig(q_req=3, max_steps=0)


BLOB_KEYS = ("presence", "center_row", "center_col", "radius_raw", "intensity_raw")


def _sqrt(x):
    """Square-root node, for the reference renderer's distances."""
    y = np.sqrt(x.values)
    return ad._recorded(y, (x, lambda g: g * 0.5 / y))


def loop_render(tape, params, nodes):
    """Reference renderer: one slot at a time, as the renderer was first written."""
    n = params.canvas
    lim = float(n - 1)
    opacity = ad.sigmoid(ad.mul(nodes["presence"], 1.0 / blob.PRESENCE_TEMP))
    rows_c = ad.clamp(nodes["center_row"], 0.0, lim)
    cols_c = ad.clamp(nodes["center_col"], 0.0, lim)
    radius = ad.softplus(nodes["radius_raw"])
    intensity = ad.add(
        ad.mul(ad.sigmoid(nodes["intensity_raw"]), blob._INTENSITY_SPAN), blob._INTENSITY_LO
    )
    rr = np.arange(n, dtype=np.float64)[:, None]
    cc = np.arange(n, dtype=np.float64)[None, :]
    image = None
    for s in range(params.n_slots):
        dr = ad.add(ad.mul(ad.take_index(rows_c, s), -1.0), rr)
        dc = ad.add(ad.mul(ad.take_index(cols_c, s), -1.0), cc)
        dist = _sqrt(ad.add(ad.add(ad.mul(dr, dr), ad.mul(dc, dc)), 1e-9))
        edge = ad.mul(ad.add(ad.mul(dist, -1.0), ad.take_index(radius, s)), 1.0 / blob.EDGE_SOFTNESS)
        height = ad.mul(ad.take_index(opacity, s), ad.take_index(intensity, s))
        contrib = ad.mul(ad.sigmoid(edge), height)
        image = contrib if image is None else ad.add(image, contrib)
    if image is None:
        return ad.new_param(tape, np.full((n, n), blob.BACKGROUND))
    return ad.add(image, blob.BACKGROUND)


def loop_guide(model, params, gcfg):
    """Reference guidance loop: all five latents are parameters, none folds to a
    constant, and the count comes from the training forward, not ``count_on_tape``."""
    values = {k: v.copy() for k, v in params.as_dict().items()}
    opt = Adam({k: blob.STEP_SIZE for k in blob.STEERED})
    trajectory, best_loss, best_values, stale = [], np.inf, dict(values), 0
    for step in range(gcfg.max_steps):
        tape = ad.Tape()
        nodes = {k: ad.new_param(tape, v) for k, v in values.items()}
        image = render_blob_scene(tape, params, nodes)
        fp = model.forward_on_tape(tape, image, 0)
        loss = guidance_loss(fp.y_cnt, gcfg.q_req)
        loss_v = float(loss.values)
        trajectory.append((step, loss_v, float(fp.y_cnt.values.sum())))
        if loss_v < best_loss - blob.PLATEAU_DELTA:
            best_loss, best_values, stale = loss_v, dict(values), 0
        else:
            if loss_v < best_loss:
                best_loss, best_values = loss_v, dict(values)
            stale += 1
            if stale >= gcfg.plateau_patience:
                break
        grads = ad.backward(tape, loss)
        opt.step(values, {k: grads.wrt(nodes[k]) for k in blob.STEERED})
    return best_values, trajectory


def clamped_scene(n_slots):
    """A scene with random appearance latents and centers past both canvas edges."""
    rng = np.random.default_rng(n_slots)
    if n_slots == 0:
        empty = np.zeros(0)
        return BlobSceneParams(empty, empty, empty, empty, empty)
    params = init_blob_params(rng, n_slots=n_slots, n_on=n_slots // 2)
    values = {k: v.copy() for k, v in params.as_dict().items()}
    values["presence"] += rng.normal(scale=0.05, size=n_slots)
    values["radius_raw"] += rng.normal(scale=0.3, size=n_slots)
    values["intensity_raw"] = rng.normal(size=n_slots)
    values["center_row"][0] = -3.0
    values["center_col"][-1] = 70.0
    return params.with_values(values)


def render_with_grads(render, params):
    tape = ad.Tape()
    nodes = {k: ad.new_param(tape, v) for k, v in params.as_dict().items()}
    img = render(tape, params, nodes)
    weights = np.random.default_rng(99).normal(size=img.shape)
    grads = ad.backward(tape, ad.reduce_sum(ad.mul(ad.mul(img, img), weights)))
    return img.values, [grads.wrt(nodes[k]) for k in BLOB_KEYS], len(tape)


class TestVectorizedRenderer:
    """The windowed renderer against the full-canvas per-slot loop.

    The render is zero beyond each disk's window, where the full-canvas
    sigmoid edge is below 1e-18, and the gradients sum in another order,
    so the two agree to a few ulp, not bit for bit.
    """

    @pytest.mark.parametrize("n_slots", [0, 1, 5, 12])
    def test_image_and_gradients_equal_loop(self, n_slots):
        params = clamped_scene(n_slots)
        img, grads, _ = render_with_grads(render_blob_scene, params)
        ref_img, ref_grads, _ = render_with_grads(loop_render, params)
        assert np.all(np.abs(img - ref_img) <= 4 * np.spacing(ref_img))
        for k, g, ref in zip(BLOB_KEYS, grads, ref_grads):
            assert g.shape == ref.shape == (n_slots,), k
            if n_slots:
                assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max(), k
        if n_slots:
            assert grads[1][0] == 0.0 and grads[2][-1] == 0.0  # clamped centers
            assert all(np.abs(grads[i]).max() > 0 for i in (0, 3, 4))  # presence, appearance

    def test_node_count_independent_of_slots(self):
        counts = {render_with_grads(render_blob_scene, clamped_scene(s))[2] for s in (0, 1, 5, 12)}
        assert len(counts) == 1

    @pytest.mark.parametrize(
        "seed, n_slots, q_req, max_steps, patience",
        [(0, 12, 6.0, 25, 25), (1, 5, 3.0, 40, 3), (2, 12, 9.0, 40, 5), (3, 1, 2.0, 30, 4)],
    )
    def test_guidance_equals_all_parameter_run(self, seed, n_slots, q_req, max_steps, patience):
        model = CountModel.create()
        rng = np.random.default_rng(seed)
        params = init_blob_params(rng, n_slots=n_slots, n_on=max(0, min(n_slots, int(q_req) - 2)))
        gcfg = GuidanceConfig(q_req=q_req, max_steps=max_steps, plateau_patience=patience)
        best, traj = guide_optimize(model, params, gcfg)
        ref_best, ref_traj = loop_guide(model, params, gcfg)
        assert [(r.step, r.loss, r.count) for r in traj] == ref_traj
        for k in BLOB_KEYS:
            assert best.as_dict()[k].tobytes() == ref_best[k].tobytes(), k


class TestGuideOptimize:
    def test_model_weights_frozen(self):
        model = CountModel.create()
        before = {k: v.copy() for k, v in model.weights.items()}
        params = init_blob_params(np.random.default_rng(4), n_slots=4, n_on=2)
        guide_optimize(model, params, GuidanceConfig(q_req=3.0, max_steps=8))
        for name in before:
            np.testing.assert_array_equal(model.weights[name], before[name])

    @staticmethod
    def spy_backward(monkeypatch):
        """Tape sizes of every backward pass guidance runs, one per optimizer step."""
        sizes, backward = [], ad.backward

        def spy(tape, seed):
            sizes.append(len(tape))
            return backward(tape, seed)

        monkeypatch.setattr(ad, "backward", spy)
        return sizes

    def test_step_records_render_and_count_path_only(self, monkeypatch):
        # 3 latent leaves, 7 render nodes, 13 trunk and count-head nodes and
        # 2 loss nodes; the class head's 7 nodes are never recorded
        sizes = self.spy_backward(monkeypatch)
        params = init_blob_params(np.random.default_rng(8), n_slots=12, n_on=4)
        guide_optimize(CountModel.create(), params, GuidanceConfig(q_req=6.0, max_steps=3))
        assert sizes == [25, 25, 25]

    def test_bad_category_or_canvas_fails_before_first_step(self, monkeypatch):
        sizes = self.spy_backward(monkeypatch)
        model = CountModel.create()
        params = init_blob_params(np.random.default_rng(9), n_slots=4, n_on=2)
        with pytest.raises(ValueError, match="unknown category 5"):
            guide_optimize(model, params, GuidanceConfig(q_req=3.0, max_steps=4), category_id=5)
        small = init_blob_params(np.random.default_rng(9), n_slots=4, n_on=2, canvas=32)
        with pytest.raises(ValueError, match=r"image shape \(32, 32\) does not match input size 64"):
            guide_optimize(model, small, GuidanceConfig(q_req=3.0, max_steps=4))
        assert sizes == []

    def test_already_converged_stops_at_patience(self):
        model = CountModel.create()
        params = init_blob_params(np.random.default_rng(5), n_slots=4, n_on=2)
        img = render_blob_scene(ad.Tape(), params)
        q0 = float(model.count_on_tape(img, model.frozen_conditioning(0)).values.sum())
        out, traj = guide_optimize(
            model, params, GuidanceConfig(q_req=q0, max_steps=150, plateau_patience=5)
        )
        assert len(traj) <= 6
        assert traj[0].loss == pytest.approx(0.0, abs=1e-12)

    def test_trajectory_budget_and_fields(self):
        model = CountModel.create()
        params = init_blob_params(np.random.default_rng(6), n_slots=4, n_on=1)
        _, traj = guide_optimize(model, params, GuidanceConfig(q_req=9.0, max_steps=12))
        assert len(traj) <= 12
        assert all(np.isfinite(r.loss) and np.isfinite(r.count) for r in traj)
        assert [r.step for r in traj] == list(range(len(traj)))

    def test_loss_decreases_on_untrained_model(self):
        model = CountModel.create()
        params = init_blob_params(np.random.default_rng(7), n_slots=6, n_on=1)
        _, traj = guide_optimize(model, params, GuidanceConfig(q_req=9.0, max_steps=60))
        assert min(r.loss for r in traj) < traj[0].loss


class TestExperiments:
    def make_eval_corpus(self):
        return make_corpus(tiny_spec(count_range=(1, 2)), 6, split="eval", first_id=500)

    def test_size_bias_rows(self):
        corpus = self.make_eval_corpus()
        models = {"a": CountModel.create(TINY_MODEL), "b": CountModel.create(TINY_MODEL)}
        rows, _ = size_bias_tables(models, corpus, (1.0, 2.0, 3.0), by_size_class=False)
        assert len(rows) == 6
        for row in rows:
            if row.ratio == 1.0:
                assert row.mean_drift == 0.0 and row.mean_abs_drift == 0.0

    @pytest.mark.parametrize("by_size_class", [False, True])
    def test_size_bias_requires_reference_ratio(self, by_size_class):
        models = {"a": CountModel.create(TINY_MODEL)}
        with pytest.raises(ValueError, match="1.0"):
            size_bias_tables(models, self.make_eval_corpus(), (2.0,), by_size_class)

    @pytest.mark.parametrize("by_size_class", [False, True])
    def test_size_bias_count_cap(self, by_size_class):
        big = make_corpus(
            tiny_spec(image_size=64, count_range=(31, 33), radius_range=(2.0, 3.0)), 2
        )
        with pytest.raises(ValueError, match="30"):
            size_bias_tables({"a": CountModel.create()}, big, (1.0, 2.0), by_size_class)

    def test_size_class_rows(self):
        corpus = make_corpus(tiny_spec(image_size=64, count_range=(2, 4), radius_range=(1.5, 5.0)), 9)
        models = {"m": CountModel.create(), "n": CountModel.create(ModelConfig(seed=1))}
        rows, cls_rows = size_bias_tables(models, corpus, (1.0, 2.0), by_size_class=True)
        assert rows == size_bias_sweep(models, corpus, (1.0, 2.0))
        assert size_bias_tables(models, corpus, (1.0, 2.0), by_size_class=False) == (rows, [])
        # one row per model, ratio and size class, in that order
        keys = [(r.model, r.ratio, r.size_class) for r in cls_rows]
        assert keys == [(m, q, c) for m in models for q in (1.0, 2.0) for c in (0, 1, 2)]
        for r in cls_rows:
            if r.ratio == 1.0:
                assert r.mean_drift == 0.0
        for name in models:
            assert sum(r.n for r in cls_rows if r.model == name and r.ratio == 1.0) == 9
        # each model's size-class drifts average back to its size-bias row, weighted by n
        for row in rows:
            parts = [r for r in cls_rows if r.model == row.model and r.ratio == row.ratio]
            total = sum(r.mean_drift * r.n for r in parts)
            assert total / 9 == pytest.approx(row.mean_drift, abs=1e-12)

    def test_threshold_sweep(self):
        corpus = self.make_eval_corpus()
        model = CountModel.create(TINY_MODEL)
        rows, best = threshold_sweep(model, corpus, (0.0, 0.3, 0.6))
        assert len(rows) == 3
        assert rows[0].mae == evaluate(model, corpus, kappa=0.0).mae
        assert best in {r.kappa for r in rows}
        with pytest.raises(ValueError):
            threshold_sweep(model, corpus, (0.5, 1.0))
        with pytest.raises(ValueError, match="kappas is empty"):
            threshold_sweep(model, corpus, ())

    def test_run_ablation_single_variant(self):
        data = tiny_data(n_train=6, n_val=4)
        cfg = TrainConfig(stage="strong", epochs=1, batch_size=4, seed=0)
        wcfg = TrainConfig(stage="weak", epochs=1, batch_size=4, seed=0, weights=LossWeights(gamma=0.0))
        rows = run_ablation(
            ("no-weak",), TINY_MODEL, data, data, data.val, cfg, wcfg
        )
        assert len(rows) == 1
        assert rows[0].variant == "no-weak"
        assert np.isfinite(rows[0].mae)

    def test_run_ablation_weights_audit(self):
        data = tiny_data(n_train=6, n_val=4)
        cfg = TrainConfig(stage="strong", epochs=1, batch_size=4, seed=0)
        wcfg = TrainConfig(stage="weak", epochs=1, batch_size=4, seed=0, weights=LossWeights(gamma=0.0))
        rows = run_ablation(("no-alignment",), TINY_MODEL, data, data, data.val, cfg, wcfg)
        assert rows[0].weights.beta1 == 0.0 and rows[0].weights.beta2 == 0.0

    def test_run_ablation_unknown_variant(self):
        data = tiny_data(n_train=4, n_val=4)
        cfg = TrainConfig(stage="strong", epochs=1)
        with pytest.raises(ValueError):
            run_ablation(("no-gpu",), TINY_MODEL, data, data, data.val, cfg, cfg)
