"""End-to-end acceptance gate: ten shippable criteria, one verdict line each.

Every test prints ``criterion N: PASS/FAIL - detail`` straight to the
terminal (bypassing capture) so a log scan shows the whole gate at a
glance. Training-backed criteria share session fixtures; the full module
takes several CPU-minutes.
"""

import math
import time

import numpy as np
import pytest

from countgrad import autodiff as ad
from countgrad.datagen import (
    SceneSpec,
    corpora_equal,
    make_corpus,
    read_corpus,
    write_corpus,
)
from countgrad.harness import (
    GuidanceConfig,
    Metrics,
    StageData,
    TrainConfig,
    compute_metrics,
    evaluate,
    guide_optimize,
    init_blob_params,
    render_blob_scene,
    size_bias_tables,
    train_stage,
)
from countgrad.harness.blob import inverse_softplus
from countgrad.losses import LossWeights, guidance_loss
from countgrad.model import CountModel, ModelConfig, load_checkpoint, save_checkpoint
from countgrad.raster import ORACLE_THRESHOLD, oracle_count_components
from countgrad.targets import grid_cardinality, pixel_cardinality

pytestmark = pytest.mark.acceptance

# Density-twin bandwidth for the size-bias comparison: the classical
# fixed-bandwidth baseline, wide enough (half a grid cell) that the dense
# regression target stays learnable under the shared training recipe.
DENSITY_TWIN_SIGMA = 4.0
# Slack for "non-increasing after smoothing". The rises it absorbs come
# from steps past the request: when a slot's presence crosses the steep
# opacity band, the count can climb past q in a few steps. They are not
# noise at the kink of the absolute deviation. Before guidance restarted
# Adam's momentum at each crossing of the request, the first moment
# carried the count further and it swung back before settling (the worst
# run measured, q = 9, went 7.8 -> 9.50 -> 8.80, a smoothed rise of
# 9.1e-02). A tenth of one object still fails any trajectory that climbs
# meaningfully.
SMOOTHED_RISE_TOL = 0.1
# Tiling bound: a 2x2 composite's error is exactly the sum S of its four
# scenes' errors, so with independent, unbiased errors it grows like
# sqrt(4), not 4. Quadrature is exact for RMS (E[S^2] = 4 E[e^2] for
# zero-mean errors of any shape), and Jensen gives E|S| <= sqrt(4) RMSE.
# The same rule does not hold for MAE: the strong counter's errors are
# heavy-tailed (kurtosis ~7.4), so four of them sum to E|S| ~ 2.24 MAE,
# and a 2x MAE bound fails on unbiased errors. Errors that share a sign
# add linearly and break the RMSE bound.
TILING_RMSE_FACTOR = math.sqrt(4)


def _gated(name: str, value, op: str, bound) -> dict:
    """A gated statistic with its margin: how far inside its bound it is."""
    value, bound = float(value), float(bound)
    margin = value - bound if op == ">=" else bound - value
    return {"name": name, "value": value, "op": op, "bound": bound, "margin": margin}


@pytest.fixture
def verdict(capfd, acceptance_record):
    """``verdict(criterion, ok, detail, stats)`` prints the criterion's line.

    With ``--acceptance-report`` (tests/conftest.py) it also fills the
    criterion's record; ``stats`` are its gated statistics as (name, value,
    op, bound) with op one of "<=", "<", ">=" and "==".
    """

    def emit(criterion: int, ok: bool, detail: str, stats=()) -> None:
        line = f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        if acceptance_record is not None:
            acceptance_record.update(
                criterion=criterion, ok=bool(ok), detail=detail, stats=[_gated(*s) for s in stats]
            )

    return emit


# -- shared trained models -----------------------------------------------------


@pytest.fixture(scope="session")
def strong_setup():
    """Strong-stage counter on 2,000 scenes plus its held-out metrics."""
    spec = SceneSpec(count_range=(1, 15), seed=11)
    train = make_corpus(spec, 2000)
    val = make_corpus(spec, 120, split="val", first_id=400_000)
    test = make_corpus(spec, 200, split="test", first_id=500_000)
    model = CountModel.create(ModelConfig(seed=0))
    cfg = TrainConfig(stage="strong", epochs=20, batch_size=16, patience=5, seed=0)
    t0 = time.process_time()
    model, _ = train_stage(model, StageData(train, val), cfg)
    cpu_minutes = (time.process_time() - t0) / 60.0
    return {
        "model": model,
        "spec": spec,
        "train": train,
        "test": test,
        "metrics": evaluate(model, test),
        "cpu_minutes": cpu_minutes,
    }


@pytest.fixture(scope="session")
def hybrid_setup(strong_setup):
    """Weak finetune of the strong counter, and a weak-only model from scratch."""
    shifted = SceneSpec(
        count_range=(15, 40), radius_range=(1.5, 3.0), min_separation=0.9, seed=13
    )
    w_train = make_corpus(shifted, 1200)
    w_val = make_corpus(shifted, 120, split="val", first_id=400_000)
    shifted_eval = make_corpus(shifted, 200, split="eval", first_id=500_000)
    # The mixed evaluation weights the two regimes evenly: 100 fresh
    # scenes from the pretraining distribution plus 100 from the shifted
    # one. A single wider count range would instead weight the regimes
    # by their share of that range.
    mixed_lo = make_corpus(strong_setup["spec"], 100, split="eval", first_id=700_000)
    mixed_hi = make_corpus(shifted, 100, split="eval", first_id=800_000)

    def on_mixed(model) -> Metrics:
        a = evaluate(model, mixed_lo)
        b = evaluate(model, mixed_hi)
        n = a.n + b.n
        mse = (a.rmse**2 * a.n + b.rmse**2 * b.n) / n
        return Metrics((a.mae * a.n + b.mae * b.n) / n, math.sqrt(mse), n)

    cfg_w = TrainConfig(
        stage="weak", weights=LossWeights(gamma=0.05), epochs=15, batch_size=16,
        patience=4, seed=0,
    )
    finetuned = CountModel(
        strong_setup["model"].config,
        {k: v.copy() for k, v in strong_setup["model"].weights.items()},
    )
    finetuned, _ = train_stage(
        finetuned, StageData(w_train, w_val, strong_mix=strong_setup["train"]), cfg_w
    )

    cfg_o = TrainConfig(
        stage="weak", weights=LossWeights(gamma=0.0), epochs=15, batch_size=16,
        patience=4, seed=0,
    )
    weak_only = CountModel.create(ModelConfig(seed=0))
    weak_only, _ = train_stage(weak_only, StageData(w_train, w_val), cfg_o)

    return {
        "strong_shifted": evaluate(strong_setup["model"], shifted_eval),
        "strong_mixed": on_mixed(strong_setup["model"]),
        "finetuned_shifted": evaluate(finetuned, shifted_eval),
        "finetuned_mixed": on_mixed(finetuned),
        "weak_only_shifted": evaluate(weak_only, shifted_eval),
        "weak_only_mixed": on_mixed(weak_only),
    }


@pytest.fixture(scope="session")
def twin_setup():
    """Cardinality/density twins trained identically for the size-bias sweep."""
    diverse = SceneSpec(count_range=(2, 12), radius_range=(1.5, 5.0), seed=17)
    d_train = make_corpus(diverse, 1500)
    d_val = make_corpus(diverse, 100, split="val", first_id=400_000)
    # Rescaled copies must stay inside the size range the twins saw in
    # training, so the sweep evaluates scenes built from the largest sizes:
    # ratio 3 maps radius 4.0-5.0 onto 1.3-1.7, still familiar territory.
    big = SceneSpec(count_range=(2, 6), radius_range=(4.0, 5.0), seed=23)
    b_eval = make_corpus(big, 100, split="eval", first_id=600_000)

    t0 = time.process_time()
    base = dict(stage="strong", epochs=15, batch_size=16, patience=5, seed=0)
    card = CountModel.create(ModelConfig(seed=0))
    card, _ = train_stage(card, StageData(d_train, d_val), TrainConfig(**base))
    den = CountModel.create(ModelConfig(seed=0))
    den, _ = train_stage(
        den,
        StageData(d_train, d_val),
        TrainConfig(target="density", sigma=DENSITY_TWIN_SIGMA, **base),
    )
    cpu_hours = (time.process_time() - t0) / 3600.0
    return {"card": card, "den": den, "eval": b_eval, "cpu_hours": cpu_hours}


# -- criteria -------------------------------------------------------------------


def test_criterion_1_cardinality_conservation(verdict):
    spec = SceneSpec(
        count_range=(0, 40), radius_range=(1.5, 3.5), min_separation=0.4, seed=101
    )
    corpus = make_corpus(spec, 1000)
    t0 = time.perf_counter()
    worst = 0.0
    for sample in corpus.samples():
        scene = sample.scene
        q = scene.count(sample.category_id)
        total = grid_cardinality(
            pixel_cardinality(scene.masks(sample.category_id), scene.shape)
        ).total
        worst = max(worst, abs(total - q) / max(q, 1))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"worst relative error {worst:.2e} over 1000 scenes in {elapsed:.2f}s",
        [("worst_relative_error", worst, "<=", 1e-9), ("seconds", elapsed, "<", 10.0)],
    )
    assert ok


def _weighted_sum(expr: ad.DiffArray, weights: np.ndarray) -> ad.DiffArray:
    return ad.reduce_sum(ad.mul(expr, ad.new_param(expr.tape, weights)))


def _primitive_cases():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    # values near 0 move off it; no case kinks there, but dropping this
    # would move the point of every case that uses a
    a = np.where(np.abs(a) < 0.15, a + 0.3, a)
    b = a + np.where(rng.normal(size=(3, 4)) < 0, -0.7, 0.7)
    w = rng.normal(size=(3, 4))
    vec = rng.normal(size=(5,))
    mat = rng.normal(size=(4, 5))
    wvec = rng.normal(size=(4,))
    img = rng.normal(size=(6, 6, 2))
    ker = rng.normal(size=(3, 3, 2, 3))
    stack = rng.normal(size=(4, 4, 2))  # the fuse cases' coarse input
    # the 68 normals a retired grid_pool_sum case drew, so later cases keep their data
    rng.normal(size=68)
    w_conv = rng.normal(size=(6, 6, 3))
    w_conv_s2 = rng.normal(size=(3, 3, 3))
    imgs = rng.normal(size=(3, 6, 6, 2))  # a batch, as the training tapes record it
    w_convs = rng.normal(size=(3, 6, 6, 3))
    w_convs_s2 = rng.normal(size=(3, 3, 3, 3))
    # drawn after every other case's data, so those stay as they were
    bias = rng.normal(size=(3,))
    w_block = rng.normal(size=(3, 3, 3, 3))
    # three disks on 48 px, where their windows (at most 37 px) are smaller than the canvas
    rows, cols, radius, height = rng.uniform((0, 0, 1, -1), (47, 47, 3, 1), size=(3, 4)).T
    disks = dict(rows=rows, cols=cols, radius=radius, height=height)
    w_disks = rng.normal(size=(48, 48))
    # the fuse layer on one image: stack is its coarse input, with more
    # channels than the fine one
    fuse = dict(
        fine=rng.normal(size=(1, 8, 8, 1)),
        coarse=stack[None],
        kernel=rng.normal(size=(3, 3, 3, 3)),
        bias=rng.normal(size=(3,)),
    )
    w_fuse = rng.normal(size=(1, 8, 8, 3))

    def soft_disks_case(wrt):
        def fn(p):
            operands = (p if k == wrt else v for k, v in disks.items())
            return _weighted_sum(ad.soft_disks(*operands, 48, 0.35), w_disks)

        return (f"soft_disks_{wrt}", disks[wrt], fn)

    def fuse_case(wrt):
        def fn(p):
            f, c, k, b = (p if name == wrt else v for name, v in fuse.items())
            return _weighted_sum(ad.fuse_conv2d(f, c, k, bias=b, slope=0.1), w_fuse)

        return (f"fuse_conv2d_{wrt}", fuse[wrt], fn)

    cases = [
        ("add_lhs", a, lambda p: _weighted_sum(ad.add(p, ad.new_param(p.tape, b)), w)),
        ("add_rhs", b, lambda p: _weighted_sum(ad.add(ad.new_param(p.tape, a), p), w)),
        ("mul_lhs", a, lambda p: _weighted_sum(ad.mul(p, ad.new_param(p.tape, b)), w)),
        ("mul_rhs", b, lambda p: _weighted_sum(ad.mul(ad.new_param(p.tape, a), p), w)),
        ("mul_const", a, lambda p: _weighted_sum(ad.mul(p, 1.7), w)),
        ("sigmoid", a, lambda p: _weighted_sum(ad.sigmoid(p), w)),
        ("softplus", a, lambda p: _weighted_sum(ad.softplus(p), w)),
        ("clamp", a, lambda p: _weighted_sum(ad.clamp(p, -0.5, 0.5), w)),
        ("l1_diff", a, lambda p: _weighted_sum(ad.l1_diff(p, b), w)),
        ("reduce_sum", a, lambda p: ad.reduce_sum(p)),
        ("reshape", a, lambda p: _weighted_sum(ad.reshape(p, (4, 3)), w.reshape(4, 3))),
        ("take_index", vec, lambda p: ad.take_index(p, 2)),
        ("matvec_w", mat, lambda p: _weighted_sum(ad.matvec(p, vec), wvec)),
        ("matvec_v", vec, lambda p: _weighted_sum(ad.matvec(ad.new_param(p.tape, mat), p), wvec)),
        (
            "conv2d_input",
            img,
            lambda p: _weighted_sum(
                ad.conv2d(p, ad.new_param(p.tape, ker), stride=1, padding=1), w_conv
            ),
        ),
        (
            "conv2d_kernel",
            ker,
            lambda p: _weighted_sum(
                ad.conv2d(ad.new_param(p.tape, img), p, stride=1, padding=1), w_conv
            ),
        ),
        (
            "conv2d_strided",
            img,
            lambda p: _weighted_sum(
                ad.conv2d(p, ad.new_param(p.tape, ker), stride=2, padding=1), w_conv_s2
            ),
        ),
        (
            "conv2d_batched_input",
            imgs,
            lambda p: _weighted_sum(
                ad.conv2d(p, ad.new_param(p.tape, ker), stride=1, padding=1), w_convs
            ),
        ),
        (
            "conv2d_batched_strided",
            imgs,
            lambda p: _weighted_sum(
                ad.conv2d(p, ad.new_param(p.tape, ker), stride=2, padding=1), w_convs_s2
            ),
        ),
        (
            "conv2d_batched_kernel",
            ker,
            lambda p: _weighted_sum(
                ad.conv2d(ad.new_param(p.tape, imgs), p, stride=2, padding=1), w_convs_s2
            ),
        ),
        (
            "conv2d_block",
            imgs,
            lambda p: _weighted_sum(
                ad.conv2d(
                    p,
                    ad.new_param(p.tape, ker),
                    stride=2,
                    padding=1,
                    bias=ad.new_param(p.tape, bias),
                    slope=0.1,
                ),
                w_block,
            ),
        ),
        *(soft_disks_case(k) for k in disks),
        *(fuse_case(k) for k in fuse),
    ]
    return cases


def test_criterion_2_gradient_fidelity(verdict):
    t0 = time.perf_counter()
    worst_prim, worst_name = 0.0, ""
    for name, point, fn in _primitive_cases():
        res = ad.grad_check(fn, point, step=1e-5)
        checked = res.errors is not None and np.isfinite(res.errors).any()
        assert checked, f"{name}: no coordinate had a valid stencil"
        if res.max_rel_error > worst_prim:
            worst_prim, worst_name = res.max_rel_error, name

    model = CountModel.create(
        ModelConfig(input_size=16, channels=(2, 3, 4), fused_channels=4, embed_dim=3, seed=2)
    )
    params = init_blob_params(np.random.default_rng(5), n_slots=4, n_on=2, canvas=16)
    params = params.with_values({**params.as_dict(), "radius_raw": np.full(4, inverse_softplus(2.5))})

    # the guidance forward: count grid only, frozen weights
    cond = model.frozen_conditioning(0)

    def image_loss(p):
        return guidance_loss(model.count_on_tape(p, cond), 4.0)

    img0 = render_blob_scene(ad.Tape(), params).values
    res_img = ad.grad_check(image_loss, img0, step=3e-4)
    assert res_img.errors is not None and np.isfinite(res_img.errors).sum() > 200
    worst_e2e = res_img.max_rel_error

    base = params.as_dict()
    for latent in base:
        def latent_loss(p, latent=latent):
            nodes = {
                k: (p if k == latent else ad.new_param(p.tape, v)) for k, v in base.items()
            }
            image = render_blob_scene(p.tape, params, nodes)
            return guidance_loss(model.count_on_tape(image, cond), 4.0)

        res = ad.grad_check(latent_loss, base[latent], step=3e-4)
        checked = res.errors is not None and np.isfinite(res.errors).any()
        assert checked, f"{latent}: no coordinate had a valid stencil"
        worst_e2e = max(worst_e2e, res.max_rel_error)

    elapsed = time.perf_counter() - t0
    ok = worst_prim <= 1e-6 and worst_e2e <= 1e-4 and elapsed < 120.0
    verdict(
        2,
        ok,
        f"primitives worst {worst_prim:.2e} ({worst_name}), end-to-end worst "
        f"{worst_e2e:.2e}, {elapsed:.1f}s",
        [
            ("primitives_worst", worst_prim, "<=", 1e-6),
            ("end_to_end_worst", worst_e2e, "<=", 1e-4),
            ("seconds", elapsed, "<", 120.0),
        ],
    )
    assert ok


def test_criterion_3_training_convergence(verdict, strong_setup):
    m = strong_setup["metrics"]
    minutes = strong_setup["cpu_minutes"]
    ok = m.mae <= 1.5 and m.rmse <= 2.5 and minutes < 30.0
    verdict(
        3,
        ok,
        f"held-out MAE {m.mae:.3f} (<=1.5), RMSE {m.rmse:.3f} (<=2.5), "
        f"{minutes:.1f} CPU-min (<30)",
        [("mae", m.mae, "<=", 1.5), ("rmse", m.rmse, "<=", 2.5), ("cpu_minutes", minutes, "<", 30.0)],
    )
    assert ok


def test_criterion_4_hybrid_ordering(verdict, hybrid_setup):
    h = hybrid_setup
    improvement = (h["strong_shifted"].mae - h["finetuned_shifted"].mae) / h[
        "strong_shifted"
    ].mae
    ok = (
        improvement >= 0.20
        and h["finetuned_mixed"].mae < h["weak_only_mixed"].mae
        and h["strong_mixed"].mae < h["weak_only_mixed"].mae
    )
    verdict(
        4,
        ok,
        f"shifted-count MAE improvement {improvement:.0%} (>=20%); mixed MAE "
        f"strong {h['strong_mixed'].mae:.2f} / finetuned {h['finetuned_mixed'].mae:.2f} "
        f"/ weak-only {h['weak_only_mixed'].mae:.2f}",
        [
            ("shifted_mae_improvement", improvement, ">=", 0.20),
            ("finetuned_mixed_mae", h["finetuned_mixed"].mae, "<", h["weak_only_mixed"].mae),
            ("strong_mixed_mae", h["strong_mixed"].mae, "<", h["weak_only_mixed"].mae),
        ],
    )
    assert ok


def test_criterion_5_size_bias(verdict, twin_setup):
    rows, cls_rows = size_bias_tables(
        {"card": twin_setup["card"], "den": twin_setup["den"]},
        twin_setup["eval"],
        ratios=(1.0, 1.5, 2.0, 3.0),
        by_size_class=True,
    )
    separated = []
    for ratio in (1.5, 2.0, 3.0):
        card = next(r for r in rows if r.model == "card" and r.ratio == ratio)
        den = next(r for r in rows if r.model == "den" and r.ratio == ratio)
        separated.append(card.mean_abs_drift < den.mean_abs_drift)

    # the density twin's drift per size class, averaged over the rescaled ratios
    den_cls = [r for r in cls_rows if r.model == "den" and r.ratio in (1.5, 2.0, 3.0)]
    by_class = [
        float(np.mean([r.mean_drift for r in den_cls if r.size_class == c]))
        for c in (0, 1, 2)
    ]
    grows = by_class[0] < by_class[1] < by_class[2]

    ok = all(separated) and grows and twin_setup["cpu_hours"] < 1.0
    detail_rows = "; ".join(
        f"ratio {r.ratio}: |card| {next(x for x in rows if x.model=='card' and x.ratio==r.ratio).mean_abs_drift:.2f}"
        f" vs |den| {r.mean_abs_drift:.2f}"
        for r in rows
        if r.model == "den" and r.ratio != 1.0
    )
    verdict(
        5,
        ok,
        f"{detail_rows}; density drift by size class {by_class[0]:+.2f}/"
        f"{by_class[1]:+.2f}/{by_class[2]:+.2f}; {twin_setup['cpu_hours']:.2f} CPU-h",
    )
    assert ok


def test_criterion_6_guidance_control(verdict, strong_setup):
    model = strong_setup["model"]
    successes = 0
    total = 0
    worst_rise = 0.0
    over_budget = 0
    descended = True
    for q_req in range(3, 10):
        for seed in range(20):
            rng = np.random.default_rng((q_req, seed))
            # Start two blobs short of the request: the counter's gradient
            # only reaches blobs that are at least faintly visible, so
            # guidance closes a small gap from below, the way a
            # prompt-conditioned generator starts near the asked-for count.
            params = init_blob_params(rng, n_slots=12, n_on=max(0, q_req - 2))
            best, traj = guide_optimize(
                model, params, GuidanceConfig(q_req=float(q_req)), category_id=0
            )
            image = render_blob_scene(ad.Tape(), best).values
            pred = model.predict_count(image, 0)
            comps = oracle_count_components(image, ORACLE_THRESHOLD)
            total += 1
            successes += abs(pred - q_req) <= 0.5 and comps == q_req
            over_budget += len(traj) > 150
            losses = np.array([r.loss for r in traj])
            if losses.size >= 6:
                smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
                worst_rise = max(worst_rise, float(np.diff(smoothed).max(initial=0.0)))
                descended = descended and smoothed[-1] <= smoothed[0]
    rate = successes / total
    ok = rate >= 0.70 and over_budget == 0 and worst_rise <= SMOOTHED_RISE_TOL and descended
    verdict(
        6,
        ok,
        f"success {successes}/{total} ({rate:.0%}, >=70%), worst smoothed loss rise "
        f"{worst_rise:.1e} (tol {SMOOTHED_RISE_TOL:.0e}), all within 150 steps",
        [
            ("success_rate", rate, ">=", 0.70),
            ("worst_smoothed_rise", worst_rise, "<=", SMOOTHED_RISE_TOL),
            ("runs_over_budget", over_budget, "==", 0),
        ],
    )
    assert ok


def test_criterion_7_threshold_semantics(verdict, strong_setup):
    model = strong_setup["model"]
    images = [s.scene.image for s in strong_setup["test"].samples()[:100]]
    cats = [s.category_id for s in strong_setup["test"].samples()[:100]]
    kappas = [round(0.1 * i, 1) for i in range(10)]
    per_kappa = model.counts(images, cats, kappas)  # one list of 100 counts per kappa
    exact = sum(
        c == model.predict_count(image, cat) for c, image, cat in zip(per_kappa[0], images, cats)
    )
    monotone = all(
        all(a >= b for a, b in zip(counts, counts[1:])) for counts in zip(*per_kappa)
    )
    ok = exact == 100 and monotone
    verdict(
        7,
        ok,
        f"kappa=0 bit-exact on {exact}/100 images; counts monotone non-increasing "
        f"over kappa grid: {monotone}",
    )
    assert ok


def test_criterion_8_metric_correctness(verdict):
    m = compute_metrics([1.0, -1.0, 3.0, -3.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0])
    ok = m.mae == 1.6 and m.rmse == 2.0
    verdict(8, ok, f"hand case MAE {m.mae} (=1.6), RMSE {m.rmse} (=2.0)")
    assert ok


def test_criterion_9_tiling_consistency(verdict, strong_setup):
    model = strong_setup["model"]
    samples = strong_setup["test"].samples()
    by_cat: dict[int, list] = {}
    for s in samples:
        by_cat.setdefault(s.category_id, []).append(s)
    # Every whole quad of the test split, in both categories, so the
    # composites cover the population the eval RMSE is measured on.
    composites = []
    for cat, group in sorted(by_cat.items()):
        for i in range(0, len(group) - 3, 4):
            quad = group[i : i + 4]
            top = np.hstack([quad[0].scene.image, quad[1].scene.image])
            bottom = np.hstack([quad[2].scene.image, quad[3].scene.image])
            composites.append(
                (np.vstack([top, bottom]), cat, sum(s.scene.count(cat) for s in quad))
            )
    # 106 disk and 94 square test scenes: no slicing may drop a category.
    per_cat = {cat: sum(c == cat for _, c, _ in composites) for cat in sorted(by_cat)}
    assert per_cat == {0: 26, 1: 23}, f"composites per category {per_cat}"

    max_split_gap = 0.0
    errors = []
    # all 49 composites in one call; each 128 px image counts as its four 64 px tiles
    tiled_counts = model.counts([c[0] for c in composites], [c[1] for c in composites])[0]
    for (image, cat, truth), tiled in zip(composites, tiled_counts):
        parts = [
            model.predict_count(image[r : r + 64, c : c + 64], cat)
            for r in (0, 64)
            for c in (0, 64)
        ]
        max_split_gap = max(max_split_gap, abs(tiled - math.fsum(parts)))
        errors.append(tiled - truth)
    mean_err = float(np.mean(np.abs(errors)))
    signed_mean = float(np.mean(errors))
    metrics = strong_setup["metrics"]
    bound = TILING_RMSE_FACTOR * metrics.rmse
    ok = max_split_gap == 0.0 and mean_err <= bound
    verdict(
        9,
        ok,
        f"tiled vs per-tile sum gap {max_split_gap} (==0); mean |tiled - truth| "
        f"{mean_err:.3f} <= {bound:.3f} (sqrt(4) x eval RMSE {metrics.rmse:.3f}; "
        f"eval MAE {metrics.mae:.3f}) over {len(composites)} composites "
        f"{per_cat}; signed mean {signed_mean:+.3f}",
        [("split_gap", max_split_gap, "==", 0.0), ("mean_abs_error", mean_err, "<=", bound)],
    )
    assert ok


def test_criterion_10_serialization_round_trips(verdict, tmp_path):
    rng = np.random.default_rng(31)
    corpus_ok = 0
    for i in range(100):
        spec = SceneSpec(
            image_size=int(rng.choice([32, 48, 64])),
            count_range=(0, int(rng.integers(1, 5))),
            radius_range=(1.5, 2.5),
            min_separation=0.8,
            n_negative_points=int(rng.integers(0, 8)),
            distractor_range=(0, int(rng.integers(0, 3))),
            seed=int(rng.integers(1 << 31)),
        )
        corpus = make_corpus(spec, int(rng.integers(1, 4)), split=str(rng.choice(["train", "val", "test"])))
        path = tmp_path / f"corpus_{i}.bin"
        write_corpus(corpus, path)
        loaded = read_corpus(path)
        first = path.read_bytes()
        write_corpus(loaded, path)
        corpus_ok += corpora_equal(corpus, loaded) and first == path.read_bytes()

    ckpt_ok = 0
    for i in range(100):
        cfg = ModelConfig(
            input_size=int(rng.choice([16, 24, 32])),
            channels=tuple(int(x) for x in rng.integers(2, 6, size=3)),
            fused_channels=int(rng.integers(2, 6)),
            embed_dim=int(rng.integers(2, 6)),
            num_categories=int(rng.integers(1, 4)),
            seed=int(rng.integers(1 << 31)),
        )
        model = CountModel.create(cfg)
        path = tmp_path / f"model_{i}.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        first = path.read_bytes()
        save_checkpoint(loaded, path)
        same = (
            loaded.config == model.config
            and set(loaded.weights) == set(model.weights)
            and all(np.array_equal(loaded.weights[k], model.weights[k]) for k in model.weights)
            and first == path.read_bytes()
        )
        ckpt_ok += same

    ok = corpus_ok == 100 and ckpt_ok == 100
    verdict(
        10,
        ok,
        f"corpus round-trips {corpus_ok}/100, checkpoint round-trips {ckpt_ok}/100",
    )
    assert ok
