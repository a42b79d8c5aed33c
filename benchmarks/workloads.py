"""The benchmark's three workloads, each a closed loop of requests.

One caller issues a request, waits for every operation in it to return,
checks the outputs, and only then starts the next request. Request ``i``
draws its inputs from ``(seed, i)`` alone, so a run can be replayed
request for request (the traced pass of a trace run does exactly that).

An operation is one call into countgrad's public API, timed by
:meth:`Runner.op`. A request returns a digest of its outputs; two passes
over the same requests must produce equal digests.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import countgrad.autodiff as ad
import countgrad.datagen as datagen
import countgrad.harness as harness
import countgrad.raster as raster
import countgrad.targets as targets
from countgrad.datagen import Corpus, SceneSpec
from countgrad.losses import LossWeights
from countgrad.model import CountModel, ModelConfig

KAPPAS = tuple(round(0.1 * i, 1) for i in range(10))
SIZE_BIAS_RATIOS = (1.0, 1.5, 2.0, 3.0, 4.0)
ORACLE_THRESHOLD = 0.40  # the CLI's default component-oracle cutoff
REFERENCE_SEED = 2024  # fixed: the reference model is the same for every run seed
TILE = 64
CARDINALITY_ULPS = 4  # allowed distance of a cardinality-target total from its count


@dataclass(frozen=True)
class Sizes:
    """Work per request. ``full`` is what the benchmark measures."""

    ref_train: int = 96  # reference model: strong corpus size
    ref_val: int = 16
    ref_epochs: int = 2
    # train workload: the acceptance gate's training recipe shrunk so that
    # generation, strong and weak training and validation keep the gate's
    # shares of time (README.md, "Workloads")
    strong_train: int = 16  # counts 1-15
    strong_val: int = 1
    strong_epochs: int = 40
    weak_train: int = 16  # counts 15-40
    weak_val: int = 1
    weak_epochs: int = 20
    eval_images: int = 48  # infer workload
    sweep_images: int = 8  # threshold and size-bias sweeps use the first ones
    tiled_scenes: int = 8  # 128 px scenes
    checked_images: int = 2  # per request, for the per-image kappa and tiling checks
    guide_steps: int = 30


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(
        ref_train=16, ref_val=4, ref_epochs=1,
        strong_train=8, strong_val=4, strong_epochs=1,
        weak_train=4, weak_val=2, weak_epochs=1,
        eval_images=4, sweep_images=2, tiled_scenes=1, checked_images=1,
        guide_steps=3,
    ),
}


class OpFailed(Exception):
    """An operation raised; the rest of the request depends on it."""


class HostProbe:
    """Times a fixed snippet shaped like countgrad's work, to track host speed.

    The reference host is a shared 2-vCPU VM whose speed drifts by up to
    +-25% in stretches of seconds to minutes. The snippet runs, in plain
    numpy, the model's six im2col convolutions forward and backward, small
    elementwise ops, and the blob renderer's per-slot work on a 64x64 grid;
    it does not touch countgrad, so program changes cannot move it. Op times are scaled by ``REFERENCE_S / probe`` so that
    they read as if the host ran at its reference speed.
    """

    REFERENCE_S = 0.011  # snippet time on the reference host at its usual speed
    EVERY_S = 0.25  # re-probe before an op once the last sample is this old
    STEPS = 4
    REPEATS = 2  # a sample is the fastest of these, so one interrupt does not skew it
    WARMUP_S = 1.0

    # (input shape, output channels, stride) of the default model's convolutions
    LAYERS = (((64, 64, 1), 8, 2), ((32, 32, 8), 16, 2), ((16, 16, 16), 24, 2),
              ((16, 16, 40), 24, 1), ((16, 16, 24), 24, 2), ((16, 16, 24), 24, 2))

    def __init__(self):
        grid = np.arange(64.0)
        self._rows, self._cols = grid[:, None], grid[None, :]
        rng = np.random.default_rng(0)
        self._layers = [
            (rng.normal(size=shape), rng.normal(size=(9 * shape[2], co)), stride)
            for shape, co, stride in self.LAYERS
        ]
        self.samples: list[float] = []
        self._last = -math.inf
        # A fresh process runs this snippet up to 15x slower for its first
        # few tenths of a second (thread start-up, page faults); wait that out.
        t_end = perf_counter() + self.WARMUP_S
        while perf_counter() < t_end:
            self.value = self._measure()

    def _step(self) -> float:
        acc = 0.0
        for x, k, stride in self._layers:
            h, w, c = x.shape
            xp = np.zeros((h + 2, w + 2, c))
            xp[1:-1, 1:-1] = x
            ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
            sr, sc, sd = xp.strides
            windows = np.lib.stride_tricks.as_strided(
                xp, (ho, wo, 3, 3, c), (sr * stride, sc * stride, sr, sc, sd), writeable=False
            )
            cols = windows.reshape(ho * wo, -1).copy()
            y = cols @ k
            y = np.where(y > 0, y, 0.1 * y)
            acc += float(((0.5 * y) @ k.T)[0, 0]) + float((cols.T @ y)[0, 0])
            for _ in range(12):
                acc += float((y * 1.0001 + 0.5).sum())
        for s in range(12):
            dr, dc = self._rows - (3.0 + 5 * s), self._cols - (7.0 + 4 * s)
            d = np.sqrt(dr * dr + dc * dc + 1e-9)
            acc += float((0.7 / (1.0 + np.exp((d - 3.0) / 0.35))).sum())
        return acc

    def _measure(self) -> float:
        best = math.inf
        for _ in range(self.REPEATS):
            t0 = perf_counter()
            for _ in range(self.STEPS):
                self._step()
            self._last = perf_counter()
            best = min(best, self._last - t0)
        return best

    def sample(self, force: bool = False) -> float:
        """Current snippet time, re-measured when stale or when forced."""
        if force or perf_counter() - self._last > self.EVERY_S:
            self.value = self._measure()
            self.samples.append(self.value)
        return self.value


class Runner:
    """Times operations, records check outcomes, and drives an optional tracer.

    Each entry of :attr:`requests` maps op kind to seconds for one request;
    :attr:`scaled` holds the same times scaled to the probe's reference speed.
    """

    def __init__(self, probe: HostProbe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed_ops: set[int] = set()  # ids of operations that raised or failed a check
        self.checks = 0
        self.problems: list[str] = []
        self.requests: list[dict[str, float]] = []
        self.scaled: list[dict[str, float]] = []
        self._times: dict[str, float] = {}
        self._scaled: dict[str, float] = {}
        self._last_op: dict[str, int] = {}  # op kind -> id of its latest operation
        self.last_scale = 1.0  # REFERENCE_S / host probe, for the last op

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def op(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        op_id = self._last_op[kind] = self.attempted
        speed = self.probe.sample()
        tracer = self.tracer
        frame = None
        if tracer is not None:
            tracer.op = kind
            tracer.active = True
            frame = tracer.begin(f"op.{kind}")
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, reported below
            self.failed_ops.add(op_id)
            self.problems.append(f"{kind} raised {type(exc).__name__}: {exc}")
            raise OpFailed(kind) from exc
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end(frame)
                tracer.active = False
                tracer.op = None
            if dt > self.probe.EVERY_S:  # long op: average the host speed before and after
                speed = 0.5 * (speed + self.probe.sample(force=True))
            self.last_scale = self.probe.REFERENCE_S / speed
            self._times[kind] = self._times.get(kind, 0.0) + dt
            self._scaled[kind] = self._scaled.get(kind, 0.0) + dt * self.last_scale
        return out

    def check(self, kind: str, ok: bool, what: str) -> None:
        """Record one output check on the last ``kind`` operation.

        A failed check marks that operation as failed; a check of a kind with
        no operation (the trace replay check) is charged to the latest one.
        """
        self.checks += 1
        if not ok:
            self.failed_ops.add(self._last_op.get(kind, self.attempted))
            self.problems.append(f"{kind}: {what}")

    def end_request(self) -> None:
        self.requests.append(self._times)
        self.scaled.append(self._scaled)
        self._times, self._scaled = {}, {}


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _weights_digest(model: CountModel) -> tuple:
    return tuple(float(np.sum(v)) for v in model.weights.values())


# -- setup ---------------------------------------------------------------------


def build_reference_model(sz: Sizes) -> CountModel:
    """Strong-stage counter trained with fixed seeds: the infer and guide model."""
    spec = SceneSpec(count_range=(1, 15), seed=REFERENCE_SEED)
    train = datagen.make_corpus(spec, sz.ref_train)
    val = datagen.make_corpus(spec, sz.ref_val, split="val", first_id=sz.ref_train)
    model = CountModel.create(ModelConfig(seed=0))
    cfg = harness.TrainConfig(
        stage="strong", epochs=sz.ref_epochs, batch_size=16, patience=sz.ref_epochs, seed=0
    )
    model, _ = harness.train_stage(model, harness.StageData(train, val), cfg)
    return model


# -- train ---------------------------------------------------------------------


def _strong_spec(seed: int) -> SceneSpec:
    return SceneSpec(count_range=(1, 15), seed=seed)


def _weak_spec(seed: int) -> SceneSpec:
    return SceneSpec(count_range=(15, 40), radius_range=(1.5, 3.0), min_separation=0.9, seed=seed)


def _check_training(rt: Runner, kind: str, model: CountModel, log: list, epochs: int) -> None:
    rt.check(kind, len(log) == epochs, f"ran {len(log)} of {epochs} epochs")
    rt.check(
        kind,
        all(math.isfinite(r[k]) for r in log for k in ("loss_cnt", "loss_cls", "val_mae")),
        "non-finite loss or validation MAE",
    )
    rt.check(kind, all(_finite(v) for v in model.weights.values()), "non-finite weights")


def train_request(rt: Runner, ctx, i: int) -> tuple:
    """Generate both corpora, round-trip them through files, train two stages."""
    sz, seed = ctx.sizes, ctx.seed
    plan = (
        ("strong_train", _strong_spec(seed), sz.strong_train, "train"),
        ("strong_val", _strong_spec(seed), sz.strong_val, "val"),
        ("weak_train", _weak_spec(seed), sz.weak_train, "train"),
        ("weak_val", _weak_spec(seed), sz.weak_val, "val"),
    )
    # disjoint scene-id ranges: request i never repeats another request's scenes
    first = i * sum(n for _, _, n, _ in plan)
    corpora = {}
    for name, spec, n, split in plan:
        made = rt.op("gen", datagen.make_corpus, spec, n, split=split, first_id=first)
        first += n
        path = Path(ctx.workdir) / f"{name}.bin"
        rt.op("gen", datagen.write_corpus, made, path)
        corpora[name] = rt.op("gen", datagen.read_corpus, path)
        rt.check("gen", datagen.corpora_equal(made, corpora[name]), f"{name} corpus changed on round trip")

    for sample in corpora["strong_train"].samples():
        scene = sample.scene
        total = targets.grid_cardinality(
            targets.pixel_cardinality(scene.masks(sample.category_id), scene.shape)
        ).total
        q = scene.count(sample.category_id)
        # exact up to float64 rounding of the 1/area pixel masses, as targets.py
        # states: at most 2 ulps off in 11,000 generated scenes, 4 allowed
        rt.check("gen", abs(total - q) <= CARDINALITY_ULPS * math.ulp(q),
                 f"cardinality total {total!r} != count {q}")

    model = CountModel.create(ModelConfig(seed=0))
    strong_cfg = harness.TrainConfig(
        stage="strong", epochs=sz.strong_epochs, batch_size=16, patience=sz.strong_epochs, seed=0
    )
    model, log_s = rt.op(
        "train_strong",
        harness.train_stage,
        model,
        harness.StageData(corpora["strong_train"], corpora["strong_val"]),
        strong_cfg,
    )
    _check_training(rt, "train_strong", model, log_s, sz.strong_epochs)

    weak_cfg = harness.TrainConfig(
        stage="weak", weights=LossWeights(gamma=0.05), epochs=sz.weak_epochs, batch_size=16,
        patience=sz.weak_epochs, seed=0,
    )
    model, log_w = rt.op(
        "train_weak",
        harness.train_stage,
        model,
        harness.StageData(corpora["weak_train"], corpora["weak_val"], strong_mix=corpora["strong_train"]),
        weak_cfg,
    )
    _check_training(rt, "train_weak", model, log_w, sz.weak_epochs)
    rt.check(
        "train_weak",
        sum(r["n_strong"] for r in log_w) > 0,
        "weak stage replayed no strong samples",
    )
    return _weights_digest(model) + tuple(r["val_mae"] for r in log_s + log_w)


def train_units(sz: Sizes) -> dict[str, int]:
    return {
        "gen": sz.strong_train + sz.strong_val + sz.weak_train + sz.weak_val,
        "train_strong": sz.strong_epochs * sz.strong_train,
        "train_weak": sz.weak_epochs * sz.weak_train,
    }


# -- infer ---------------------------------------------------------------------


def _tiles(image: np.ndarray):
    h, w = image.shape
    return [image[r : r + TILE, c : c + TILE] for r in range(0, h, TILE) for c in range(0, w, TILE)]


def infer_request(rt: Runner, ctx, i: int) -> tuple:
    """Evaluate, sweep kappa and scale, and count tiled 128 px scenes."""
    sz, seed, model = ctx.sizes, ctx.seed, ctx.model
    corpus = datagen.make_corpus(
        SceneSpec(count_range=(1, 15), seed=seed), sz.eval_images, split="test",
        first_id=i * sz.eval_images,
    )
    sweep_corpus = Corpus(corpus.spec, corpus.split, corpus.items[: sz.sweep_images])
    big = datagen.make_corpus(
        SceneSpec(image_size=2 * TILE, count_range=(4, 40), seed=seed), sz.tiled_scenes,
        split="test", first_id=i * sz.tiled_scenes,
    )

    m = rt.op("evaluate", harness.evaluate, model, corpus)
    rt.check("evaluate", m.n == len(corpus) and math.isfinite(m.mae) and math.isfinite(m.rmse),
             f"bad metrics {m}")

    rows, best = rt.op("threshold_sweep", harness.threshold_sweep, model, sweep_corpus, KAPPAS)
    ref = harness.evaluate(model, sweep_corpus)
    rt.check("threshold_sweep", [r.kappa for r in rows] == list(KAPPAS), "kappa rows out of order")
    rt.check("threshold_sweep", (rows[0].mae, rows[0].rmse) == (ref.mae, ref.rmse),
             f"kappa 0 row {rows[0]} differs from evaluate {ref}")
    rt.check("threshold_sweep", best in KAPPAS, f"best kappa {best} not swept")
    for s in sweep_corpus.samples()[: sz.checked_images]:
        counts = [model.thresholded_count(s.scene.image, s.category_id, k) for k in KAPPAS]
        rt.check("threshold_sweep", all(a >= b for a, b in zip(counts, counts[1:])),
                 f"counts rise with kappa: {counts}")

    sb = rt.op("size_bias_sweep", harness.size_bias_sweep, {"ref": model}, sweep_corpus, SIZE_BIAS_RATIOS)
    rt.check("size_bias_sweep", [r.ratio for r in sb] == list(SIZE_BIAS_RATIOS), "ratio rows out of order")
    rt.check("size_bias_sweep", sb[0].mean_drift == 0.0 and sb[0].mean_abs_drift == 0.0,
             f"ratio 1.0 drift {sb[0].mean_drift} is not zero")
    rt.check("size_bias_sweep", all(math.isfinite(r.mae) and math.isfinite(r.mean_drift) for r in sb),
             "non-finite size-bias row")

    tiled = rt.op("evaluate_tiled", harness.evaluate, model, big, tile_size=TILE)
    rt.check("evaluate_tiled", tiled.n == len(big) and math.isfinite(tiled.mae), f"bad metrics {tiled}")
    for s in big.samples()[: sz.checked_images]:
        whole = model.tiled_count(s.scene.image, s.category_id, TILE)
        parts = math.fsum(model.predict_count(t, s.category_id) for t in _tiles(s.scene.image))
        rt.check("evaluate_tiled", whole == parts, f"tiled count {whole!r} != per-tile sum {parts!r}")
    return (m.mae, m.rmse, *(r.mae for r in rows), *(r.mae for r in sb), tiled.mae)


def infer_units(sz: Sizes) -> dict[str, int]:
    return {
        "evaluate": sz.eval_images,
        "threshold_sweep": sz.sweep_images,
        "size_bias_sweep": sz.sweep_images,
        "evaluate_tiled": sz.tiled_scenes,
    }


# -- guide ---------------------------------------------------------------------


class StepClock:
    """Model proxy that timestamps every ``forward_on_tape`` call.

    Guidance runs one forward per step, so the gaps between consecutive
    timestamps within one ``guide_optimize`` call are its step times.
    """

    def __init__(self, model: CountModel):
        self._model = model
        self.stamps: list[float] = []

    def forward_on_tape(self, *args, **kwargs):
        self.stamps.append(perf_counter())
        return self._model.forward_on_tape(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._model, name)


def guide_request(rt: Runner, ctx, i: int) -> tuple:
    """One guidance request as the CLI serves it: optimize, render, count, oracle."""
    sz, model = ctx.sizes, ctx.model
    rng = np.random.default_rng((ctx.seed, i))
    q_req = int(rng.integers(3, 13))
    params = harness.init_blob_params(rng, n_slots=12, n_on=q_req - 2)
    cfg = harness.GuidanceConfig(
        q_req=float(q_req), max_steps=sz.guide_steps, plateau_patience=sz.guide_steps
    )
    clock = ctx.clock
    clock.stamps.clear()
    best, traj = rt.op("guide_optimize", harness.guide_optimize, clock, params, cfg, category_id=0)
    ctx.step_seconds.extend((rt.last_scale * np.diff(clock.stamps)).tolist())
    rt.check("guide_optimize", len(traj) == sz.guide_steps, f"{len(traj)} of {sz.guide_steps} steps")
    rt.check("guide_optimize", all(math.isfinite(r.loss) and math.isfinite(r.count) for r in traj),
             "non-finite trajectory")
    rt.check("guide_optimize", all(_finite(v) for v in best.as_dict().values()), "non-finite latents")

    image = rt.op("render", harness.render_blob_scene, ad.Tape(), best).values
    rt.check("render", image.shape == (best.canvas, best.canvas) and _finite(image), "bad render")
    pred = rt.op("predict_count", model.predict_count, image, 0)
    rt.check("predict_count", math.isfinite(pred), f"non-finite count {pred}")
    comps = rt.op("oracle_count", raster.oracle_count_components, image, ORACLE_THRESHOLD)
    ctx.oracle_hits += comps == q_req
    ctx.oracle_total += 1
    return (q_req, pred, comps, *(r.loss for r in traj))


def guide_units(sz: Sizes) -> dict[str, int]:
    return {"guide_optimize": sz.guide_steps}


@dataclass(frozen=True)
class Workload:
    request: Callable  # (runner, ctx, request index) -> digest of the outputs
    units: Callable[[Sizes], dict[str, int]]  # work units per op kind
    counted: tuple[str, ...]  # op kinds whose units throughput_per_s counts


WORKLOADS = {
    "train": Workload(train_request, train_units, ("train_strong", "train_weak")),
    "infer": Workload(infer_request, infer_units,
                      ("evaluate", "threshold_sweep", "size_bias_sweep", "evaluate_tiled")),
    "guide": Workload(guide_request, guide_units, ("guide_optimize",)),
}
