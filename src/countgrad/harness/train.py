"""Two-stage hybrid training and count-metric evaluation.

The strong stage regresses dense per-cell targets (cardinality by default,
Gaussian density for the ablation twin) alongside per-cell classification.
The weak stage sees only point-derived labels and the scalar count, with a
gamma fraction of every batch drawn from strongly labeled data so dense
supervision is not forgotten. Early stopping tracks validation MAE and the
best-validation weights are restored at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..datagen import Corpus
from ..losses import (
    LossWeights,
    strong_cls_loss,
    strong_count_loss,
    weak_cls_loss,
    weak_count_loss,
)
from ..model import IMAGES_PER_FORWARD, CountModel
from ..targets import (
    default_sigma,
    gaussian_density,
    grid_cardinality,
    pixel_cardinality,
    strong_class_grid,
    weak_label_grids,
)
from .optim import Adam

__all__ = [
    "TrainConfig",
    "StageData",
    "Metrics",
    "TrainingDivergence",
    "compute_metrics",
    "predict_counts",
    "evaluate",
    "train_stage",
]


class TrainingDivergence(RuntimeError):
    """Loss became non-finite; carries where it happened."""


@dataclass(frozen=True)
class TrainConfig:
    stage: str = "strong"  # "strong" or "weak"
    weights: LossWeights = field(default_factory=LossWeights)
    lr_heads: float = 1e-3
    lr_trunk: float = 1e-4  # 10x slower, mirroring the two-group rate policy
    epochs: int = 20
    batch_size: int = 16
    patience: int = 5  # epochs without val-MAE improvement before stopping
    seed: int = 0
    target: str = "cardinality"  # strong regression target; "density" for the ablation twin
    sigma: float | None = None  # density bandwidth override (default: area-adaptive)

    def __post_init__(self):
        if self.stage not in ("strong", "weak"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.target not in ("cardinality", "density"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.lr_heads <= 0 or self.lr_trunk <= 0:
            raise ValueError("learning rates must be positive")
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("epochs, batch_size, and patience must be >= 1")
        if self.stage == "weak" and self.weights.gamma > 0 and self.n_replay == 0:
            raise ValueError(
                f"gamma {self.weights.gamma} at batch_size {self.batch_size} replays "
                "round(gamma * batch_size) = 0 strong images per batch"
            )

    @property
    def n_replay(self) -> int:
        """Strong images replayed in each weak-stage batch."""
        return round(self.weights.gamma * self.batch_size)


@dataclass(frozen=True)
class StageData:
    """Corpora for one stage; ``strong_mix`` feeds the weak stage's gamma share."""

    train: Corpus
    val: Corpus
    strong_mix: Corpus | None = None


@dataclass(frozen=True)
class Metrics:
    mae: float
    rmse: float
    n: int


def compute_metrics(preds, truths) -> Metrics:
    """MAE and RMSE of per-image count errors."""
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape or preds.ndim != 1 or preds.size == 0:
        raise ValueError("need matching non-empty 1-d predictions and truths")
    err = preds - truths
    return Metrics(float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err))), preds.size)


def predict_counts(model: CountModel, corpus: Corpus, kappa: float = 0.0) -> list[float]:
    """Per-image predicted counts over a corpus, in corpus order, from
    ``model.counts``: images larger than the model input are tiled, and
    every tile of the corpus runs in one stacked forward."""
    samples = corpus.samples()
    return model.counts(
        [s.scene.image for s in samples], [s.category_id for s in samples], (kappa,)
    )[0]


def evaluate(
    model: CountModel,
    corpus: Corpus,
    kappa: float = 0.0,
    tile_size: int | None = None,
) -> Metrics:
    """Count-error metrics from ``predict_counts``; ``tile_size``, if given, must be the input size."""
    if tile_size not in (None, model.config.input_size):
        raise ValueError("tile size must equal the model input size")
    preds = predict_counts(model, corpus, kappa)
    return compute_metrics(preds, [s.scene.count(s.category_id) for s in corpus.samples()])


# -- target preparation -------------------------------------------------------


@dataclass
class _Example:
    """One training image with its stage's targets.

    Strong: ``count`` is the dense count grid and ``cls`` the bool class grid.
    Weak: ``count`` is the scalar count and ``cls`` the point-derived label grids.
    """

    image: np.ndarray
    category_id: int
    strong: bool
    count: object
    cls: object


def _prepare_strong(corpus: Corpus, cfg: TrainConfig) -> list[_Example]:
    out = []
    for sample in corpus.samples():
        scene = sample.scene
        if any(i.mask is None for i in scene.instances if i.category_id == sample.category_id):
            raise ValueError("strong stage needs full masks; corpus has subpixel instances")
        masks = scene.masks(sample.category_id)
        shape = scene.shape
        if cfg.target == "cardinality":
            grid = grid_cardinality(pixel_cardinality(masks, shape)).grid
        else:
            sigma = cfg.sigma if cfg.sigma is not None else default_sigma(masks)
            grid = gaussian_density(sample.points.positive, sigma, shape).grid
        cls = strong_class_grid(masks, shape).grid
        out.append(_Example(scene.image, sample.category_id, True, grid, cls))
    return out


def _prepare_weak(corpus: Corpus) -> list[_Example]:
    out = []
    for sample in corpus.samples():
        wg = weak_label_grids(sample.points, sample.scene.shape)
        out.append(_Example(sample.scene.image, sample.category_id, False, wg.count, wg))
    return out


# -- gradient accumulation ----------------------------------------------------

# A minibatch runs as consecutive tapes of IMAGES_PER_FORWARD images (its
# measured trade-off is in model.py), whose weight gradients are summed.

def _rows(y: ad.DiffArray, idx: list[int], n_rows: int) -> ad.DiffArray:
    return y if len(idx) == n_rows else ad.take_index(y, np.asarray(idx))


def _accumulate(model, group, w: LossWeights, grad_sums, where):
    """Forward/backward one group of examples on a single tape.

    Strong and weak items share the forward; each loss term covers only its
    own rows, and a term with zero weight or no rows is left out. Adds the
    weight gradients into ``grad_sums``; returns the unweighted count and
    classification loss sums over the group.
    """
    tape = ad.Tape()
    images = np.stack([ex.image for ex in group])
    fp = model.forward_on_tape(tape, images, [ex.category_id for ex in group], trainable=True)
    n = len(group)
    strong = [i for i, ex in enumerate(group) if ex.strong]
    weak = [i for i, ex in enumerate(group) if not ex.strong]
    labelled = [i for i in weak if group[i].cls.annotated.any()]
    cnt_terms, cls_terms = [], []  # (weight, loss node)
    if strong and w.alpha1 > 0:
        target = np.stack([group[i].count for i in strong])
        cnt_terms.append((w.alpha1, strong_count_loss(_rows(fp.y_cnt, strong, n), target)))
    if strong and w.beta1 > 0:
        target = np.stack([group[i].cls for i in strong])
        cls_terms.append((w.beta1, strong_cls_loss(_rows(fp.y_cls, strong, n), target)))
    if weak and w.alpha2 > 0:
        counts = np.asarray([group[i].count for i in weak], dtype=np.float64)
        cnt_terms.append((w.alpha2, weak_count_loss(_rows(fp.y_cnt, weak, n), counts)))
    if labelled and w.beta2 > 0:
        grids = [group[i].cls for i in labelled]
        cls_terms.append((w.beta2, weak_cls_loss(_rows(fp.y_cls, labelled, n), grids)))
    if not cnt_terms and not cls_terms:
        return 0.0, 0.0

    total = None
    for weight, node in cnt_terms + cls_terms:
        weighted = ad.scale(node, weight)
        total = weighted if total is None else ad.add(total, weighted)
    if not math.isfinite(float(total.values)):
        raise TrainingDivergence(f"non-finite loss at {where}")
    grads = ad.backward(tape, total)
    for name, node in fp.params.items():
        grad_sums[name] += grads.wrt(node)
    return (
        sum(float(node.values) for _, node in cnt_terms),
        sum(float(node.values) for _, node in cls_terms),
    )


def train_stage(model: CountModel, data: StageData, config: TrainConfig):
    """Optimize ``model`` in place for one stage; returns (model, epoch log).

    The log carries one record per epoch: mean loss components, validation
    MAE/RMSE, and the per-epoch strong/weak sample tally (for auditing the
    gamma mix). Deterministic given the config seed.
    """
    if config.stage == "weak" and config.weights.gamma > 0 and not data.strong_mix:
        raise ValueError("weak stage with gamma > 0 needs a non-empty strong_mix corpus")
    if len(data.train) == 0:
        raise ValueError("empty training corpus")

    rng = np.random.default_rng(config.seed)
    w = config.weights

    if config.stage == "strong":
        pool, n_replay = _prepare_strong(data.train, config), 0
    else:
        pool, n_replay = _prepare_weak(data.train), config.n_replay
    replays = _prepare_strong(data.strong_mix, config) if n_replay else []

    rates = {"trunk": config.lr_trunk, "heads": config.lr_heads}
    opt = Adam({name: rates[g] for g, names in model.param_groups().items() for name in names})

    best_mae = math.inf
    best_weights = {k: v.copy() for k, v in model.weights.items()}
    stale = 0
    log = []
    mix_pos = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(pool))
        cnt_total = cls_total = 0.0
        n_strong_seen = n_images = 0
        for bi, b0 in enumerate(range(0, len(order), config.batch_size)):
            part = [pool[i] for i in order[b0 : b0 + config.batch_size]]
            n_rep = min(n_replay, len(part))
            # replays take the first places, keeping the batch size fixed
            batch = [replays[(mix_pos + j) % len(replays)] for j in range(n_rep)] + part[n_rep:]
            mix_pos += n_rep
            grad_sums = {k: np.zeros_like(v) for k, v in model.weights.items()}
            where = f"epoch {epoch}, batch {bi}"
            for g0 in range(0, len(batch), IMAGES_PER_FORWARD):
                group = batch[g0 : g0 + IMAGES_PER_FORWARD]
                cnt, cls = _accumulate(model, group, w, grad_sums, where)
                cnt_total += cnt
                cls_total += cls
            n = len(batch)
            opt.step(model.weights, {k: g / n for k, g in grad_sums.items()})
            for name, arr in model.weights.items():
                if not np.all(np.isfinite(arr)):
                    raise TrainingDivergence(f"non-finite weight {name} after {where}")
            n_strong_seen += sum(ex.strong for ex in batch)
            n_images += n

        val = evaluate(model, data.val)
        log.append(
            {
                "epoch": epoch,
                "loss_cnt": cnt_total / n_images,
                "loss_cls": cls_total / n_images,
                "val_mae": val.mae,
                "val_rmse": val.rmse,
                "n_strong": n_strong_seen,
                "n_weak": n_images - n_strong_seen,
            }
        )
        if val.mae < best_mae:
            best_mae = val.mae
            best_weights = {k: v.copy() for k, v in model.weights.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.weights = best_weights
    return model, log
