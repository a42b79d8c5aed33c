"""Comparative experiments: size-bias sweep, threshold sweep, ablations.

These return plain row dataclasses; persistence (CSV, summaries) is the
command-line layer's job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datagen import Corpus
from ..losses import LossWeights
from ..model import CountModel, ModelConfig
from ..raster import downscale_image
from .train import StageData, TrainConfig, compute_metrics, evaluate, predict_counts, train_stage

__all__ = [
    "SizeBiasRow",
    "SizeClassRow",
    "ThresholdRow",
    "AblationRow",
    "ABLATION_VARIANTS",
    "SIZE_BIAS_RATIOS",
    "size_bias_tables",
    "size_bias_sweep",
    "size_class_drift",
    "threshold_sweep",
    "run_ablation",
]


@dataclass(frozen=True)
class SizeBiasRow:
    model: str
    ratio: float
    mean_drift: float  # signed mean of pred(ratio) - pred(1.0)
    mean_abs_drift: float
    mae: float


@dataclass(frozen=True)
class SizeClassRow:
    model: str
    ratio: float
    size_class: int  # 0 = smallest third of mean instance area, 2 = largest
    mean_drift: float
    n: int


@dataclass(frozen=True)
class ThresholdRow:
    kappa: float
    mae: float
    rmse: float


@dataclass(frozen=True)
class AblationRow:
    variant: str
    weights: LossWeights
    mae: float
    rmse: float


# The size-bias protocol's default downscaling ratios; 1.0 is the reference.
SIZE_BIAS_RATIOS = (1.0, 1.5, 2.0, 3.0, 4.0)


def _drift_tables(
    models: dict[str, CountModel], corpus: Corpus, ratios: tuple[float, ...], by_size_class: bool
) -> tuple[list[SizeBiasRow], list[SizeClassRow]]:
    """Size-bias rows, and size-class rows if asked, from one set of base
    and per-ratio predictions per model. Ratio 1.0 reuses the base; each
    other ratio's rescaled images are counted in one ``model.counts`` call."""
    samples = corpus.samples()
    cats = [s.category_id for s in samples]
    truths = [s.scene.count(s.category_id) for s in samples]
    classes = _size_classes(corpus) if by_size_class else np.zeros(0)
    present = np.unique(classes).tolist()  # ascending; absent classes get no row
    rows, cls_rows = [], []
    for name, model in models.items():
        base = predict_counts(model, corpus)
        for ratio in ratios:
            preds = base
            if ratio != 1.0:
                images = [downscale_image(s.scene.image, ratio, s.scene.background) for s in samples]
                preds = model.counts(images, cats)[0]
            drifts = np.asarray([p - b for p, b in zip(preds, base)])
            mae = compute_metrics(preds, truths).mae
            rows.append(SizeBiasRow(name, ratio, float(drifts.mean()), float(np.abs(drifts).mean()), mae))
            for cls in present:
                sel = classes == cls
                cls_rows.append(SizeClassRow(name, ratio, cls, float(drifts[sel].mean()), int(sel.sum())))
    return rows, cls_rows


def size_bias_tables(
    models: dict[str, CountModel], corpus: Corpus, ratios: tuple[float, ...], by_size_class: bool
) -> tuple[list[SizeBiasRow], list[SizeClassRow]]:
    """``size_bias_sweep``'s checks and rows, plus every model's
    ``size_class_drift`` rows if asked, from the same predictions."""
    if 1.0 not in ratios:
        raise ValueError("ratios must include 1.0 as the reference")
    if any(s.scene.count(s.category_id) > 30 for s in corpus.samples()):
        raise ValueError("size-bias protocol expects counts of at most 30")
    return _drift_tables(models, corpus, ratios, by_size_class)


def size_bias_sweep(
    models: dict[str, CountModel], corpus: Corpus, ratios: tuple[float, ...] = SIZE_BIAS_RATIOS
) -> list[SizeBiasRow]:
    """Count drift under progressive downscaling, per model and ratio.

    Drift compares against each scene's own full-size prediction, so the
    ratio-1.0 rows are identically zero by construction. Ground-truth
    counts are unchanged by rescaling, which is what makes MAE at high
    ratios meaningful.
    """
    return size_bias_tables(models, corpus, ratios, by_size_class=False)[0]


def _size_classes(corpus: Corpus) -> np.ndarray:
    """Tercile label per scene by mean instance area (0 small, 2 large)."""
    areas = []
    for s in corpus.samples():
        masks = s.scene.masks(s.category_id)
        areas.append(np.mean([m.area for m in masks]) if masks else 0.0)
    areas = np.asarray(areas)
    lo, hi = np.quantile(areas, [1 / 3, 2 / 3])
    return np.digitize(areas, [lo, hi])


def size_class_drift(
    model: CountModel, name: str, corpus: Corpus, ratios: tuple[float, ...]
) -> list[SizeClassRow]:
    """Signed drift broken down by object size class, per ratio."""
    return _drift_tables({name: model}, corpus, ratios, by_size_class=True)[1]


def threshold_sweep(
    model: CountModel, corpus: Corpus, kappas: tuple[float, ...]
) -> tuple[list[ThresholdRow], float]:
    """Evaluate at each classification threshold; returns rows and argmin kappa.

    One ``model.counts`` call counts the corpus at every kappa from the
    same grids, so every row equals evaluate at its kappa bit for bit.
    """
    samples = corpus.samples()
    truths = [s.scene.count(s.category_id) for s in samples]
    per_kappa = model.counts([s.scene.image for s in samples], [s.category_id for s in samples], kappas)
    rows = []
    for kappa, preds in zip(kappas, per_kappa):
        m = compute_metrics(preds, truths)
        rows.append(ThresholdRow(kappa, m.mae, m.rmse))
    best = min(rows, key=lambda r: r.mae)
    return rows, best.kappa


ABLATION_VARIANTS = ("full", "no-pretrain", "no-weak", "density-target", "no-alignment")


def run_ablation(
    variants: tuple[str, ...],
    model_config: ModelConfig,
    strong_data: StageData,
    weak_data: StageData,
    eval_corpus: Corpus,
    strong_cfg: TrainConfig,
    weak_cfg: TrainConfig,
) -> list[AblationRow]:
    """Train each variant from the same seed and corpora, evaluate, compare.

    Variants toggle one ingredient each: no-pretrain skips the strong
    stage, no-weak skips the finetune, density-target swaps the strong
    regression target, and no-alignment zeroes both classification terms.
    """
    for v in variants:
        if v not in ABLATION_VARIANTS:
            raise ValueError(f"unknown variant {v!r}; choose from {ABLATION_VARIANTS}")
    rows = []
    for variant in variants:
        s_cfg, w_cfg = strong_cfg, weak_cfg
        if variant == "density-target":
            s_cfg = replace(s_cfg, target="density")
        if variant == "no-alignment":
            s_cfg = replace(s_cfg, weights=replace(s_cfg.weights, beta1=0.0, beta2=0.0))
            w_cfg = replace(w_cfg, weights=replace(w_cfg.weights, beta1=0.0, beta2=0.0))
        model = CountModel.create(model_config)
        used = s_cfg.weights
        if variant != "no-pretrain":
            model, _ = train_stage(model, strong_data, s_cfg)
        if variant not in ("no-weak",):
            model, _ = train_stage(model, weak_data, w_cfg)
            used = w_cfg.weights
        m = evaluate(model, eval_corpus)
        rows.append(AblationRow(variant, used, m.mae, m.rmse))
    return rows
