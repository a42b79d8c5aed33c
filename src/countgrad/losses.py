"""Training and guidance objectives as differentiable scalars.

Count losses are summed (not averaged) L1 so their scale matches objects,
which keeps the default weighting meaningful against count error. The
classification losses are mean binary cross-entropy on class logits z,
``softplus((1 - 2y) * z)`` for label y (exact at any z: no clamp, and no
cancellation), making their weight independent of grid resolution.

Targets are the plain arrays the training loop stacks; the weak
classification loss takes one WeakGrids per row. Predictions may carry a
leading batch axis, (B, grid, grid) against per-row targets; every loss
is then the sum of its rows' single-image losses, so gradients of a batch
equal the sum of per-image gradients.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .targets import WeakGrids

__all__ = [
    "LossWeights",
    "strong_count_loss",
    "strong_cls_loss",
    "weak_cls_loss",
    "weak_count_loss",
    "guidance_loss",
]

@dataclass(frozen=True)
class LossWeights:
    """Objective weights for both stages plus the strong-mixing fraction.

    Defaults follow the two-stage recipe: cardinality regression dominates
    (weight 1.0) with a 0.1 classification term, and 5% of weak-stage
    batches are drawn from strongly labeled data.
    """

    alpha1: float = 1.0  # strong count term
    beta1: float = 0.1  # strong classification term
    alpha2: float = 1.0  # weak count term
    beta2: float = 0.1  # weak classification term
    gamma: float = 0.05  # strong fraction mixed into weak batches

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha2", "beta2", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.gamma > 1.0:
            raise ValueError("gamma must lie in [0, 1]")


def strong_count_loss(pred: ad.DiffArray, target: np.ndarray) -> ad.DiffArray:
    """Summed L1 between the predicted grid and the cardinality (or Gaussian density) grid."""
    return ad.l1_diff(pred, target)


def _bce_terms(logits: ad.DiffArray, labels: np.ndarray) -> ad.DiffArray:
    """Per-cell cross-entropy of logits z against boolean labels y: ``softplus((1 - 2y) * z)``."""
    return ad.softplus(ad.mul(logits, np.where(labels, -1.0, 1.0)))


def strong_cls_loss(logits: ad.DiffArray, labels: np.ndarray) -> ad.DiffArray:
    """Mean binary cross-entropy over every grid cell (of each row, summed over rows).

    ``labels`` is the boolean class grid, shaped like ``logits``.
    """
    if logits.shape != labels.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {labels.shape}")
    terms = _bce_terms(logits, labels)
    return ad.mul(ad.reduce_sum(terms), 1.0 / math.prod(labels.shape[-2:]))


def weak_cls_loss(logits: ad.DiffArray, weak: Sequence[WeakGrids]) -> ad.DiffArray:
    """Mean binary cross-entropy restricted to the annotated cells.

    ``logits`` is a (B, grid, grid) batch and ``weak`` holds one WeakGrids
    per row; each row is averaged over its own annotated cells.
    Unannotated cells contribute exactly nothing, so sparse labels never
    penalize the model for regions nobody looked at.
    """
    omega = np.stack([wg.annotated for wg in weak])
    n = omega.sum(axis=(1, 2), keepdims=True)
    if not n.all():
        raise ValueError("no annotated cells to supervise")
    cell_weight = omega / n
    if logits.shape != cell_weight.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {cell_weight.shape}")
    terms = _bce_terms(logits, np.stack([wg.positive for wg in weak]))
    return ad.reduce_sum(ad.mul(terms, cell_weight))


def weak_count_loss(pred: ad.DiffArray, count) -> ad.DiffArray:
    """Absolute deviation of the summed prediction from the scalar count.

    With a (B,) array of counts, each row of ``pred`` is summed against its
    own count and the deviations add up.
    """
    counts = np.asarray(count, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("count must be non-negative")
    totals = ad.reduce_sum(pred, axis=tuple(range(counts.ndim, pred.values.ndim)))
    return ad.l1_diff(totals, counts)


def guidance_loss(pred: ad.DiffArray, q_req: float) -> ad.DiffArray:
    """|total predicted count - requested count|; steers generation upstream."""
    if q_req < 0:
        raise ValueError("requested count must be non-negative")
    return ad.l1_diff(ad.reduce_sum(pred), np.asarray(float(q_req)))
