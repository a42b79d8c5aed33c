"""Regression and classification targets built from scene annotations.

The cardinality map spreads each instance's unit mass uniformly over its
mask pixels and pools to grid cells, so the map total equals the object
count exactly (up to 64-bit rounding). The Gaussian density map is the
classical alternative kept as an ablation baseline; its total only
approximates the count. The classification head's targets are the strong
class grid, a plain bool array of the cells any target mask touches, and
the weak-label grids of point-annotated cells. Every target lives on the
same fixed grid of GRID_FACTOR-pixel cells, so an image extent it does not
divide is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import InstanceMask, PointAnnotations

__all__ = [
    "CardinalityMap",
    "WeakGrids",
    "pixel_cardinality",
    "grid_cardinality",
    "gaussian_density",
    "strong_class_grid",
    "weak_label_grids",
    "default_sigma",
]

GRID_FACTOR = 8  # pixels per grid cell side; 64x64 images pool to 8x8


@dataclass(frozen=True)
class CardinalityMap:
    grid: np.ndarray  # float64 (Hg, Wg), objects per cell

    def __post_init__(self):
        if (self.grid < 0).any():
            raise ValueError("cardinality cells must be non-negative")

    @property
    def total(self) -> float:
        return float(self.grid.sum())


@dataclass(frozen=True)
class WeakGrids:
    """Sparse supervision: point-derived cell labels plus the scalar count K."""

    positive: np.ndarray  # bool (Hg, Wg)
    negative: np.ndarray  # bool (Hg, Wg)
    count: int

    def __post_init__(self):
        if (self.positive & self.negative).any():
            raise ValueError("positive and negative grids must be disjoint")
        if int(self.positive.sum()) > self.count:
            raise ValueError("positive cells exceed the point count")

    @property
    def annotated(self) -> np.ndarray:
        """Omega: the cells that carry any label."""
        return self.positive | self.negative


def pixel_cardinality(masks: list[InstanceMask], image_shape: tuple[int, int]) -> np.ndarray:
    """Per-pixel cardinality: each mask adds 1/area on its own pixels.

    Overlapping masks contribute additively, so the total stays equal to
    the number of masks regardless of overlap.
    """
    out = np.zeros(image_shape, dtype=np.float64)
    for m in masks:
        if m.shape != tuple(image_shape):
            raise ValueError("mask shape differs from image shape")
        out[m.pixels] += 1.0 / m.area
    return out


def _grid_shape(image_shape: tuple[int, int]) -> tuple[int, int]:
    """Grid extents of an image: one cell per GRID_FACTOR x GRID_FACTOR pixel block."""
    h, w = image_shape
    if h % GRID_FACTOR or w % GRID_FACTOR:
        raise ValueError(f"grid factor {GRID_FACTOR} does not divide image extents {(h, w)}")
    return h // GRID_FACTOR, w // GRID_FACTOR


def grid_cardinality(pixel_grid: np.ndarray) -> CardinalityMap:
    """Pool a per-pixel cardinality grid into GRID_FACTOR-sided cells by block summation."""
    hg, wg = _grid_shape(pixel_grid.shape)
    pooled = pixel_grid.reshape(hg, GRID_FACTOR, wg, GRID_FACTOR).sum(axis=(1, 3))
    return CardinalityMap(pooled)


def gaussian_density(points: np.ndarray, sigma: float, image_shape: tuple[int, int]) -> np.ndarray:
    """Classical density target: float64 (Hg, Wg), one unit-mass Gaussian per annotated point.

    Kernels live at grid resolution, are truncated to a 3-sigma box clipped
    at the borders, and are renormalized per point so border objects do not
    leak mass. ``sigma`` is the bandwidth in image pixels.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    h, w = image_shape
    hg, wg = _grid_shape(image_shape)
    grid = np.zeros((hg, wg), dtype=np.float64)
    sg = sigma / GRID_FACTOR
    reach = 3.0 * sg
    for r, c in np.asarray(points, dtype=np.float64).reshape(-1, 2):
        if not (0 <= r < h and 0 <= c < w):
            raise ValueError(f"point ({r}, {c}) outside image bounds")
        # pixel coordinate -> grid coordinate of the same physical location
        gr = (r + 0.5) / GRID_FACTOR - 0.5
        gc = (c + 0.5) / GRID_FACTOR - 0.5
        u0 = max(0, int(np.floor(gr - reach)))
        u1 = min(hg - 1, int(np.ceil(gr + reach)))
        v0 = max(0, int(np.floor(gc - reach)))
        v1 = min(wg - 1, int(np.ceil(gc + reach)))
        du = np.arange(u0, u1 + 1) - gr
        dv = np.arange(v0, v1 + 1) - gc
        kernel = np.exp(-(du[:, None] ** 2 + dv[None, :] ** 2) / (2.0 * sg * sg))
        grid[u0 : u1 + 1, v0 : v1 + 1] += kernel / kernel.sum()
    return grid


def strong_class_grid(masks: list[InstanceMask], image_shape: tuple[int, int]) -> np.ndarray:
    """Bool (Hg, Wg) grid: True wherever any mask pixel of the target category falls."""
    hg, wg = _grid_shape(image_shape)
    union = np.zeros(image_shape, dtype=bool)
    for m in masks:
        union |= m.pixels
    return union.reshape(hg, GRID_FACTOR, wg, GRID_FACTOR).any(axis=(1, 3))


def weak_label_grids(points: PointAnnotations, image_shape: tuple[int, int]) -> WeakGrids:
    """Map sparse points to cell labels; positives override negatives.

    Dropping a colliding negative label is harmless, dropping a positive
    would bias the count supervision, hence the precedence rule. K is the
    number of positive points, not of positive cells.
    """
    h, w = image_shape
    hg, wg = _grid_shape(image_shape)
    pos = np.zeros((hg, wg), dtype=bool)
    neg = np.zeros((hg, wg), dtype=bool)
    for grid, pts in ((pos, points.positive), (neg, points.negative)):
        for r, c in pts:
            if not (0 <= r < h and 0 <= c < w):
                raise ValueError(f"point ({r}, {c}) outside image bounds")
            grid[r // GRID_FACTOR, c // GRID_FACTOR] = True
    neg &= ~pos
    return WeakGrids(pos, neg, points.count)


def default_sigma(masks: list[InstanceMask]) -> float:
    """Area-adaptive density bandwidth: quarter of the mean mask side scale."""
    if not masks:
        return 1.0
    mean_area = float(np.mean([m.area for m in masks]))
    return max(1.0, 0.25 * np.sqrt(mean_area))
