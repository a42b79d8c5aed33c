"""Cardinality maps versus Gaussian density maps.

A cardinality map spreads each object's unit mass uniformly over its own
mask pixels and then pools the per-pixel mass into grid cells. Its total
is the object count, exactly, no matter how objects overlap or touch the
border, because pooling is a partition sum of per-instance masses.

A Gaussian density map places a smoothing kernel at each point
annotation instead. With per-kernel renormalization (used here) its
total also matches the count, but the mass sits where the kernel puts
it, at a bandwidth chosen by annotation policy rather than where the
object actually is. That semantic difference, mass per instance versus
mass per appearance, is what the size-bias experiment (gallery script
04) turns into a measurable failure mode.
"""

import numpy as np

from countgrad.datagen import SceneSpec, sample_scene
from countgrad.targets import (
    default_sigma,
    gaussian_density,
    grid_cardinality,
    pixel_cardinality,
    strong_class_grid,
)

rng = np.random.default_rng(7)
spec = SceneSpec(count_range=(6, 6), radius_range=(2.0, 5.0), seed=7)
sample = sample_scene(spec, rng)
scene = sample.scene
q = scene.count(sample.category_id)
print(f"scene with {q} instances of category {sample.category_id}")

# Per-pixel cardinality: each instance deposits 1/area on every pixel it owns.
masks = scene.masks(sample.category_id)
pixel_map = pixel_cardinality(masks, scene.shape)
print(f"pixel mass total      = {pixel_map.sum():.12f}")

# Pooling into 8x8 cells preserves the total exactly (it is a partition sum).
card = grid_cardinality(pixel_map)
print(f"cardinality map total = {card.total:.12f}  (error {abs(card.total - q):.2e})")

# The density map needs point annotations and a bandwidth.
sigma = default_sigma(masks)
den = gaussian_density(sample.points.positive, sigma, scene.shape)
print(f"density map total     = {den.sum():.12f}  (error {abs(den.sum() - q):.2e})")

# The classification grid marks which cells contain any target pixels.
cls = strong_class_grid(masks, scene.shape)
print(f"cells with target mass: {int(cls.sum())} of {cls.size}")

# Cell-level view: cardinality mass where the objects actually are.
print("\ncardinality map (x100, rounded):")
for row in np.round(card.grid * 100).astype(int):
    print("  " + " ".join(f"{v:4d}" for v in row))
