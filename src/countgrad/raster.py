"""Scene rasters: instance masks, compositing, rescaling, and a counting oracle.

Images are single-channel float64 grids with values in [0, 1]. Masks are
full-canvas boolean arrays; coordinates are (row, col) pixel indices.
Occlusion is resolved by paint order: later instances cover earlier ones and
masks keep only visible pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InstanceMask",
    "SceneInstance",
    "Scene",
    "PointAnnotations",
    "disk_mask",
    "square_mask",
    "render_scene",
    "downscale_image",
    "downscale_and_pad",
    "oracle_count_components",
]


@dataclass(frozen=True)
class InstanceMask:
    """Binary footprint of one object instance on the full canvas."""

    pixels: np.ndarray  # bool (H, W)

    def __post_init__(self):
        p = self.pixels
        if p.dtype != np.bool_ or p.ndim != 2:
            raise ValueError("mask must be a 2-d boolean array")
        if not p.any():
            raise ValueError("mask must cover at least one pixel")

    @property
    def area(self) -> int:
        return int(self.pixels.sum())

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


@dataclass(frozen=True)
class SceneInstance:
    """One object in a scene.

    ``mask`` is None exactly for instances that fell below one pixel
    during downscaling; those keep their count and are ``subpixel``.
    """

    category_id: int
    mask: InstanceMask | None

    @property
    def subpixel(self) -> bool:
        return self.mask is None


@dataclass(frozen=True)
class Scene:
    """Rendered image plus its surviving instances and background level."""

    image: np.ndarray  # float64 (H, W), values in [0, 1]
    instances: tuple[SceneInstance, ...]
    background: float

    def __post_init__(self):
        img = self.image
        if img.ndim != 2 or img.dtype != np.float64:
            raise ValueError("image must be a 2-d float64 array")
        if not np.isfinite(img).all():
            raise ValueError("image values must be finite")
        if img.min() < 0.0 or img.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        for inst in self.instances:
            if inst.mask is not None and inst.mask.shape != img.shape:
                raise ValueError("instance mask shape differs from image")

    @property
    def shape(self) -> tuple[int, int]:
        return self.image.shape

    def count(self, category_id: int | None = None) -> int:
        """Number of instances, optionally restricted to one category."""
        if category_id is None:
            return len(self.instances)
        return sum(1 for i in self.instances if i.category_id == category_id)

    def masks(self, category_id: int | None = None) -> list[InstanceMask]:
        """Masks of non-subpixel instances, optionally for one category."""
        return [
            i.mask
            for i in self.instances
            if i.mask is not None
            and (category_id is None or i.category_id == category_id)
        ]


@dataclass(frozen=True)
class PointAnnotations:
    """Sparse labels: one positive point per instance plus background points."""

    positive: np.ndarray  # int (K, 2) rows of (row, col)
    negative: np.ndarray  # int (n_neg, 2)

    def __post_init__(self):
        for name, pts in (("positive", self.positive), ("negative", self.negative)):
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"{name} points must have shape (n, 2)")

    @property
    def count(self) -> int:
        """K, the number of annotated instances."""
        return self.positive.shape[0]

    def validate_against(self, scene: Scene) -> None:
        """Check containment invariants against a scene's visible masks."""
        if self.count != scene.count():
            raise ValueError(
                f"{self.count} positive points for {scene.count()} instances"
            )
        union = np.zeros(scene.shape, dtype=bool)
        for m in scene.masks():
            union |= m.pixels
        for r, c in self.positive:
            if not union[r, c]:
                raise ValueError(f"positive point ({r}, {c}) lies on no mask")
        for r, c in self.negative:
            if union[r, c]:
                raise ValueError(f"negative point ({r}, {c}) lies on a mask")


def _bounds_check(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], what: str):
    h, w = shape
    if rows.min() < 0 or rows.max() >= h or cols.min() < 0 or cols.max() >= w:
        raise ValueError(f"{what} extends outside the {h}x{w} canvas")


def disk_mask(center: tuple[float, float], radius: float, image_shape: tuple[int, int]) -> InstanceMask:
    """Rasterize a disk: pixel centers within ``radius`` of ``center``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    r0, c0 = center
    rows = np.arange(int(np.floor(r0 - radius)), int(np.ceil(r0 + radius)) + 1)
    cols = np.arange(int(np.floor(c0 - radius)), int(np.ceil(c0 + radius)) + 1)
    dr = rows[:, None] - r0
    dc = cols[None, :] - c0
    covered = dr * dr + dc * dc <= radius * radius
    hit_r, hit_c = np.nonzero(covered)
    if hit_r.size == 0:
        raise ValueError("disk covers no pixel centers")
    _bounds_check(rows[hit_r], cols[hit_c], image_shape, "disk")
    pixels = np.zeros(image_shape, dtype=bool)
    pixels[rows[hit_r], cols[hit_c]] = True
    return InstanceMask(pixels)


def square_mask(center: tuple[float, float], half_size: float, image_shape: tuple[int, int]) -> InstanceMask:
    """Rasterize an axis-aligned square of side ``2*half_size``."""
    if half_size <= 0:
        raise ValueError("half_size must be positive")
    r0, c0 = center
    rows = np.arange(int(np.ceil(r0 - half_size)), int(np.floor(r0 + half_size)) + 1)
    cols = np.arange(int(np.ceil(c0 - half_size)), int(np.floor(c0 + half_size)) + 1)
    if rows.size == 0 or cols.size == 0:
        raise ValueError("square covers no pixel centers")
    _bounds_check(rows, cols, image_shape, "square")
    pixels = np.zeros(image_shape, dtype=bool)
    pixels[np.ix_(rows, cols)] = True
    return InstanceMask(pixels)


@dataclass(frozen=True)
class ShapePaint:
    """Rasterized instance queued for rendering: footprint plus paint value."""

    category_id: int
    mask: InstanceMask
    intensity: float


def render_scene(
    paints: list[ShapePaint],
    image_shape: tuple[int, int],
    background: float = 0.1,
    noise_amplitude: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Scene:
    """Composite instances back-to-front onto a flat background.

    Later list entries occlude earlier ones; each surviving instance keeps
    only its visible pixels. Instances left with no visible pixel are
    dropped, so the scene's count reflects what the image actually shows.
    Requires every paint intensity to contrast with the background by at
    least 0.2 so thresholding oracles stay unambiguous.
    """
    if not 0.0 <= background <= 1.0:
        raise ValueError("background must lie in [0, 1]")
    image = np.full(image_shape, background, dtype=np.float64)
    visible = []
    for paint in paints:
        if paint.mask.shape != tuple(image_shape):
            raise ValueError("paint mask shape differs from canvas")
        if not 0.0 <= paint.intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")
        if abs(paint.intensity - background) < 0.2:
            raise ValueError(
                f"intensity {paint.intensity} too close to background {background}"
            )
        image[paint.mask.pixels] = paint.intensity
        visible.append(paint.mask.pixels.copy())
        for earlier in visible[:-1]:
            earlier &= ~paint.mask.pixels
    instances = tuple(
        SceneInstance(p.category_id, InstanceMask(v))
        for p, v in zip(paints, visible)
        if v.any()
    )
    if noise_amplitude > 0.0:
        if rng is None:
            raise ValueError("noise requires an rng")
        image = image + rng.uniform(-noise_amplitude, noise_amplitude, image_shape)
        np.clip(image, 0.0, 1.0, out=image)
    return Scene(image, instances, background)


def _linear_weights(n_out: int, n_in: int, ratio: float) -> np.ndarray:
    """Row-stochastic bilinear sampling matrix for one axis.

    Output sample i reads source coordinate (i + 0.5) * ratio - 0.5, so
    ratio 1.0 reproduces the input exactly.
    """
    s = np.clip((np.arange(n_out) + 0.5) * ratio - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(s).astype(int)
    frac = s - i0
    rows = np.arange(n_out)
    w = np.zeros((n_out, n_in))
    # the two taps coincide on the last source pixel, so accumulate
    np.add.at(w, (rows, i0), 1.0 - frac)
    np.add.at(w, (rows, np.minimum(i0 + 1, n_in - 1)), frac)
    return w


def _nearest_indices(n_out: int, n_in: int, ratio: float) -> np.ndarray:
    idx = np.floor((np.arange(n_out) + 0.5) * ratio).astype(int)
    return np.minimum(idx, n_in - 1)


def _shrunk_shape(shape: tuple[int, int], ratio: float) -> tuple[int, int]:
    if ratio < 1.0:
        raise ValueError("ratio must be >= 1.0")
    return max(1, round(shape[0] / ratio)), max(1, round(shape[1] / ratio))


def downscale_image(image: np.ndarray, ratio: float, background: float) -> np.ndarray:
    """Shrink an image by ``1/ratio`` into its top-left corner, padding with ``background``.

    Bilinear resampling, clipped to [0, 1]; this is the image that
    downscale_and_pad puts in its scene.
    """
    h, w = image.shape
    h2, w2 = _shrunk_shape(image.shape, ratio)
    small = _linear_weights(h2, h, ratio) @ image @ _linear_weights(w2, w, ratio).T
    out = np.full((h, w), background, dtype=np.float64)
    out[:h2, :w2] = np.clip(small, 0.0, 1.0)
    return out


def downscale_and_pad(scene: Scene, ratio: float) -> Scene:
    """Shrink a scene by ``1/ratio`` into the top-left corner, padding with background.

    The image is resampled bilinearly (downscale_image), masks by nearest
    neighbor (keeping them binary). Ground-truth counts never change: an
    instance whose mask shrinks below one pixel stays in the instance list
    flagged subpixel.
    """
    h, w = scene.shape
    h2, w2 = _shrunk_shape(scene.shape, ratio)
    image = downscale_image(scene.image, ratio, scene.background)

    ri = _nearest_indices(h2, h, ratio)
    ci = _nearest_indices(w2, w, ratio)
    instances = []
    for inst in scene.instances:
        if inst.mask is None:
            instances.append(inst)
            continue
        shrunk = inst.mask.pixels[np.ix_(ri, ci)]
        if shrunk.any():
            pixels = np.zeros((h, w), dtype=bool)
            pixels[:h2, :w2] = shrunk
            instances.append(SceneInstance(inst.category_id, InstanceMask(pixels)))
        else:
            instances.append(SceneInstance(inst.category_id, None))
    return Scene(image, tuple(instances), scene.background)


def oracle_count_components(image: np.ndarray, threshold: float) -> int:
    """Count 4-connected components of pixels strictly above ``threshold``.

    Independent of the model and the mask bookkeeping; used as ground truth
    when judging generated images. ``image`` is one 2-d image with finite
    pixels. Foreground pixels are grouped into horizontal runs, and two runs
    in adjacent rows are joined where they share a column.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"oracle_count_components expects one 2-d image, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise ValueError("image has non-finite pixels")
    fg = image > threshold
    start = fg.copy()
    start[:, 1:] &= ~fg[:, :-1]
    run = np.cumsum(start).reshape(fg.shape) - 1  # run id of each foreground pixel, row-major
    shared = fg[:-1] & fg[1:]  # one edge per shared column
    return _count_graph_components(int(start.sum()), run[:-1][shared], run[1:][shared])


def _count_graph_components(n: int, a: np.ndarray, b: np.ndarray) -> int:
    """Connected components of the graph on nodes 0..n-1 with edges (a_i, b_i).

    Each round starts from stars (every node points at its tree's root) and
    merges every star that has an edge to another: a root hooks onto the
    smallest smaller root it touches, and a root that neither hooked nor
    was hooked onto hooks onto a neighbouring root, which has itself hooked,
    so no cycle forms. The stars of a component at least halve per round,
    and pointer jumping flattens the new trees in about log2 of their depth
    steps: O(log² n) array passes whatever the components' shapes.
    """
    ids = np.arange(n)
    parent = ids
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            return int(np.count_nonzero(parent == ids))
        lo = np.minimum(ra[cross], rb[cross])
        hi = np.maximum(ra[cross], rb[cross])
        hook = ids.copy()
        np.minimum.at(hook, hi, lo)
        hooked = hook != ids
        idle = ~hooked
        idle[hook[hooked]] = False
        # an idle root is the smaller end of all its edges, and every larger end hooked
        from_idle = idle[lo]
        hook[lo[from_idle]] = hi[from_idle]
        parent = hook[parent]
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
