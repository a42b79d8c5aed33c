"""Synthetic corpus generation and persistence.

Scenes contain disks (category 0) and squares (category 1). Each sample
targets one category: its instances are counted and point-annotated, while
instances of the other kind act as distractors that the classification
branch must learn to reject. Generation is deterministic: every scene id
gets its own rng stream derived from (seed, id), so corpora are
reproducible and parallelizable without ordering effects.

A corpus file is a single self-describing container: the JSON spec echo,
a split tag, then per-scene records (raw float64 image rows, run-length
encoded masks, point lists), inside the envelope (magic, version, CRC-32)
that ``_envelope`` owns.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _envelope
from ._envelope import from_echo, uint, uints
from .raster import (
    InstanceMask,
    PointAnnotations,
    Scene,
    SceneInstance,
    ShapePaint,
    disk_mask,
    render_scene,
    square_mask,
)

__all__ = [
    "SceneSpec",
    "SceneSample",
    "CorpusItem",
    "Corpus",
    "PlacementError",
    "CorpusError",
    "sample_scene",
    "make_corpus",
    "write_corpus",
    "read_corpus",
    "corpora_equal",
    "rle_encode",
    "rle_decode",
    "CATEGORY_DISK",
    "CATEGORY_SQUARE",
]

CORPUS_MAGIC = b"CGCP"
CORPUS_VERSION = 1
PLACEMENT_RETRIES = 1000

CATEGORY_DISK = 0
CATEGORY_SQUARE = 1
_KIND_TO_CATEGORY = {"disk": CATEGORY_DISK, "square": CATEGORY_SQUARE}


class PlacementError(RuntimeError):
    """Spec asks for more/larger instances than the canvas can hold."""


class CorpusError(ValueError):
    """Corpus file is malformed, truncated, or corrupted."""


@dataclass(frozen=True)
class SceneSpec:
    """Generation parameters for one corpus.

    ``min_separation`` is measured in units of the two instances' summed
    circumradii: 1.0 keeps footprints disjoint, smaller values permit
    overlap. ``count_range`` draws the target-category count uniformly;
    ``distractor_range`` does the same for the other category.
    """

    image_size: int = 64
    shape_kinds: tuple[str, ...] = ("disk", "square")
    count_range: tuple[int, int] = (1, 15)
    radius_range: tuple[float, float] = (2.0, 4.0)
    min_separation: float = 1.0
    background: float = 0.1
    intensity_range: tuple[float, float] = (0.55, 0.9)
    noise_amplitude: float = 0.02
    n_negative_points: int = 10
    distractor_range: tuple[int, int] = (0, 0)
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 8:
            raise ValueError("image_size too small")
        if not self.shape_kinds or any(k not in _KIND_TO_CATEGORY for k in self.shape_kinds):
            raise ValueError(f"shape kinds must come from {sorted(_KIND_TO_CATEGORY)}")
        for name in ("count_range", "radius_range", "intensity_range", "distractor_range"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or bounds[0] > bounds[1]:
                raise ValueError(f"{name} must be a (low, high) pair with low <= high")
        if self.count_range[0] < 0 or self.distractor_range[0] < 0:
            raise ValueError("counts must be non-negative")
        if self.radius_range[0] <= 0:
            raise ValueError("radii must be positive")
        if self.min_separation < 0:
            raise ValueError("min_separation must be non-negative")
        if self.n_negative_points < 0:
            raise ValueError("n_negative_points must be non-negative")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        """Parse a spec echo (any number passes for a numeric field, as in the
        constructor); a missing, unknown or ill-typed field raises a ValueError naming it."""
        return from_echo(cls, json.loads(text), "spec", strict_ints=False)


@dataclass(frozen=True)
class SceneSample:
    """One generated scene with annotations for its target category."""

    scene: Scene
    points: PointAnnotations
    category_id: int


@dataclass(frozen=True)
class CorpusItem:
    scene_id: int
    sample: SceneSample


@dataclass(frozen=True)
class Corpus:
    spec: SceneSpec
    split: str
    items: tuple[CorpusItem, ...]

    def __post_init__(self):
        ids = [it.scene_id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("scene ids must be unique within a corpus")

    def __len__(self) -> int:
        return len(self.items)

    def samples(self) -> list[SceneSample]:
        return [it.sample for it in self.items]


def _place_instances(spec: SceneSpec, kinds: list[str], rng: np.random.Generator):
    """Rejection-sample centers/sizes honoring the separation policy."""
    size = spec.image_size
    placed = []  # (kind, center, rho, circumradius)
    for kind in kinds:
        for _attempt in range(PLACEMENT_RETRIES):
            rho = rng.uniform(*spec.radius_range)
            # squares reach sqrt(2) farther at the corners
            circum = rho * math.sqrt(2.0) if kind == "square" else rho
            margin = rho + 1e-6
            if size - 1 - margin <= margin:
                raise PlacementError(f"radius {rho:.2f} does not fit a {size}px canvas")
            center = rng.uniform(margin, size - 1 - margin, size=2)
            ok = all(
                np.hypot(*(center - c2)) >= spec.min_separation * (circum + cr2)
                for _, c2, _, cr2 in placed
            )
            if ok:
                placed.append((kind, center, rho, circum))
                break
        else:
            raise PlacementError(
                f"could not place instance {len(placed) + 1}/{len(kinds)} "
                f"after {PLACEMENT_RETRIES} attempts"
            )
    return placed


def _snap_point(mask: InstanceMask) -> tuple[int, int]:
    """Mask centroid, snapped to the nearest covered pixel."""
    rows, cols = np.nonzero(mask.pixels)
    cr, cc = rows.mean(), cols.mean()
    i = np.argmin((rows - cr) ** 2 + (cols - cc) ** 2)
    return int(rows[i]), int(cols[i])


def sample_scene(spec: SceneSpec, rng: np.random.Generator) -> SceneSample:
    """Draw one scene: counts, placements, intensities, annotations."""
    target_kind = spec.shape_kinds[rng.integers(len(spec.shape_kinds))]
    target_cat = _KIND_TO_CATEGORY[target_kind]
    q = int(rng.integers(spec.count_range[0], spec.count_range[1] + 1))
    d = int(rng.integers(spec.distractor_range[0], spec.distractor_range[1] + 1))
    other_kinds = [k for k in spec.shape_kinds if k != target_kind]
    kinds = [target_kind] * q + [other_kinds[0] if other_kinds else target_kind] * (
        d if other_kinds else 0
    )

    placed = _place_instances(spec, kinds, rng)
    size = spec.image_size
    paints = []
    for kind, center, rho, _ in placed:
        intensity = rng.uniform(*spec.intensity_range)
        maker = disk_mask if kind == "disk" else square_mask
        paints.append(
            ShapePaint(_KIND_TO_CATEGORY[kind], maker(tuple(center), rho, (size, size)), intensity)
        )
    scene = render_scene(
        paints, (size, size), spec.background, spec.noise_amplitude, rng
    )

    positive = np.array(
        [_snap_point(i.mask) for i in scene.instances if i.category_id == target_cat],
        dtype=np.int64,
    ).reshape(-1, 2)

    union = np.zeros((size, size), dtype=bool)
    for m in scene.masks():
        union |= m.pixels
    free = np.flatnonzero(~union)
    n_neg = min(spec.n_negative_points, free.size)
    chosen = rng.choice(free, size=n_neg, replace=False)
    negative = np.stack([chosen // size, chosen % size], axis=1).astype(np.int64)

    points = PointAnnotations(positive, negative)
    # containment invariants hold by construction; keep them checked anyway
    points.validate_against(_target_only(scene, target_cat))
    return SceneSample(scene, points, target_cat)


def _target_only(scene: Scene, category_id: int) -> Scene:
    insts = tuple(i for i in scene.instances if i.category_id == category_id)
    return Scene(scene.image, insts, scene.background)


def make_corpus(
    spec: SceneSpec,
    n_scenes: int,
    split: str = "train",
    first_id: int = 0,
) -> Corpus:
    """Generate ``n_scenes`` reproducibly; ids start at ``first_id``.

    Non-overlapping id ranges keep splits disjoint while sharing one spec
    seed. Each scene's stream is independent, so generation order (or
    parallel generation) cannot change the result.
    """
    items = []
    for i in range(n_scenes):
        sid = first_id + i
        rng = np.random.default_rng((spec.seed, sid))
        items.append(CorpusItem(sid, sample_scene(spec, rng)))
    return Corpus(spec, split, tuple(items))


# -- serialization -----------------------------------------------------------


def rle_encode(flat: np.ndarray) -> np.ndarray:
    """Run lengths of a boolean vector, starting with the False run."""
    flat = np.asarray(flat, dtype=bool)
    if flat.size == 0:
        return np.zeros(0, dtype=np.int64)
    edges = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], edges, [flat.size]])
    runs = np.diff(bounds)
    if flat[0]:
        runs = np.concatenate([[0], runs])
    return runs.astype(np.int64)


def rle_decode(runs: np.ndarray, size: int) -> np.ndarray:
    """Inverse of rle_encode."""
    runs = np.asarray(runs, dtype=np.int64)
    if runs.sum() != size:
        raise CorpusError(f"run lengths sum to {runs.sum()}, expected {size}")
    return np.repeat(np.arange(runs.size) % 2 == 1, runs)


def write_corpus(corpus: Corpus, path) -> None:
    split = corpus.split.encode()
    body = bytearray(uint(len(split), 2, "split length") + split)
    body += uint(len(corpus.items), 4, "item count")
    for item in corpus.items:
        sample = item.sample
        scene = sample.scene
        h, w = scene.shape
        body += uint(item.scene_id, 4, "scene id")
        body += uint(sample.category_id, 2, "category id")
        body += uint(h, 2, "height") + uint(w, 2, "width")
        body += np.ascontiguousarray(scene.image, dtype="<f8").tobytes()
        body += np.float64(scene.background).tobytes()
        body += uint(len(scene.instances), 2, "instance count")
        for inst in scene.instances:
            body += uint(inst.category_id, 2, "instance category")
            body += uint(inst.subpixel, 1, "subpixel flag")
            if inst.mask is not None:
                runs = rle_encode(inst.mask.pixels.ravel())
                body += uint(len(runs), 4, "run count") + uints(runs, "<u4", "mask run")
        for pts in (sample.points.positive, sample.points.negative):
            body += uint(len(pts), 2, "point count") + uints(pts, "<u2", "point coordinate")
    _envelope.write(path, CORPUS_MAGIC, CORPUS_VERSION, corpus.spec.to_json(), body)


def read_corpus(path) -> Corpus:
    r = _envelope.open_body(path, CORPUS_MAGIC, CORPUS_VERSION, CorpusError)
    spec = r.echo(SceneSpec.from_json, "spec")
    split = r.text("split")
    items = []
    for _ in range(r.u(4)):
        scene_id = r.u(4)
        category_id = r.u(2)
        h, w = r.u(2), r.u(2)
        image = r.array("<f8", h * w).reshape(h, w).astype(np.float64)
        background = float(r.array("<f8", 1)[0])
        instances = []
        for _ in range(r.u(2)):
            cat = r.u(2)
            if r.u(1):
                instances.append(SceneInstance(cat, None, subpixel=True))
            else:
                pixels = rle_decode(r.array("<u4", r.u(4)), h * w).reshape(h, w)
                instances.append(SceneInstance(cat, InstanceMask(pixels)))
        scene = Scene(image, tuple(instances), background)
        positive = r.array("<u2", 2 * r.u(2)).reshape(-1, 2).astype(np.int64)
        negative = r.array("<u2", 2 * r.u(2)).reshape(-1, 2).astype(np.int64)
        points = PointAnnotations(positive, negative)
        items.append(CorpusItem(scene_id, SceneSample(scene, points, category_id)))
    r.finish("records")
    return Corpus(spec, split, tuple(items))


def corpora_equal(a: Corpus, b: Corpus) -> bool:
    """Structural equality, comparing arrays exactly."""
    if a.spec != b.spec or a.split != b.split or len(a) != len(b):
        return False
    for x, y in zip(a.items, b.items):
        if x.scene_id != y.scene_id or x.sample.category_id != y.sample.category_id:
            return False
        sa, sb = x.sample.scene, y.sample.scene
        if sa.background != sb.background or not np.array_equal(sa.image, sb.image):
            return False
        if len(sa.instances) != len(sb.instances):
            return False
        for ia, ib in zip(sa.instances, sb.instances):
            if ia.category_id != ib.category_id or ia.subpixel != ib.subpixel:
                return False
            if (ia.mask is None) != (ib.mask is None):
                return False
            if ia.mask is not None and not np.array_equal(ia.mask.pixels, ib.mask.pixels):
                return False
        if not np.array_equal(x.sample.points.positive, y.sample.points.positive):
            return False
        if not np.array_equal(x.sample.points.negative, y.sample.points.negative):
            return False
    return True
