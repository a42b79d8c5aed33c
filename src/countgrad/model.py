"""Conditioned convolutional counter with cardinality and classification heads.

The trunk downsamples three times (stride 2 each); a learned category
embedding gates trunk channels through sigmoid attention, one top-down pass
refines the gated features (a 3x3 conv over the 1/4-scale features and the
1/8-scale ones upsampled onto them, run as one ``ad.fuse_conv2d`` node that
never builds the upsampled map), and two parallel heads emit per-cell outputs at
1/8 input resolution: a softplus cardinality grid (never negative) and a
class-logit grid from a scaled inner product between cell features and
the projected embedding. One network (``_network``) composes four parts:
category conditioning, trunk through the fuse layer, count head and class
head. Each job has one way into it:

- training: ``forward_on_tape`` registers every weight on the tape as a
  parameter and returns the count grid and the class logits;
- frozen grids and counts: ``forward`` and ``counts`` run image stacks in
  chunks with the weights as plain arrays, recording nothing, and read the
  logits' sigmoid as class probabilities; a single image is a one-row
  stack. A count at kappa 0 applies no class filter, so ``counts`` runs
  the class head only when some kappa is above 0;
- guidance: ``count_on_tape`` runs the trunk and count head alone over an
  image on a tape, with frozen weights and the category conditioning that
  ``frozen_conditioning`` builds once per run.

Checkpoints are single files: a JSON echo of the config, then named
float64 weight blocks in declaration order, inside the envelope (magic,
version, CRC-32) that ``_envelope`` owns. Loading a checkpoint reproduces
the model bitwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import _envelope
from . import autodiff as ad
from ._envelope import from_echo, uint, uints
from .targets import GRID_FACTOR

__all__ = [
    "ModelConfig",
    "CountModel",
    "ForwardPass",
    "Conditioning",
    "IMAGES_PER_FORWARD",
    "count_above",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

CHECKPOINT_MAGIC = b"CGCK"
CHECKPOINT_VERSION = 1

# Images per network evaluation: training records this many images per tape,
# and frozen inference runs a stack of images in chunks of this many. Larger
# chunks amortize the per-node Python dispatch and run bigger GEMMs, but a
# forward holds its images' activations (a training tape until its backward
# pass), so peak memory grows with the chunk. Benchmark workloads on 2 CPUs
# (OpenBLAS, float64, 64 px input), median scaled images/s of 3-7 runs and
# peak RSS of the whole run:
#   train, by images per tape (each conv node keeps its im2col columns):
#     1: 273/s, 73 MB   2: 354/s, 76 MB   4: 403/s, 81 MB
#     8: 359/s, 92 MB  16: 352/s, 115 MB
#   infer, by images per frozen forward, with both heads run for every count:
#     4: 812/s, 81 MB   8: 847/s, 93 MB
# and one frozen forward alone (both heads), in ms per image:
#     1: 1.21   2: 1.23   4: 0.67   8: 0.70
# Those peak RSS figures include about 19 MB that importing scipy added;
# without scipy, 4 measured train 408/s at 62 MB and infer 770/s at 61 MB.
# With kappa-0 counts running the count head alone (no scipy, seeds 1-3):
#   infer  4: 896/s, 63 MB   8: 891/s, 74 MB
# With the fuse layer as one sub-pixel node (train seeds 1-5, infer 1-10):
#   train  4: 465/s, 60 MB   infer  4: 1108/s, 60 MB
# Four is the fastest for training and within a few percent of the fastest
# for inference, at less memory. It also fixes how training sums gradients:
# another value changes trained weights in the last bits, which early
# stopping can turn into a different model.
IMAGES_PER_FORWARD = 4


@dataclass(frozen=True)
class ModelConfig:
    input_size: int = 64
    channels: tuple[int, int, int] = (8, 16, 24)
    fused_channels: int = 24
    embed_dim: int = 8
    num_categories: int = 2
    seed: int = 0

    def __post_init__(self):
        # three stride-2 trunk stages plus one stride-2 head give the 1/GRID_FACTOR grid
        if self.input_size < 16 or self.input_size % GRID_FACTOR:
            raise ValueError(f"input_size must be a multiple of {GRID_FACTOR}, at least 16")
        if len(self.channels) != 3 or min(self.channels) < 1:
            raise ValueError("channels must be three positive widths")
        if self.fused_channels < 1:
            raise ValueError(f"fused_channels must be positive, got {self.fused_channels}")
        if self.embed_dim < 1 or self.num_categories < 1:
            raise ValueError("embed_dim and num_categories must be positive")

    @property
    def grid_size(self) -> int:
        return self.input_size // GRID_FACTOR

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        """Parse a config echo; a missing, unknown or ill-typed field raises a ValueError naming it."""
        raw = json.loads(text)
        # configs written while this field existed echo its one legal value
        legacy = raw.pop("grid_factor", GRID_FACTOR) if isinstance(raw, dict) else GRID_FACTOR
        if legacy != GRID_FACTOR:
            raise ValueError(f"grid_factor {legacy!r}: the grid is fixed at 1/{GRID_FACTOR}")
        return from_echo(cls, raw, "config", strict_ints=True)


def _weight_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Declaration-ordered weight table; checkpoint layout follows this order."""
    c1, c2, c3 = cfg.channels
    cf, d = cfg.fused_channels, cfg.embed_dim
    return {
        "stage1_k": (3, 3, 1, c1),
        "stage1_b": (c1,),
        "stage2_k": (3, 3, c1, c2),
        "stage2_b": (c2,),
        "stage3_k": (3, 3, c2, c3),
        "stage3_b": (c3,),
        "embed": (cfg.num_categories, d),
        "attn2_w": (c2, d),
        "attn2_b": (c2,),
        "attn3_w": (c3, d),
        "attn3_b": (c3,),
        "fuse_k": (3, 3, c2 + c3, cf),
        "fuse_b": (cf,),
        "head_cnt_k": (3, 3, cf, cf),
        "head_cnt_b": (cf,),
        "head_cls_k": (3, 3, cf, cf),
        "head_cls_b": (cf,),
        "cnt_out_k": (1, 1, cf, 1),
        "cnt_out_b": (1,),
        "cls_proj_w": (cf, d),
        "cls_proj_b": (cf,),
        "cls_logit_scale": (),
        "cls_logit_bias": (),
    }

TRUNK_WEIGHTS = ("stage1_k", "stage1_b", "stage2_k", "stage2_b", "stage3_k", "stage3_b")


@dataclass
class ForwardPass:
    """One training forward's count grid, class-logit grid and weight leaves.

    Grids are (grid, grid) for a single image and (B, grid, grid) for a
    batch of B images.
    """

    y_cnt: ad.DiffArray  # non-negative
    cls_logits: ad.DiffArray  # their sigmoid is forward's class probability
    params: dict[str, ad.DiffArray]


class Conditioning(NamedTuple):
    """Per-row category conditioning: sigmoid trunk gates at the two deep
    scales, shaped (b, 1, 1, channels) to broadcast, and the class query
    vector each row's cells are scored against."""

    gate2: ad.DiffArray | np.ndarray
    gate3: ad.DiffArray | np.ndarray
    cls_query: ad.DiffArray | np.ndarray


def _block(w, h, name: str, stride: int):
    """Conv layer ``name`` of the weights ``w``: conv, bias and leaky ReLU as one tape node."""
    return ad.conv2d(h, w[f"{name}_k"], stride=stride, padding=1, bias=w[f"{name}_b"], slope=0.1)


def count_above(y_cnt: np.ndarray, y_cls: np.ndarray | None, kappa: float) -> float:
    """Exact (fsum) count mass over the cells whose class probability exceeds ``kappa``.

    Kappa 0 filters no cell: the count is the fsum of the whole cardinality
    grid, and ``y_cls`` is not read (it may be None). The one thresholding
    rule: every count goes through it in ``CountModel.counts``, which checks
    that ``kappa`` lies in [0, 1).
    """
    if kappa == 0.0:
        return math.fsum(y_cnt.ravel())
    return math.fsum(y_cnt[y_cls > kappa])


class CountModel:
    """Counting network: weights dict plus the pure forward computation."""

    def __init__(self, config: ModelConfig, weights: dict[str, np.ndarray]):
        shapes = _weight_shapes(config)
        if list(weights) != list(shapes):
            raise ValueError("weight names do not match the declaration order")
        for name, shape in shapes.items():
            if weights[name].shape != shape:
                raise ValueError(f"{name} has shape {weights[name].shape}, expected {shape}")
            if not np.isfinite(weights[name]).all():
                raise ValueError(f"{name} has non-finite values")
        self.config = config
        self.weights = weights

    @classmethod
    def create(cls, config: ModelConfig | None = None) -> "CountModel":
        """Fresh model with seeded centered-uniform fan-in initialization."""
        cfg = config or ModelConfig()
        rng = np.random.default_rng(cfg.seed)
        weights: dict[str, np.ndarray] = {}
        for name, shape in _weight_shapes(cfg).items():
            if name.endswith("_b") or name == "cls_logit_bias":
                weights[name] = np.zeros(shape)
            elif name == "cls_logit_scale":
                weights[name] = np.asarray(1.0)
            else:
                fan_in = math.prod(shape[:-1]) if len(shape) > 1 else shape[0]
                bound = math.sqrt(1.0 / fan_in)
                if name == "cnt_out_k":
                    # The absolute-error count objective needs per-cell logit
                    # spread at init: cells with noticeably higher logits
                    # dominate the shared-kernel gradient and anchor the head
                    # in its responsive range. With near-equal logits the
                    # zero-target majority drags every cell into softplus
                    # saturation, where the constant-sign updates of an
                    # adaptive optimizer never anneal. Fan-in scaling alone
                    # gives too little spread; 10x holds up across seeds and
                    # instance-size ranges where 5x still collapses sometimes.
                    bound *= 10.0
                weights[name] = rng.uniform(-bound, bound, size=shape)
        # start the count head near zero mass so early training is stable
        weights["cnt_out_b"] = np.full((1,), -3.0)
        return cls(cfg, weights)

    def param_groups(self) -> dict[str, list[str]]:
        heads = [n for n in self.weights if n not in TRUNK_WEIGHTS]
        return {"trunk": list(TRUNK_WEIGHTS), "heads": heads}

    # -- forward -----------------------------------------------------------

    def _category_rows(self, category_id, b: int) -> np.ndarray:
        """One validated category id per row of a b-image batch."""
        cats = np.asarray(category_id)
        if cats.ndim == 0:
            cats = np.full(b, cats)
        if cats.shape != (b,) or cats.dtype.kind not in "iu":
            raise ValueError(f"need one category id or {b} of them, got {category_id!r}")
        if cats.min() < 0 or cats.max() >= self.config.num_categories:
            raise ValueError(f"unknown category {category_id}")
        return cats

    def _input_rows(self, image) -> tuple[int, tuple[int, ...]]:
        """Rows of an (n, n) image or (B, n, n) batch, and the shape of its output grids."""
        n = self.config.input_size
        shape = image.shape if isinstance(image, ad.DiffArray) else np.shape(image)
        if len(shape) not in (2, 3) or tuple(shape[-2:]) != (n, n):
            raise ValueError(f"image shape {shape} does not match input size {n}")
        g = self.config.grid_size
        if len(shape) == 2:
            return 1, (g, g)
        return shape[0], (shape[0], g, g)

    def forward_on_tape(self, tape: ad.Tape, image, category_id) -> ForwardPass:
        """The training forward: count grid and class logits of one image or a
        batch of images, with every weight registered on ``tape`` as a parameter.

        ``image`` is (n, n) for one image or (B, n, n) for a batch, either a
        plain array, which enters as a constant, or a DiffArray already on
        ``tape``. ``category_id`` is one category for every row or a
        sequence of B, one per row. Rows never interact, so a batch's
        outputs are its rows' single-image outputs up to float64 rounding.
        The returned ``params`` are the weight leaves, for gradient reads.
        """
        n = self.config.input_size
        b, out_shape = self._input_rows(image)
        cats = self._category_rows(category_id, b)
        x = ad.reshape(image, (b, n, n, 1))
        params = {k: ad.new_param(tape, v) for k, v in self.weights.items()}
        y_cnt, cls_logits = self._network(params, x, self._conditioning(params, cats), out_shape)
        return ForwardPass(y_cnt, cls_logits, params)

    def frozen_conditioning(self, category_id: int) -> Conditioning:
        """One category's conditioning through the frozen weights, for ``count_on_tape``.

        It depends only on the category and the weights, so a guidance run
        builds it once and reuses it at every step.
        """
        return self._conditioning(self.weights, self._category_rows(category_id, 1))

    def count_on_tape(self, image, conditioning: Conditioning):
        """The guidance forward: the count grid alone, through the frozen weights.

        ``image`` is checked as ``forward_on_tape`` checks it, and every row
        takes ``conditioning`` (from ``frozen_conditioning``). Only the
        trunk and the count head run, with the weights as constants, so a
        DiffArray image records just what the count's image gradient needs;
        the grid is ``forward_on_tape(...).y_cnt``'s values bit for bit.
        """
        n = self.config.input_size
        b, out_shape = self._input_rows(image)
        x = ad.reshape(image, (b, n, n, 1))
        return self._network(self.weights, x, conditioning, out_shape, classes=False)[0]

    # The network's parts, over the weights ``w`` (parameters or plain
    # arrays) and rows whose shapes and categories are already checked.
    # Each head is its 3x3 conv (``_block``) followed by its grid.

    def _network(self, w, x, cond: Conditioning, out_shape, classes: bool = True):
        """(count grid, class-logit grid) of the (b, n, n, 1) input ``x``, row
        i conditioned by row i of ``cond``. Without ``classes`` the class head
        does not run and the logit grid is None."""
        fused = self._trunk(w, x, cond)
        # node order: both head convolutions, then the count grid, then the
        # class chain; a training tape's peak memory depends on it
        f_cnt = _block(w, fused, "head_cnt", 2)
        if not classes:
            return self._count_grid(w, f_cnt, out_shape), None
        f_cls = _block(w, fused, "head_cls", 2)
        return self._count_grid(w, f_cnt, out_shape), self._class_grid(w, f_cls, cond, out_shape)

    def _conditioning(self, w, cats) -> Conditioning:
        """Each row's category embedding as sigmoid channel gates and a class query."""
        b = len(cats)
        c2, c3 = self.config.channels[1:]
        emb = ad.take_index(w["embed"], cats)
        gate2 = ad.sigmoid(ad.add(ad.matvec(w["attn2_w"], emb), w["attn2_b"]))
        gate3 = ad.sigmoid(ad.add(ad.matvec(w["attn3_w"], emb), w["attn3_b"]))
        gate2, gate3 = ad.reshape(gate2, (b, 1, 1, c2)), ad.reshape(gate3, (b, 1, 1, c3))
        cls_query = ad.add(ad.matvec(w["cls_proj_w"], emb), w["cls_proj_b"])
        return Conditioning(gate2, gate3, cls_query)

    def _trunk(self, w, x, cond: Conditioning):
        """Three stride-2 stages, the category gates, and the fuse layer at 1/4 scale."""
        h1 = _block(w, x, "stage1", 2)
        h2 = _block(w, h1, "stage2", 2)
        h3 = _block(w, h2, "stage3", 2)

        # category conditioning: per-channel sigmoid gates on both scales
        h2g = ad.mul(h2, cond.gate2)
        h3g = ad.mul(h3, cond.gate3)

        # one top-down refinement pass: a 3x3 conv over the mid-scale
        # features and the deep ones upsampled 2x onto them, as one node
        # that runs each half at its own resolution
        return ad.fuse_conv2d(h2g, h3g, w["fuse_k"], bias=w["fuse_b"], slope=0.1)

    def _count_grid(self, w, f_cnt, out_shape):
        """Softplus cardinality grid from the count head's conv features."""
        return ad.reshape(
            ad.softplus(ad.conv2d(f_cnt, w["cnt_out_k"], bias=w["cnt_out_b"])), out_shape
        )

    def _class_grid(self, w, f_cls, cond: Conditioning, out_shape):
        """Class-logit grid from the class head's conv features: each row's
        cells against its own category's query vector."""
        g = self.config.grid_size
        cell_feats = ad.reshape(f_cls, (-1, g * g, self.config.fused_channels))
        logits = ad.add(
            ad.mul(ad.matvec(cell_feats, cond.cls_query), w["cls_logit_scale"]),
            w["cls_logit_bias"],
        )
        return ad.reshape(logits, out_shape)

    def forward(self, image: np.ndarray, category_id) -> tuple[np.ndarray, np.ndarray]:
        """Plain-array forward with frozen weights: (cardinality grid, class-probability grid).

        An (n, n) image gives (grid, grid) grids; a (B, n, n) stack, with
        one category or B of them, gives (B, grid, grid) grids. A single
        image runs as a one-row stack.
        """
        if not np.isfinite(image).all():
            raise ValueError("image values must be finite")
        b, out_shape = self._input_rows(image)
        cats = self._category_rows(category_id, b)
        n = self.config.input_size
        y_cnt, y_cls = self._forward_stack(np.reshape(image, (b, n, n)), cats)
        return y_cnt.reshape(out_shape), y_cls.reshape(out_shape)

    def _forward_stack(self, stack: np.ndarray, cats: np.ndarray, classes: bool = True):
        """``forward`` of a finite (B, n, n) stack whose B category rows are validated.

        The stack runs as consecutive chunks of ``IMAGES_PER_FORWARD``
        images. The conditioning is built once over all B rows, and each
        chunk takes its rows of it; rows never interact, so that is bit for
        bit the per-chunk conditioning. One sigmoid over the stack's class
        logits gives the class grid; without ``classes`` only the trunk and
        the count head run, and the class grid is None.
        """
        k, n, g = IMAGES_PER_FORWARD, self.config.input_size, self.config.grid_size
        w = self.weights
        cond = self._conditioning(w, cats)
        chunks = []
        for i in range(0, len(stack), k):
            chunk = stack[i : i + k]
            b = len(chunk)
            rows = Conditioning(*(c[i : i + k] for c in cond))
            chunks.append(self._network(w, ad.reshape(chunk, (b, n, n, 1)), rows, (b, g, g), classes))
        y_cnt = np.concatenate([c[0] for c in chunks])
        return y_cnt, ad.sigmoid(np.concatenate([c[1] for c in chunks])) if classes else None

    # -- inference-time counts ----------------------------------------------

    def counts(self, images, category_id, kappas=(0.0,)) -> list[list[float]]:
        """Per-image counts, one list per kappa: the one counting path.

        ``images`` is a non-empty sequence of 2-d images, none smaller than
        the input size n in either extent; ``category_id`` is one category
        or one per image. Clip-and-aggregate: an image is padded at the
        right and bottom with its own minimum (the darkest background
        present) to whole n-by-n tiles, every tile of every image runs in
        one stacked ``forward``, and an image's count at kappa is the exact
        (fsum) sum of its tiles' ``count_above``. An n-by-n image is one
        tile, so its count is its grid's ``count_above`` bit for bit.
        Kappa 0 applies no class filter, so when every kappa is 0 the class
        head does not run.
        """
        kappas = tuple(float(k) for k in kappas)
        if not kappas:
            raise ValueError("kappas is empty: need at least one threshold")
        if any(not 0.0 <= k < 1.0 for k in kappas):
            raise ValueError(f"kappa must lie in [0, 1), got {kappas}")
        if len(images) == 0:
            raise ValueError("no images to count")
        n = self.config.input_size
        tiles = []
        for image in images:
            arr = np.asarray(image, dtype=np.float64)
            if arr.ndim != 2 or min(arr.shape) < n:
                raise ValueError(f"image shape {arr.shape} does not match input size {n}")
            h, w = arr.shape
            nr, nc = -(-h // n), -(-w // n)
            if (h, w) != (nr * n, nc * n):
                arr = np.pad(arr, ((0, nr * n - h), (0, nc * n - w)), constant_values=arr.min())
            tiles.append(arr.reshape(nr, n, nc, n).swapaxes(1, 2).reshape(nr * nc, n, n))
        per_image = [len(t) for t in tiles]
        stack = tiles[0] if len(tiles) == 1 else np.concatenate(tiles)
        if not np.isfinite(stack).all():
            raise ValueError("image values must be finite")
        cats = np.repeat(self._category_rows(category_id, len(tiles)), per_image)
        y_cnt, y_cls = self._forward_stack(stack, cats, classes=any(kappas))
        if y_cls is None:
            y_cls = [None] * len(y_cnt)
        ends = list(accumulate(per_image))
        spans = list(zip([0] + ends[:-1], ends))
        per_tile = [[count_above(c, p, k) for c, p in zip(y_cnt, y_cls)] for k in kappas]
        return [[math.fsum(row[a:b]) for a, b in spans] for row in per_tile]

    def predict_count(self, image: np.ndarray, category_id: int) -> float:
        """Total predicted count of one image: ``counts`` at kappa 0, the
        fsum of its whole cardinality grid with no class filter."""
        return self.counts([image], category_id)[0][0]

    def thresholded_count(self, image: np.ndarray, category_id: int, kappa: float) -> float:
        """Count of one image over cells whose class probability exceeds ``kappa``."""
        return self.counts([image], category_id, (kappa,))[0][0]

    def tiled_count(
        self,
        image: np.ndarray,
        category_id: int,
        tile_size: int | None = None,
        kappa: float = 0.0,
    ) -> float:
        """``thresholded_count``; ``tile_size``, if given, must be the input size."""
        if tile_size not in (None, self.config.input_size):
            raise ValueError("tile size must equal the model input size")
        return self.thresholded_count(image, category_id, kappa)


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or inconsistent."""


def save_checkpoint(model: CountModel, path) -> None:
    """Write the config JSON and named weight blocks inside the file envelope."""
    body = bytearray(uint(len(model.weights), 2, "weight count"))
    for name, arr in model.weights.items():
        nb = name.encode()
        body += uint(len(nb), 2, "name length") + nb
        body += uint(arr.ndim, 1, "ndim") + uints(arr.shape, "<u4", "extent")
        body += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    _envelope.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, model.config.to_json(), body)


def load_checkpoint(path) -> CountModel:
    """Exact inverse of save_checkpoint, with integrity verification."""
    r = _envelope.open_body(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError)
    cfg = r.echo(ModelConfig.from_json, "config")
    weights: dict[str, np.ndarray] = {}
    weights_at = r.pos
    for _ in range(r.u(2)):
        name = r.text("weight name")
        shape = tuple(r.array("<u4", r.u(1)).tolist())
        weights[name] = r.array("<f8", math.prod(shape)).reshape(shape).astype(np.float64)
    r.finish("weights")
    with r.invariants("weights", weights_at):  # names, shapes and finiteness against the config
        return CountModel(cfg, weights)
