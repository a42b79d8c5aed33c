"""Differentiable blob-scene generator and the count-guidance loop.

A scene is parameterized by S slots, each carrying a presence logit, a
continuous center, a radius (softplus reparameterized, hence positive) and
an intensity. Rendering composites soft-edged disks additively over a flat
background, so every pixel is differentiable with respect to every slot
parameter. Guidance freezes a trained counter and walks these latents down
the gradient of |predicted count - requested count|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .. import autodiff as ad
from ..losses import guidance_loss
from ..model import CountModel
from .optim import Adam
from .train import TrainingDivergence

__all__ = [
    "BlobSceneParams",
    "GuidanceConfig",
    "GuidanceRecord",
    "init_blob_params",
    "render_blob_scene",
    "guide_optimize",
]

BACKGROUND = 0.1
# Edge ramp of about a pixel: wide enough that centers and radii keep
# useful gradients, crisp enough that rendered blobs look like the hard
# disks counters train on. Soft, low-contrast blobs are out of
# distribution for the counter and let the latent optimizer satisfy the
# count loss without actually changing how many blobs are visible.
EDGE_SOFTNESS = 0.35
# Blob pixel value = background + opacity * edge * intensity, so a fully-on
# blob peaks at BACKGROUND + intensity. The intensity range is chosen so
# those peaks span the same absolute brightness generated scenes use for
# their instances; counters are calibrated to that brightness, and blobs
# composited brighter or dimmer read to them as fractional objects.
_INTENSITY_LO = 0.45
_INTENSITY_SPAN = 0.35
# opacity = sigmoid(presence / PRESENCE_TEMP). Adam moves each coordinate
# by at most about STEP_SIZE per step, so over a 150-step budget a latent
# travels roughly 0.75 units. With a plain sigmoid that is nowhere near
# enough to flip a decisively-off slot on; the temperature compresses the
# decision band so a flip costs a fraction of that travel while on/off
# slots still render fully opaque/invisible.
PRESENCE_TEMP = 0.04
STEP_SIZE = 5e-3  # guidance's Adam learning rate for every steered latent
# Latents guidance moves. Counts change by switching blobs on or off and
# nudging them around, so only presence and centers are steered;
# appearance latents (radius, intensity) stay frozen. Letting the
# optimizer restyle existing blobs opens a shortcut where the predicted
# count reaches the request while the number of visible blobs never
# changes.
STEERED = ("presence", "center_row", "center_col")
# Smallest loss improvement that resets guidance's plateau patience.
PLATEAU_DELTA = 1e-3
# Radius in pixels of every blob ``init_blob_params`` lays out; radii are
# not steered, so guided blobs keep it.
INIT_RADIUS = 3.0


@dataclass(frozen=True)
class BlobSceneParams:
    """Latent scene description: S slots of (presence, center, radius, intensity)."""

    presence: np.ndarray  # (S,) logits; sigmoid(presence / PRESENCE_TEMP) is opacity
    center_row: np.ndarray  # (S,) pixels, clamped to the canvas at render time
    center_col: np.ndarray  # (S,)
    radius_raw: np.ndarray  # (S,) softplus gives the radius in pixels
    intensity_raw: np.ndarray  # (S,) sigmoid-mapped into the visible range
    canvas: int = 64

    def __post_init__(self):
        if self.canvas < 1:
            raise ValueError(f"canvas must be >= 1, got {self.canvas}")
        n = self.presence.shape[0]
        for name, values in self.as_dict().items():
            if values.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} has non-finite values")

    @property
    def n_slots(self) -> int:
        return self.presence.shape[0]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {
            "presence": self.presence,
            "center_row": self.center_row,
            "center_col": self.center_col,
            "radius_raw": self.radius_raw,
            "intensity_raw": self.intensity_raw,
        }

    def with_values(self, values: dict[str, np.ndarray]) -> "BlobSceneParams":
        return replace(self, **values)


@dataclass(frozen=True)
class GuidanceConfig:
    q_req: float
    max_steps: int = 150
    plateau_patience: int = 20  # steps without improvement > PLATEAU_DELTA

    def __post_init__(self):
        if self.q_req < 0:
            raise ValueError("q_req must be non-negative")
        if self.max_steps < 1 or self.plateau_patience < 1:
            raise ValueError("step budgets must be >= 1")


@dataclass(frozen=True)
class GuidanceRecord:
    step: int
    loss: float
    count: float


def inverse_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


def init_blob_params(
    rng: np.random.Generator,
    n_slots: int = 12,
    n_on: int = 2,
    canvas: int = 64,
) -> BlobSceneParams:
    """Stratified start: slots jittered on a grid, ``n_on`` of them switched on,
    every one of radius ``INIT_RADIUS``.

    Spreading slots out keeps their gradients distinct; which slots start
    active is randomized so repeated runs explore different bases. The
    default starts nearly empty: the counter's response to a blob is flat
    once it is fully visible, so guidance can reliably add blobs but has
    almost no gradient for removing one, and requests are best approached
    from below.

    Presence logits start on a ladder: rung k sits (1.5 + 1.5k)
    band-widths from zero, off slots below, on slots above, with the
    rung-to-slot assignment shuffled. The optimizer moves every latent at
    roughly the same speed, so the fixed rung gap keeps slots from
    crossing the on/off band as a block: near-equal starts would cross
    together and split the requested count increase between two
    half-visible blobs. The gap cannot be made much wider either; the
    counter's gradient with respect to a nearly invisible blob is tiny
    and of unreliable sign, so slots parked more than a few band-widths
    out never get pulled in. That same reach limit is why callers should
    start with n_on near the requested count rather than far below it.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    if not 0 <= n_on <= n_slots:
        raise ValueError("n_on must lie in [0, n_slots]")
    side = math.ceil(math.sqrt(n_slots))
    pitch = canvas / side
    slot = np.arange(n_slots)
    jitter = rng.uniform(-0.25, 0.25, size=(n_slots, 2))  # (row, col) per slot
    rows = (slot // side + 0.5) * pitch + jitter[:, 0] * pitch
    cols = (slot % side + 0.5) * pitch + jitter[:, 1] * pitch
    presence = np.empty(n_slots)
    perm = rng.permutation(n_slots)
    presence[perm[:n_on]] = PRESENCE_TEMP * (1.5 + 1.5 * np.arange(n_on))
    presence[perm[n_on:]] = -PRESENCE_TEMP * (1.5 + 1.5 * np.arange(n_slots - n_on))
    return BlobSceneParams(
        presence=presence,
        center_row=rows,
        center_col=cols,
        radius_raw=np.full(n_slots, inverse_softplus(INIT_RADIUS)),
        intensity_raw=np.zeros(n_slots),
        canvas=canvas,
    )


def render_blob_scene(
    tape: ad.Tape,
    params: BlobSceneParams,
    param_nodes: dict[str, ad.DiffArray | np.ndarray] | None = None,
) -> ad.DiffArray | np.ndarray:
    """Differentiable composite of all slots; returns the (canvas, canvas) image.

    Pass ``param_nodes`` (as made by new_param from params.as_dict()) to
    optimize the latents; a frozen latent may be given as its plain array,
    which keeps its chain off the tape. With every latent plain
    (``params.as_dict()``) nothing is recorded and the image is a plain
    array. Without ``param_nodes`` fresh leaves are created on the tape.
    The per-slot (S,) chains (opacity, intensity, clamped centers, radius)
    are ordinary nodes; one ``ad.soft_disks`` node then draws every slot's
    disk inside a window around its center, where the edge is visible, and
    adds the slots in order. The render is zero, up to the background,
    beyond each disk's window, and the tape holds the same number of nodes
    whatever the slot count.
    """
    n = params.canvas
    if param_nodes is None:
        param_nodes = {k: ad.new_param(tape, v) for k, v in params.as_dict().items()}
    lim = float(n - 1)
    opacity = ad.sigmoid(ad.mul(param_nodes["presence"], 1.0 / PRESENCE_TEMP))
    intensity = ad.add(
        ad.mul(ad.sigmoid(param_nodes["intensity_raw"]), _INTENSITY_SPAN), _INTENSITY_LO
    )
    disks = ad.soft_disks(
        ad.clamp(param_nodes["center_row"], 0.0, lim),
        ad.clamp(param_nodes["center_col"], 0.0, lim),
        ad.softplus(param_nodes["radius_raw"]),
        ad.mul(opacity, intensity),
        n,
        EDGE_SOFTNESS,
    )
    return ad.add(disks, BACKGROUND)


def guide_optimize(
    model: CountModel,
    params: BlobSceneParams,
    gcfg: GuidanceConfig,
    category_id: int = 0,
) -> tuple[BlobSceneParams, list[GuidanceRecord]]:
    """Drive the blob latents toward the requested count through a frozen model.

    The model's weights enter as constants, so they cannot change. Each
    step evaluates only what the guidance loss reads: the trunk and count
    head of the rendered image (``CountModel.count_on_tape``), with the
    category conditioning built once for the whole run; the
    classification head never runs. Descends guidance loss with Adam over
    the ``STEERED`` latents; the rest keep their initial values. Stops at
    the step budget or once the best loss has not improved by more than
    ``PLATEAU_DELTA`` for plateau_patience consecutive steps. When the
    count crosses the request (the sign of count - q_req differs from the
    previous step's), Adam's momentum is zeroed before the update: past the
    kink of |count - q_req| the gradient's sign flips, so momentum carried
    over is overshoot (adaptive restart, O'Donoghue & Candes, 2015).
    Returns the best-loss parameters and the full (step, loss, predicted
    count) trajectory.
    """
    values = {k: v.copy() for k, v in params.as_dict().items()}
    opt = Adam({k: STEP_SIZE for k in STEERED})
    trajectory: list[GuidanceRecord] = []
    best_loss = math.inf
    best_values = {k: v.copy() for k, v in values.items()}
    stale = 0
    above = None  # whether the previous step's count was above the request
    conditioning = model.frozen_conditioning(category_id)

    for step in range(gcfg.max_steps):
        tape = ad.Tape()
        # Frozen latents stay plain arrays, so their chains fold to constants.
        nodes = {k: ad.new_param(tape, values[k]) for k in STEERED}
        image = render_blob_scene(tape, params, {**values, **nodes})
        y_cnt = model.count_on_tape(image, conditioning)
        count = float(y_cnt.values.sum())
        loss = guidance_loss(y_cnt, gcfg.q_req)
        loss_v = float(loss.values)
        if not math.isfinite(loss_v):
            raise TrainingDivergence(f"guidance loss became non-finite at step {step}")
        trajectory.append(GuidanceRecord(step, loss_v, count))

        # Any improvement is kept; only one larger than PLATEAU_DELTA resets patience.
        stale = 0 if loss_v < best_loss - PLATEAU_DELTA else stale + 1
        if loss_v < best_loss:
            best_loss = loss_v
            best_values = {k: v.copy() for k, v in values.items()}
        if stale >= gcfg.plateau_patience:
            break

        if above is not None and above != (count > gcfg.q_req):
            opt.restart_momentum()
        above = count > gcfg.q_req
        grads = ad.backward(tape, loss)
        opt.step(values, {k: grads.wrt(nodes[k]) for k in STEERED})

    return params.with_values(best_values), trajectory
