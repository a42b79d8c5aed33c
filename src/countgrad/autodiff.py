"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records primitive applications in execution order; node ids
are indices into the tape, so creation order is already a topological order.
Everything is define-by-run: record one forward pass on a fresh tape, call
:func:`backward` on a scalar output, and read leaf gradients out of the
returned store. Values are always float64.

Only what depends on a parameter is recorded. A primitive whose operands
are all plain arrays (constants) returns a plain array and leaves the tape
alone, so one network definition serves training, where the weights are
parameters, and frozen inference, where they are constants and a forward
over a constant image records nothing.

The array primitives accept an optional leading batch axis, so one tape can
carry a forward pass over a group of images (training records a few images
per tape; see ``harness.train``). Memory is kept to what the backward pass
needs: each node's rule retains only the operands its gradient uses (sums
retain none, a convolution its padded input, a rectifier one bool mask),
and :func:`backward` frees each interior gradient once it has propagated.

A convolution layer is one node: :func:`conv2d` can add a per-channel bias
and apply the leaky ReLU in place on its GEMM output. The rectifier, there
and in :func:`leaky_relu`, is the branch-free ``max(x, slope * x)``, and
its gradient scales by ``slope`` or 1 through the node's one bool mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

__all__ = [
    "Tape",
    "DiffArray",
    "Gradients",
    "GradCheckResult",
    "new_param",
    "add",
    "sub",
    "neg",
    "mul",
    "scale",
    "matvec",
    "take_index",
    "reshape",
    "concat_channels",
    "sigmoid",
    "softplus",
    "leaky_relu",
    "log",
    "sqrt",
    "clamp",
    "conv2d",
    "upsample_nearest",
    "reduce_sum",
    "l1_diff",
    "backward",
    "grad_check",
]


class Tape:
    """Ordered record of primitive applications for one forward pass.

    A tape and the arrays recorded on it belong to a single execution
    context; distinct tapes are independent and may run in parallel.
    """

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list = []  # callable(g) -> tuple of parent grads, or None for leaves
        self._shapes: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._parents)

    def _record(self, values: np.ndarray, parents: tuple[int, ...], vjp) -> "DiffArray":
        nid = len(self._parents)
        self._parents.append(parents)
        self._vjps.append(vjp)
        self._shapes.append(values.shape)
        return DiffArray(self, nid, values)


class _KinkTape(Tape):
    """The tape :func:`grad_check` records on; only it tracks kinks."""

    def __init__(self):
        super().__init__()
        # True once any op was evaluated exactly at a subgradient point
        # (l1_diff residual 0, leaky ReLU input 0, clamp at a bound).
        self.at_kink = False
        # per-op record of which side of each kink the evaluation fell on;
        # lets grad_check detect stencils that straddle a kink
        self.kink_signature: list[np.ndarray] = []


class DiffArray:
    """Value node on a tape: a float64 ndarray plus a gradient handle."""

    __slots__ = ("tape", "node_id", "values")

    def __init__(self, tape: Tape, node_id: int, values: np.ndarray):
        self.tape = tape
        self.node_id = node_id
        self.values = values

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"DiffArray(shape={self.shape}, node_id={self.node_id})"

    # Operator sugar; constants on either side stay off the tape.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)


def _values(x) -> np.ndarray:
    if isinstance(x, DiffArray):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _tape_of(*operands) -> Tape | None:
    """The tape the DiffArray operands share; None when all are constants."""
    tape = None
    for x in operands:
        if isinstance(x, DiffArray):
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise ValueError("operands recorded on different tapes")
    return tape


def _note_kink(tape: Tape | None, side: np.ndarray, on_kink) -> None:
    """On grad_check's tapes only: record each element's side of a kink, and ``on_kink()``."""
    if isinstance(tape, _KinkTape):
        tape.kink_signature.append(side)
        tape.at_kink |= bool(on_kink())


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce gradient ``g`` back down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def new_param(tape: Tape, values, shape=None) -> DiffArray:
    """Register a leaf node that participates in gradient accumulation."""
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        shape = tuple(shape)
        if arr.size != math.prod(shape):
            raise ValueError(
                f"values of size {arr.size} do not fill shape {shape}"
            )
        arr = arr.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("parameter values must be finite")
    return tape._record(arr.copy(), (), None)


def _unary(x, out, vjp):
    """Record ``out`` with rule ``vjp`` if ``x`` is on a tape; else return it as is."""
    if isinstance(x, DiffArray):
        return x.tape._record(out, (x.node_id,), vjp)
    return out


def _record_rules(tape: Tape, out, rules, pre=None) -> DiffArray:
    """Record ``out`` with the rule of each (operand, rule) pair whose operand is on ``tape``.

    A rule keeps alive only what it references, so callers build each from
    just what that operand's gradient needs; rules of constant operands
    are dropped. ``pre``, if given, maps the output gradient once before
    the rules see it.
    """
    parents = tuple(x.node_id for x, _ in rules if isinstance(x, DiffArray))
    grads = [rule for x, rule in rules if isinstance(x, DiffArray)]

    def vjp(g):
        if pre is not None:
            g = pre(g)
        return tuple(fn(g) for fn in grads)

    return tape._record(out, parents, vjp)


def _binary(a, b, out, grad_a, grad_b):
    """Record ``out`` with the gradient rule of each operand that is on a tape.

    With both operands constant, ``out`` is returned unrecorded.
    """
    tape = _tape_of(a, b)
    if tape is None:
        return out
    return _record_rules(tape, out, ((a, grad_a), (b, grad_b)))


def add(a, b) -> DiffArray:
    av, bv = _values(a), _values(b)
    sa, sb = av.shape, bv.shape
    return _binary(a, b, av + bv, lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb))


def sub(a, b) -> DiffArray:
    av, bv = _values(a), _values(b)
    sa, sb = av.shape, bv.shape
    return _binary(a, b, av - bv, lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb))


def mul(a, b) -> DiffArray:
    av, bv = _values(a), _values(b)
    sa, sb = av.shape, bv.shape
    return _binary(
        a, b, av * bv, lambda g: _unbroadcast(g * bv, sa), lambda g: _unbroadcast(g * av, sb)
    )


def neg(x: DiffArray) -> DiffArray:
    return _unary(x, -_values(x), lambda g: (-g,))


def scale(x: DiffArray, c: float) -> DiffArray:
    c = float(c)
    return _unary(x, c * _values(x), lambda g: (c * g,))


def matvec(w, v) -> DiffArray:
    """Matrix-vector products ``w @ v`` over any leading batch axes.

    ``w`` is (..., m, n) and ``v`` is (..., n); leading axes broadcast, so a
    shared (m, n) matrix applies to a (B, n) batch of vectors, and a
    (B, m, n) batch of matrices pairs row by row with a (B, n) batch.
    """
    wv, vv = _values(w), _values(v)
    if wv.ndim < 2 or vv.ndim < 1 or wv.shape[-1] != vv.shape[-1]:
        raise ValueError(f"matvec shape mismatch: {wv.shape} @ {vv.shape}")
    out = (wv @ vv[..., None])[..., 0]
    wshape, vshape = wv.shape, vv.shape

    def grad_w(g):
        if len(wshape) == 2:  # one matrix shared by every vector
            return g.reshape(-1, wshape[0]).T @ vv.reshape(-1, wshape[1])
        return _unbroadcast(g[..., :, None] * vv[..., None, :], wshape)

    def grad_v(g):
        return _unbroadcast((np.swapaxes(wv, -1, -2) @ g[..., None])[..., 0], vshape)

    return _binary(w, v, out, grad_w, grad_v)


def take_index(x: DiffArray, i) -> DiffArray:
    """Select ``x[i]`` along the leading axis; gradient scatters back into the rows.

    ``i`` is one index or an integer array of them; a row picked several
    times receives the sum of its gradients.
    """
    xv = _values(x)
    n = xv.shape[0]
    idx = np.asarray(i)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index {i} out of range for leading axis of size {n}")
    shape = xv.shape

    def vjp(g):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _unary(x, xv[idx].copy(), vjp)


def reshape(x: DiffArray, shape) -> DiffArray:
    xv = _values(x)
    old = xv.shape
    return _unary(x, xv.reshape(tuple(shape)), lambda g: (g.reshape(old),))


def concat_channels(a: DiffArray, b: DiffArray) -> DiffArray:
    """Concatenate two (..., C) arrays with equal leading shape along the last axis."""
    av, bv = _values(a), _values(b)
    ca = av.shape[-1]
    out = np.concatenate([av, bv], axis=-1)
    return _binary(a, b, out, lambda g: g[..., :ca], lambda g: g[..., ca:])


def sigmoid(x: DiffArray) -> DiffArray:
    # expit is the numerically stable two-branch logistic.
    y = expit(_values(x))
    return _unary(x, y, lambda g: (g * y * (1.0 - y),))


def softplus(x: DiffArray) -> DiffArray:
    xv = _values(x)
    return _unary(x, np.logaddexp(0.0, xv), lambda g: (g * expit(xv),))


def _rectify(z: np.ndarray, slope: float, tape: Tape | None, out=None):
    """Leaky ReLU ``max(z, slope * z)`` into ``out`` (``z`` itself rectifies in place).

    For slope in [0, 1] and finite z this equals ``where(z > 0, z, slope *
    z)`` bit for bit, without its data-dependent branch; other slopes are
    rejected. Returns the result and, when the node is recorded on
    ``tape``, the gradient scaling ``g -> g * [slope, 1][z > 0]``, whose
    bool mask the kink signature shares; with no tape there is no mask and
    the scaling is None.
    """
    slope = float(slope)
    if not 0.0 <= slope <= 1.0:
        raise ValueError(
            f"leaky ReLU slope {slope!r} outside [0, 1], where max(x, slope * x) is not the rectifier"
        )
    if tape is None:
        return np.maximum(z, slope * z, out=out), None
    positive = z > 0.0
    _note_kink(tape, positive, lambda: np.any(z == 0.0))
    factors = np.array([slope, 1.0])
    return np.maximum(z, slope * z, out=out), lambda g: g * factors.take(positive)


def leaky_relu(x: DiffArray, alpha: float = 0.1) -> DiffArray:
    """``x`` where positive, ``alpha * x`` elsewhere; ``alpha`` must lie in [0, 1]."""
    out, scale_grad = _rectify(_values(x), alpha, _tape_of(x))
    return _unary(x, out, lambda g: (scale_grad(g),))


def log(x: DiffArray) -> DiffArray:
    xv = _values(x)
    if np.any(xv <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    return _unary(x, np.log(xv), lambda g: (g / xv,))


def sqrt(x: DiffArray) -> DiffArray:
    xv = _values(x)
    if np.any(xv < 0.0):
        raise ValueError("sqrt requires non-negative inputs")
    y = np.sqrt(xv)
    return _unary(x, y, lambda g: (g * 0.5 / y,))


def clamp(x: DiffArray, lo: float, hi: float) -> DiffArray:
    """Clip to [lo, hi]; gradient passes through strictly inside the interval."""
    xv = _values(x)
    inside = (xv > lo) & (xv < hi)
    _note_kink(_tape_of(x), inside, lambda: np.any(xv == lo) or np.any(xv == hi))
    return _unary(x, np.clip(xv, lo, hi), lambda g: (g * inside,))


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the two spatial axes of a (B, H, W, C) array."""
    if ph == 0 and pw == 0:
        return x
    b, h, w, c = x.shape
    out = np.zeros((b, h + 2 * ph, w + 2 * pw, c))
    out[:, ph : ph + h, pw : pw + w] = x
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(B*ho*wo, kh*kw*C) matrix of the receptive fields of a padded (B, H, W, C) input."""
    b, _, _, c = xp.shape
    sb, sr, sc, sd = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(b, ho, wo, kh, kw, c),
        strides=(sb, sr * stride, sc * stride, sr, sc, sd),
        writeable=False,
    )
    return windows.reshape(b * ho * wo, kh * kw * c)


def conv2d(x, kernel, stride: int = 1, padding: int = 0, bias=None, slope=None) -> DiffArray:
    """Cross-correlate (H, W, C) or batched (B, H, W, C) input with a (kh, kw, C, C') kernel.

    Output spatial extent is floor((H + 2*padding - kh) / stride) + 1 per
    axis. The whole batch runs as one im2col GEMM. A ``bias`` of shape
    (C',) is added in place to the GEMM output, and with ``slope`` (in
    [0, 1]) the leaky ReLU rectifies it in place, so a whole
    conv-bias-rectifier layer is one node; its values and gradients are
    those of ``leaky_relu(add(conv2d(x, kernel), bias), slope)`` bit for
    bit. Gradient rules are recorded for input, kernel and bias; the node
    keeps the padded input only when the kernel needs a gradient (the
    kernel gradient rebuilds the columns from it), and the rectifier's
    bool mask. The input gradient is a transposed convolution at stride 1
    and one GEMM per kernel tap otherwise (larger strides, or padding so
    wide that some outputs see only zeros).
    """
    xv, kv = _values(x), _values(kernel)
    if xv.ndim not in (3, 4) or kv.ndim != 4:
        raise ValueError(
            f"conv2d expects (H,W,C) or (B,H,W,C) input and (kh,kw,C,C') kernel, got {xv.shape}, {kv.shape}"
        )
    if xv.shape[-1] != kv.shape[2]:
        raise ValueError(f"channel mismatch: input has {xv.shape[-1]}, kernel expects {kv.shape[2]}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    batched = xv.ndim == 4
    xb = xv if batched else xv[None]
    b, h, w, c = xb.shape
    kh, kw, _, co = kv.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError("kernel larger than padded input")
    bv = None if bias is None else _values(bias)
    if bv is not None and bv.shape != (co,):
        raise ValueError(f"bias shape {bv.shape} does not match the kernel's ({co},) outputs")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    in_shape = xv.shape
    tape = _tape_of(x, kernel, bias)

    xp = _pad(xb, padding, padding)
    out = (_im2col(xp, kh, kw, stride, ho, wo) @ kv.reshape(kh * kw * c, co)).reshape(b, ho, wo, co)
    if not batched:
        out = out[0]
    if bv is not None:
        out += bv
    scale_grad = None
    if slope is not None:
        out, scale_grad = _rectify(out, slope, tape, out=out)
    if tape is None:
        return out

    if stride == 1 and padding < min(kh, kw):

        def grad_input(g):
            gp = _pad(g.reshape(b, ho, wo, co), kh - 1 - padding, kw - 1 - padding)
            flipped = kv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * co, c)
            return (_im2col(gp, kh, kw, 1, h, w) @ flipped).reshape(in_shape)

    else:

        def grad_input(g):
            g2 = g.reshape(b * ho * wo, co)
            gxp = np.zeros((b, hp, wp, c))
            for i in range(kh):
                for j in range(kw):
                    tap = (g2 @ kv[i, j].T).reshape(b, ho, wo, c)
                    gxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += tap
            return gxp[:, padding : padding + h, padding : padding + w].reshape(in_shape)

    def grad_kernel(g):
        cols = _im2col(xp, kh, kw, stride, ho, wo)
        return (cols.T @ g.reshape(b * ho * wo, co)).reshape(kh, kw, c, co)

    def grad_bias(g):
        return _unbroadcast(g, (co,))

    rules = ((x, grad_input), (kernel, grad_kernel), (bias, grad_bias))
    return _record_rules(tape, out, rules, pre=scale_grad)


def upsample_nearest(x: DiffArray, factor: int = 2) -> DiffArray:
    """Nearest-neighbor upsampling of an (H, W, C) or (B, H, W, C) array by an integer factor."""
    xv = _values(x)
    *lead, h, w, c = xv.shape
    out = xv.repeat(factor, axis=-3).repeat(factor, axis=-2)

    def vjp(g):
        return (g.reshape(*lead, h, factor, w, factor, c).sum(axis=(-4, -2)),)

    return _unary(x, out, vjp)


def reduce_sum(x: DiffArray, axis=None) -> DiffArray:
    """Sum over ``axis`` (default: everything, giving a scalar node).

    ``reduce_sum(x, axis=(-2, -1))`` on a (B, H, W) batch gives the (B,)
    per-example totals. The gradient broadcasts back over the summed axes.
    """
    xv = _values(x)
    shape = xv.shape
    out = np.asarray(xv.sum(axis=axis))
    summed = range(len(shape)) if axis is None else {a % len(shape) for a in np.atleast_1d(axis)}
    kept = tuple(1 if i in summed else n for i, n in enumerate(shape))
    return _unary(x, out, lambda g: (np.broadcast_to(np.reshape(g, kept), shape).copy(),))


def l1_diff(a: DiffArray, b) -> DiffArray:
    """Sum of elementwise absolute differences against a constant array.

    Subgradient convention sign(0) = 0; under grad_check an exact zero
    residual marks the evaluation as at a kink.
    """
    av, bv = _values(a), _values(b)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    r = av - bv
    s = np.sign(r)
    _note_kink(_tape_of(a), s, lambda: np.any(r == 0.0))
    return _unary(a, np.asarray(np.abs(r).sum()), lambda g: (g * s,))


class Gradients:
    """Leaf gradients produced by one backward pass."""

    def __init__(self, tape: Tape, grads: list):
        self._tape = tape
        self._grads = grads

    def wrt(self, x: DiffArray) -> np.ndarray:
        """Gradient of the seeded scalar with respect to leaf ``x`` (zeros if unreached).

        Interior nodes' gradients are freed during the backward pass, so
        asking for one raises instead of returning a stale or empty value.
        """
        if x.tape is not self._tape:
            raise ValueError("array does not belong to this tape")
        if self._tape._vjps[x.node_id] is not None:
            raise ValueError(
                f"{x!r} is an interior node; backward keeps gradients only for "
                "leaves made by new_param"
            )
        g = self._grads[x.node_id]
        if g is None:
            return np.zeros(self._tape._shapes[x.node_id])
        return g


def backward(tape: Tape, seed: DiffArray) -> Gradients:
    """Reverse-accumulate gradients of a scalar seed over the whole tape.

    Each call re-seeds from scratch; nothing accumulates across calls. An
    interior node's gradient is dropped as soon as it has been passed on to
    its parents, so only leaf gradients survive the pass.
    """
    if not isinstance(seed, DiffArray):
        raise ValueError("backward seed is a constant: no input was on a tape, so no gradient")
    if seed.tape is not tape:
        raise ValueError("seed does not belong to this tape")
    if seed.values.ndim != 0:
        raise ValueError(f"backward seed must be scalar, got shape {seed.values.shape}")
    grads: list = [None] * len(tape)
    grads[seed.node_id] = np.asarray(1.0)
    vjps, parents = tape._vjps, tape._parents
    for nid in range(seed.node_id, -1, -1):
        vjp = vjps[nid]
        g = grads[nid]
        if g is None or vjp is None:
            continue
        grads[nid] = None
        for pid, pg in zip(parents[nid], vjp(g)):
            # Accumulation always rebinds (never mutates), so views are safe.
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg
    return Gradients(tape, grads)


@dataclass
class GradCheckResult:
    """Outcome of comparing an analytic gradient against central differences."""

    max_rel_error: float
    at_kink: bool
    kink_coords: list[int] = field(default_factory=list)
    errors: np.ndarray | None = None

    def __float__(self) -> float:
        return self.max_rel_error


def grad_check(fn, point, step: float = 1e-5, coords=None) -> GradCheckResult:
    """Check ``fn``'s gradient at ``point`` against central finite differences.

    ``fn`` maps a DiffArray to a scalar DiffArray; a fresh tape, one that
    also records kinks, is built for every evaluation. Relative errors use
    max(|analytic|, |numeric|, 1e-8) as denominator. A coordinate is
    flagged and excluded from the reported maximum when its difference
    stencil is invalid: either an evaluation
    lands exactly on a subgradient point, or the two perturbed evaluations
    fall on different sides of some kink (detected via the tapes' kink
    signatures), where central differences do not estimate the derivative.
    ``at_kink`` reports whether the base point itself sits on a kink.
    ``coords`` restricts probing to the given flat indices (default: all).
    """
    x0 = np.asarray(point, dtype=np.float64)

    def evaluate(x):
        tape = _KinkTape()
        p = new_param(tape, x)
        y = fn(p)
        if not isinstance(y, DiffArray) or y.values.ndim != 0:
            raise ValueError("grad_check needs a scalar-valued function")
        val = float(y.values)
        if not math.isfinite(val):
            raise ValueError("function evaluated to a non-finite value")
        return val, tape, p, y

    f0, tape0, p0, y0 = evaluate(x0)
    analytic = backward(tape0, y0).wrt(p0).ravel()
    at_kink = tape0.at_kink

    flat = x0.ravel()
    errors = np.full(flat.size, np.nan)
    kink_coords: list[int] = []
    worst = 0.0
    for i in range(flat.size) if coords is None else coords:
        xp = flat.copy()
        xp[i] += step
        fp, tp, _, _ = evaluate(xp.reshape(x0.shape))
        xm = flat.copy()
        xm[i] -= step
        fm, tm, _, _ = evaluate(xm.reshape(x0.shape))
        straddles = len(tp.kink_signature) != len(tm.kink_signature) or any(
            not np.array_equal(a, b)
            for a, b in zip(tp.kink_signature, tm.kink_signature)
        )
        if at_kink or tp.at_kink or tm.at_kink or straddles:
            kink_coords.append(i)
            continue
        numeric = (fp - fm) / (2.0 * step)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        errors[i] = rel
        worst = max(worst, rel)
    return GradCheckResult(worst, at_kink, kink_coords, errors)
