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
retain none, a convolution its im2col columns, a rectifier one bool mask),
and :func:`backward` frees each interior gradient once it has propagated.
Importing the module fixes glibc's malloc thresholds, process-wide, so
that the arrays a step frees are reused by the next one rather than given
back to the kernel (``_pin_malloc_thresholds``).

A convolution layer is one node: :func:`conv2d` can add a per-channel bias
and apply the leaky ReLU in place on its GEMM output. For a one-channel
input (the image) its im2col columns are one stack of the kernel's strided
taps, used through its transpose. The rectifier is the branch-free
``max(z, slope·z)``, and its gradient scales by ``slope`` or 1 through the
node's one bool mask.

The blob renderer's disks are one node too: :func:`soft_disks` sums S
soft-edged disks, evaluating each only inside a window around its centre
(beyond it the sigmoid edge is below 1e-18), with a hand-written backward
rule for centres, radii and heights.

Every logistic is ``scipy.special.expit`` bit for bit, without scipy: it
exponentiates through a reversed view, where numpy's float64 ``exp`` calls
libm's (``_logistic``).
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tape",
    "DiffArray",
    "Gradients",
    "GradCheckResult",
    "new_param",
    "add",
    "mul",
    "matvec",
    "take_index",
    "reshape",
    "concat_channels",
    "sigmoid",
    "softplus",
    "clamp",
    "conv2d",
    "upsample_nearest",
    "soft_disks",
    "reduce_sum",
    "l1_diff",
    "backward",
    "grad_check",
]

# A training step allocates and frees its tape's arrays, up to several MB
# each. glibc's malloc adapts its mmap and trim thresholds to the sizes freed
# so far, so depending on what the process allocated before, those arrays
# are either reused from the heap or mapped, faulted in page by page and
# given back to the kernel on every step: about 300,000 page faults per
# benchmark train request and 30% more time (2 CPUs), in some processes and
# not others. Fixing both thresholds at glibc's adaptive ceiling on 64-bit
# (mmap above 32 MB, trim above twice that) makes every process reuse them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
_MMAP_THRESHOLD = 32 << 20


def _pin_malloc_thresholds() -> None:
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library with mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_pin_malloc_thresholds()


class Tape:
    """Ordered record of primitive applications for one forward pass.

    A tape and the arrays recorded on it belong to a single execution
    context; distinct tapes are independent and may run in parallel.
    """

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list = []  # callable(g) -> tuple of parent grads, or None for leaves

    def __len__(self) -> int:
        return len(self._parents)

    def _record(self, values: np.ndarray, parents: tuple[int, ...], vjp) -> "DiffArray":
        nid = len(self._parents)
        self._parents.append(parents)
        self._vjps.append(vjp)
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


def new_param(tape: Tape, values) -> DiffArray:
    """Register a leaf node that participates in gradient accumulation."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("parameter values must be finite")
    return tape._record(arr.copy(), (), None)


def _recorded(out, *rules, pre=None):
    """Record ``out`` with the rule of each (operand, rule) pair whose operand is on a tape.

    Each rule maps the output gradient to its operand's gradient. Rules of
    constant operands are dropped, and with every operand constant ``out``
    is returned unrecorded. A rule keeps alive only what it references, so
    callers build each from just what that operand's gradient needs.
    ``pre``, if given, maps the output gradient once before the rules see
    it.
    """
    if pre is None and len(rules) == 1:  # most primitives: no lists or tape scan to build
        x, rule = rules[0]
        if isinstance(x, DiffArray):
            return x.tape._record(out, (x.node_id,), lambda g: (rule(g),))
        return out
    tape = _tape_of(*[x for x, _ in rules])
    if tape is None:
        return out
    parents = tuple([x.node_id for x, _ in rules if isinstance(x, DiffArray)])
    grads = [rule for x, rule in rules if isinstance(x, DiffArray)]

    def vjp(g):
        if pre is not None:
            g = pre(g)
        return tuple(fn(g) for fn in grads)

    return tape._record(out, parents, vjp)


def add(a, b) -> DiffArray:
    av, bv = _values(a), _values(b)
    sa, sb = av.shape, bv.shape
    return _recorded(
        av + bv, (a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(g, sb))
    )


def mul(a, b) -> DiffArray:
    av, bv = _values(a), _values(b)
    sa, sb = av.shape, bv.shape
    return _recorded(
        av * bv, (a, lambda g: _unbroadcast(g * bv, sa)), (b, lambda g: _unbroadcast(g * av, sb))
    )


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

    return _recorded(out, (w, grad_w), (v, grad_v))


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

    def grad(g):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        return gx

    return _recorded(xv[idx].copy(), (x, grad))


def reshape(x: DiffArray, shape) -> DiffArray:
    xv = _values(x)
    old = xv.shape
    return _recorded(xv.reshape(tuple(shape)), (x, lambda g: g.reshape(old)))


def concat_channels(a: DiffArray, b: DiffArray) -> DiffArray:
    """Concatenate two (..., C) arrays with equal leading shape along the last axis."""
    av, bv = _values(a), _values(b)
    ca = av.shape[-1]
    out = np.concatenate([av, bv], axis=-1)
    return _recorded(out, (a, lambda g: g[..., :ca]), (b, lambda g: g[..., ca:]))


def _logistic(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` with libm's ``exp``: ``scipy.special.expit``, bit for bit.

    One branch: ``exp(-x)`` overflows to inf for x < -709.78, giving 0, and
    falls below half an ulp of 1 for x > 36.7, giving 1. numpy's float64
    ``exp`` runs its own SIMD code on contiguous and positive-stride
    operands, which differs from libm in the last bit on a few percent of
    inputs; on a reversed view it takes its scalar loop, which calls libm's
    ``exp``. So ``-x`` is stored back to front and exponentiated through a
    reversed view, which puts the results in ``x``'s order.
    """
    t = np.negative(np.ravel(x)[::-1])
    with np.errstate(over="ignore"):
        e = np.exp(t[::-1])
    e += 1.0
    return np.divide(1.0, e, out=e).reshape(np.shape(x))


def sigmoid(x: DiffArray) -> DiffArray:
    y = _logistic(_values(x))
    return _recorded(y, (x, lambda g: g * y * (1.0 - y)))


def softplus(x: DiffArray) -> DiffArray:
    xv = _values(x)
    return _recorded(np.logaddexp(0.0, xv), (x, lambda g: g * _logistic(xv)))


def _rectify(z: np.ndarray, slope: float, tape: Tape | None):
    """Leaky ReLU ``max(z, slope·z)``, in place in ``z``.

    For slope in [0, 1] and finite z this equals ``where(z > 0, z, slope·z)``
    bit for bit, without its data-dependent branch; other slopes are
    rejected. Returns, when the node is recorded on ``tape``, the gradient
    scaling ``g -> g * [slope, 1][z > 0]``, whose bool mask the kink
    signature shares; with no tape there is no mask and it returns None.
    """
    slope = float(slope)
    if not 0.0 <= slope <= 1.0:
        raise ValueError(
            f"leaky ReLU slope {slope!r} outside [0, 1], where max(x, slope * x) is not the rectifier"
        )
    scale_grad = None
    if tape is not None:
        positive = z > 0.0
        _note_kink(tape, positive, lambda: np.any(z == 0.0))
        factors = np.array([slope, 1.0])
        scale_grad = lambda g: g * factors.take(positive)
    np.maximum(z, slope * z, out=z)
    return scale_grad


def clamp(x: DiffArray, lo: float, hi: float) -> DiffArray:
    """Clip to [lo, hi]; gradient passes through strictly inside the interval."""
    xv = _values(x)
    inside = (xv > lo) & (xv < hi)
    _note_kink(_tape_of(x), inside, lambda: np.any(xv == lo) or np.any(xv == hi))
    return _recorded(np.clip(xv, lo, hi), (x, lambda g: g * inside))


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the two spatial axes of a (B, H, W, C) array."""
    if ph == 0 and pw == 0:
        return x
    b, h, w, c = x.shape
    out = np.zeros((b, h + 2 * ph, w + 2 * pw, c))
    out[:, ph : ph + h, pw : pw + w] = x
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(B*ho*wo, kh*kw*C) matrix of the receptive fields of a padded (B, H, W, C) input.

    With one channel it is the transpose of one (kh*kw, B*ho*wo) stack of
    the strided taps, about twice as fast to build as the strided copy
    below with its one-element inner axis. A GEMM on the left of it gives
    the row-major matrix's bits; the kernel gradient's GEMM, with its
    transpose on the left, does not at every size (``conv2d``).
    """
    b, _, _, c = xp.shape
    if c == 1:
        taps = [
            xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride, 0]
            for i in range(kh)
            for j in range(kw)
        ]
        return np.stack(taps).reshape(kh * kw, b * ho * wo).T
    xp = np.ascontiguousarray(xp)
    sb, sr, sc, sd = xp.strides
    windows = np.ndarray(
        (b, ho, wo, kh, kw, c), xp.dtype, xp, 0, (sb, sr * stride, sc * stride, sr, sc, sd)
    )
    return windows.reshape(b * ho * wo, kh * kw * c)


def conv2d(x, kernel, stride: int = 1, padding: int = 0, bias=None, slope=None) -> DiffArray:
    """Cross-correlate (H, W, C) or batched (B, H, W, C) input with a (kh, kw, C, C') kernel.

    Output spatial extent is floor((H + 2*padding - kh) / stride) + 1 per
    axis. The whole batch runs as one im2col GEMM. A ``bias`` of shape
    (C',) is added in place to the GEMM output, and with ``slope`` (in
    [0, 1]) the leaky ReLU ``max(z, slope·z)`` rectifies it in place, so a
    whole conv-bias-rectifier layer is one node; that form equals
    ``where(z > 0, z, slope·z)`` bit for bit. Gradient rules are recorded
    for input, kernel and bias; the node keeps the forward GEMM's im2col
    columns only when the kernel needs a gradient (its gradient is one GEMM
    over them), and the rectifier's bool mask. The input gradient needs only
    the kernel: a transposed convolution at stride 1 and one GEMM per kernel
    tap otherwise (larger strides, or padding so wide that some outputs see
    only zeros).
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

    cols = _im2col(_pad(xb, padding, padding), kh, kw, stride, ho, wo)
    out = (cols @ kv.reshape(kh * kw * c, co)).reshape(b, ho, wo, co)
    if not batched:
        out = out[0]
    if bv is not None:
        out += bv
    scale_grad = None if slope is None else _rectify(out, slope, tape)
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
            kt = kv.transpose(0, 1, 3, 2).copy()  # contiguous per-tap (C', C) kernels
            gxp = np.zeros((b, hp, wp, c))
            for i in range(kh):
                for j in range(kw):
                    tap = (g2 @ kt[i, j]).reshape(b, ho, wo, c)
                    gxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += tap
            return gxp[:, padding : padding + h, padding : padding + w].reshape(in_shape)

    def grad_kernel(g):
        # row-major columns, copied from a one-channel input's tap-major stack,
        # whose GEMM OpenBLAS sums in another order at some sizes
        rows = np.ascontiguousarray(cols)
        return (rows.T @ g.reshape(b * ho * wo, co)).reshape(kh, kw, c, co)

    def grad_bias(g):
        return _unbroadcast(g, (co,))

    return _recorded(
        out, (x, grad_input), (kernel, grad_kernel), (bias, grad_bias), pre=scale_grad
    )


def upsample_nearest(x: DiffArray, factor: int = 2) -> DiffArray:
    """Nearest-neighbor upsampling of an (H, W, C) or (B, H, W, C) array by an integer factor."""
    xv = _values(x)
    *lead, h, w, c = xv.shape
    out = xv.repeat(factor, axis=-3).repeat(factor, axis=-2)

    def grad(g):
        return g.reshape(*lead, h, factor, w, factor, c).sum(axis=(-4, -2))

    return _recorded(out, (x, grad))


def soft_disks(rows, cols, radius, height, n: int, softness: float) -> DiffArray:
    """(n, n) sum over S soft-edged disks of ``height_s * logistic((radius_s - |p - c_s|) / softness)``.

    ``rows``, ``cols``, ``radius`` and ``height`` are (S,) arrays; the
    centres ``c_s = (rows_s, cols_s)`` must lie in [0, n - 1], and radii,
    heights and ``softness`` must be finite. The distance
    is ``sqrt(d² + 1e-9)``, whose gradient stays finite at the centre.
    Slot s is evaluated only inside a (2h+1)² window centred on
    ``rint(c_s)``, with h = min(⌈max(radius) + 42·softness⌉, n − 1): every
    pixel left out lies more than h from the centre, where the edge term is
    below logistic(-42) ≈ 6e-19, and at h = n − 1 the window covers the whole
    canvas. The windows sit on a canvas padded by h and are added into it
    slot by slot, in slot order. One node, with a gradient rule for each
    of the four operands.
    """
    rv, cv, radv, hv = (_values(x) for x in (rows, cols, radius, height))
    if rv.ndim != 1 or any(v.shape != rv.shape for v in (cv, radv, hv)):
        raise ValueError(
            f"soft_disks expects four (S,) operands, got {[v.shape for v in (rv, cv, radv, hv)]}"
        )
    for name, v in (("radius", radv), ("height", hv), ("softness", softness)):
        if not np.isfinite(v).all():
            raise ValueError(f"soft_disks {name} must be finite, got {v}")
    if n < 1 or not softness > 0.0:
        raise ValueError(f"soft_disks needs n >= 1 and softness > 0, got {n}, {softness}")
    lim = n - 1
    if not (np.all((rv >= 0.0) & (rv <= lim)) and np.all((cv >= 0.0) & (cv <= lim))):
        raise ValueError(f"soft_disks centres must lie in [0, {lim}]")
    h = int(min(np.ceil(radv.max(initial=0.0) + 42.0 * softness), lim))
    w = 2 * h + 1
    ri, ci = np.rint(rv).astype(np.intp), np.rint(cv).astype(np.intp)
    offsets = np.arange(-h, h + 1.0)
    dr = ((ri[:, None] + offsets) - rv[:, None])[:, :, None]  # (S, w, 1) pixel row - centre
    dc = ((ci[:, None] + offsets) - cv[:, None])[:, None, :]  # (S, 1, w)
    dist = dr * dr + dc * dc  # (S, w, w)
    dist += 1e-9
    np.sqrt(dist, out=dist)
    inv = 1.0 / softness
    disks = np.subtract(radv[:, None, None], dist)
    disks *= inv
    edge = _logistic(disks)
    np.multiply(edge, hv[:, None, None], out=disks)
    padded = np.zeros((n + 2 * h, n + 2 * h))
    for r0, c0, disk in zip(ri.tolist(), ci.tolist(), disks):
        padded[r0 : r0 + w, c0 : c0 + w] += disk
    out = padded[h : h + n, h : h + n]

    def windows(g):
        """g's window under every slot, the edge's gradient, and that over the distance."""
        gp = np.zeros(padded.shape)
        gp[h : h + n, h : h + n] = g
        s0, s1 = gp.strides
        # (n, n, w, w): the window at each top-left corner; a centre's is at its rint
        gw = np.ndarray((n, n, w, w), gp.dtype, gp, 0, (s0, s1, s0, s1))[ri, ci]
        dz = gw * hv[:, None, None]
        dz *= edge
        q = np.subtract(1.0, edge)
        dz *= q
        dz *= inv
        return gw, dz, np.divide(dz, dist, out=q)

    return _recorded(
        out,
        (rows, lambda t: (t[2] * dr).sum(axis=(1, 2))),
        (cols, lambda t: (t[2] * dc).sum(axis=(1, 2))),
        (radius, lambda t: t[1].sum(axis=(1, 2))),
        (height, lambda t: (t[0] * edge).sum(axis=(1, 2))),
        pre=windows,
    )


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
    return _recorded(out, (x, lambda g: np.broadcast_to(np.reshape(g, kept), shape).copy()))


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
    return _recorded(np.asarray(np.abs(r).sum()), (a, lambda g: g * s))


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
            return np.zeros(x.shape)
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


def grad_check(fn, point, step: float = 1e-5) -> GradCheckResult:
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
    for i in range(flat.size):
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
