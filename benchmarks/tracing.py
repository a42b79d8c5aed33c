"""Span tracing for the benchmark: wraps countgrad's public functions from outside.

Nothing here edits the program. :func:`install` replaces each traced
function with a wrapper wherever the name is looked up (the defining
module, the package re-exports, and every module that imported the name
directly), and :func:`Tracer.restore` puts the originals back. A wrapper
records a span only while :attr:`Tracer.active` is set, which the benchmark
turns on for the duration of each timed operation, so input generation and
output checks stay out of the profile.

A span's self time is its duration minus the durations of the spans it
directly contains. Spans are aggregated in memory as (calls, self seconds)
per name; individual spans are not kept, because a guidance step alone
opens several hundred.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import countgrad.autodiff as ad
import countgrad.datagen as datagen
import countgrad.harness.blob as hblob
import countgrad.harness.experiments as hexp
import countgrad.harness.optim as hoptim
import countgrad.harness.train as htrain
import countgrad.losses as losses
import countgrad.model as cmodel
import countgrad.raster as raster
import countgrad.targets as targets

# conv2d spans are labelled by which model weight the kernel's shape matches;
# the classification query (1, 1, C, 1) shares the count output's shape.
CONV_LABELS = {
    "stage1_k": "stage1",
    "stage2_k": "stage2",
    "stage3_k": "stage3",
    "fuse_k": "fuse",
    "head_cnt_k": "head",
    "head_cls_k": "head",
    "cnt_out_k": "out",
}
CONV_KINDS = ("stage1", "stage2", "stage3", "fuse", "head", "out")

# autodiff names that are not elementwise primitives
_AD_SPECIAL = {"new_param", "conv2d", "backward", "grad_check"}

# Spans reported as per-layer metrics, in report order.
LAYER_SPANS = (
    *(f"autodiff.conv2d.fwd.{k}" for k in CONV_KINDS),
    *(f"autodiff.conv2d.bwd.{k}" for k in CONV_KINDS),
    "autodiff.elementwise.fwd",
    "autodiff.elementwise.bwd",
    "autodiff.backward",
    "autodiff.new_param",
    "model.forward_on_tape",
    "targets.prepare",
    "losses.total",
    "optim.adam_step",
    "harness.train.train_stage",
    "harness.train.validate",
    "harness.train.evaluate",
    "datagen.make_corpus",
    "datagen.sample_scene",
    "datagen.write_corpus",
    "datagen.read_corpus",
    "raster.render_scene",
    "raster.downscale_and_pad",
    "harness.blob.guide_optimize",
    "harness.blob.render_blob_scene",
    "raster.oracle_count_components",
    "harness.experiments.threshold_sweep",
    "harness.experiments.size_bias_sweep",
)


def _program_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "countgrad" or name.startswith("countgrad.")]


def _public_functions(module):
    return [
        (name, getattr(module, name))
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
    ]


class Tracer:
    """Aggregates span self time per name; see the module docstring."""

    def __init__(self, model: cmodel.CountModel):
        self.active = False
        self.op = None  # kind of the benchmark operation in progress
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [[0.0, "root"]]  # frames: [child seconds, name]
        self._patches: list[tuple[object, str, object]] = []
        self._conv_labels = {
            model.weights[w].shape: label for w, label in CONV_LABELS.items() if w in model.weights
        }

    # -- span bookkeeping ------------------------------------------------------

    def begin(self, name: str) -> list:
        frame = [0.0, name, perf_counter()]
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        dur = perf_counter() - frame[2]
        self._stack.pop()
        self._stack[-1][0] += dur
        st = self.stats[frame[1]]
        st[0] += 1
        st[1] += dur - frame[0]
        return dur

    def inside(self, name: str) -> bool:
        return any(f[1] == name for f in self._stack)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recording a span ``name`` while the tracer is active.

        ``before(args)`` may return a replacement span name; ``after(args,
        out)`` sees the result (both only while active).
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.begin(before(args) if before else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_vjp(self, out, name: str) -> None:
        """Time the backward rule the primitive just recorded for ``out``."""
        vjps = getattr(getattr(out, "tape", None), "_vjps", None)
        if vjps is None:
            return
        fn = vjps[out.node_id]
        if fn is None:
            return
        tracer = self

        def timed_vjp(g):
            frame = tracer.begin(name)
            try:
                return fn(g)
            finally:
                tracer.end(frame)

        vjps[out.node_id] = timed_vjp

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, original, wrapped, overrides=None) -> None:
        """Replace ``original`` everywhere a countgrad module binds it by name."""
        overrides = overrides or {}
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, overrides.get((module, attr), wrapped))

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; undo with ``tracer.restore()``."""
    w = tracer.wrap

    # autodiff: primitives record a timed backward rule alongside the forward span
    def primitive(name, fn, bwd_name, label=None):
        def after(args, out):
            tracer._wrap_vjp(out, bwd_name(args) if callable(bwd_name) else bwd_name)

        return w(name, fn, before=label, after=after)

    for name, fn in _public_functions(ad):
        if name not in _AD_SPECIAL:
            tracer.patch_function(
                fn, primitive("autodiff.elementwise.fwd", fn, "autodiff.elementwise.bwd")
            )

    def conv_kind(args):
        kernel = args[1] if len(args) > 1 else None
        return tracer._conv_labels.get(tuple(getattr(kernel, "shape", ())), "other")

    tracer.patch_function(
        ad.conv2d,
        primitive(
            "autodiff.conv2d.fwd",
            ad.conv2d,
            lambda args: f"autodiff.conv2d.bwd.{conv_kind(args)}",
            label=lambda args: f"autodiff.conv2d.fwd.{conv_kind(args)}",
        ),
    )

    def count_param(args, out):
        if tracer.op == "train_strong" and not tracer.inside("harness.train.validate"):
            tracer.counters["strong_new_param"] += 1

    tracer.patch_function(ad.new_param, w("autodiff.new_param", ad.new_param, after=count_param))

    def count_nodes(args, out):
        if tracer.op == "train_strong":
            tracer.counters["strong_tape_nodes"] += len(args[0])

    tracer.patch_function(ad.backward, w("autodiff.backward", ad.backward, after=count_nodes))

    # model and optimizer methods are looked up on the class
    def count_forward(args, out):
        if tracer.op == "threshold_sweep":
            tracer.counters["sweep_forwards"] += 1

    fwd = cmodel.CountModel.forward_on_tape
    tracer._set(cmodel.CountModel, "forward_on_tape", w("model.forward_on_tape", fwd, after=count_forward))
    tracer._set(hoptim.Adam, "step", w("optim.adam_step", hoptim.Adam.step))

    for _, fn in _public_functions(targets):
        tracer.patch_function(fn, w("targets.prepare", fn))
    for _, fn in _public_functions(losses):
        tracer.patch_function(fn, w("losses.total", fn))

    # train_stage looks evaluate up in its own module: those calls are validation
    tracer.patch_function(
        htrain.evaluate,
        w("harness.train.evaluate", htrain.evaluate),
        overrides={(htrain, "evaluate"): w("harness.train.validate", htrain.evaluate)},
    )
    for span, fn in (
        ("harness.train.train_stage", htrain.train_stage),
        ("datagen.make_corpus", datagen.make_corpus),
        ("datagen.sample_scene", datagen.sample_scene),
        ("datagen.write_corpus", datagen.write_corpus),
        ("datagen.read_corpus", datagen.read_corpus),
        ("raster.render_scene", raster.render_scene),
        ("raster.downscale_and_pad", raster.downscale_and_pad),
        ("raster.oracle_count_components", raster.oracle_count_components),
        ("harness.blob.guide_optimize", hblob.guide_optimize),
        ("harness.blob.render_blob_scene", hblob.render_blob_scene),
        ("harness.experiments.threshold_sweep", hexp.threshold_sweep),
        ("harness.experiments.size_bias_sweep", hexp.size_bias_sweep),
    ):
        tracer.patch_function(fn, w(span, fn))

