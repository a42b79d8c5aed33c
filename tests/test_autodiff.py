"""Gradient correctness for every differentiable primitive.

Each primitive is checked against central finite differences at seeded
random points chosen away from kinks. The checker itself is exercised on
known-good and deliberately broken gradients.
"""

import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit  # test-only reference for the logistic

from countgrad import autodiff as ad

TOL = 1e-6


def check(fn, point, tol=TOL):
    res = ad.grad_check(fn, point)
    assert not res.at_kink, "test point unexpectedly on a kink"
    assert res.max_rel_error <= tol, f"max relative error {res.max_rel_error:.3e}"
    return res


class TestElementwise:
    def test_add_mul_chain(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(3, 4))

        def fn(x):
            # (x + c) * (0.5 c - x): the model's losses write 1 - p this way
            y = ad.mul(ad.add(x, c), ad.add(ad.mul(x, -1.0), 0.5 * c))
            return ad.reduce_sum(ad.mul(y, y))

        check(fn, rng.normal(size=(3, 4)))

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=(1, 4))

        def fn(x):
            tape = x.tape
            r = ad.new_param(tape, row)
            prod = ad.mul(x, r)  # (3,4) * (1,4) broadcasts
            return ad.reduce_sum(ad.mul(prod, prod))

        check(fn, rng.normal(size=(3, 4)))

    def test_broadcast_grad_shape_matches_param(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.ones((1, 3)))
        y = ad.new_param(tape, np.ones((4, 3)))
        out = ad.reduce_sum(ad.mul(x, y))
        grads = ad.backward(tape, out)
        assert grads.wrt(x).shape == (1, 3)
        np.testing.assert_array_equal(grads.wrt(x), np.full((1, 3), 4.0))

    def test_mul_by_constant(self):
        rng = np.random.default_rng(3)
        check(lambda x: ad.reduce_sum(ad.mul(x, -2.5)), rng.normal(size=(6,)))

    def test_sigmoid(self):
        rng = np.random.default_rng(4)
        check(lambda x: ad.reduce_sum(ad.sigmoid(x)), rng.normal(size=(7,)) * 3.0)

    def test_sigmoid_extreme_inputs_stable(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([-800.0, 800.0]))
        y = ad.sigmoid(x)
        assert np.all(np.isfinite(y.values))
        grads = ad.backward(tape, ad.reduce_sum(y))
        assert np.all(np.isfinite(grads.wrt(x)))

    def test_softplus(self):
        rng = np.random.default_rng(5)
        check(lambda x: ad.reduce_sum(ad.softplus(x)), rng.normal(size=(7,)) * 3.0)

    def test_softplus_large_negative_stable(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([-900.0]))
        y = ad.softplus(x)
        assert y.values[0] >= 0.0 and np.isfinite(y.values[0])

    def test_clamp_interior_gradient(self):
        rng = np.random.default_rng(8)
        pt = rng.uniform(-0.8, 0.8, size=(6,))
        check(lambda x: ad.reduce_sum(ad.mul(ad.clamp(x, -1.0, 1.0), x)), pt)

    def test_clamp_blocks_gradient_outside(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([-3.0, 0.2, 3.0]))
        y = ad.clamp(x, -1.0, 1.0)
        np.testing.assert_allclose(y.values, [-1.0, 0.2, 1.0])
        grads = ad.backward(tape, ad.reduce_sum(y))
        np.testing.assert_allclose(grads.wrt(x), [0.0, 1.0, 0.0])


class TestLinearAndShape:
    def test_matvec_both_arguments(self):
        rng = np.random.default_rng(10)
        w0 = rng.normal(size=(4, 3))
        v0 = rng.normal(size=(3,))

        def fn_w(w):
            out = ad.matvec(w, v0)
            return ad.reduce_sum(ad.mul(out, out))

        def fn_v(v):
            out = ad.matvec(w0, v)
            return ad.reduce_sum(ad.mul(out, out))

        check(fn_w, w0)
        check(fn_v, v0)

    def test_matvec_shape_validation(self):
        tape = ad.Tape()
        w = ad.new_param(tape, np.ones((2, 3)))
        v = ad.new_param(tape, np.ones(4))
        with pytest.raises(ValueError):
            ad.matvec(w, v)

    def test_take_index_scatters(self):
        rng = np.random.default_rng(11)

        def fn(x):
            row = ad.take_index(x, 1)
            return ad.reduce_sum(ad.mul(row, row))

        res = check(fn, rng.normal(size=(3, 4)))
        # rows 0 and 2 receive exactly zero gradient
        errs = res.errors.reshape(3, 4)
        assert np.all(np.isfinite(errs))

    def test_take_index_bounds(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.ones((2, 3)))
        with pytest.raises(IndexError):
            ad.take_index(x, 2)

    def test_reshape_round_trip(self):
        rng = np.random.default_rng(12)

        def fn(x):
            y = ad.reshape(x, (2, 6))
            return ad.reduce_sum(ad.mul(y, y))

        check(fn, rng.normal(size=(3, 4)))

    def test_concat_channels(self):
        rng = np.random.default_rng(13)
        b0 = rng.normal(size=(2, 2, 3))

        def fn(a):
            tape = a.tape
            b = ad.new_param(tape, b0)
            y = ad.concat_channels(a, b)
            return ad.reduce_sum(ad.mul(y, y))

        check(fn, rng.normal(size=(2, 2, 2)))


class TestConvAndPooling:
    def test_conv2d_input_gradient(self):
        rng = np.random.default_rng(20)
        k = rng.normal(size=(3, 3, 2, 4)) * 0.3

        def fn(x):
            y = ad.conv2d(x, k, stride=1, padding=1)
            return ad.reduce_sum(ad.mul(y, y))

        check(fn, rng.normal(size=(5, 5, 2)))

    def test_conv2d_kernel_gradient(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(6, 6, 2))

        def fn(k):
            y = ad.conv2d(x, k, stride=2, padding=1)
            return ad.reduce_sum(ad.mul(y, y))

        check(fn, rng.normal(size=(3, 3, 2, 3)) * 0.3)

    def test_conv2d_output_shape(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.zeros((8, 8, 3)))
        k = ad.new_param(tape, np.zeros((3, 3, 3, 5)))
        assert ad.conv2d(x, k, stride=2, padding=1).shape == (4, 4, 5)
        assert ad.conv2d(x, k, stride=1, padding=0).shape == (6, 6, 5)

    def test_conv2d_matches_direct_computation(self):
        rng = np.random.default_rng(22)
        xv = rng.normal(size=(4, 4, 2))
        kv = rng.normal(size=(2, 2, 2, 3))
        tape = ad.Tape()
        out = ad.conv2d(ad.new_param(tape, xv), ad.new_param(tape, kv)).values
        expect = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                patch = xv[i : i + 2, j : j + 2]
                expect[i, j] = np.tensordot(patch, kv, axes=3)
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_conv2d_channel_mismatch(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.zeros((4, 4, 2)))
        k = ad.new_param(tape, np.zeros((3, 3, 3, 1)))
        with pytest.raises(ValueError):
            ad.conv2d(x, k)

    def test_upsample_nearest(self):
        rng = np.random.default_rng(23)

        def fn(x):
            y = ad.upsample_nearest(x, 2)
            return ad.reduce_sum(ad.mul(y, y))

        check(fn, rng.normal(size=(3, 3, 2)))

    def test_upsample_values(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.arange(4.0).reshape(2, 2, 1))
        y = ad.upsample_nearest(x, 2)
        np.testing.assert_array_equal(y.values[:2, :2, 0], 0.0)
        np.testing.assert_array_equal(y.values[2:, 2:, 0], 3.0)


class TestBatched:
    """The leading batch axis the training tapes use, checked at batch > 1."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_batched_input_gradient(self, stride):
        rng = np.random.default_rng(50 + stride)
        k = rng.normal(size=(3, 3, 2, 3)) * 0.3
        w = rng.normal(size=(3, 6 // stride, 6 // stride, 3))

        def fn(x):
            return ad.reduce_sum(ad.mul(ad.conv2d(x, k, stride=stride, padding=1), w))

        check(fn, rng.normal(size=(3, 6, 6, 2)))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_batched_kernel_gradient(self, stride):
        rng = np.random.default_rng(52 + stride)
        x = rng.normal(size=(3, 6, 6, 2))
        w = rng.normal(size=(3, 6 // stride, 6 // stride, 3))

        def fn(k):
            return ad.reduce_sum(ad.mul(ad.conv2d(x, k, stride=stride, padding=1), w))

        check(fn, rng.normal(size=(3, 3, 2, 3)) * 0.3)

    def test_conv2d_one_by_one_kernel(self):
        rng = np.random.default_rng(55)
        x0 = rng.normal(size=(2, 4, 4, 3))
        k0 = rng.normal(size=(1, 1, 3, 1))
        w = rng.normal(size=(2, 4, 4, 1))
        check(lambda x: ad.reduce_sum(ad.mul(ad.conv2d(x, k0), w)), x0)
        check(lambda k: ad.reduce_sum(ad.mul(ad.conv2d(x0, k), w)), k0)

    def test_conv2d_batch_rows_match_single_images(self):
        rng = np.random.default_rng(56)
        xv = rng.normal(size=(3, 7, 7, 2))
        kv = rng.normal(size=(3, 3, 2, 4))
        tape = ad.Tape()
        batch = ad.conv2d(ad.new_param(tape, xv), kv, stride=2, padding=1).values
        for i in range(3):
            one = ad.conv2d(ad.new_param(tape, xv[i]), kv, stride=2, padding=1).values
            np.testing.assert_allclose(batch[i], one, rtol=1e-12, atol=1e-14)

    def test_take_index_repeated_rows(self):
        rng = np.random.default_rng(57)
        w = rng.normal(size=(5, 3))
        idx = np.array([2, 0, 2, 2, 1])

        def fn(x):
            return ad.reduce_sum(ad.mul(ad.take_index(x, idx), w))

        check(fn, rng.normal(size=(3, 3)))
        tape = ad.Tape()
        x = ad.new_param(tape, np.zeros((3, 3)))
        grad = ad.backward(tape, ad.reduce_sum(ad.take_index(x, idx))).wrt(x)
        np.testing.assert_array_equal(grad[:, 0], [1.0, 1.0, 3.0])

    def test_take_index_rows_bounds(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.ones((2, 3)))
        with pytest.raises(IndexError):
            ad.take_index(x, np.array([0, 2]))

    def test_matvec_shared_matrix_over_batch(self):
        rng = np.random.default_rng(58)
        w0 = rng.normal(size=(4, 3))
        v0 = rng.normal(size=(5, 3))
        c = rng.normal(size=(5, 4))
        check(lambda w: ad.reduce_sum(ad.mul(ad.matvec(w, v0), c)), w0)
        check(lambda v: ad.reduce_sum(ad.mul(ad.matvec(w0, v), c)), v0)

    def test_matvec_batched_matrices(self):
        rng = np.random.default_rng(59)
        w0 = rng.normal(size=(3, 6, 4))
        v0 = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 6))
        check(lambda w: ad.reduce_sum(ad.mul(ad.matvec(w, v0), c)), w0)
        check(lambda v: ad.reduce_sum(ad.mul(ad.matvec(w0, v), c)), v0)

    def test_per_example_cell_sum(self):
        rng = np.random.default_rng(60)
        c = rng.normal(size=(3,))

        def fn(x):
            totals = ad.reduce_sum(x, axis=(-2, -1))
            return ad.reduce_sum(ad.mul(ad.mul(totals, totals), c))

        check(fn, rng.normal(size=(3, 4, 4)))
        tape = ad.Tape()
        x = ad.new_param(tape, np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_array_equal(ad.reduce_sum(x, axis=(-2, -1)).values, [66.0, 210.0])

    def test_upsample_batched(self):
        rng = np.random.default_rng(61)
        w = rng.normal(size=(2, 6, 6, 2))
        check(lambda x: ad.reduce_sum(ad.mul(ad.upsample_nearest(x, 2), w)), rng.normal(size=(2, 3, 3, 2)))

    def test_concat_channels_batched(self):
        rng = np.random.default_rng(62)
        b0 = rng.normal(size=(2, 3, 3, 1))
        w = rng.normal(size=(2, 3, 3, 3))

        def fn(a):
            y = ad.concat_channels(a, ad.new_param(a.tape, b0))
            return ad.reduce_sum(ad.mul(y, w))

        check(fn, rng.normal(size=(2, 3, 3, 2)))


def _leaky_relu(x, slope):
    """Rectifier node ``max(x, slope * x)``, for the unfused reference chain."""
    xv = x.values
    factors = np.array([slope, 1.0])
    return ad._recorded(np.maximum(xv, slope * xv), (x, lambda g: g * factors.take(xv > 0.0)))


class TestFusedConvLayer:
    """conv2d with bias and slope: a whole layer in one node.

    Its values and gradients are checked bit for bit against a numpy
    reference in TestConvKeptColumns, and against the unfused chain of conv,
    add and a test-local rectifier node here.
    """

    @pytest.mark.parametrize("slope", [0.1, None], ids=["slope", "bias-only"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batched"])
    def test_matches_the_three_node_chain_bit_for_bit(self, lead, stride, slope):
        rng = np.random.default_rng(70 + stride)
        xv = rng.normal(size=(*lead, 6, 6, 2))
        kv = rng.normal(size=(3, 3, 2, 4))
        bv = rng.normal(size=(4,))
        w = rng.normal(size=(*lead, 6 // stride, 6 // stride, 4))

        def run(fused):
            tape = ad.Tape()
            x, k, b = (ad.new_param(tape, v) for v in (xv, kv, bv))
            if fused:
                y = ad.conv2d(x, k, stride=stride, padding=1, bias=b, slope=slope)
            else:
                y = ad.add(ad.conv2d(x, k, stride=stride, padding=1), b)
                if slope is not None:
                    y = _leaky_relu(y, slope)
            grads = ad.backward(tape, ad.reduce_sum(ad.mul(y, w)))
            return len(tape), y.values, [grads.wrt(p) for p in (x, k, b)]

        n_fused, y_fused, g_fused = run(True)
        n_chain, y_chain, g_chain = run(False)
        assert n_chain - n_fused == (2 if slope is not None else 1)
        assert y_fused.tobytes() == y_chain.tobytes()
        for a, b in zip(g_fused, g_chain):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("slope", [0.1, None], ids=["slope", "bias-only"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batched"])
    def test_a_layer_is_one_node(self, lead, slope):
        tape = ad.Tape()
        x, k, b = (ad.new_param(tape, np.ones(s)) for s in ((*lead, 6, 6, 2), (3, 3, 2, 4), (4,)))
        ad.conv2d(x, k, stride=2, padding=1, bias=b, slope=slope)
        assert len(tape) == 3 + 1  # the three leaves and the layer

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_rectifier_equals_the_two_branch_form_bit_for_bit(self, slope):
        # max(z, slope·z) stands in for where(z > 0, z, slope·z) for slopes in [0, 1].
        # A 1x1 unit kernel passes the input through its GEMMs, whose sums
        # start at +0, so the input's -0 reaches the rectifier as +0.
        rng = np.random.default_rng(7)
        v, w = rng.normal(size=(2, 40))
        v[:2] = 0.0, -0.0
        unit = np.ones((1, 1, 1, 1))
        z = ad.conv2d(v.reshape(1, 40, 1), unit).ravel()
        tape = ad.Tape()
        x = ad.new_param(tape, v.reshape(1, 40, 1))
        y = ad.conv2d(x, unit, slope=slope)
        grad = ad.backward(tape, ad.reduce_sum(ad.mul(y, w.reshape(1, 40, 1)))).wrt(x)
        assert y.values.tobytes() == np.where(z > 0, z, slope * z).tobytes()
        assert grad.tobytes() == (np.where(z > 0, w, slope * w) + 0.0).tobytes()

    @pytest.mark.parametrize("wrt", ["input", "kernel", "bias"])
    def test_gradients(self, wrt):
        rng = np.random.default_rng(75)
        operands = {
            "input": rng.normal(size=(2, 6, 6, 2)),
            "kernel": rng.normal(size=(3, 3, 2, 3)) * 0.5,
            "bias": rng.normal(size=(3,)),
        }
        w = rng.normal(size=(2, 3, 3, 3))

        def fn(p):
            args = {k: (p if k == wrt else v) for k, v in operands.items()}
            y = ad.conv2d(args["input"], args["kernel"], 2, 1, bias=args["bias"], slope=0.1)
            return ad.reduce_sum(ad.mul(y, w))

        res = ad.grad_check(fn, operands[wrt])
        assert not res.at_kink
        assert res.max_rel_error <= TOL

    def test_exact_zero_pre_activation_is_a_kink(self):
        # a zero input patch and a zero bias entry put that output exactly at the origin
        rng = np.random.default_rng(76)
        x = rng.normal(size=(5, 5, 2))
        x[:3, :3] = 0.0
        k = rng.normal(size=(3, 3, 2, 2))
        bias = np.array([0.0, 0.4])
        res = ad.grad_check(
            lambda p: ad.reduce_sum(ad.conv2d(x, k, bias=p, slope=0.1)), bias
        )
        assert res.at_kink

    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
    def test_slope_outside_unit_interval_rejected(self, slope):
        x, k = np.zeros((4, 4, 1)), np.zeros((3, 3, 1, 2))
        with pytest.raises(ValueError, match=f"slope {slope!r}"):
            ad.conv2d(x, k, bias=np.zeros(2), slope=slope)

    @pytest.mark.parametrize("shape", [(3,), (1, 2), ()])
    def test_bias_shape_must_be_output_channels(self, shape):
        x, k = np.zeros((4, 4, 1)), np.zeros((3, 3, 1, 2))
        with pytest.raises(ValueError, match=re.escape(f"bias shape {shape}") + ".*" + re.escape("(2,)")):
            ad.conv2d(x, k, bias=np.zeros(shape))


def _columns(xp, kh, kw, stride, ho, wo):
    """Contiguous (B*ho*wo, kh*kw*C) receptive fields of a padded (B, H, W, C) array."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, : stride * ho : stride, : stride * wo : stride].transpose(0, 1, 2, 4, 5, 3)
    return np.ascontiguousarray(win).reshape(-1, kh * kw * xp.shape[-1])


def _conv_reference(xv, kv, stride, padding, bv, slope, w):
    """conv2d's values and its input, kernel and bias gradients for the loss sum(y * w).

    Written in numpy apart from the tape, with the kernel gradient's rule
    from before conv nodes kept their columns: it rebuilds the columns from
    the padded input instead of reusing the forward GEMM's.
    """
    xb = xv if xv.ndim == 4 else xv[None]
    b, h, wd, c = xb.shape
    kh, kw, _, co = kv.shape

    def pad(a, ph, pw):
        return np.pad(a, ((0, 0), (ph, ph), (pw, pw), (0, 0)))

    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    z = (_columns(pad(xb, padding, padding), kh, kw, stride, ho, wo) @ kv.reshape(-1, co)).reshape(
        b, ho, wo, co
    )
    if bv is not None:
        z = z + bv
    y = z if slope is None else np.maximum(z, slope * z)
    g = w.reshape(b, ho, wo, co)
    if slope is not None:
        g = np.where(z > 0.0, g, g * slope)
    gk = (_columns(pad(xb, padding, padding), kh, kw, stride, ho, wo).T @ g.reshape(-1, co)).reshape(
        kv.shape
    )
    if stride == 1 and padding < min(kh, kw):
        flipped = kv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, c)
        gp = pad(g, kh - 1 - padding, kw - 1 - padding)
        gx = (_columns(gp, kh, kw, 1, h, wd) @ flipped).reshape(xb.shape)
    else:
        gxp = np.zeros((b, h + 2 * padding, wd + 2 * padding, c))
        for i in range(kh):
            for j in range(kw):
                tap = (g.reshape(-1, co) @ kv[i, j].T).reshape(b, ho, wo, c)
                gxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += tap
        gx = gxp[:, padding : padding + h, padding : padding + wd]
    gb = g.sum(axis=(0, 1, 2))
    return y.reshape(w.shape), gx.reshape(xv.shape), gk, gb


class TestConvKeptColumns:
    """A conv node whose kernel needs a gradient keeps its forward im2col columns."""

    @staticmethod
    def _check(rng, lead, stride, padding, ksize, c, extras):
        xv = rng.normal(size=(*lead, 7, 6, c))
        kv = rng.normal(size=(ksize, ksize, c, 4))
        bv = rng.normal(size=(4,)) if extras != "plain" else None
        slope = 0.1 if extras == "bias+slope" else None
        ho = (7 + 2 * padding - ksize) // stride + 1
        wo = (6 + 2 * padding - ksize) // stride + 1
        w = rng.normal(size=(*lead, ho, wo, 4))

        tape = ad.Tape()
        x, k = ad.new_param(tape, xv), ad.new_param(tape, kv)
        b = None if bv is None else ad.new_param(tape, bv)
        y = ad.conv2d(x, k, stride=stride, padding=padding, bias=b, slope=slope)
        grads = ad.backward(tape, ad.reduce_sum(ad.mul(y, w)))

        ref_y, ref_gx, ref_gk, ref_gb = _conv_reference(xv, kv, stride, padding, bv, slope, w)
        assert y.values.tobytes() == ref_y.tobytes()
        assert grads.wrt(x).tobytes() == ref_gx.tobytes()
        assert grads.wrt(k).tobytes() == ref_gk.tobytes()
        if b is not None:
            assert grads.wrt(b).tobytes() == ref_gb.tobytes()

    @pytest.mark.parametrize("extras", ["plain", "bias", "bias+slope"])
    @pytest.mark.parametrize("ksize", [3, 1])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batched"])
    def test_equals_the_rebuilding_reference_bit_for_bit(self, lead, stride, padding, ksize, extras):
        rng = np.random.default_rng(90 + 4 * stride + 2 * padding + ksize)
        self._check(rng, lead, stride, padding, ksize, 3, extras)

    # one input channel: the columns are a stack of the strided taps, transposed
    @pytest.mark.parametrize("extras", ["plain", "bias+slope"])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batched"])
    def test_one_channel_columns_equal_the_reference_bit_for_bit(self, lead, stride, padding, extras):
        rng = np.random.default_rng(70 + 4 * stride + 2 * padding + len(lead))
        self._check(rng, lead, stride, padding, 3, 1, extras)

    @pytest.mark.parametrize("kernel_is_param", [False, True], ids=["constant", "parameter"])
    def test_only_a_kernel_gradient_keeps_the_columns(self, kernel_is_param):
        # guidance: the image is a parameter, the weights are constants
        rng = np.random.default_rng(95)
        xv = rng.normal(size=(4, 16, 16, 8))
        kv = rng.normal(size=(3, 3, 8, 8))
        cols_bytes = 4 * 16 * 16 * (3 * 3 * 8) * 8
        tape = ad.Tape()
        x = ad.new_param(tape, xv)
        k = ad.new_param(tape, kv) if kernel_is_param else kv
        tracemalloc.start()
        try:
            y = ad.conv2d(x, k, stride=1, padding=1)
            held = tracemalloc.get_traced_memory()[0] - y.values.nbytes
        finally:
            tracemalloc.stop()
        if kernel_is_param:
            assert tape._parents[y.node_id] == (x.node_id, k.node_id)
            assert held >= cols_bytes
        else:
            assert tape._parents[y.node_id] == (x.node_id,)
            assert held < cols_bytes // 8


def _soft_disks_reference(rows, cols, radius, height, n, softness, g):
    """soft_disks' image and its four gradients for the loss sum(image * g), in plain numpy.

    The node's formulas and association orders, written out per slot with a
    fresh array for every intermediate.
    """
    h = int(min(np.ceil(radius.max() + 42.0 * softness), n - 1))
    w = 2 * h + 1
    inv = 1.0 / softness
    offsets = np.arange(-h, h + 1.0)
    padded = np.zeros((n + 2 * h, n + 2 * h))
    gp = np.zeros(padded.shape)
    gp[h : h + n, h : h + n] = g
    grads = np.zeros((4, len(rows)))
    for s in range(len(rows)):
        r0, c0 = int(np.rint(rows[s])), int(np.rint(cols[s]))
        dr = ((r0 + offsets) - rows[s])[:, None]
        dc = ((c0 + offsets) - cols[s])[None, :]
        dist = np.sqrt(dr * dr + dc * dc + 1e-9)
        edge = expit(inv * (radius[s] - dist))
        padded[r0 : r0 + w, c0 : c0 + w] += edge * height[s]
        gw = gp[r0 : r0 + w, c0 : c0 + w]
        dz = inv * (gw * height[s] * edge * (1.0 - edge))
        grads[:, s] = ((dz / dist * dr).sum(), (dz / dist * dc).sum(), dz.sum(), (gw * edge).sum())
    return (padded[h : h + n, h : h + n], *grads)


class TestSoftDisks:
    # 64 px: the windows (at most 43 px) are smaller than the canvas, and the
    # first disk's crosses the top edge; 16 px: the half-width is capped at
    # n - 1, so every window covers the whole canvas
    SCENES = {
        64: dict(rows=[2.3, 30.6, 61.2], cols=[40.4, 5.8, 59.9], radius=[3.1, 5.6, 2.2]),
        16: dict(rows=[1.3, 8.6, 14.2], cols=[12.4, 5.8, 7.1], radius=[2.1, 4.6, 1.2]),
    }

    @pytest.mark.parametrize("n", [64, 16])
    @pytest.mark.parametrize("wrt", ["rows", "cols", "radius", "height"])
    def test_gradients(self, n, wrt):
        scene = {k: np.array(v) for k, v in self.SCENES[n].items()}
        scene["height"] = np.array([0.7, -0.4, 1.1])
        weights = np.random.default_rng(n).normal(size=(n, n))

        def fn(p):
            img = ad.soft_disks(*(p if k == wrt else v for k, v in scene.items()), n, 0.35)
            return ad.reduce_sum(ad.mul(ad.mul(img, img), weights))

        check(fn, scene[wrt])

    @pytest.mark.parametrize("row, col", [(-0.01, 3.0), (3.0, 15.5), (np.nan, 3.0)])
    def test_centres_outside_the_canvas_rejected(self, row, col):
        with pytest.raises(ValueError, match=r"centres must lie in \[0, 15\]"):
            ad.soft_disks(np.array([row]), np.array([col]), np.ones(1), np.ones(1), 16, 0.35)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["radius", "height", "softness"])
    def test_non_finite_operands_rejected_by_name(self, operand, value):
        args = dict(radius=np.array([2.0, 1.0]), height=np.array([1.0, 0.5]), softness=0.35)
        if operand == "softness":
            args["softness"] = value
        else:
            args[operand][1] = value
        with pytest.raises(ValueError, match=f"soft_disks {operand} must be finite"):
            ad.soft_disks(np.array([3.0, 8.0]), np.array([4.0, 9.0]), args["radius"], args["height"],
                          16, args["softness"])

    @pytest.mark.parametrize("n", [64, 16])
    def test_equals_the_plain_reference_bit_for_bit(self, n):
        scene = {k: np.array(v) for k, v in self.SCENES[n].items()}
        scene["height"] = np.array([0.7, -0.4, 1.1])
        weights = np.random.default_rng(n).normal(size=(n, n))
        tape = ad.Tape()
        params = {k: ad.new_param(tape, v) for k, v in scene.items()}
        img = ad.soft_disks(*params.values(), n, 0.35)
        grads = ad.backward(tape, ad.reduce_sum(ad.mul(img, weights)))

        ref_img, *ref_grads = _soft_disks_reference(*scene.values(), n, 0.35, weights)
        assert img.values.tobytes() == ref_img.tobytes()
        for k, ref in zip(scene, ref_grads):
            assert grads.wrt(params[k]).tobytes() == ref.tobytes(), k


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _logistic_points():
    """A dense grid over [-800, 800], the band where exp(-x) overflows, and edge values."""
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1.7e308, -1.7e308, np.inf, -np.inf]
    return np.concatenate(
        [np.linspace(-800.0, 800.0, 1_600_001), np.linspace(-709.79, -708.99, 200_001), edges]
    )


def _assert_expit_bits(got, x):
    np.testing.assert_array_equal(
        _bits(got),
        _bits(expit(x)),
        err_msg=f"numpy {np.__version__}: autodiff._logistic relies on numpy's float64 exp taking "
        "its scalar loop, which calls libm's exp, on a reversed view; a numpy that vectorizes "
        "that loop no longer matches scipy.special.expit",
    )


@pytest.mark.filterwarnings("error")  # exp(-x)'s overflow below x = -709.78 stays silenced
class TestLogistic:
    """Every logistic in the library is scipy's expit, bit for bit."""

    def test_sigmoid_values(self):
        x = _logistic_points()
        _assert_expit_bits(ad.sigmoid(x), x)

    def test_sigmoid_gradient(self):
        x = _logistic_points()[:-2]  # parameters are finite
        tape = ad.Tape()
        p = ad.new_param(tape, x)
        y = ad.sigmoid(p)
        grad = ad.backward(tape, ad.reduce_sum(y)).wrt(p)
        _assert_expit_bits(y.values, x)
        np.testing.assert_array_equal(_bits(grad), _bits(expit(x) * (1.0 - expit(x))))

    def test_softplus_gradient(self):
        x = _logistic_points()[:-2]
        tape = ad.Tape()
        p = ad.new_param(tape, x)
        grad = ad.backward(tape, ad.reduce_sum(ad.softplus(p))).wrt(p)
        _assert_expit_bits(grad, x)

    def test_nan_and_shapes(self):
        assert np.isnan(ad.sigmoid(np.array([np.nan, 1.0]))[0])
        assert float(ad.sigmoid(np.array(-709.5))) == expit(-709.5)
        strided = np.linspace(-720.0, 720.0, 3 * 41 * 41).reshape(3, 41, 41)[:, ::2, 1:]
        _assert_expit_bits(ad.sigmoid(strided), strided)

    # numpy picks its exp loop by the operand's layout; the input's layout must not matter
    @pytest.mark.parametrize("layout", ["0-d", "F-ordered", "negative-stride"])
    def test_input_layouts(self, layout):
        x = _logistic_points()
        if layout == "0-d":
            points = x[::97]
            got = np.array([ad.sigmoid(np.array(t)) for t in points])
            assert all(ad.sigmoid(np.array(t)).shape == () for t in points[:3])
            _assert_expit_bits(got, points)
        elif layout == "F-ordered":
            grid = np.asfortranarray(x[:1_800_000].reshape(1200, 1500))
            _assert_expit_bits(ad.sigmoid(grid), grid)
        else:
            for view in (x[::-1], x[:1_800_000].reshape(1200, 1500)[::-1, ::-3]):
                _assert_expit_bits(ad.sigmoid(view), view)

    # the guidance regime, and a sharp edge whose windows reach x ≈ -900
    @pytest.mark.parametrize("n, softness, radius", [(64, 0.35, [3.1, 5.6, 2.2]), (128, 0.02, [40.0, 9.5, 30.2])])
    def test_soft_disks(self, monkeypatch, n, softness, radius):
        operands = (np.array([2.3, 30.6, 61.2]), np.array([40.4, 5.8, 59.9]), np.array(radius),
                    np.array([0.7, -0.4, 1.1]))
        weights = np.random.default_rng(n).normal(size=(n, n))

        def run():
            tape = ad.Tape()
            params = [ad.new_param(tape, v) for v in operands]
            img = ad.soft_disks(*params, n, softness)
            grads = ad.backward(tape, ad.reduce_sum(ad.mul(img, weights)))
            return [img.values] + [grads.wrt(q) for q in params]

        ours = run()
        monkeypatch.setattr(ad, "_logistic", expit)
        for a, b in zip(ours, run()):
            np.testing.assert_array_equal(_bits(a), _bits(b))


class TestReductionsAndL1:
    def test_reduce_sum_scalar_shape(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.ones((2, 3)))
        s = ad.reduce_sum(x)
        assert s.shape == ()
        assert float(s.values) == 6.0

    def test_l1_diff_gradient_off_kink(self):
        rng = np.random.default_rng(30)
        target = rng.normal(size=(4, 4))

        def fn(x):
            return ad.l1_diff(x, target)

        check(fn, target + rng.uniform(0.5, 1.0, size=(4, 4)) * rng.choice([-1, 1], size=(4, 4)))

    def test_l1_diff_marks_kink_on_zero_residual(self):
        res = ad.grad_check(lambda x: ad.l1_diff(x, np.array([1.0, 5.0])), np.array([1.0, 2.0]))
        assert res.at_kink

    def test_l1_diff_sign_zero_subgradient(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([3.0, 1.0]))
        loss = ad.l1_diff(x, np.array([3.0, 0.0]))
        grads = ad.backward(tape, loss)
        np.testing.assert_array_equal(grads.wrt(x), [0.0, 1.0])


_rng = np.random.default_rng(60)
_POS = _rng.uniform(0.5, 1.5, size=(2, 3))
_ANY = _rng.normal(size=(2, 3))
_MAT = _rng.normal(size=(4, 3))
_IMGS = _rng.normal(size=(2, 5, 5, 2))
_KER = _rng.normal(size=(3, 3, 2, 3))
_DISKS = _rng.uniform(0.5, 6.5, size=(4, 3))  # rows, cols, radii, heights of 3 disks on 8 px

# (primitive, call, operands): every array primitive, given its operands
FOLD_CASES = [
    ("add", ad.add, (_POS, _ANY)),
    ("mul", ad.mul, (_POS, _ANY)),
    ("mul_const", lambda x: ad.mul(x, 1.7), (_ANY,)),
    ("matvec", ad.matvec, (_MAT, _ANY)),
    ("take_index", lambda x: ad.take_index(x, np.array([1, 0, 1])), (_ANY,)),
    ("reshape", lambda x: ad.reshape(x, (3, 2)), (_ANY,)),
    ("concat_channels", ad.concat_channels, (_POS, _ANY)),
    ("sigmoid", ad.sigmoid, (_ANY,)),
    ("softplus", ad.softplus, (_ANY,)),
    ("clamp", lambda x: ad.clamp(x, -0.5, 0.5), (_ANY,)),
    ("conv2d", lambda x, k: ad.conv2d(x, k, stride=2, padding=1), (_IMGS, _KER)),
    (
        "conv2d_block",
        lambda x, k, b: ad.conv2d(x, k, stride=2, padding=1, bias=b, slope=0.1),
        (_IMGS, _KER, _MAT[0]),
    ),
    ("upsample_nearest", ad.upsample_nearest, (_IMGS,)),
    ("soft_disks", lambda r, c, rad, h: ad.soft_disks(r, c, rad, h, 8, 0.35), tuple(_DISKS)),
    ("reduce_sum", lambda x: ad.reduce_sum(x, axis=-1), (_ANY,)),
    ("l1_diff", lambda x: ad.l1_diff(x, _POS), (_ANY,)),
]


# the names of ad.__all__ that are the tape's API, not array primitives
TAPE_API = {"Tape", "DiffArray", "Gradients", "GradCheckResult", "new_param", "backward", "grad_check"}


class TestConstantFolding:
    """A primitive whose operands are all constants returns a plain array, unrecorded."""

    def test_cases_cover_every_primitive(self):
        # a whole conv layer (bias and rectifier) is a second conv2d case, and
        # a product with a plain constant a second mul case
        names = {name.removesuffix("_block").removesuffix("_const") for name, _, _ in FOLD_CASES}
        assert names == set(ad.__all__) - TAPE_API

    def test_every_primitive_is_called_by_the_package(self):
        # a primitive that only tests call is dead code: it goes, with its tests
        module = Path(ad.__file__)
        source = "\n".join(p.read_text() for p in module.parent.rglob("*.py") if p != module)
        called = set(re.findall(r"\bad\.(\w+)", source))
        assert set(ad.__all__) - TAPE_API - called == set()

    @pytest.mark.parametrize("name,call,operands", FOLD_CASES, ids=[c[0] for c in FOLD_CASES])
    def test_constants_fold_to_the_recorded_values(self, name, call, operands):
        tape = ad.Tape()
        recorded = call(*(ad.new_param(tape, v) for v in operands))
        n_nodes = len(tape)
        folded = call(*operands)
        assert type(folded) is np.ndarray
        np.testing.assert_array_equal(folded, recorded.values)
        assert len(tape) == n_nodes

    def test_backward_rejects_a_folded_constant(self):
        with pytest.raises(ValueError, match="constant"):
            ad.backward(ad.Tape(), ad.reduce_sum(np.ones(3)))

    def test_ordinary_tape_holds_no_kink_data(self):
        # only grad_check's tapes track kinks, though every op below is evaluated at one
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([0.0, 1.0, -2.0]))
        y = ad.conv2d(ad.reshape(x, (1, 3, 1)), np.ones((1, 1, 1, 1)), slope=0.1)
        ad.l1_diff(ad.clamp(ad.reshape(y, (3,)), 0.0, 1.0), np.zeros(3))
        assert not hasattr(tape, "at_kink") and not hasattr(tape, "kink_signature")


class TestTapeMechanics:
    def test_unreached_leaf_gets_zeros(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.ones(3))
        y = ad.new_param(tape, np.ones(3))
        out = ad.reduce_sum(x)
        grads = ad.backward(tape, out)
        np.testing.assert_array_equal(grads.wrt(y), np.zeros(3))

    def test_interior_gradient_request_names_the_node(self):
        # backward frees interior gradients, so reading one must fail loudly
        tape = ad.Tape()
        x = ad.new_param(tape, np.ones(3))
        y = ad.mul(x, x)
        grads = ad.backward(tape, ad.reduce_sum(y))
        np.testing.assert_array_equal(grads.wrt(x), [2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match=f"node_id={y.node_id}"):
            grads.wrt(y)

    def test_fan_out_accumulates(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([2.0]))
        out = ad.reduce_sum(ad.add(ad.mul(x, x), ad.mul(x, x)))
        grads = ad.backward(tape, out)
        np.testing.assert_allclose(grads.wrt(x), [8.0])

    def test_repeated_backward_does_not_accumulate(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([3.0]))
        out = ad.reduce_sum(ad.mul(x, x))
        g1 = ad.backward(tape, out).wrt(x)
        g2 = ad.backward(tape, out).wrt(x)
        np.testing.assert_array_equal(g1, g2)

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = ad.new_param(t1, np.ones(2))
        y = ad.new_param(t2, np.ones(2))
        with pytest.raises(ValueError):
            ad.add(x, y)

    def test_backward_rejects_nonscalar_seed(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.ones(3))
        with pytest.raises(ValueError):
            ad.backward(tape, x)

    def test_backward_rejects_foreign_seed(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = ad.new_param(t1, np.ones(1))
        s = ad.reduce_sum(x)
        with pytest.raises(ValueError):
            ad.backward(t2, s)

    def test_new_param_rejects_nonfinite(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ad.new_param(tape, np.array([1.0, np.nan]))

    def test_values_are_float64(self):
        tape = ad.Tape()
        x = ad.new_param(tape, np.array([1, 2], dtype=np.int32))
        assert x.values.dtype == np.float64
        y = ad.sigmoid(x)
        assert y.values.dtype == np.float64


class TestGradCheckHarness:
    def test_catches_wrong_gradient(self):
        # a primitive with a deliberately broken vjp must be flagged
        def broken(x):
            y = ad.mul(x, x)
            y.tape._vjps[y.node_id] = lambda g: (g * 3.0,)  # truth is 2x
            return ad.reduce_sum(y)

        res = ad.grad_check(broken, np.array([1.5, -0.7]))
        assert res.max_rel_error > 1e-2

    def test_reports_kink_at_base_point(self):
        res = ad.grad_check(
            lambda x: ad.l1_diff(x, np.zeros(2)), np.array([0.0, 1.0])
        )
        assert res.at_kink

    def test_excludes_stencil_kinks(self):
        # perturbing coordinate 0 by +step lands exactly on |x|'s kink at 0
        step = 1e-5
        res = ad.grad_check(
            lambda x: ad.l1_diff(x, np.zeros(2)),
            np.array([-step, 1.0]),
            step=step,
        )
        assert 0 in res.kink_coords
        assert not np.isnan(res.errors[1])

    def test_end_to_end_composite(self):
        rng = np.random.default_rng(40)
        k1 = rng.normal(size=(3, 3, 1, 4)) * 0.4
        w = rng.normal(size=(4, 4)) * 0.4

        def fn(x):
            tape = x.tape
            h = ad.conv2d(x, k1, stride=2, padding=1)
            h = ad.sigmoid(h)
            # sum-pool the (4, 16) map over 4x4 blocks into 4 values
            blocks = ad.reshape(ad.softplus(h), (1, 4, 4, 4))
            v = ad.reshape(ad.reduce_sum(blocks, axis=(1, 3)), (4,))
            out = ad.matvec(ad.new_param(tape, w), v)
            return ad.reduce_sum(ad.mul(out, out))

        res = ad.grad_check(fn, rng.normal(size=(8, 8, 1)))
        assert res.max_rel_error <= 1e-5


STEP_FAULTS = """
import resource
import numpy as np
import countgrad


def step():  # a training step in miniature: 8 MB of arrays made, then freed
    arrays = [np.ones(1 << 17) for _ in range(8)]
    del arrays


np.ones(1 << 17)  # freeing one 1 MB array moves glibc's adaptive thresholds to 1 and 2 MB
step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are glibc's")
def test_freed_step_arrays_are_reused_not_refaulted():
    # Without the pinned thresholds the heap top is trimmed after every step
    # and refilled page by page: about 2,000 faults per step.
    src = Path(ad.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", STEP_FAULTS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100
