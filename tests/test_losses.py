"""Objective values against hand computations plus gradient checks."""

import numpy as np
import pytest

from countgrad import autodiff as ad
from countgrad.losses import (
    BCE_EPS,
    LossWeights,
    guidance_loss,
    strong_cls_loss,
    strong_count_loss,
    weak_cls_loss,
    weak_count_loss,
)
from countgrad.targets import WeakGrids


def as_node(values):
    tape = ad.Tape()
    return tape, ad.new_param(tape, values)


class TestCountLosses:
    def test_zero_at_target(self):
        target = np.arange(4.0).reshape(2, 2)
        _, pred = as_node(target.copy())
        assert float(strong_count_loss(pred, target).values) == 0.0

    def test_uniform_offset(self):
        target = np.zeros((2, 2))
        _, pred = as_node(target + 0.1)
        assert float(strong_count_loss(pred, target).values) == pytest.approx(0.4)

    def test_all_zero_pred_mass_q(self):
        rng = np.random.default_rng(0)
        target = rng.dirichlet(np.ones(64)).reshape(8, 8) * 5.0
        _, pred = as_node(np.zeros((8, 8)))
        assert float(strong_count_loss(pred, target).values) == pytest.approx(5.0)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        target = rng.uniform(0.5, 1.0, (3, 3))
        point = target + rng.uniform(0.2, 0.6, (3, 3)) * rng.choice([-1, 1], (3, 3))
        res = ad.grad_check(lambda p: strong_count_loss(p, target), point)
        assert res.max_rel_error <= 1e-6


class TestClassificationLosses:
    def test_uniform_half_gives_ln2(self):
        labels = np.array([[True, False], [False, True]])
        _, pred = as_node(np.full((2, 2), 0.5))
        assert float(strong_cls_loss(pred, labels).values) == pytest.approx(np.log(2.0))

    def test_perfect_prediction_hits_eps_floor(self):
        labels = np.array([[True, False]])
        _, pred = as_node(np.array([[1.0, 0.0]]))
        val = float(strong_cls_loss(pred, labels).values)
        assert 0.0 < val <= -np.log(1.0 - BCE_EPS) + 1e-12

    def test_hand_case(self):
        labels = np.array([[True, False]])
        _, pred = as_node(np.array([[0.9, 0.2]]))
        expect = -(np.log(0.9) + np.log(0.8)) / 2.0
        assert float(strong_cls_loss(pred, labels).values) == pytest.approx(expect, abs=1e-10)
        assert expect == pytest.approx(0.1643, abs=5e-5)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        labels = rng.random((3, 3)) < 0.5
        point = rng.uniform(0.1, 0.9, (3, 3))
        res = ad.grad_check(lambda p: strong_cls_loss(p, labels), point)
        assert res.max_rel_error <= 1e-6


class TestWeakLosses:
    def weak(self):
        pos = np.zeros((2, 2), dtype=bool)
        neg = np.zeros((2, 2), dtype=bool)
        pos[0, 0] = True
        neg[1, 1] = True
        return WeakGrids(pos, neg, 1)

    def test_correct_predictions_near_zero(self):
        wg = self.weak()
        _, pred = as_node(np.array([[[1.0, 0.5], [0.5, 0.0]]]))
        assert float(weak_cls_loss(pred, [wg]).values) <= 1e-6

    def test_uniform_half_ln2(self):
        pos = np.array([[True, True], [False, False]])
        neg = np.array([[False, False], [True, True]])
        wg = WeakGrids(pos, neg, 2)
        _, pred = as_node(np.full((1, 2, 2), 0.5))
        assert float(weak_cls_loss(pred, [wg]).values) == pytest.approx(np.log(2.0))

    def test_unannotated_cells_ignored(self):
        wg = self.weak()
        base = np.array([[0.8, 0.3], [0.6, 0.2]])
        _, pred1 = as_node(base[None])
        l1 = float(weak_cls_loss(pred1, [wg]).values)
        bumped = base.copy()
        bumped[0, 1] = 0.99
        bumped[1, 0] = 0.01
        _, pred2 = as_node(bumped[None])
        l2 = float(weak_cls_loss(pred2, [wg]).values)
        assert l1 == l2

    def test_empty_omega_rejected(self):
        wg = WeakGrids(np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool), 0)
        _, pred = as_node(np.full((1, 2, 2), 0.5))
        with pytest.raises(ValueError):
            weak_cls_loss(pred, [wg])

    def test_count_loss_values(self):
        _, pred = as_node(np.full((2, 2), 2.5))
        assert float(weak_count_loss(pred, 10.0).values) == 0.0
        _, pred2 = as_node(np.full((3, 1), 2.5))
        assert float(weak_count_loss(pred2, 10.0).values) == pytest.approx(2.5)

    def test_count_loss_gradient(self):
        res = ad.grad_check(lambda p: weak_count_loss(p, 10.0), np.array([1.0, 2.0, 3.5]))
        assert res.max_rel_error <= 1e-6


class TestCombination:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(alpha1=-0.1)
        with pytest.raises(ValueError):
            LossWeights(gamma=1.5)
        w = LossWeights()
        assert (w.alpha1, w.beta1, w.gamma) == (1.0, 0.1, 0.05)


class TestGuidance:
    def test_values(self):
        _, pred = as_node(np.full((3, 3), 1.0))
        assert float(guidance_loss(pred, 9.0).values) == 0.0
        _, pred2 = as_node(np.full((1, 3), 1.0))
        assert float(guidance_loss(pred2, 9.0).values) == pytest.approx(6.0)

    def test_gradient_broadcasts_sign(self):
        tape, pred = as_node(np.full((2, 2), 1.0))
        loss = guidance_loss(pred, 9.0)
        grads = ad.backward(tape, loss)
        np.testing.assert_array_equal(grads.wrt(pred), -np.ones((2, 2)))

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, pred = as_node(rng.uniform(0, 2, (4, 4)))
            assert float(guidance_loss(pred, rng.uniform(0, 20)).values) >= 0.0
