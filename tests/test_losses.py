"""Objective values against hand computations plus gradient checks."""

import numpy as np
import pytest

from countgrad import autodiff as ad
from countgrad.losses import (
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


# both classification losses over one cell, as functions of its logit
ONE_CELL_CLS_LOSSES = {
    "strong": lambda z, y: strong_cls_loss(z, np.array([[y]])),
    "weak": lambda z, y: weak_cls_loss(
        ad.reshape(z, (1, 1, 1)), [WeakGrids(np.array([[y]]), np.array([[not y]]), int(y))]
    ),
}


class TestClassificationLosses:
    def test_uniform_half_gives_ln2(self):
        labels = np.array([[True, False], [False, True]])
        _, logits = as_node(np.zeros((2, 2)))
        assert float(strong_cls_loss(logits, labels).values) == pytest.approx(np.log(2.0))

    @pytest.mark.parametrize("loss", ONE_CELL_CLS_LOSSES.values(), ids=ONE_CELL_CLS_LOSSES.keys())
    def test_extreme_logits_give_exact_finite_loss(self, loss):
        # far beyond where a sigmoid rounds to 0 or 1: a wrong label costs
        # |z| with gradient of magnitude 1, a right one costs nothing
        for z in (-800.0, 800.0):
            for y in (False, True):
                tape, logit = as_node(np.array([[z]]))
                val = loss(logit, y)
                grad = ad.backward(tape, val).wrt(logit)
                if (z > 0) == y:
                    assert float(val.values) == 0.0 and grad[0, 0] == 0.0
                else:
                    assert float(val.values) == abs(z)
                    assert grad[0, 0] == (1.0 if z > 0 else -1.0)

    def test_hand_case(self):
        # logits of the probabilities 0.9 and 0.2
        labels = np.array([[True, False]])
        _, logits = as_node(np.array([[np.log(9.0), np.log(0.25)]]))
        expect = -(np.log(0.9) + np.log(0.8)) / 2.0
        assert float(strong_cls_loss(logits, labels).values) == pytest.approx(expect, abs=1e-10)
        assert expect == pytest.approx(0.1643, abs=5e-5)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        labels = rng.random((3, 3)) < 0.5
        point = rng.uniform(-3.0, 3.0, (3, 3))
        res = ad.grad_check(lambda p: strong_cls_loss(p, labels), point)
        assert res.max_rel_error <= 1e-6

    @pytest.mark.parametrize("loss", ONE_CELL_CLS_LOSSES.values(), ids=ONE_CELL_CLS_LOSSES.keys())
    def test_gradient_at_logits_up_to_40(self, loss):
        # one cell per check, so no other cell's rounding hides a small
        # gradient; the range reaches well past |z| = 16.1, where clamping
        # the probability to [1e-7, 1 - 1e-7] would flatten the loss
        for z in np.concatenate([np.linspace(-40.0, 40.0, 33), [-16.2, 16.2]]):
            for y in (False, True):
                res = ad.grad_check(lambda p: loss(p, y), np.array([[z]]))
                assert res.max_rel_error <= 1e-6, (z, y, res.max_rel_error)


class TestWeakLosses:
    def weak(self):
        pos = np.zeros((2, 2), dtype=bool)
        neg = np.zeros((2, 2), dtype=bool)
        pos[0, 0] = True
        neg[1, 1] = True
        return WeakGrids(pos, neg, 1)

    def test_correct_predictions_near_zero(self):
        wg = self.weak()
        _, logits = as_node(np.array([[[40.0, 0.0], [0.0, -40.0]]]))
        assert float(weak_cls_loss(logits, [wg]).values) <= 1e-6

    def test_uniform_half_ln2(self):
        pos = np.array([[True, True], [False, False]])
        neg = np.array([[False, False], [True, True]])
        wg = WeakGrids(pos, neg, 2)
        _, logits = as_node(np.zeros((1, 2, 2)))
        assert float(weak_cls_loss(logits, [wg]).values) == pytest.approx(np.log(2.0))

    def test_unannotated_cells_ignored(self):
        wg = self.weak()
        base = np.array([[1.4, -0.8], [0.4, -1.4]])
        _, logits1 = as_node(base[None])
        l1 = float(weak_cls_loss(logits1, [wg]).values)
        bumped = base.copy()
        bumped[0, 1] = 4.6
        bumped[1, 0] = -4.6
        _, logits2 = as_node(bumped[None])
        l2 = float(weak_cls_loss(logits2, [wg]).values)
        assert l1 == l2

    def test_empty_omega_rejected(self):
        wg = WeakGrids(np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool), 0)
        _, logits = as_node(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            weak_cls_loss(logits, [wg])

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
