"""Tests for losses and the optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.base import Parameter
from repro.nn.losses import IoULoss, L1Loss, MSELoss, SmoothL1Loss, make_loss
from repro.nn.optim import Adam, Optimizer


class TestLosses:
    def test_mse_zero_on_perfect(self, rng):
        pred = rng.random((8, 4)).astype(np.float32)
        loss, grad = MSELoss()(pred, pred.copy())
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(grad, 0.0)

    def test_mse_gradient_direction(self):
        pred = np.array([[0.5, 0.5, 0.5, 0.5]], dtype=np.float32)
        target = np.array([[1.0, 1.0, 1.0, 1.0]], dtype=np.float32)
        _, grad = MSELoss()(pred, target)
        assert np.all(grad < 0.0)  # moving pred up reduces the loss

    def test_l1_matches_mean_abs(self, rng):
        pred = rng.random((4, 4)).astype(np.float32)
        target = rng.random((4, 4)).astype(np.float32)
        loss, _ = L1Loss()(pred, target)
        assert loss == pytest.approx(float(np.mean(np.abs(pred - target))), rel=1e-6)

    def test_smooth_l1_quadratic_region(self):
        pred = np.array([[0.55, 0.5, 0.5, 0.5]], dtype=np.float32)
        target = np.full((1, 4), 0.5, dtype=np.float32)
        loss_small, _ = SmoothL1Loss(beta=0.1)(pred, target)
        pred_big = np.array([[1.5, 0.5, 0.5, 0.5]], dtype=np.float32)
        loss_big, _ = SmoothL1Loss(beta=0.1)(pred_big, target)
        assert loss_big > loss_small

    def test_smooth_l1_invalid_beta(self):
        with pytest.raises(ValueError):
            SmoothL1Loss(beta=0.0)

    def test_iou_loss_perfect_overlap(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]], dtype=np.float32)
        loss, _ = IoULoss()(boxes, boxes.copy())
        assert loss == pytest.approx(0.0, abs=1e-3)

    def test_iou_loss_disjoint_boxes(self):
        pred = np.array([[0.2, 0.2, 0.1, 0.1]], dtype=np.float32)
        target = np.array([[0.8, 0.8, 0.1, 0.1]], dtype=np.float32)
        loss, grad = IoULoss()(pred, target)
        assert loss == pytest.approx(1.0, abs=1e-5)
        assert grad.shape == pred.shape

    def test_make_loss_registry(self):
        assert isinstance(make_loss("mse"), MSELoss)
        assert isinstance(make_loss("iou"), IoULoss)
        with pytest.raises(KeyError):
            make_loss("hinge")


def _quadratic_problem():
    """A single parameter whose optimum is at 3.0 under loss (p - 3)^2."""
    return Parameter(np.array([0.0], dtype=np.float32), name="p")


def _step(optimizer: Optimizer, param: Parameter) -> float:
    optimizer.zero_grad()
    param.grad[...] = 2.0 * (param.value - 3.0)
    optimizer.step()
    return float((param.value[0] - 3.0) ** 2)


class TestOptimizers:
    def test_adam_converges(self):
        param = _quadratic_problem()
        opt = Adam([param], lr=0.2)
        for _ in range(200):
            _step(opt, param)
        assert float(param.value[0]) == pytest.approx(3.0, abs=1e-2)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([_quadratic_problem()], lr=0.0)

    def test_empty_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
