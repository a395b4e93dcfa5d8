"""Tests for the Sequential model container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BBoxHead,
    BatchNorm2D,
    Conv2D,
    DepthwiseConv2D,
    MaxPool2D,
    ReLU4,
    Sequential,
)


@pytest.fixture
def small_model() -> Sequential:
    return Sequential([
        Conv2D(3, 8, 3, stride=2, rng=0),
        BatchNorm2D(8),
        ReLU4(),
        DepthwiseConv2D(8, 3, rng=0),
        Conv2D(8, 16, 1, rng=0),
        ReLU4(),
        MaxPool2D(2),
        BBoxHead(16, rng=0),
    ], name="small")


class TestSequential:
    def test_forward_shape(self, small_model, rng):
        x = rng.normal(size=(2, 3, 16, 32)).astype(np.float32)
        assert small_model.forward(x).shape == (2, 4)

    def test_output_shape_static(self, small_model):
        assert small_model.output_shape((3, 16, 32)) == (4,)

    def test_num_params_positive_and_consistent(self, small_model):
        total = sum(p.size for p in small_model.parameters())
        assert small_model.num_params() == total > 0

    def test_num_ops_positive(self, small_model):
        assert small_model.num_ops((3, 16, 32)) > 0

    def test_backward_returns_input_gradient(self, small_model, rng):
        x = rng.normal(size=(2, 3, 16, 32)).astype(np.float32)
        out = small_model.forward(x)
        grad = small_model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_train_eval_propagates(self, small_model):
        small_model.eval()
        assert all(not layer.training for layer in small_model)
        small_model.train()
        assert all(layer.training for layer in small_model)

    def test_zero_grad(self, small_model, rng):
        x = rng.normal(size=(1, 3, 16, 32)).astype(np.float32)
        out = small_model.forward(x)
        small_model.backward(np.ones_like(out))
        small_model.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in small_model.parameters())

    def test_summary_contains_layers_and_totals(self, small_model):
        text = small_model.summary((3, 16, 32))
        assert "Total params" in text
        assert "conv3x3" in text

    def test_add_returns_self_and_validates(self):
        model = Sequential()
        assert model.add(Conv2D(3, 4, 1, rng=0)) is model
        with pytest.raises(TypeError):
            model.add("not a layer")

    def test_getitem_and_iter(self, small_model):
        assert isinstance(small_model[0], Conv2D)
        assert len(list(iter(small_model))) == len(small_model)
