"""Unit tests for the layer zoo (conv, pooling, norm, head)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2D,
    BBoxHead,
    Conv2D,
    DepthwiseConv2D,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    ReLU4,
    ReLU8,
    Sigmoid,
)
from repro.nn.layers.activation import make_activation


class TestConv2DLayer:
    def test_output_shape_same_padding(self):
        layer = Conv2D(3, 8, 3, rng=0)
        assert layer.output_shape((3, 16, 16)) == (8, 16, 16)

    def test_output_shape_stride2(self):
        layer = Conv2D(3, 8, 3, stride=2, rng=0)
        assert layer.output_shape((3, 16, 16)) == (8, 8, 8)

    def test_forward_shape_matches_output_shape(self, rng):
        layer = Conv2D(3, 8, 5, stride=2, rng=0)
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        out = layer(x)
        assert out.shape == (2,) + layer.output_shape((3, 16, 16))

    def test_wrong_channels_raises(self):
        layer = Conv2D(3, 8, 3, rng=0)
        with pytest.raises(ValueError):
            layer.output_shape((4, 16, 16))

    def test_num_params(self):
        layer = Conv2D(3, 8, 3, rng=0)
        assert layer.num_params() == 3 * 8 * 9 + 8

    def test_num_ops(self):
        layer = Conv2D(3, 8, 3, rng=0)
        assert layer.num_ops((3, 16, 16)) == 8 * 16 * 16 * 3 * 9

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            Conv2D(0, 8, 3)

    def test_gradient_accumulates(self, rng):
        layer = Conv2D(2, 4, 3, rng=0)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        out = layer(x)
        layer.backward(np.ones_like(out))
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(np.ones_like(out))
        np.testing.assert_allclose(layer.weight.grad, 2 * first, rtol=1e-5)

    def test_backward_before_forward_raises(self):
        layer = Conv2D(2, 4, 3, rng=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 4, 6, 6), dtype=np.float32))


class TestDepthwiseConv2DLayer:
    def test_output_preserves_channels(self):
        layer = DepthwiseConv2D(6, 3, rng=0)
        assert layer.output_shape((6, 10, 10)) == (6, 10, 10)

    def test_num_params(self):
        layer = DepthwiseConv2D(6, 3, rng=0)
        assert layer.num_params() == 6 * 9 + 6

    def test_ops_linear_in_channels(self):
        small = DepthwiseConv2D(4, 3, rng=0).num_ops((4, 8, 8))
        large = DepthwiseConv2D(8, 3, rng=0).num_ops((8, 8, 8))
        assert large == 2 * small

    def test_forward_backward_roundtrip(self, rng):
        layer = DepthwiseConv2D(4, 3, stride=2, rng=0)
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        out = layer(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestPoolingLayers:
    def test_maxpool_shape(self):
        assert MaxPool2D(2).output_shape((4, 8, 8)) == (4, 4, 4)

    def test_global_avg_pool(self, rng):
        layer = GlobalAvgPool2D()
        x = rng.normal(size=(3, 5, 4, 6)).astype(np.float32)
        out = layer(x)
        assert out.shape == (3, 5, 1, 1)
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)


class TestActivationsLayers:
    @pytest.mark.parametrize("cls,clip", [(ReLU, None), (ReLU4, 4.0), (ReLU8, 8.0)])
    def test_clip_values(self, cls, clip):
        layer = cls()
        x = np.array([[-1.0, 2.0, 100.0]], dtype=np.float32)
        out = layer(x)
        assert out[0, 0] == 0.0
        expected_max = 100.0 if clip is None else clip
        assert out[0, 2] == expected_max

    def test_feature_map_bits_mapping(self):
        assert ReLU().feature_map_bits == 16
        assert ReLU8().feature_map_bits == 10
        assert ReLU4().feature_map_bits == 8

    def test_make_activation(self):
        assert isinstance(make_activation("relu4"), ReLU4)
        assert isinstance(make_activation("RELU"), ReLU)
        with pytest.raises(KeyError):
            make_activation("gelu")

    def test_sigmoid_backward(self, rng):
        layer = Sigmoid()
        x = rng.normal(size=(4, 4)).astype(np.float32)
        out = layer(x)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_allclose(grad, out * (1 - out), rtol=1e-5)


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        layer = BatchNorm2D(4)
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 4, 6, 6)).astype(np.float32)
        out = layer(x)
        assert abs(out.mean()) < 1e-4
        assert out.std() == pytest.approx(1.0, abs=0.05)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2D(4)
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 4, 6, 6)).astype(np.float32)
        for _ in range(50):
            layer(x)
        layer.eval()
        out = layer(x)
        # Running statistics converge towards the batch statistics.
        assert abs(out.mean()) < 0.5

    def test_backward_shape(self, rng):
        layer = BatchNorm2D(3)
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        out = layer(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_channel_mismatch_raises(self, rng):
        layer = BatchNorm2D(3)
        with pytest.raises(ValueError):
            layer(np.zeros((1, 4, 5, 5), dtype=np.float32))

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            BatchNorm2D(3, momentum=1.5)


class TestBBoxHead:
    def test_output_in_unit_interval(self, rng):
        head = BBoxHead(8, rng=0)
        x = rng.normal(size=(5, 8, 4, 4)).astype(np.float32)
        out = head(x)
        assert out.shape == (5, 4)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_backward_shape(self, rng):
        head = BBoxHead(8, rng=0)
        x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
        out = head(x)
        grad = head.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_output_shape_validation(self):
        head = BBoxHead(8, rng=0)
        assert head.output_shape((8, 4, 4)) == (4,)
        with pytest.raises(ValueError):
            head.output_shape((16, 4, 4))
