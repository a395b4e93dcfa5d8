"""Unit tests for the low-level numerical kernels in ``repro.nn.functional``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F


def naive_conv2d(x, weight, bias, stride, pad):
    """Straightforward reference convolution for cross-checking im2col."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float64)
    for b in range(n):
        for oc in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[b, oc] += bias[oc]
    return out


class TestConvOutputSize:
    def test_same_padding_stride1(self):
        assert F.conv_output_size(16, 3, 1, 1) == 16

    def test_stride2(self):
        assert F.conv_output_size(16, 3, 2, 1) == 8

    def test_no_padding(self):
        assert F.conv_output_size(10, 3, 1, 0) == 8


class TestIm2Col:
    def test_roundtrip_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        col = F.im2col(x, 3, 3, stride=1, pad=1)
        assert col.shape == (2 * 8 * 8, 3 * 3 * 3)

    def test_col2im_accumulates_overlaps(self, rng):
        x = rng.normal(size=(1, 1, 6, 6)).astype(np.float32)
        col = F.im2col(x, 3, 3, stride=1, pad=1)
        back = F.col2im(col, x.shape, 3, 3, stride=1, pad=1)
        # With overlapping 3x3 windows each interior pixel is visited 9 times.
        assert back[0, 0, 3, 3] == pytest.approx(9 * x[0, 0, 3, 3], rel=1e-5)

    def test_kernel1_identity(self, rng):
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        col = F.im2col(x, 1, 1, stride=1, pad=0)
        assert col.shape == (2 * 25, 4)
        np.testing.assert_allclose(
            col.reshape(2, 25, 4).transpose(0, 2, 1).reshape(2, 4, 5, 5), x, rtol=1e-6
        )


class TestConv2D:
    @pytest.mark.parametrize("kernel,stride,pad", [(1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2)])
    def test_matches_naive(self, rng, kernel, stride, pad):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, kernel, kernel)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out, _ = F.conv2d_forward(x, w, b, stride, pad)
        expected = naive_conv2d(x, w, b, stride, pad)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)

    def test_backward_gradient_numeric(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float64)
        b = np.zeros(3)
        out, col = F.conv2d_forward(x, w, b, 1, 1)
        grad_out = rng.normal(size=out.shape)
        grad_in, grad_w, grad_b = F.conv2d_backward(grad_out, x.shape, col, w, 1, 1)

        # Numeric gradient on a single weight element.
        eps = 1e-5
        w2 = w.copy()
        w2[1, 1, 1, 1] += eps
        out2, _ = F.conv2d_forward(x, w2, b, 1, 1)
        numeric = np.sum((out2 - out) * grad_out) / eps
        assert grad_w[1, 1, 1, 1] == pytest.approx(numeric, rel=1e-3)

        # Numeric gradient on an input element.
        x2 = x.copy()
        x2[0, 0, 2, 2] += eps
        out3, _ = F.conv2d_forward(x2, w, b, 1, 1)
        numeric_in = np.sum((out3 - out) * grad_out) / eps
        assert grad_in[0, 0, 2, 2] == pytest.approx(numeric_in, rel=1e-3)
        assert grad_b.shape == (3,)


class TestDepthwiseConv2D:
    def test_channels_independent(self, rng):
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 1, 3, 3)).astype(np.float32)
        out, _ = F.depthwise_conv2d_forward(x, w, None, 1, 1)
        # Channel 0 output only depends on channel 0 input.
        x_perturbed = x.copy()
        x_perturbed[0, 1] += 10.0
        out2, _ = F.depthwise_conv2d_forward(x_perturbed, w, None, 1, 1)
        np.testing.assert_allclose(out[0, 0], out2[0, 0], rtol=1e-6)
        assert not np.allclose(out[0, 1], out2[0, 1])

    def test_backward_shapes(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 1, 3, 3)).astype(np.float32)
        out, cols = F.depthwise_conv2d_forward(x, w, np.zeros(3, dtype=np.float32), 1, 1)
        grad_in, grad_w, grad_b = F.depthwise_conv2d_backward(
            np.ones_like(out), x.shape, cols, w, 1, 1
        )
        assert grad_in.shape == x.shape
        assert grad_w.shape == w.shape
        assert grad_b.shape == (3,)

    def test_backward_gradient_numeric(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
        w = rng.normal(size=(2, 1, 3, 3)).astype(np.float64)
        out, cols = F.depthwise_conv2d_forward(x, w, None, 1, 1)
        grad_out = rng.normal(size=out.shape)
        _, grad_w, _ = F.depthwise_conv2d_backward(grad_out, x.shape, cols, w, 1, 1)
        eps = 1e-5
        w2 = w.copy()
        w2[0, 0, 1, 2] += eps
        out2, _ = F.depthwise_conv2d_forward(x, w2, None, 1, 1)
        numeric = np.sum((out2 - out) * grad_out) / eps
        assert grad_w[0, 0, 1, 2] == pytest.approx(numeric, rel=1e-3)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out, _ = F.max_pool_forward(x, 2, 2)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out, argmax = F.max_pool_forward(x, 2, 2)
        grad = F.max_pool_backward(np.ones_like(out), x.shape, argmax, 2, 2)
        # Gradient lands exactly on the max positions.
        assert grad[0, 0, 1, 1] == 1.0
        assert grad[0, 0, 0, 0] == 0.0
        assert grad.sum() == pytest.approx(4.0)

    def test_max_pool_multichannel_argmax_independent(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out, _ = F.max_pool_forward(x, 2, 2)
        for c in range(3):
            expected = x[:, c].reshape(2, 2, 2, 2, 2).max(axis=(2, 4))
            np.testing.assert_allclose(out[:, c], expected, rtol=1e-6)


class TestActivations:
    def test_clipped_relu_bounds(self):
        x = np.array([-2.0, 0.5, 3.0, 9.0], dtype=np.float32)
        np.testing.assert_allclose(F.clipped_relu(x, 4.0), [0.0, 0.5, 3.0, 4.0])
        np.testing.assert_allclose(F.clipped_relu(x, None), [0.0, 0.5, 3.0, 9.0])

    def test_clipped_relu_grad_mask(self):
        x = np.array([-1.0, 0.5, 5.0], dtype=np.float32)
        np.testing.assert_allclose(F.clipped_relu_grad(x, 4.0), [0.0, 1.0, 0.0])
        np.testing.assert_allclose(F.clipped_relu_grad(x, None), [0.0, 1.0, 1.0])

    def test_sigmoid_range_and_stability(self):
        x = np.array([-1000.0, 0.0, 1000.0], dtype=np.float32)
        out = F.sigmoid(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-6)
