"""Pooling layers: max and global average pooling."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers.base import Layer


class MaxPool2D(Layer):
    """Max pooling over non-overlapping (by default) square windows."""

    layer_type = "pool"

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name=name or f"maxpool{kernel_size}x{kernel_size}")
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, argmax = F.max_pool_forward(x, self.kernel_size, self.stride)
        self._cache = (x.shape, argmax)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, argmax = self._cache
        return F.max_pool_backward(grad_out, x_shape, argmax, self.kernel_size, self.stride)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, 0)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, out_h, out_w)

    def num_ops(self, input_shape: tuple[int, ...]) -> int:
        c, out_h, out_w = self.output_shape(input_shape)
        return int(c * out_h * out_w * self.kernel_size**2)


class GlobalAvgPool2D(Layer):
    """Global average pooling: reduces each feature map to a single value."""

    layer_type = "pool"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name or "globalavgpool")
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        return np.broadcast_to(grad_out / (h * w), self._x_shape).copy()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, _, _ = input_shape
        return (c, 1, 1)

    def num_ops(self, input_shape: tuple[int, ...]) -> int:
        c, h, w = input_shape
        return int(c * h * w)
