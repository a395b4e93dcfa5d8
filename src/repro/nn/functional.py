"""Low-level numerical kernels used by the layer implementations.

All tensors follow the ``NCHW`` layout (batch, channels, height, width).  The
convolution kernels are implemented with ``im2col``/``col2im`` so that both
the forward and the backward passes reduce to dense matrix multiplications,
which keeps the pure-numpy framework fast enough to train the small proxy
DNNs used in the co-design flow.
"""

from __future__ import annotations

import numpy as np


def pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of an ``NCHW`` tensor."""
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    return (size + 2 * pad - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unfold image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    img = pad_input(x, pad)
    col = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for y in range(kernel_h):
        y_max = y + stride * out_h
        for xx in range(kernel_w):
            x_max = xx + stride * out_w
            col[:, :, y, xx, :, :] = img[:, :, y:y_max:stride, xx:x_max:stride]
    return col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)


def col2im(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`; accumulates overlapping patches."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    col = col.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)

    img = np.zeros((n, c, h + 2 * pad + stride - 1, w + 2 * pad + stride - 1), dtype=col.dtype)
    for y in range(kernel_h):
        y_max = y + stride * out_h
        for xx in range(kernel_w):
            x_max = xx + stride * out_w
            img[:, :, y:y_max:stride, xx:x_max:stride] += col[:, :, y, xx, :, :]
    return img[:, :, pad:h + pad, pad:w + pad]


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray]:
    """Standard 2-D convolution forward pass.

    Parameters
    ----------
    x:
        Input ``(N, C_in, H, W)``.
    weight:
        Filters ``(C_out, C_in, kH, kW)``.
    bias:
        Optional per-output-channel bias ``(C_out,)``.

    Returns
    -------
    tuple
        ``(output, col)`` where ``col`` is the im2col matrix cached for the
        backward pass.
    """
    n, _, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)

    col = im2col(x, kh, kw, stride, pad)
    w_col = weight.reshape(c_out, -1).T
    out = col @ w_col
    if bias is not None:
        out += bias
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    return out, col


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    col: np.ndarray,
    weight: np.ndarray,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_input, grad_weight, grad_bias)``.
    """
    c_out, c_in, kh, kw = weight.shape
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)

    grad_weight = (col.T @ grad_flat).T.reshape(c_out, c_in, kh, kw)
    grad_bias = grad_flat.sum(axis=0)

    w_col = weight.reshape(c_out, -1)
    grad_col = grad_flat @ w_col
    grad_input = col2im(grad_col, x_shape, kh, kw, stride, pad)
    return grad_input, grad_weight, grad_bias


def depthwise_conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, pad: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Depth-wise 2-D convolution forward pass.

    Parameters
    ----------
    weight:
        Per-channel filters ``(C, 1, kH, kW)``.

    Returns
    -------
    tuple
        ``(output, cols)`` where ``cols`` caches the per-channel im2col
        matrices for the backward pass.
    """
    n, c, h, w = x.shape
    _, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)

    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    cols: list[np.ndarray] = []
    for ch in range(c):
        col = im2col(x[:, ch:ch + 1], kh, kw, stride, pad)
        cols.append(col)
        res = col @ weight[ch].reshape(-1, 1)
        out[:, ch] = res.reshape(n, out_h, out_w)
    if bias is not None:
        out += bias.reshape(1, c, 1, 1)
    return out, cols


def depthwise_conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    cols: list[np.ndarray],
    weight: np.ndarray,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`depthwise_conv2d_forward`."""
    n, c, h, w = x_shape
    _, _, kh, kw = weight.shape

    grad_input = np.zeros(x_shape, dtype=grad_out.dtype)
    grad_weight = np.zeros_like(weight)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    for ch in range(c):
        grad_flat = grad_out[:, ch].reshape(-1, 1)
        grad_weight[ch] = (cols[ch].T @ grad_flat).reshape(1, kh, kw)
        grad_col = grad_flat @ weight[ch].reshape(1, -1)
        grad_input[:, ch:ch + 1] = col2im(grad_col, (n, 1, h, w), kh, kw, stride, pad)
    return grad_input, grad_weight, grad_bias


def max_pool_forward(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling forward; returns ``(output, argmax)`` for the backward pass."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    col = im2col(x, kernel, kernel, stride, 0).reshape(-1, kernel * kernel)
    # im2col interleaves channels; re-group so that the pooling window axis is
    # the last one for each (sample, position, channel) triple.
    col = col.reshape(n * out_h * out_w, c, kernel * kernel)
    argmax = col.argmax(axis=2)
    out = col.max(axis=2)
    out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
    return out, argmax


def max_pool_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    argmax: np.ndarray,
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Backward pass for max pooling."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)

    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c)
    grad_col = np.zeros((n * out_h * out_w, c, kernel * kernel), dtype=grad_out.dtype)
    rows = np.arange(grad_col.shape[0])[:, None]
    cols_idx = np.arange(c)[None, :]
    grad_col[rows, cols_idx, argmax] = grad_flat
    grad_col = grad_col.reshape(n * out_h * out_w, c * kernel * kernel)
    return col2im(grad_col, x_shape, kernel, kernel, stride, 0)


def clipped_relu(x: np.ndarray, clip: float | None) -> np.ndarray:
    """ReLU with an optional upper clip (ReLU4 / ReLU8 in the paper)."""
    out = np.maximum(x, 0.0)
    if clip is not None:
        out = np.minimum(out, clip)
    return out


def clipped_relu_grad(x: np.ndarray, clip: float | None) -> np.ndarray:
    """Elementwise gradient mask of :func:`clipped_relu`."""
    mask = (x > 0).astype(x.dtype)
    if clip is not None:
        mask *= (x < clip).astype(x.dtype)
    return mask


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out.astype(x.dtype, copy=False)
