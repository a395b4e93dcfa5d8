"""Fixed-point quantization schemes.

The co-design space ties quantization to the accelerator: the configured IP
instances share a quantization scheme ``Q_j`` (Table 1), and the activation
choice (ReLU / ReLU4 / ReLU8) bounds feature-map dynamic range, which decides
the feature-map bit width used on the board (Fig. 5 / Fig. 6: "8-bit feature
map (Relu4)" vs "16-bit fm (Relu)").

This module provides:

* :class:`QuantizationScheme` — weight/feature-map bit widths and the DSP /
  memory cost factors that the hardware resource models consume.
* :class:`FixedPointQuantizer` — symmetric linear quantizer used to quantize
  trained weights and simulate quantized inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizationScheme:
    """Bit widths for weights and feature maps.

    Attributes
    ----------
    name:
        Identifier used in design-point descriptions (e.g. ``"w8a8"``).
    weight_bits:
        Bit width of convolution weights.
    feature_bits:
        Bit width of activations / feature maps.
    """

    name: str
    weight_bits: int
    feature_bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.weight_bits <= 32:
            raise ValueError("weight_bits must be in [1, 32]")
        if not 1 <= self.feature_bits <= 32:
            raise ValueError("feature_bits must be in [1, 32]")

    @property
    def macs_per_dsp(self) -> int:
        """How many multiply-accumulates one DSP48 slice performs per cycle.

        Following the INT8 DSP-packing optimisation, two multiplications that
        share one activation operand can be packed into a single DSP48 slice
        when the weights are 8 bits or narrower; wide (16-bit) weights need a
        full DSP each.
        """
        if self.weight_bits <= 8:
            return 2
        return 1

    @property
    def weight_bytes(self) -> float:
        """Bytes per weight after quantization."""
        return self.weight_bits / 8.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Schemes used throughout the paper's experiments.
W8A8 = QuantizationScheme("w8a8", weight_bits=8, feature_bits=8)
W8A10 = QuantizationScheme("w8a10", weight_bits=8, feature_bits=10)
W8A16 = QuantizationScheme("w8a16", weight_bits=8, feature_bits=16)
W16A16 = QuantizationScheme("w16a16", weight_bits=16, feature_bits=16)
FLOAT32 = QuantizationScheme("float32", weight_bits=32, feature_bits=32)

SCHEMES = {s.name: s for s in (W8A8, W8A10, W8A16, W16A16, FLOAT32)}


#: Feature-map bit width of each ReLU-family activation: the paper pairs
#: ReLU4 with 8-bit feature maps, ReLU8 with 10-bit and unbounded ReLU with
#: 16-bit feature maps.
ACTIVATION_FEATURE_BITS = {"relu4": 8, "relu8": 10, "relu": 16}


def feature_bits_for_activation(activation: str) -> int:
    """Feature-map bit width of a ReLU-family activation (case-insensitive)."""
    try:
        return ACTIVATION_FEATURE_BITS[activation.lower()]
    except KeyError:
        raise KeyError(f"No quantization mapping for activation '{activation}'") from None


def scheme_for_activation(activation: str, weight_bits: int = 8) -> QuantizationScheme:
    """Map a ReLU-family activation name to its quantization scheme."""
    feature_bits = feature_bits_for_activation(activation)
    return QuantizationScheme(f"w{weight_bits}a{feature_bits}", weight_bits, feature_bits)


class FixedPointQuantizer:
    """Symmetric linear (power-of-two-free) quantizer.

    Values are mapped to integers in ``[-2^(bits-1), 2^(bits-1) - 1]`` using a
    per-tensor scale.
    """

    def __init__(self, bits: int) -> None:
        if not 2 <= bits <= 32:
            raise ValueError("bits must be in [2, 32]")
        self.bits = bits
        self.qmin = -(2 ** (bits - 1))
        self.qmax = 2 ** (bits - 1) - 1

    def scale_for(self, tensor: np.ndarray) -> float:
        """Per-tensor scale that maps the max absolute value to ``qmax``."""
        max_abs = float(np.max(np.abs(tensor))) if tensor.size else 0.0
        scale = max_abs / self.qmax
        if scale <= 0.0 or not np.isfinite(scale):
            return 1.0
        return scale

    def quantize(self, tensor: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, float]:
        """Quantize to integers; returns ``(int_tensor, scale)``."""
        if scale is None:
            scale = self.scale_for(tensor)
        if scale <= 0.0 or not np.isfinite(scale):
            scale = 1.0
        values = np.asarray(tensor)
        if np.issubdtype(values.dtype, np.floating) and values.dtype != np.float64 \
                and scale < float(np.finfo(values.dtype).tiny):
            # A scale below the tensor dtype's normal range (subnormal
            # inputs) underflows to 0 when the division runs in that dtype,
            # making it 0/0 = NaN -> INT32_MIN after the cast; only then is
            # the float64 copy worth paying for on the quantization hot path.
            values = values.astype(np.float64)
        q = np.clip(np.round(values / scale), self.qmin, self.qmax)
        return q.astype(np.int32), scale

    def dequantize(self, q: np.ndarray, scale: float) -> np.ndarray:
        """Map integer values back to floating point."""
        return (q.astype(np.float32)) * scale


def quantize_model_weights(model, scheme: QuantizationScheme) -> dict[str, float]:
    """In-place fake-quantize every parameter of ``model``.

    Returns a mapping of parameter name to the scale that was applied, so the
    caller can reconstruct integer weights for deployment.
    """
    quantizer = FixedPointQuantizer(scheme.weight_bits)
    scales: dict[str, float] = {}
    for param in model.parameters():
        q, scale = quantizer.quantize(param.value)
        param.value = quantizer.dequantize(q, scale)
        scales[param.name] = scale
    return scales
