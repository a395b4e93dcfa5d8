"""Tests (including property-based tests) for fixed-point quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Conv2D, Sequential
from repro.nn.quantization import (
    FLOAT32,
    SCHEMES,
    W8A8,
    W8A16,
    W16A16,
    FixedPointQuantizer,
    QuantizationScheme,
    quantize_model_weights,
    scheme_for_activation,
)


class TestQuantizationScheme:
    def test_macs_per_dsp_packing(self):
        assert W8A8.macs_per_dsp == 2
        assert W8A16.macs_per_dsp == 2  # packing keyed on weight bits
        assert W16A16.macs_per_dsp == 1

    def test_bytes(self):
        assert W8A8.weight_bytes == 1.0
        assert W16A16.weight_bytes == 2.0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationScheme("bad", weight_bits=0, feature_bits=8)
        with pytest.raises(ValueError):
            QuantizationScheme("bad", weight_bits=8, feature_bits=64)

    def test_scheme_for_activation(self):
        assert scheme_for_activation("relu4").feature_bits == 8
        assert scheme_for_activation("relu8").feature_bits == 10
        assert scheme_for_activation("relu").feature_bits == 16
        with pytest.raises(KeyError):
            scheme_for_activation("swish")

    def test_registry_contains_defaults(self):
        assert "w8a8" in SCHEMES
        assert SCHEMES["float32"] is FLOAT32


class TestFixedPointQuantizer:
    def test_quantize_dequantize_small_error(self, rng):
        quantizer = FixedPointQuantizer(8)
        x = rng.normal(size=1000).astype(np.float32)
        restored = quantizer.dequantize(*quantizer.quantize(x))
        err = np.sqrt(np.mean((x - restored) ** 2))
        assert err < 0.05 * np.std(x)

    def test_more_bits_less_error(self, rng):
        x = rng.normal(size=1000).astype(np.float32)
        errors = []
        for bits in (4, 8, 16):
            quantizer = FixedPointQuantizer(bits)
            restored = quantizer.dequantize(*quantizer.quantize(x))
            errors.append(np.sqrt(np.mean((x - restored) ** 2)))
        err4, err8, err16 = errors
        assert err16 <= err8 <= err4

    def test_integer_range_respected(self, rng):
        quantizer = FixedPointQuantizer(8)
        q, _ = quantizer.quantize(rng.normal(size=500).astype(np.float32) * 100)
        assert q.max() <= 127 and q.min() >= -128

    def test_zero_tensor(self):
        quantizer = FixedPointQuantizer(8)
        q, scale = quantizer.quantize(np.zeros(10, dtype=np.float32))
        assert scale == 1.0
        assert np.all(q == 0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            FixedPointQuantizer(1)

    def test_quantize_model_weights_inplace(self, rng):
        model = Sequential([Conv2D(3, 4, 3, rng=0)])
        before = [p.value.copy() for p in model.parameters()]
        scales = quantize_model_weights(model, W8A8)
        after = [p.value for p in model.parameters()]
        assert set(scales) == {p.name for p in model.parameters()}
        # Weights changed slightly but stayed close.
        for old, new in zip(before, after):
            assert np.max(np.abs(old - new)) < 0.05 * (np.abs(old).max() + 1e-9)


class TestQuantizerProperties:
    @given(arrays(np.float32, st.integers(1, 200),
                  elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_fake_quantize_idempotent(self, x):
        """Quantizing an already-quantized tensor changes nothing."""
        quantizer = FixedPointQuantizer(8)
        once = quantizer.dequantize(*quantizer.quantize(x))
        twice = quantizer.dequantize(*quantizer.quantize(once))
        np.testing.assert_allclose(once, twice, rtol=1e-5, atol=1e-6)

    @given(arrays(np.float32, st.integers(1, 200),
                  elements=st.floats(-1000, 1000, width=32)),
           st.integers(2, 16))
    @settings(max_examples=50, deadline=None)
    def test_error_bounded_by_scale(self, x, bits):
        """The absolute quantization error never exceeds one quantization step."""
        quantizer = FixedPointQuantizer(bits)
        scale = quantizer.scale_for(x)
        restored = quantizer.dequantize(*quantizer.quantize(x))
        err = np.max(np.abs(x - restored)) if x.size else 0.0
        assert err <= scale * 1.0 + 1e-6

    @given(arrays(np.float32, st.integers(1, 100),
                  elements=st.floats(-50, 50, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_quantized_values_in_range(self, x):
        quantizer = FixedPointQuantizer(6)
        q, _ = quantizer.quantize(x)
        assert q.max(initial=0) <= quantizer.qmax
        assert q.min(initial=0) >= quantizer.qmin

    def test_subnormal_inputs_stay_in_range(self):
        """Regression: a subnormal-float32 tensor produced a scale below the
        float32 range; dividing in float32 then gave 0/0 = NaN, which cast
        to INT32_MIN instead of a value in [qmin, qmax]."""
        quantizer = FixedPointQuantizer(6)
        for dtype, tiny in ((np.float32, 1e-45), (np.float16, 6e-8)):
            x = np.array([0.0, tiny], dtype=dtype)
            q, scale = quantizer.quantize(x)
            assert q.tolist() == [0, quantizer.qmax], dtype
            assert scale > 0
