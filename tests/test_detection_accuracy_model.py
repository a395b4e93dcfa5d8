"""Tests for the surrogate accuracy model."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.accuracy_model import (
    BUNDLE_CEILINGS,
    CandidateFeatures,
    SurrogateAccuracyModel,
    bundle_ceiling,
)


def make_features(**overrides) -> CandidateFeatures:
    base = dict(
        macs=8e7, params=250_000, depth=10, max_channels=256, num_downsamples=4,
        feature_bits=8, weight_bits=8, bundle_signature="dwconv3x3+conv1x1",
        input_pixels=160 * 320, epochs=200,
    )
    base.update(overrides)
    return CandidateFeatures(**base)


class TestBundleCeilings:
    def test_all_18_signatures_present(self):
        assert len(BUNDLE_CEILINGS) == 18

    def test_conv_bundles_beat_dw_only(self):
        assert bundle_ceiling("conv3x3+conv1x1") > bundle_ceiling("dwconv3x3")

    def test_conv5x5_is_highest(self):
        assert max(BUNDLE_CEILINGS, key=BUNDLE_CEILINGS.get) == "conv5x5+conv1x1"

    def test_fallback_for_unknown_signature(self):
        value = bundle_ceiling("conv7x7+conv3x3")
        assert 0.3 <= value <= 0.8

    def test_fallback_penalises_no_mixing(self):
        assert bundle_ceiling("dwconv9x9") < bundle_ceiling("conv9x9")


class TestSurrogateModel:
    def setup_method(self):
        self.model = SurrogateAccuracyModel(noise=0.0)

    def test_output_in_unit_interval(self):
        assert 0.0 <= self.model.predict(make_features()) <= 1.0

    def test_more_macs_higher_accuracy(self):
        low = self.model.predict(make_features(macs=2e7))
        high = self.model.predict(make_features(macs=3e8))
        assert high > low

    def test_more_channels_higher_accuracy(self):
        narrow = self.model.predict(make_features(max_channels=64))
        wide = self.model.predict(make_features(max_channels=512))
        assert wide > narrow

    def test_deeper_higher_accuracy(self):
        shallow = self.model.predict(make_features(depth=4))
        deep = self.model.predict(make_features(depth=14))
        assert deep > shallow

    def test_quantization_ordering(self):
        relu = self.model.predict(make_features(feature_bits=16))
        relu8 = self.model.predict(make_features(feature_bits=10))
        relu4 = self.model.predict(make_features(feature_bits=8))
        assert relu > relu8 > relu4

    def test_more_epochs_higher_accuracy(self):
        proxy = self.model.predict(make_features(epochs=20))
        full = self.model.predict(make_features(epochs=200))
        assert full > proxy

    def test_excessive_downsampling_penalised(self):
        balanced = self.model.predict(make_features(num_downsamples=5))
        collapsed = self.model.predict(make_features(num_downsamples=9))
        assert balanced > collapsed

    def test_never_exceeds_ceiling(self):
        value = self.model.predict(make_features(macs=1e12, max_channels=4096, depth=50,
                                                 num_downsamples=5, feature_bits=16))
        assert value <= bundle_ceiling("dwconv3x3+conv1x1") + 1e-9

    def test_jitter_deterministic(self):
        noisy = SurrogateAccuracyModel(noise=0.01)
        a = noisy.predict(make_features())
        b = noisy.predict(make_features())
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SurrogateAccuracyModel(capacity_scale=0.0)
        with pytest.raises(ValueError):
            SurrogateAccuracyModel(capacity_floor=1.5)

    @given(
        st.floats(1e6, 1e9), st.integers(1, 20), st.integers(8, 1024),
        st.sampled_from([8, 10, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_always_valid(self, macs, depth, channels, bits):
        value = self.model.predict(make_features(
            macs=macs, depth=depth, max_channels=channels, feature_bits=bits,
        ))
        assert 0.0 <= value <= 1.0

    @given(st.floats(1e6, 5e8), st.floats(1e6, 5e8))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_macs(self, a, b):
        lo, hi = sorted((a, b))
        assert self.model.predict(make_features(macs=lo)) <= self.model.predict(
            make_features(macs=hi)
        ) + 1e-12


class TestCalibration:
    """The surrogate reproduces the paper's final-design accuracies."""

    def test_reference_designs_match_paper(self):
        from repro.experiments.reference_designs import reference_designs

        model = SurrogateAccuracyModel()
        expected = {"DNN1": 0.686, "DNN2": 0.612, "DNN3": 0.593}
        for config in reference_designs():
            predicted = model.predict(config.features(epochs=200))
            assert predicted == pytest.approx(expected[config.name], abs=0.03)

    def test_reference_ordering(self):
        from repro.experiments.reference_designs import reference_designs

        model = SurrogateAccuracyModel()
        values = [model.predict(c.features(epochs=200)) for c in reference_designs()]
        assert values[0] > values[1] > values[2]
