"""Tests for the analytical performance models (Eqs. 1-5) and Auto-HLS sampling."""

from __future__ import annotations

import pytest

from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    BundlePerformanceModel,
    DEFAULT_COEFFICIENTS,
    DNNPerformanceModel,
)
from repro.hw.device import PYNQ_Z1
from repro.hw.pipeline import TilePipelineSimulator
from repro.hw.sampling import fit_coefficients
from repro.hw.tile_arch import TileArchAccelerator

from tests.test_hw_tile_arch_pipeline import make_workload


@pytest.fixture(scope="module")
def accelerator():
    return TileArchAccelerator.build(make_workload(channels=48, reps=3), PYNQ_Z1, parallel_factor=16)


class TestCoefficients:
    def test_defaults_valid(self):
        assert DEFAULT_COEFFICIENTS.alpha > 0
        assert DEFAULT_COEFFICIENTS.beta >= 0

    def test_with_updates(self):
        updated = DEFAULT_COEFFICIENTS.with_updates(alpha=1.0)
        assert updated.alpha == 1.0
        assert updated.beta == DEFAULT_COEFFICIENTS.beta

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticalModelCoefficients(alpha=0.0)
        with pytest.raises(ValueError):
            AnalyticalModelCoefficients(phi=-1.0)


class TestBundleModel:
    def test_eq1_resource_is_sum_plus_overhead(self, accelerator):
        model = BundlePerformanceModel(accelerator)
        total = model.resources()
        bare_sum = sum(
            (inst.resources(accelerator.tile.tile_width, 48, 48).lut
             for inst in accelerator.bundle_hw.instances),
        )
        assert total.lut > bare_sum  # Gamma overhead present

    def test_eq2_latency_has_compute_and_transfer_terms(self, accelerator):
        model = BundlePerformanceModel(accelerator)
        layers = accelerator.workload.layers_in_bundle(0)
        estimate = model.latency_ms(layers)
        assert estimate.compute_ms > 0
        assert estimate.data_movement_ms > 0
        assert estimate.latency_ms == pytest.approx(
            estimate.compute_ms + estimate.data_movement_ms, rel=1e-6
        )

    def test_eq3_reuse_scales_compute(self, accelerator):
        """More layers served by the same IP instance -> more compute latency."""
        model = BundlePerformanceModel(accelerator)
        one = model.compute_latency_cycles(accelerator.workload.layers_in_bundle(0))
        both = model.compute_latency_cycles(
            accelerator.workload.layers_in_bundle(0) + accelerator.workload.layers_in_bundle(1)
        )
        assert both > one

    def test_alpha_scales_latency(self, accelerator):
        layers = accelerator.workload.layers_in_bundle(0)
        low = BundlePerformanceModel(accelerator, DEFAULT_COEFFICIENTS.with_updates(alpha=0.5))
        high = BundlePerformanceModel(accelerator, DEFAULT_COEFFICIENTS.with_updates(alpha=1.0))
        assert high.latency_ms(layers).compute_ms == pytest.approx(
            2 * low.latency_ms(layers).compute_ms, rel=1e-6
        )


class TestDNNModel:
    def test_eq4_total_is_sum_of_bundles_plus_dm(self, accelerator):
        model = DNNPerformanceModel(accelerator)
        estimate = model.estimate()
        bundle_sum = 0.0
        for idx in accelerator.workload.bundle_indices():
            bundle_sum += model.bundle_model.latency_ms(
                accelerator.workload.layers_in_bundle(idx)
            ).latency_ms
        assert estimate.latency_ms > bundle_sum  # stray layers + phi * Lat_DM

    def test_eq5_resources_include_buffers_and_control(self, accelerator):
        model = DNNPerformanceModel(accelerator)
        resources = model.resources()
        assert resources.bram >= accelerator.buffers.total_bram

    def test_fps_property(self, accelerator):
        estimate = DNNPerformanceModel(accelerator).estimate()
        assert estimate.fps == pytest.approx(1000.0 / estimate.latency_ms, rel=1e-9)

    def test_latency_monotone_in_network_size(self):
        small_acc = TileArchAccelerator.build(make_workload(channels=16, reps=1), PYNQ_Z1, 16)
        large_acc = TileArchAccelerator.build(make_workload(channels=64, reps=4), PYNQ_Z1, 16)
        assert (DNNPerformanceModel(large_acc).latency_ms()
                > DNNPerformanceModel(small_acc).latency_ms())


class TestSampling:
    def test_fit_improves_agreement_with_simulator(self):
        workloads = [make_workload(channels=c, reps=r) for c, r in ((16, 1), (32, 2), (48, 3))]
        result = fit_coefficients(workloads, PYNQ_Z1, parallel_factor=16)
        assert result.mean_relative_error < 0.35
        assert 0.05 <= result.coefficients.alpha <= 3.0
        assert 0.0 <= result.coefficients.beta <= 3.0
        assert len(result.samples) == 3

    def test_fitted_model_tracks_simulator_on_unseen_workload(self):
        workloads = [make_workload(channels=c, reps=r) for c, r in ((16, 1), (32, 2), (48, 3))]
        result = fit_coefficients(workloads, PYNQ_Z1, parallel_factor=16)
        accelerator = TileArchAccelerator.build(
            make_workload(channels=40, reps=2), PYNQ_Z1, parallel_factor=16)
        analytical = DNNPerformanceModel(accelerator, result.coefficients).latency_ms()
        simulated = TilePipelineSimulator(accelerator).latency_ms()
        assert analytical == pytest.approx(simulated, rel=0.5)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError):
            fit_coefficients([], PYNQ_Z1)

    def test_simulator_reference_is_deterministic(self):
        wl = make_workload(channels=32, reps=2)
        acc = TileArchAccelerator.build(wl, PYNQ_Z1, parallel_factor=16)
        a = TilePipelineSimulator(acc).latency_ms()
        b = TilePipelineSimulator(acc).latency_ms()
        assert a == b
