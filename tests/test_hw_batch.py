"""Golden-equivalence suite for the segment-memoized FPGA evaluator.

The contract of :mod:`repro.hw.evaluator` is bit-exactness: for every config,
``FPGAEvaluator.estimate`` / ``estimate_batch`` must reproduce the reference
``DNNPerformanceModel`` estimate to *full float precision* — not within a
tolerance — whatever the evaluator memoized before.  Journals, checkpoints
and Pareto selections are byte-identical to the reference model only because
of this property, so every comparison in this file uses ``==`` on raw floats,
never ``pytest.approx``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.telemetry as telemetry
from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.dnn_config import DNNConfig
from repro.core.scd import move_n, move_pi, move_x
from repro.detection.task import DAC_SDC_TASK, TINY_DETECTION_TASK
from repro.hw import evaluator as evaluator_module
from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    DEFAULT_COEFFICIENTS,
    DNNPerformanceModel,
    PerformanceEstimate,
)
from repro.hw.device import PYNQ_Z1, ULTRA96
from repro.hw.evaluator import FPGAEvaluator, evaluator_for
from repro.hw.tile_arch import TileArchAccelerator

# A refit-style coefficient set: every knob off its default, so coefficient
# mix-ups between the paths cannot cancel out.
REFIT = AnalyticalModelCoefficients(
    alpha=1.17, beta=0.93, phi=1.41, ctl_gamma=0.8,
    gamma_lut=311.0, gamma_ff=207.0, gamma_bram=1.5,
)


def scalar_estimate(config, device, coefficients, clock_mhz) -> PerformanceEstimate:
    """The reference model on the config's full Tile-Arch accelerator."""
    accelerator = TileArchAccelerator.build(
        config.to_workload(), device,
        parallel_factor=config.parallel_factor, clock_mhz=clock_mhz,
    )
    return DNNPerformanceModel(accelerator, coefficients).estimate()


def assert_bit_identical(batched: PerformanceEstimate, scalar: PerformanceEstimate):
    assert batched.latency_ms == scalar.latency_ms
    assert batched.compute_ms == scalar.compute_ms
    assert batched.data_movement_ms == scalar.data_movement_ms
    assert batched.resources.lut == scalar.resources.lut
    assert batched.resources.ff == scalar.resources.ff
    assert batched.resources.dsp == scalar.resources.dsp
    assert batched.resources.bram == scalar.resources.bram


def config_grid(task) -> list[DNNConfig]:
    """A deliberately heterogeneous batch: several bundles, replication
    counts, elastic Pi / X vectors, activations, bit widths and parallel
    factors, all mixed into one call."""
    configs = []
    cases = [
        # (bundle_id, reps, expansion, downsample, activation, wb, stem)
        (13, 2, (1.5, 1.5), (1, 1), "relu4", 8, 16),
        (13, 3, (1.2, 1.8, 1.4), (1, 0, 1), "relu", 8, 24),
        (1, 1, (2.0,), (1,), "relu8", 8, 16),
        (5, 2, (1.0, 2.0), (0, 1), "relu4", 16, 32),
        (9, 3, (1.5, 1.3, 1.1), (1, 1, 0), "relu8", 8, 48),
        (17, 2, (1.7, 1.6), (1, 1), "relu", 16, 16),
    ]
    for bundle_id, reps, expansion, downsample, activation, wb, stem in cases:
        for pf in (3, 4, 8, 16):
            configs.append(DNNConfig(
                bundle=get_bundle(bundle_id),
                task=task,
                num_repetitions=reps,
                channel_expansion=expansion,
                downsample=downsample,
                stem_channels=stem,
                activation=activation,
                weight_bits=wb,
                parallel_factor=pf,
                max_channels=64 if task is TINY_DETECTION_TASK else 512,
            ))
    return configs


def memo_entries(evaluator: FPGAEvaluator) -> int:
    return sum(len(table) for table in vars(evaluator).values() if isinstance(table, dict))


class TestGoldenEquivalence:
    @pytest.mark.parametrize("device,clock_mhz", [
        (PYNQ_Z1, None),          # device default clock
        (PYNQ_Z1, 142.5),         # non-default clock
        (ULTRA96, None),
        (ULTRA96, 201.25),
    ])
    @pytest.mark.parametrize("coefficients", [DEFAULT_COEFFICIENTS, REFIT])
    def test_batch_matches_scalar_exactly(self, device, clock_mhz, coefficients):
        configs = config_grid(TINY_DETECTION_TASK)
        evaluator = FPGAEvaluator(device)
        batched = evaluator.estimate_batch(configs, coefficients, clock_mhz)
        clock = clock_mhz or device.default_clock_mhz
        assert len(batched) == len(configs)
        for config, estimate in zip(configs, batched):
            reference = scalar_estimate(config, device, coefficients, clock)
            assert_bit_identical(estimate, reference)
            # The scalar entry point, now on a warm memo, agrees too.
            assert_bit_identical(evaluator.estimate(config, coefficients, clock_mhz), reference)

    def test_full_resolution_task(self, device):
        # The DAC-SDC input resolution exercises different tile choices.
        configs = config_grid(DAC_SDC_TASK)[:8]
        batched = FPGAEvaluator(device).estimate_batch(configs)
        for config, estimate in zip(configs, batched):
            assert_bit_identical(
                estimate,
                scalar_estimate(
                    config, device, DEFAULT_COEFFICIENTS, device.default_clock_mhz
                ),
            )

    def test_empty_batch(self, device):
        assert FPGAEvaluator(device).estimate_batch([]) == []

    def test_single_config_batch(self, tiny_config, device):
        [estimate] = FPGAEvaluator(device).estimate_batch([tiny_config])
        assert_bit_identical(
            estimate,
            scalar_estimate(
                tiny_config, device, DEFAULT_COEFFICIENTS, device.default_clock_mhz
            ),
        )

    def test_statics_cache_survives_coefficient_refit(self, tiny_config, device):
        # One evaluator, two coefficient fits and two clocks: the memo must
        # not leak anything coefficient- or clock-dependent between calls.
        evaluator = FPGAEvaluator(device)
        evaluator.estimate(tiny_config)  # warm the memo
        for coefficients, clock in [(REFIT, 87.5), (DEFAULT_COEFFICIENTS, None)]:
            resolved = clock or device.default_clock_mhz
            estimate = evaluator.estimate(tiny_config, coefficients, clock)
            assert_bit_identical(
                estimate, scalar_estimate(tiny_config, device, coefficients, resolved)
            )

    def test_duplicate_configs_share_one_group(self, tiny_config, device):
        evaluator = FPGAEvaluator(device)
        results = evaluator.estimate_batch([tiny_config, tiny_config])
        entries = memo_entries(evaluator)
        results += evaluator.estimate_batch([tiny_config])
        assert results[0] == results[1] == results[2]
        assert memo_entries(evaluator) == entries

    def test_module_level_convenience(self, tiny_config, device):
        # One shared evaluator per device per process.
        assert evaluator_for(device) is evaluator_for(device)
        assert evaluator_for(ULTRA96) is not evaluator_for(PYNQ_Z1)
        estimate = evaluator_for(device).estimate(tiny_config, clock_mhz=120.0)
        assert_bit_identical(
            estimate, scalar_estimate(tiny_config, device, DEFAULT_COEFFICIENTS, 120.0)
        )

    @given(
        device=st.sampled_from([PYNQ_Z1, ULTRA96]),
        clock_mhz=st.sampled_from([None, 87.5, 142.5]),
        coefficients=st.builds(
            AnalyticalModelCoefficients,
            alpha=st.floats(0.05, 3.0), beta=st.floats(0.0, 3.0),
            phi=st.floats(0.0, 2.0), ctl_gamma=st.floats(0.0, 2.0),
            gamma_lut=st.floats(0.0, 2000.0), gamma_ff=st.floats(0.0, 2000.0),
            gamma_bram=st.floats(0.0, 8.0),
        ),
        bundle_id=st.sampled_from([1, 4, 5, 8, 9, 13, 17, 18]),
        expansion=st.lists(st.sampled_from([0.8, 1.0, 1.2, 1.5, 1.7, 2.0]),
                           min_size=1, max_size=5),
        downsample=st.lists(st.integers(0, 1), min_size=5, max_size=5),
        stem=st.sampled_from([16, 32, 48]),
        activation=st.sampled_from(["relu", "relu4", "relu8"]),
        weight_bits=st.sampled_from([4, 8, 16]),
        pf=st.sampled_from([1, 2, 3, 5, 8, 16, 32]),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_config_property(
        self, device, clock_mhz, coefficients, bundle_id, expansion, downsample,
        stem, activation, weight_bits, pf, order,
    ):
        reps = len(expansion)
        config = DNNConfig(
            bundle=get_bundle(bundle_id),
            task=TINY_DETECTION_TASK,
            num_repetitions=reps,
            channel_expansion=tuple(expansion),
            downsample=tuple(downsample[:reps]),
            stem_channels=stem,
            activation=activation,
            weight_bits=weight_bits,
            parallel_factor=pf,
            max_channels=64,
        )
        reference = scalar_estimate(
            config, device, coefficients, clock_mhz or device.default_clock_mhz
        )
        # An empty memo ...
        assert_bit_identical(
            FPGAEvaluator(device).estimate(config, coefficients, clock_mhz), reference
        )
        # ... and one warmed by a shuffled stream of the config's search
        # neighbours, scored under other coefficients and clocks.
        neighbours = [
            move(config, direction, 1)
            for move in (lambda c, d, s: move_n(c, d, s, 8), move_pi, move_x)
            for direction in (1, -1)
        ] + [
            config.with_updates(parallel_factor=pf * 2),
            config.with_updates(activation="relu8" if activation != "relu8" else "relu"),
            dataclasses.replace(config, name="renamed"),
        ]
        stream = [c for c in neighbours if c is not None]
        order.shuffle(stream)
        warm = FPGAEvaluator(device)
        warm.estimate_batch(stream, REFIT, 120.0)
        assert_bit_identical(warm.estimate(config, coefficients, clock_mhz), reference)


class TestEstimatorInternals:
    def test_group_key_ignores_parallel_factor_and_name(self, bundle13, tiny_task, device):
        # Repetition segments are PF- and name-free: a second PF adds PF
        # keyed entries (hardware, cycles, instance sum, buffers) only.
        base = dict(
            bundle=bundle13, task=tiny_task, num_repetitions=2,
            channel_expansion=(1.5, 1.5), downsample=(1, 1),
            stem_channels=16, max_channels=64,
        )
        evaluator = FPGAEvaluator(device)
        evaluator.estimate(DNNConfig(parallel_factor=4, name="a", **base))
        segments = (len(evaluator._reps), len(evaluator._ends), len(evaluator._tiles))
        evaluator.estimate(DNNConfig(parallel_factor=16, name="b", **base))
        assert (len(evaluator._reps), len(evaluator._ends), len(evaluator._tiles)) == segments

    def test_memo_tables_are_capped(self, tiny_config, device, monkeypatch):
        monkeypatch.setattr(evaluator_module, "MEMO_LIMIT", 3)
        evaluator = FPGAEvaluator(device)
        for pf in range(1, 12):
            config = tiny_config.with_updates(parallel_factor=pf)
            assert_bit_identical(
                evaluator.estimate(config),
                scalar_estimate(config, device, DEFAULT_COEFFICIENTS,
                                device.default_clock_mhz),
            )
        assert all(
            len(table) <= 3 for table in vars(evaluator).values() if isinstance(table, dict)
        )

    def test_shared_evaluator_under_thread_contention(self, device, monkeypatch):
        # Service and shard workers share one evaluator across threads.  A
        # tiny memo cap makes the tables clear while other threads read them.
        monkeypatch.setattr(evaluator_module, "MEMO_LIMIT", 8)
        configs = config_grid(TINY_DETECTION_TASK)
        expected = {
            id(config): scalar_estimate(config, device, REFIT, device.default_clock_mhz)
            for config in configs
        }
        evaluator = FPGAEvaluator(device)
        results: dict[int, list] = {}

        def work(index: int) -> None:
            order = (configs[index:] + configs[:index]) * 3
            results[index] = [(config, evaluator.estimate(config, REFIT)) for config in order]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(6))
        for pairs in results.values():
            assert len(pairs) == 3 * len(configs)
            for config, estimate in pairs:
                assert estimate == expected[id(config)]

    def test_shared_evaluator_follows_refit(self, tiny_config, device):
        # AutoHLS engines share the device's evaluator; after one engine is
        # refit, its estimates follow the new coefficients while the other
        # engine keeps the old ones.
        refit, stale = AutoHLS(device), AutoHLS(device)
        before = refit.estimate(tiny_config)
        assert stale.estimate(tiny_config) == before
        refit.fit_models([tiny_config.to_workload()])
        assert refit.coefficients != DEFAULT_COEFFICIENTS
        after = refit.estimate(tiny_config)
        assert after != before
        assert_bit_identical(
            after,
            scalar_estimate(tiny_config, device, refit.coefficients, refit.clock_mhz),
        )
        assert refit.estimate_batch([tiny_config]) == [after]
        assert stale.estimate(tiny_config) == before

    def test_telemetry_counters(self, tiny_config, device):
        telemetry.disable()
        reg = telemetry.enable()
        try:
            FPGAEvaluator(device).estimate_batch([tiny_config, tiny_config])
            assert reg.counter("hw.estimate.count").value == 2
            assert reg.counter("hw.estimate.batch.calls").value == 1
            evaluator_for(device).estimate(tiny_config)
            assert reg.counter("hw.estimate.count").value == 3
        finally:
            telemetry.disable()


class TestResourcesHoistRegression:
    def test_bundle_resources_computed_once_per_estimate(self, tiny_config, device, monkeypatch):
        # Eq. 1 does not depend on the layer group being scored, so one
        # estimate() must evaluate BundlePerformanceModel.resources exactly
        # once — not once per bundle group (the pre-fix behaviour).
        from repro.hw.analytical import BundlePerformanceModel, bundle_layer_groups

        calls = {"resources": 0}
        original = BundlePerformanceModel.resources

        def counting(self):
            calls["resources"] += 1
            return original(self)

        monkeypatch.setattr(BundlePerformanceModel, "resources", counting)
        accelerator = TileArchAccelerator.build(
            tiny_config.to_workload(), device,
            parallel_factor=tiny_config.parallel_factor,
        )
        model = DNNPerformanceModel(accelerator)
        num_groups = len(bundle_layer_groups(accelerator.workload))
        assert num_groups >= 2, "test needs a multi-group workload to be meaningful"
        model.estimate()
        assert calls["resources"] == 1
