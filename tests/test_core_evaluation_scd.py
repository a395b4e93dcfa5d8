"""Tests for bundle evaluation / selection and the SCD search (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.auto_hls import AutoHLS
from repro.core.bundle_evaluation import BundleEvaluator
from repro.core.bundle_generation import get_bundle
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.core.scd import EXPANSION_FACTORS, move_n, move_pi, move_x
from repro.detection.accuracy_model import SurrogateAccuracyModel
from repro.hw.analytical import PerformanceEstimate
from repro.hw.device import PYNQ_Z1
from repro.hw.resource import ResourceVector
from repro.search import config_cache_key, create_explorer


@pytest.fixture(scope="module")
def evaluator(tiny_task_module, device_module):
    return BundleEvaluator(tiny_task_module, device_module,
                           accuracy_model=SurrogateAccuracyModel(noise=0.0),
                           stem_channels=16)


@pytest.fixture(scope="module")
def tiny_task_module():
    from repro.detection.task import TINY_DETECTION_TASK
    return TINY_DETECTION_TASK


@pytest.fixture(scope="module")
def device_module():
    return PYNQ_Z1


@pytest.fixture(scope="module")
def small_bundle_set():
    return [get_bundle(i) for i in (1, 3, 9, 10, 13, 15)]


@pytest.fixture(scope="module")
def coarse_evaluations(evaluator, small_bundle_set):
    return evaluator.coarse_evaluate(small_bundle_set, parallel_factors=(8, 16), method=1)


class TestCoarseEvaluation:
    def test_one_record_per_bundle_per_pf(self, coarse_evaluations, small_bundle_set):
        assert len(coarse_evaluations) == len(small_bundle_set) * 2

    def test_accuracy_independent_of_pf(self, coarse_evaluations):
        by_bundle = {}
        for ev in coarse_evaluations:
            by_bundle.setdefault(ev.bundle_id, set()).add(round(ev.accuracy, 6))
        assert all(len(accs) == 1 for accs in by_bundle.values())

    def test_latency_decreases_with_pf(self, coarse_evaluations):
        by_bundle = {}
        for ev in coarse_evaluations:
            by_bundle.setdefault(ev.bundle_id, {})[ev.parallel_factor] = ev.latency_ms
        for latencies in by_bundle.values():
            assert latencies[16] <= latencies[8]

    def test_conv_bundles_more_accurate_than_dw_only(self, coarse_evaluations):
        accs = {ev.bundle_id: ev.accuracy for ev in coarse_evaluations}
        assert accs[1] > accs[9]   # conv3x3+conv1x1 beats conv1x1-only
        assert accs[3] > accs[13]  # conv5x5+conv1x1 beats dw3x3+conv1x1

    def test_dw_bundles_faster_than_conv_bundles(self, coarse_evaluations):
        lats = {ev.bundle_id: ev.latency_ms for ev in coarse_evaluations if ev.parallel_factor == 16}
        assert lats[13] < lats[1] < lats[3]

    def test_method2_also_works(self, evaluator, small_bundle_set):
        records = evaluator.coarse_evaluate(small_bundle_set[:2], parallel_factors=(8,), method=2)
        assert len(records) == 2
        assert all(r.method == 2 for r in records)

    def test_invalid_method(self, evaluator, small_bundle_set):
        with pytest.raises(ValueError):
            evaluator.coarse_evaluate(small_bundle_set[:1], parallel_factors=(8,), method=3)


class TestSelection:
    def test_pareto_bundles_subset_of_input(self, coarse_evaluations, small_bundle_set):
        pareto = BundleEvaluator.pareto_bundles(coarse_evaluations)
        assert set(pareto).issubset({b.bundle_id for b in small_bundle_set})
        assert pareto  # never empty

    def test_selection_respects_top_n(self, evaluator, coarse_evaluations):
        selected = evaluator.select_top_bundles(coarse_evaluations, top_n=2)
        assert len(selected) <= 2

    def test_selection_contains_efficient_and_accurate_families(self, evaluator, coarse_evaluations):
        selected = {b.bundle_id for b in evaluator.select_top_bundles(coarse_evaluations, top_n=4)}
        has_dw_family = any(bid in selected for bid in (13, 15))
        has_conv_family = any(bid in selected for bid in (1, 3))
        assert has_dw_family and has_conv_family

    def test_low_accuracy_bundles_excluded(self, evaluator, coarse_evaluations):
        selected = {b.bundle_id for b in evaluator.select_top_bundles(coarse_evaluations, top_n=4)}
        assert 10 not in selected  # dw-only bundle: cheap but far below the best accuracy

    def test_selection_requires_evaluations(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.select_top_bundles([], top_n=3)


class TestFineGrainedEvaluation:
    def test_grid_size(self, evaluator):
        records = evaluator.fine_evaluate([get_bundle(13)], activations=("relu", "relu4"),
                                          repetition_counts=(1, 2))
        assert len(records) == 4

    def test_relu_more_accurate_but_slower_than_relu4(self, evaluator):
        records = evaluator.fine_evaluate([get_bundle(13)], activations=("relu", "relu4"),
                                          repetition_counts=(2,))
        by_act = {r.activation: r for r in records}
        assert by_act["relu"].accuracy > by_act["relu4"].accuracy
        assert by_act["relu"].latency_ms >= by_act["relu4"].latency_ms

    def test_more_reps_more_accurate(self, evaluator):
        records = evaluator.fine_evaluate([get_bundle(13)], activations=("relu4",),
                                          repetition_counts=(1, 3))
        by_reps = {r.num_repetitions: r for r in records}
        assert by_reps[3].accuracy > by_reps[1].accuracy
        assert by_reps[3].latency_ms > by_reps[1].latency_ms


def scd_explorer(estimator, target, constraint, *, max_iterations, rng):
    return create_explorer("scd", estimator=estimator, latency_target=target,
                           resource_constraint=constraint,
                           max_iterations=max_iterations, rng=rng)


class TestSCD:
    def _setup(self, tiny_task_module, fps=120.0, tolerance=2.0, rng=3):
        engine = AutoHLS(PYNQ_Z1)
        constraint = ResourceConstraint.for_device(PYNQ_Z1)
        target = LatencyTarget(fps=fps, tolerance_ms=tolerance)
        initial = DNNConfig(bundle=get_bundle(13), task=tiny_task_module, num_repetitions=2,
                            channel_expansion=(1.5, 1.5), downsample=(1, 1),
                            stem_channels=16, parallel_factor=16, max_channels=128)
        scd = scd_explorer(engine.estimate, target, constraint, max_iterations=120, rng=rng)
        return engine, target, constraint, initial, scd

    def test_finds_candidates_in_band(self, tiny_task_module):
        engine, target, constraint, initial, scd = self._setup(tiny_task_module)
        result = scd.explore(initial, num_candidates=2)
        assert len(result.candidates) >= 1
        for config, estimate in zip(result.candidates, result.estimates):
            assert target.within_band(estimate.latency_ms)
            assert constraint.satisfied_by(estimate.resources)

    def test_candidates_are_distinct(self, tiny_task_module):
        _, _, _, initial, scd = self._setup(tiny_task_module)
        result = scd.explore(initial, num_candidates=3)
        keys = [config_cache_key(c) for c in result.candidates]
        assert len(keys) == len(set(keys))

    def test_dedup_does_not_alias_same_describe_candidates(self, tiny_task_module):
        """Regression: two in-band configs sharing a describe() string must
        both be accepted — describe() summarises Pi/X as "maximum N channels"
        and previously aliased distinct candidates."""
        engine, target, constraint, initial, _ = self._setup(tiny_task_module)

        # Every config is in band and feasible, so each iteration accepts the
        # current config (if new) and perturbs it.
        def constant_estimator(config):
            return PerformanceEstimate(
                latency_ms=target.latency_ms, resources=ResourceVector(lut=1.0)
            )

        class ScriptedRNG:
            """Always picks the X move with direction -1 when perturbing."""

            def integers(self, low, high):
                return 2  # index of "X" in MOVE_NAMES

            def random(self):
                return 0.9  # >= 0.5 -> direction -1 (insert a down-sample)

        scd = scd_explorer(constant_estimator, target, constraint,
                           max_iterations=10, rng=0)
        scd.rng = ScriptedRNG()
        start = initial.with_updates(downsample=(1, 0),
                                     channel_expansion=(1.5, 1.5))
        result = scd.explore(start, num_candidates=2)

        assert result.converged
        assert len(result.candidates) == 2
        a, b = result.candidates
        # The two candidates alias under describe() but are distinct configs.
        assert a.describe() == b.describe()
        assert config_cache_key(a) != config_cache_key(b)
        assert a.downsample != b.downsample
        # With the aliasing bug the second acceptance was dropped, so the
        # search burned its whole budget without converging.
        assert result.iterations == 2

    def test_iteration_budget_respected(self, tiny_task_module):
        engine, target, constraint, initial, _ = self._setup(tiny_task_module)
        scd = scd_explorer(engine.estimate, target, constraint, max_iterations=5, rng=0)
        result = scd.explore(initial, num_candidates=50)
        assert result.iterations <= 5
        assert not result.converged

    def test_moves_respect_bounds(self, tiny_task_module):
        _, _, _, initial, _ = self._setup(tiny_task_module)
        # Shrinking below one repetition is impossible.
        assert move_n(initial.with_updates(num_repetitions=1,
                                           channel_expansion=(1.5,),
                                           downsample=(1,)), -1) is None
        grown = move_n(initial, +1)
        assert grown.num_repetitions == 3
        assert len(grown.channel_expansion) == 3

    def test_pi_move_uses_allowed_factors(self, tiny_task_module):
        _, _, _, initial, _ = self._setup(tiny_task_module)
        moved = move_pi(initial, +1)
        assert all(f in EXPANSION_FACTORS for f in moved.channel_expansion)

    def test_x_move_preserves_at_least_one_downsample(self, tiny_task_module):
        _, _, _, initial, _ = self._setup(tiny_task_module)
        config = initial
        for _ in range(5):
            moved = move_x(config, +1)
            if moved is None:
                break
            config = moved
        assert sum(config.downsample) >= 1

    def test_invalid_arguments(self, tiny_task_module):
        engine, target, constraint, initial, scd = self._setup(tiny_task_module)
        with pytest.raises(ValueError):
            scd.explore(initial, num_candidates=0)
        with pytest.raises(ValueError):
            scd_explorer(engine.estimate, target, constraint, max_iterations=0, rng=0)
