"""Tests for the pluggable exploration engine (:mod:`repro.search`)."""

from __future__ import annotations

import json
import logging

import pytest

import repro.telemetry as telemetry

from repro.core.auto_dnn import AutoDNN
from repro.core.auto_hls import AutoHLS
from repro.core.bundle_evaluation import BundleEvaluation, BundleEvaluator
from repro.core.bundle_generation import get_bundle
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.core.scd import apply_move
from repro.detection.accuracy_model import SurrogateAccuracyModel
from repro.detection.task import TINY_DETECTION_TASK
from repro.hw.device import PYNQ_Z1
from repro.hw.resource import ResourceVector
from repro.search import (
    EvaluationCache,
    SearchSession,
    available_strategies,
    config_cache_key,
    create_explorer,
    explorer_class,
)

STRATEGIES = ("scd", "random", "evolutionary", "regularized-evolution", "annealing")


@pytest.fixture(scope="module")
def engine():
    return AutoHLS(PYNQ_Z1)


@pytest.fixture(scope="module")
def constraint():
    return ResourceConstraint.for_device(PYNQ_Z1)


@pytest.fixture(scope="module")
def target():
    return LatencyTarget(fps=120.0, tolerance_ms=2.0)


@pytest.fixture(scope="module")
def initial():
    return DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK, num_repetitions=2,
                     channel_expansion=(1.5, 1.5), downsample=(1, 1),
                     stem_channels=16, parallel_factor=16, max_channels=128)


def make_explorer(strategy, engine, target, constraint, *, rng=3,
                  session=None, max_iterations=200, **kwargs):
    return create_explorer(
        strategy,
        estimator=engine.estimate,
        latency_target=target,
        resource_constraint=constraint,
        max_iterations=max_iterations,
        rng=rng,
        session=session,
        **kwargs,
    )


class CountingEstimator:
    """Wraps an estimator, counting real invocations."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.calls = 0

    def __call__(self, config):
        self.calls += 1
        return self.estimator(config)


# --------------------------------------------------------------------- registry
class TestRegistry:
    def test_all_builtin_strategies_registered(self):
        assert set(STRATEGIES).issubset(set(available_strategies()))

    def test_explorer_class_resolution(self):
        for name in STRATEGIES:
            cls = explorer_class(name)
            assert cls.strategy_name == name

    def test_unknown_strategy_lists_available(self):
        with pytest.raises(KeyError, match="annealing"):
            explorer_class("gradient-descent")

    def test_create_explorer_requires_constraints(self, engine):
        with pytest.raises(ValueError):
            create_explorer("random", estimator=engine.estimate)

    def test_create_explorer_requires_estimator_or_cache(self, target, constraint):
        with pytest.raises(ValueError):
            create_explorer("random", latency_target=target, resource_constraint=constraint)


# ----------------------------------------------------------------------- cache
class TestEvaluationCache:
    def test_hit_miss_accounting(self, engine, initial):
        counting = CountingEstimator(engine.estimate)
        cache = EvaluationCache(counting)
        first = cache.evaluate(initial)
        second = cache.evaluate(initial)
        assert counting.calls == 1
        assert cache.hits == 1 and cache.misses == 1
        assert first.latency_ms == second.latency_ms
        stats = cache.stats()
        assert stats.evaluations == 2 and stats.hit_rate == 0.5 and stats.size == 1

    def test_distinct_configs_not_aliased(self, engine, initial):
        cache = EvaluationCache(engine.estimate)
        bigger = initial.with_updates(num_repetitions=3, channel_expansion=(1.5,) * 3,
                                      downsample=(1, 1, 0))
        assert cache.evaluate(initial).latency_ms != cache.evaluate(bigger).latency_ms
        assert cache.misses == 2

    def test_key_distinguishes_same_describe_configs(self, engine, initial):
        # Two configs whose describe() strings collide (same N, same max
        # channels) but whose down-sampling vectors differ must never share
        # a cache slot.
        a = initial.with_updates(num_repetitions=3, channel_expansion=(1.2,) * 3,
                                 downsample=(1, 1, 0))
        b = a.with_updates(downsample=(1, 0, 1))
        assert a.describe() == b.describe()
        assert config_cache_key(a) != config_cache_key(b)
        cache = EvaluationCache(engine.estimate)
        assert cache.evaluate(a).latency_ms != cache.evaluate(b).latency_ms
        assert cache.misses == 2

    def test_key_distinguishes_tasks(self, initial):
        # The input resolution changes every latency; configs differing only
        # in task must never share a slot (the disk cache outlives a search).
        from repro.detection.task import DAC_SDC_TASK

        other = initial.with_updates(task=DAC_SDC_TASK)
        assert config_cache_key(initial) != config_cache_key(other)

    def test_batch_deduplicates(self, engine, initial):
        counting = CountingEstimator(engine.estimate)
        cache = EvaluationCache(counting)
        other = initial.with_updates(parallel_factor=8)
        results = cache.evaluate_batch([initial, other, initial, other])
        assert counting.calls == 2
        assert cache.misses == 2 and cache.hits == 2
        assert results[0].latency_ms == results[2].latency_ms
        assert results[1].latency_ms == results[3].latency_ms

    def test_batch_with_info_marks_cached(self, engine, initial):
        cache = EvaluationCache(engine.estimate)
        cache.evaluate(initial)
        pairs = cache.evaluate_batch([initial], with_info=True)
        assert pairs[0][1] is True

    def test_clear_resets(self, engine, initial):
        cache = EvaluationCache(engine.estimate)
        cache.evaluate(initial)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_callable_protocol(self, engine, initial):
        cache = EvaluationCache(engine.estimate)
        assert cache(initial).latency_ms == engine.estimate(initial).latency_ms


# ------------------------------------------------------------------- strategies
class TestStrategies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_finds_feasible_in_band_candidates(self, strategy, engine, target,
                                               constraint, initial):
        explorer = make_explorer(strategy, engine, target, constraint)
        result = explorer.explore(initial, num_candidates=1)
        assert len(result.candidates) >= 1
        for config, estimate in zip(result.candidates, result.estimates):
            assert target.within_band(estimate.latency_ms)
            assert constraint.satisfied_by(estimate.resources)
        keys = [config_cache_key(c) for c in result.candidates]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_seed_single_worker_is_deterministic(self, strategy, engine,
                                                      target, constraint, initial):
        journals = []
        outcomes = []
        for _ in range(2):
            session = SearchSession(strategy)
            explorer = make_explorer(strategy, engine, target, constraint,
                                     rng=7, session=session)
            result = explorer.explore(initial, num_candidates=2)
            journals.append(session.as_dict())
            outcomes.append([c.describe() for c in result.candidates])
        assert journals[0] == journals[1]
        assert outcomes[0] == outcomes[1]

    def test_scd_explorer_pins_candidates_and_iterations(self, engine, target,
                                                         constraint, initial):
        """Algorithm 1's result at ``rng=3`` on this problem, pinned so that
        any change to its loop, moves or random draws shows."""
        explorer = make_explorer("scd", engine, target, constraint,
                                 rng=3, max_iterations=120)
        result = explorer.explore(initial, num_candidates=2)
        assert [(c.num_repetitions, c.channel_expansion, c.downsample)
                for c in result.candidates] == [
            (7, (1.5,) * 7, (1, 0, 0, 0, 0, 0, 0)),
            (6, (1.5,) * 6, (1, 0, 0, 0, 0, 0)),
        ]
        assert [e.latency_ms for e in result.estimates] == \
            [10.248321498412698, 6.813739623280423]
        assert result.iterations == 5
        assert result.evaluations == 16

    def test_invalid_num_candidates(self, engine, target, constraint, initial):
        explorer = make_explorer("random", engine, target, constraint)
        with pytest.raises(ValueError):
            explorer.explore(initial, num_candidates=0)

    def test_annealing_zero_tolerance_band_does_not_divide_by_zero(
            self, engine, constraint, initial):
        """Regression: the default initial temperature is 4 * tolerance_ms,
        which is 0 for a zero-tolerance band and crashed the Metropolis step
        with a ZeroDivisionError; it must clamp to min_temperature."""

        class ZeroToleranceTarget:
            latency_ms = engine.estimate(initial).latency_ms
            tolerance_ms = 0.0

            def within_band(self, latency_ms):
                return abs(latency_ms - self.latency_ms) < self.tolerance_ms

        explorer = make_explorer("annealing", engine, ZeroToleranceTarget(),
                                 constraint, rng=3, max_iterations=25)
        result = explorer.explore(initial, num_candidates=1)
        assert not result.converged  # a zero-width band is unreachable
        assert result.evaluations <= 25

    def test_annealing_explicit_zero_temperature_clamped(self, engine, target,
                                                         constraint, initial):
        explorer = make_explorer("annealing", engine, target, constraint,
                                 rng=3, max_iterations=25,
                                 initial_temperature=0.0)
        result = explorer.explore(initial, num_candidates=1)
        assert result.evaluations <= 25

    def test_annealing_rejects_non_positive_min_temperature(self, engine, target,
                                                            constraint):
        with pytest.raises(ValueError, match="min_temperature"):
            make_explorer("annealing", engine, target, constraint,
                          min_temperature=0.0)

    def test_consider_does_not_alias_same_describe_candidates(
            self, engine, target, constraint, initial):
        """Regression: Explorer.consider dedup must use the structural cache
        key, not describe(), or distinct Pi/X candidates are dropped."""
        explorer = make_explorer("random", engine, target, constraint)
        a = initial.with_updates(num_repetitions=3, channel_expansion=(1.2,) * 3,
                                 downsample=(1, 1, 0))
        b = a.with_updates(downsample=(1, 0, 1))
        assert a.describe() == b.describe()
        in_band = LatencyTarget(fps=1000.0 / engine.estimate(a).latency_ms,
                                tolerance_ms=1000.0)
        explorer.latency_target = in_band
        assert explorer.consider(a, engine.estimate(a))
        assert explorer.consider(b, engine.estimate(b))
        assert not explorer.consider(a, engine.estimate(a))

    def test_regularized_evolution_ages_out_population(self, engine, target,
                                                       constraint, initial):
        """The population is a bounded FIFO: members die of age, so its size
        never exceeds population_size no matter how long the search runs."""
        from repro.search.strategies import RegularizedEvolutionExplorer

        explorer = make_explorer("regularized-evolution", engine, target,
                                 constraint, rng=3, max_iterations=60,
                                 population_size=5, sample_size=2)
        assert isinstance(explorer, RegularizedEvolutionExplorer)
        result = explorer.explore(initial, num_candidates=50)
        # 50 in-band candidates are unreachable in 60 evaluations; the point
        # is that the aging loop keeps cycling within its budget.
        assert result.evaluations <= 60
        assert result.iterations > 0

    def test_regularized_evolution_rejects_bad_parameters(self, engine, target,
                                                          constraint):
        with pytest.raises(ValueError, match="population_size"):
            make_explorer("regularized-evolution", engine, target, constraint,
                          population_size=1)
        with pytest.raises(ValueError, match="sample_size"):
            make_explorer("regularized-evolution", engine, target, constraint,
                          population_size=4, sample_size=5)

    def test_regularized_evolution_available_to_sweep_grid(self):
        """The sweep/search CLIs accept the strategy via the shared registry."""
        from repro.sweep import build_grid

        tasks = build_grid("pynq-z1", "regularized-evolution", [40.0],
                           tolerance_ms=10.0, iterations=25, num_candidates=1,
                           top_bundles=2, seed=1)
        assert tasks[0].strategy == "regularized-evolution"

    def test_evaluation_budget_respected(self, engine, target, constraint, initial):
        explorer = make_explorer("annealing", engine, target, constraint,
                                 max_iterations=10)
        result = explorer.explore(initial, num_candidates=50)
        assert result.evaluations <= 10
        assert not result.converged

    def test_journal_records_evaluations_and_candidates(self, engine, target,
                                                        constraint, initial):
        session = SearchSession("journaled")
        explorer = make_explorer("random", engine, target, constraint, session=session)
        result = explorer.explore(initial, num_candidates=1)
        assert len(session.records) == result.evaluations
        assert len(session.candidates) == len(result.candidates)
        assert session.strategies() == ["random"]
        assert all(r.strategy == "random" for r in session.records)


# ------------------------------------------------------------------ SCD caching
class TestSCDUnitCaching:
    def test_cache_reduces_estimator_calls(self, engine, target, constraint, initial):
        counter = CountingEstimator(engine.estimate)
        explorer = create_explorer("scd", estimator=counter, latency_target=target,
                                   resource_constraint=constraint,
                                   max_iterations=120, rng=3)
        result = explorer.explore(initial, num_candidates=2)
        # Algorithm 1 re-evaluates the current config every iteration, so the
        # memo serves part of the requests and only misses reach the estimator.
        assert counter.calls == explorer.cache.misses
        assert counter.calls < result.evaluations
        assert explorer.cache.hits == result.evaluations - counter.calls

    def test_shared_cache_instance_reused(self, engine, target, constraint, initial):
        shared = EvaluationCache(engine.estimate)
        explorers = [create_explorer("scd", cache=shared, latency_target=target,
                                     resource_constraint=constraint, rng=0)
                     for _ in range(2)]
        assert all(explorer.cache is shared for explorer in explorers)
        explorers[0].explore(initial, num_candidates=1)
        misses = shared.misses
        # The same search again requests only configs the shared memo holds.
        explorers[1].explore(initial, num_candidates=1)
        assert shared.misses == misses

    def test_move_set_shared_with_strategies(self, initial):
        # apply_move drives exactly the N / Pi / X coordinates of Algorithm 1.
        grown = apply_move("N", initial, +1, max_repetitions=8)
        assert grown.num_repetitions == initial.num_repetitions + 1
        with pytest.raises(ValueError):
            apply_move("Z", initial, +1)


# -------------------------------------------------------------------- sessions
class TestSearchSession:
    def test_save_load_round_trip(self, tmp_path, engine, target, constraint, initial):
        session = SearchSession("round-trip", metadata={"seed": 7})
        explorer = make_explorer("random", engine, target, constraint,
                                 rng=7, session=session)
        explorer.explore(initial, num_candidates=1)
        session.attach_cache_stats(explorer.cache.stats())

        path = session.save(tmp_path / "journal.json")
        loaded = SearchSession.load(path)
        assert loaded.as_dict() == session.as_dict()
        # A re-save of the loaded session is byte-identical.
        second = loaded.save(tmp_path / "journal2.json")
        assert path.read_bytes() == second.read_bytes()

    def test_saved_journal_is_plain_json(self, tmp_path, engine, target,
                                         constraint, initial):
        session = SearchSession("plain")
        explorer = make_explorer("annealing", engine, target, constraint,
                                 rng=1, session=session, max_iterations=20)
        explorer.explore(initial, num_candidates=1)
        path = session.save(tmp_path / "journal.json")
        payload = json.loads(path.read_text())
        assert payload["name"] == "plain"
        assert payload["records"], "journal must contain evaluation records"
        assert {"latency_ms", "config", "cached"} <= set(payload["records"][0])

    def test_summary_mentions_strategies(self):
        session = SearchSession("empty")
        assert "0 evaluations" in session.summary()


# -------------------------------------------------------------- AutoDNN wiring
@pytest.fixture(scope="module")
def autodnn_target():
    # AutoDNN maximises PF, so its tiny-task initial sits around 0.2 ms; this
    # band is reachable by growth moves within a small iteration budget.
    return LatencyTarget(fps=600.0, tolerance_ms=1.2)


class TestAutoDNNIntegration:
    def test_strategy_selection_and_session(self, engine, autodnn_target):
        target = autodnn_target
        session = SearchSession("autodnn")
        auto_dnn = AutoDNN(
            task=TINY_DETECTION_TASK,
            device=PYNQ_Z1,
            auto_hls=engine,
            accuracy_model=SurrogateAccuracyModel(noise=0.0),
            stem_channels=16,
            max_channels=128,
            rng=3,
            strategy="random",
        )
        candidates = auto_dnn.search(
            [get_bundle(13)], [target], activations=("relu4",),
            num_candidates=1, max_iterations=120, session=session,
        )
        assert candidates
        assert session.records
        assert session.cache_stats is not None
        assert auto_dnn.cache.stats().evaluations > 0

    def test_empty_shared_cache_is_not_discarded(self, engine):
        # An empty EvaluationCache is falsy (__len__ == 0); AutoDNN must
        # still adopt it so cross-component sharing works.
        shared = EvaluationCache(engine.estimate)
        auto_dnn = AutoDNN(
            task=TINY_DETECTION_TASK, device=PYNQ_Z1, auto_hls=engine,
            accuracy_model=SurrogateAccuracyModel(noise=0.0),
            stem_channels=16, max_channels=128, rng=3, cache=shared,
        )
        assert auto_dnn.cache is shared
        auto_dnn.initialize(get_bundle(13))
        assert shared.stats().evaluations > 0

    def test_per_call_strategy_override(self, engine, autodnn_target):
        target = autodnn_target
        auto_dnn = AutoDNN(
            task=TINY_DETECTION_TASK, device=PYNQ_Z1, auto_hls=engine,
            accuracy_model=SurrogateAccuracyModel(noise=0.0),
            stem_channels=16, max_channels=128, rng=3,
        )
        assert auto_dnn.strategy == "scd"
        candidates = auto_dnn.search(
            [get_bundle(13)], [target], activations=("relu4",),
            num_candidates=1, max_iterations=120, strategy="annealing",
        )
        assert candidates


# ------------------------------------------------------------------ CLI command
class TestSearchCLI:
    def test_search_command_with_journal(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "journal.json"
        code = main([
            "search", "--strategy", "random", "--fps", "40", "--tolerance-ms", "10",
            "--top-bundles", "2", "--candidates", "1", "--iterations", "30",
            "--seed", "1", "--journal", str(journal),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Search strategy 'random'" in out
        assert "cache:" in out
        payload = json.loads(journal.read_text())
        assert payload["metadata"]["strategy"] == "random"
        assert payload["records"]

    def test_search_command_rejects_unknown_strategy(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["search", "--strategy", "bogus"])


# -------------------------------------------------- bundle evaluation guards
class TestBundleEvaluatorGuards:
    def test_coarse_evaluate_rejects_empty_parallel_factors(self):
        evaluator = BundleEvaluator(TINY_DETECTION_TASK, PYNQ_Z1,
                                    accuracy_model=SurrogateAccuracyModel(noise=0.0),
                                    stem_channels=16)
        with pytest.raises(ValueError, match="parallel_factors"):
            evaluator.coarse_evaluate([get_bundle(1)], parallel_factors=())

    def test_select_top_bundles_rejects_degenerate_latencies(self):
        evaluator = BundleEvaluator(TINY_DETECTION_TASK, PYNQ_Z1,
                                    accuracy_model=SurrogateAccuracyModel(noise=0.0),
                                    stem_channels=16)
        config = evaluator._config_for(get_bundle(1), method=1, parallel_factor=8)
        degenerate = [
            BundleEvaluation(bundle=get_bundle(bid), parallel_factor=8,
                             latency_ms=0.0, accuracy=0.5 + 0.01 * bid,
                             resources=ResourceVector(), dsp=0.0, method=1,
                             config=config)
            for bid in (1, 3)
        ]
        with pytest.raises(ValueError, match="non-positive"):
            evaluator.select_top_bundles(degenerate, top_n=2)


class TestUnconvergedLogging:
    """Falling short of K candidates is a normal outcome: DEBUG, plus a counter."""

    @pytest.mark.parametrize("strategy", ["scd", "random"])
    def test_unconverged_explorer_logs_debug_not_warning(
        self, strategy, engine, constraint, initial, caplog
    ):
        unreachable = LatencyTarget(fps=10000.0, tolerance_ms=0.001)
        telemetry.disable()
        reg = telemetry.enable()
        try:
            with caplog.at_level(logging.DEBUG, logger="repro"):
                explorer = make_explorer(strategy, engine, unreachable, constraint,
                                         max_iterations=20)
                result = explorer.explore(initial, num_candidates=2)
        finally:
            telemetry.disable()
        assert not result.converged
        records = [r for r in caplog.records if r.name.startswith("repro")]
        assert [r for r in records if r.levelno >= logging.WARNING] == []
        stopped = [r for r in records if "stopped after" in r.getMessage()]
        assert stopped and all(r.levelno == logging.DEBUG for r in stopped)
        assert reg.counter("search.explorer.unconverged").value == 1

    def test_converged_explorer_leaves_counter_alone(
        self, engine, constraint, target, initial
    ):
        telemetry.disable()
        reg = telemetry.enable()
        try:
            result = make_explorer("scd", engine, target, constraint).explore(
                initial, num_candidates=1
            )
        finally:
            telemetry.disable()
        assert result.converged
        assert reg.counter("search.explorer.unconverged").value == 0
