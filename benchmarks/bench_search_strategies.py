"""Search-engine benchmarks: strategy throughput and cache savings.

Measures (1) candidates-found-per-second for each registered exploration
strategy on the same tiny search problem and seed, and (2) the estimator
invocations the memoized :class:`~repro.search.cache.EvaluationCache` saves
the ``scd`` explorer (Algorithm 1) against the evaluations it requests (the
deterministic, machine-independent measure).
"""

from __future__ import annotations

import pytest

from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.detection.task import TINY_DETECTION_TASK
from repro.hw.device import PYNQ_Z1
from repro.search import available_strategies, create_explorer

SEED = 3
NUM_CANDIDATES = 3
MAX_ITERATIONS = 150


def _problem():
    engine = AutoHLS(PYNQ_Z1)
    constraint = ResourceConstraint.for_device(PYNQ_Z1)
    target = LatencyTarget(fps=120.0, tolerance_ms=2.0)
    initial = DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK,
                        num_repetitions=2, channel_expansion=(1.5, 1.5),
                        downsample=(1, 1), stem_channels=16,
                        parallel_factor=16, max_channels=128)
    return engine, constraint, target, initial


class _Counting:
    def __init__(self, estimator):
        self.estimator = estimator
        self.calls = 0

    def __call__(self, config):
        self.calls += 1
        return self.estimator(config)


@pytest.mark.parametrize("strategy", sorted(available_strategies()))
def test_strategy_candidates_per_second(benchmark, strategy):
    """Throughput of each strategy on the same problem and seed."""
    engine, constraint, target, initial = _problem()

    def run():
        explorer = create_explorer(
            strategy, estimator=engine.estimate, latency_target=target,
            resource_constraint=constraint, max_iterations=MAX_ITERATIONS,
            rng=SEED,
        )
        return explorer.explore(initial, num_candidates=NUM_CANDIDATES)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    mean_s = benchmark.stats.stats.mean
    rate = len(result.candidates) / mean_s if mean_s > 0 else float("inf")
    print(f"\n[{strategy}] {len(result.candidates)} candidates, "
          f"{result.evaluations} evaluations, {rate:.1f} candidates/s")
    assert len(result.candidates) >= 1


def test_scd_cache_saves_estimator_calls(benchmark):
    """Estimator calls equal cache misses and are fewer than the evaluations."""
    engine, constraint, target, initial = _problem()

    def run():
        counter = _Counting(engine.estimate)
        explorer = create_explorer(
            "scd", estimator=counter, latency_target=target,
            resource_constraint=constraint, max_iterations=MAX_ITERATIONS,
            rng=SEED,
        )
        result = explorer.explore(initial, num_candidates=NUM_CANDIDATES)
        return result, counter.calls, explorer.cache.stats()

    result, calls, stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    print(f"\n[scd cache] {result.evaluations} evaluations -> {calls} estimator calls "
          f"({result.evaluations / calls:.2f}x fewer), {stats.summary()}")
    assert calls == stats.misses
    assert calls < result.evaluations
    assert stats.hits > 0
