"""Direct regression coverage for the PR-2 fixes.

PR 2 fixed three classes of bugs that until now were only covered
indirectly: candidate aliasing through ``config_cache_key`` (configs whose
``describe()`` summaries collide must never share a cache slot), the
annealing temperature clamp on (near-)zero-tolerance bands, and disk-cache
namespace isolation across devices, clocks and coefficient fits — including
namespaces that collide after file-name sanitization.
"""

from __future__ import annotations

import json

import pytest

from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.dnn_config import DNNConfig
from repro.detection.task import TINY_DETECTION_TASK
from repro.hw.device import PYNQ_Z1
from repro.search import EvaluationCache, config_cache_key
from repro.sweep import DiskEvaluationCache, SweepRunner, build_grid, run_sweep_task

TINY = dict(tolerance_ms=10.0, iterations=20, num_candidates=1, top_bundles=2, seed=1)


@pytest.fixture(scope="module")
def engine():
    return AutoHLS(PYNQ_Z1)


def _config(**overrides):
    base = dict(bundle=get_bundle(13), task=TINY_DETECTION_TASK, num_repetitions=2,
                channel_expansion=(1.5, 1.5), downsample=(1, 1),
                stem_channels=16, parallel_factor=16, max_channels=128)
    base.update(overrides)
    return DNNConfig(**base)


# ------------------------------------------------- config_cache_key aliasing
class TestChannelExpansionAliasing:
    def test_permuted_expansion_vectors_get_distinct_keys(self):
        """describe() only reports the channel maximum, so permuted Pi
        vectors alias under it; the cache key must keep them apart."""
        a = _config(channel_expansion=(2.0, 1.0))
        b = _config(channel_expansion=(1.0, 2.0))
        assert a.describe() == b.describe(), "precondition: describe() aliases"
        assert config_cache_key(a) != config_cache_key(b)

    def test_memory_cache_estimates_aliasing_configs_separately(self, engine):
        cache = EvaluationCache(engine.estimate)
        a = _config(channel_expansion=(2.0, 1.0))
        b = _config(channel_expansion=(1.0, 2.0))
        cache.evaluate(a)
        cache.evaluate(b)
        assert cache.misses == 2 and cache.hits == 0
        assert len(cache) == 2

    def test_disk_cache_keeps_aliasing_configs_apart_across_reload(
            self, tmp_path, engine):
        a = _config(channel_expansion=(2.0, 1.0))
        b = _config(channel_expansion=(1.0, 2.0))
        first = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        estimate_a = first.evaluate(a)
        estimate_b = first.evaluate(b)
        reloaded = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert len(reloaded) == 2
        assert reloaded.evaluate(a).latency_ms == estimate_a.latency_ms
        assert reloaded.evaluate(b).latency_ms == estimate_b.latency_ms
        assert reloaded.disk_stats().misses == 0


# --------------------------------------------------- annealing clamp at scale
class TestAnnealingTemperatureClamp:
    def test_near_zero_tolerance_sweep_completes_deterministically(self):
        """A near-zero band makes the default initial temperature ~0; the
        clamp keeps the Metropolis step defined, so an annealing sweep cell
        still terminates and stays execution-mode deterministic."""
        tasks = build_grid("pynq-z1", "annealing", [40.0],
                           tolerance_ms=1e-6, iterations=15,
                           num_candidates=1, top_bundles=2, seed=1)
        first = SweepRunner(tasks, workers=1).run()
        second = SweepRunner(tasks, workers=2).run()
        assert first.ok and second.ok
        assert json.dumps(first.outcomes[0].journal, sort_keys=True) == \
            json.dumps(second.outcomes[0].journal, sort_keys=True)
        # The unreachable band never converges, but the per-search budget
        # still binds (2 selected bundles x 2 activations = 4 searches).
        assert first.outcomes[0].evaluations <= 15 * 4

    def test_tiny_explicit_temperature_is_clamped(self, engine):
        from repro.core.constraints import LatencyTarget, ResourceConstraint
        from repro.search import create_explorer

        explorer = create_explorer(
            "annealing",
            estimator=engine.estimate,
            latency_target=LatencyTarget(fps=120.0, tolerance_ms=2.0),
            resource_constraint=ResourceConstraint.for_device(PYNQ_Z1),
            max_iterations=15,
            rng=3,
            initial_temperature=1e-300,
        )
        result = explorer.explore(_config(), num_candidates=1)
        assert result.evaluations <= 15


# --------------------------------------------------- namespace isolation
class TestNamespaceIsolation:
    def test_sanitization_collision_does_not_leak_entries(self, tmp_path, engine):
        """'dev a' and 'dev_a' share a sanitized shard prefix; the per-record
        namespace check must still keep their entries apart."""
        config = _config()
        first = DiskEvaluationCache(engine.estimate, tmp_path, device="dev a")
        second = DiskEvaluationCache(engine.estimate, tmp_path, device="dev_a")
        assert first._prefix == second._prefix, "precondition: prefix collision"
        first.evaluate(config)
        collided = DiskEvaluationCache(engine.estimate, tmp_path, device="dev_a")
        assert len(collided) == 0, "colliding namespace must not see the entry"
        reloaded = DiskEvaluationCache(engine.estimate, tmp_path, device="dev a")
        assert len(reloaded) == 1, "the owner still reloads its own entry"

    def test_clock_axis_namespaces_are_cold_per_clock(self, tmp_path):
        """Same device at two clocks: each clock's first run is cold, and a
        warm re-run of both serves fully from its own namespace."""
        base = dict(tolerance_ms=10.0, iterations=15, num_candidates=1,
                    top_bundles=2, seed=1)
        low = build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[100.0], **base)[0]
        high = build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[125.0], **base)[0]
        cold_low = run_sweep_task(low, str(tmp_path))
        assert cold_low.estimator_calls > 0
        cold_high = run_sweep_task(high, str(tmp_path))
        assert cold_high.estimator_calls > 0, "125 MHz must not hit the 100 MHz cache"
        assert run_sweep_task(low, str(tmp_path)).estimator_calls == 0
        assert run_sweep_task(high, str(tmp_path)).estimator_calls == 0

    def test_coefficient_fingerprint_separates_fits(self, tmp_path, engine):
        from repro.sweep import coefficients_fingerprint

        config = _config()
        base = engine.coefficients
        refit = base.with_updates(alpha=base.alpha * 1.5)
        first = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                    context=coefficients_fingerprint(base))
        first.evaluate(config)
        stale = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                    context=coefficients_fingerprint(refit))
        assert len(stale) == 0, "a refit must never serve pre-refit estimates"
