"""Batched-evaluation wiring tests: caches, evaluators, explorers, sweeps.

The FPGA evaluator (tested for bit-exactness in ``test_hw_batch.py``) is
wired into every layer of the pipeline.  These tests assert the wiring
contracts:

* ``EvaluationCache`` / ``DiskEvaluationCache`` dispatch whole batches to an
  estimator's ``estimate_batch`` and keep their hit / miss accounting
  identical to the scalar path,
* shard files written by the batched disk path are byte-identical to the
  scalar ones under a frozen clock,
* ``BundleEvaluator`` records equal the reference ``DNNPerformanceModel``,
* explorer session journals and whole-sweep fingerprints do not depend on
  which path scored the candidates — batched or per config, evaluator or
  reference model.
"""

from __future__ import annotations

import json

import pytest

from repro.core.auto_hls import AutoHLS
from repro.core.bundle_evaluation import (
    BundleEvaluation,
    BundleEvaluator,
    best_evaluation_per_bundle,
)
from repro.core.bundle_generation import get_bundle
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.detection.task import TINY_DETECTION_TASK
from repro.hw.analytical import DNNPerformanceModel
from repro.hw.device import PYNQ_Z1
from repro.hw.evaluator import FPGAEvaluator
from repro.hw.resource import ResourceVector
from repro.hw.tile_arch import TileArchAccelerator
from repro.search.base import create_explorer
from repro.search.cache import EvaluationCache
from repro.search.session import SearchSession
from repro.sweep import SweepRunner, build_grid
from repro.sweep.disk_cache import DiskEvaluationCache
from repro.utils.serialization import to_jsonable

FROZEN_CLOCK = 1700000000.1234


def make_config(pf: int = 8, reps: int = 2, name: str = "") -> DNNConfig:
    return DNNConfig(
        bundle=get_bundle(13),
        task=TINY_DETECTION_TASK,
        num_repetitions=reps,
        channel_expansion=(1.5,) * reps,
        downsample=(1,) * reps,
        stem_channels=16,
        activation="relu4",
        parallel_factor=pf,
        max_channels=64,
        name=name,
    )


class SpyEstimator:
    """Scalar + batched estimator counting which path was exercised."""

    def __init__(self, device=PYNQ_Z1):
        self.auto = AutoHLS(device)
        self.scalar_calls = 0
        self.batch_calls = 0
        self.batched_configs = 0

    def __call__(self, config):
        self.scalar_calls += 1
        return self.auto.estimate(config)

    def estimate_batch(self, configs):
        self.batch_calls += 1
        self.batched_configs += len(configs)
        return self.auto.estimate_batch(configs)


class TestBatchEntryPoint:
    """The cache finds the estimator's ``estimate_batch`` once, when built."""

    CONFIGS = [make_config(4), make_config(8), make_config(16)]

    def test_object_with_estimate_batch(self):
        spy = SpyEstimator()
        EvaluationCache(spy).evaluate_batch(self.CONFIGS)
        assert (spy.batch_calls, spy.scalar_calls) == (1, 0)

    def test_bound_method_owner(self):
        spy = SpyEstimator()
        EvaluationCache(spy.__call__).evaluate_batch(self.CONFIGS)
        assert (spy.batch_calls, spy.scalar_calls) == (1, 0)

    def test_plain_callable_has_none(self):
        spy = SpyEstimator()
        EvaluationCache(lambda config: spy(config)).evaluate_batch(self.CONFIGS)
        assert (spy.batch_calls, spy.scalar_calls) == (0, 3)

    def test_disk_cache_is_batchable(self, tmp_path):
        spy = SpyEstimator()
        disk = DiskEvaluationCache(spy, tmp_path, device="pynq-z1")
        EvaluationCache(disk).evaluate_batch(self.CONFIGS)
        assert (spy.batch_calls, spy.scalar_calls) == (1, 0)
        assert disk.disk_stats().misses == 3


class TestEvaluationCacheBatch:
    def test_batch_dispatch_and_accounting(self):
        spy = SpyEstimator()
        cache = EvaluationCache(spy)
        configs = [make_config(4), make_config(8), make_config(16), make_config(4)]
        results = cache.evaluate_batch(configs)
        # One vectorized call scored the three unique configs; the in-batch
        # duplicate was deduplicated before dispatch.
        assert spy.batch_calls == 1 and spy.batched_configs == 3
        assert spy.scalar_calls == 0
        assert cache.misses == 3 and cache.hits == 1
        assert results[0] == results[3]
        # Second pass: pure cache hits, no estimator traffic.
        again = cache.evaluate_batch(configs)
        assert again == results
        assert spy.batch_calls == 1 and cache.hits == 5

    def test_batch_results_match_scalar_cache(self):
        configs = [make_config(4), make_config(8), make_config(16)]
        batched = EvaluationCache(SpyEstimator()).evaluate_batch(configs)
        scalar_cache = EvaluationCache(AutoHLS(PYNQ_Z1).estimate)
        scalar = [scalar_cache.evaluate(config) for config in configs]
        assert batched == scalar

    def test_single_missing_config_stays_scalar(self):
        spy = SpyEstimator()
        cache = EvaluationCache(spy)
        cache.evaluate_batch([make_config(4)])
        assert spy.batch_calls == 0 and spy.scalar_calls == 1


class TestDiskCacheBatch:
    def _disk(self, tmp_path, estimator, shard="main"):
        return DiskEvaluationCache(
            estimator, tmp_path, device="pynq-z1", shard=shard,
            clock=lambda: FROZEN_CLOCK,
        )

    def test_estimate_batch_accounting_and_persistence(self, tmp_path):
        spy = SpyEstimator()
        disk = self._disk(tmp_path, spy)
        configs = [make_config(4), make_config(8), make_config(16)]
        results = disk.estimate_batch(configs)
        assert spy.batch_calls == 1 and spy.scalar_calls == 0
        # Disk misses == real estimator invocations, exactly as the scalar path.
        assert disk.disk_stats().misses == 3 and disk.disk_stats().hits == 0
        again = disk.estimate_batch(configs)
        assert again == results
        # The memory tier serves the repeats; the disk tier sees none of them.
        assert disk.hits == 3 and disk.disk_stats().hits == 0
        assert disk.disk_stats().misses == 3
        # A fresh instance reloads every record from the shard.
        reloaded = self._disk(tmp_path, spy, shard="other")
        assert reloaded.estimate_batch(configs) == results
        assert reloaded.disk_stats().misses == 0 and reloaded.disk_stats().hits == 3

    def test_batched_shard_bytes_match_scalar(self, tmp_path):
        configs = [make_config(4), make_config(8), make_config(16)]
        scalar_dir, batched_dir = tmp_path / "scalar", tmp_path / "batched"
        scalar_disk = self._disk(scalar_dir, AutoHLS(PYNQ_Z1).estimate)
        for config in configs:
            scalar_disk.evaluate(config)
        batched_disk = self._disk(batched_dir, SpyEstimator())
        batched_disk.estimate_batch(configs)
        assert (
            scalar_disk.shard_path.read_bytes()
            == batched_disk.shard_path.read_bytes()
        )
        assert scalar_disk.disk_stats().misses == batched_disk.disk_stats().misses == 3

    def test_get_many_and_put_many(self, tmp_path):
        auto = AutoHLS(PYNQ_Z1)
        configs = [make_config(4), make_config(8)]
        estimates = auto.estimate_batch(configs)
        disk = self._disk(tmp_path, auto.estimate)
        keys = [disk.key_fn(config) for config in configs]
        assert disk.get_many(keys) == [None, None]
        assert disk.disk_stats().misses == 0  # pure reads never count as misses
        disk.put_many(list(zip(keys, estimates)))
        # Each entry put counts as one estimator call.
        assert disk.disk_stats().misses == 2 and len(disk) == 2
        assert disk.get_many(keys) == estimates
        assert disk.disk_stats().hits == 2
        # put_many persisted: a fresh instance serves both entries.
        fresh = self._disk(tmp_path, auto.estimate, shard="other")
        assert fresh.get_many(keys) == estimates


class TestBestEvaluationPerBundle:
    def _record(self, bundle_id, latency_ms, tag=""):
        return BundleEvaluation(
            bundle=get_bundle(bundle_id), parallel_factor=8,
            latency_ms=latency_ms, accuracy=0.5,
            resources=ResourceVector(), dsp=0.0, method=1,
            config=None,
        )

    def test_keeps_lowest_latency_per_bundle(self):
        records = [
            self._record(1, 5.0), self._record(2, 9.0),
            self._record(1, 3.0), self._record(2, 11.0),
        ]
        best = best_evaluation_per_bundle(records)
        assert [(r.bundle_id, r.latency_ms) for r in best] == [(1, 3.0), (2, 9.0)]

    def test_ties_keep_first_record(self):
        first, tied = self._record(1, 5.0), self._record(1, 5.0)
        assert best_evaluation_per_bundle([first, tied]) == [first]
        assert best_evaluation_per_bundle([first, tied])[0] is first

    def test_preserves_first_seen_bundle_order(self):
        records = [self._record(3, 2.0), self._record(1, 1.0), self._record(2, 4.0)]
        assert [r.bundle_id for r in best_evaluation_per_bundle(records)] == [3, 1, 2]

    def test_empty(self):
        assert best_evaluation_per_bundle([]) == []


def _evaluation_key(record):
    return (
        record.bundle_id, record.parallel_factor, record.latency_ms,
        record.accuracy, record.resources.lut, record.resources.ff,
        record.resources.dsp, record.resources.bram, record.method,
        record.config.describe(),
    )


def _fine_key(record):
    return (
        record.bundle_id, record.num_repetitions, record.activation,
        record.latency_ms, record.accuracy, record.resources.lut,
        record.resources.ff, record.resources.dsp, record.resources.bram,
        record.config.describe(),
    )


def _reference_estimate(self, config, coefficients=None, clock_mhz=None):
    """``FPGAEvaluator.estimate`` replaced by the reference model."""
    accelerator = TileArchAccelerator.build(
        config.to_workload(), self.device, parallel_factor=config.parallel_factor,
        clock_mhz=clock_mhz,
    )
    if coefficients is None:
        return DNNPerformanceModel(accelerator).estimate()
    return DNNPerformanceModel(accelerator, coefficients).estimate()


def _force_reference(monkeypatch):
    """Route every FPGA evaluator call through the reference model."""
    monkeypatch.setattr(FPGAEvaluator, "estimate", _reference_estimate)
    monkeypatch.setattr(
        FPGAEvaluator, "estimate_batch",
        lambda self, configs, *args: [self.estimate(c, *args) for c in configs],
    )


class TestBundleEvaluatorBatched:
    KWARGS = dict(task=TINY_DETECTION_TASK, device=PYNQ_Z1, stem_channels=16)

    def test_coarse_records_identical(self, monkeypatch):
        bundles = [get_bundle(i) for i in (1, 5, 13)]
        batched = BundleEvaluator(**self.KWARGS).coarse_evaluate(
            bundles, parallel_factors=(4, 8)
        )
        _force_reference(monkeypatch)
        scalar = BundleEvaluator(**self.KWARGS).coarse_evaluate(
            bundles, parallel_factors=(4, 8)
        )
        assert [_evaluation_key(r) for r in batched] == [
            _evaluation_key(r) for r in scalar
        ]

    def test_fine_records_identical(self, monkeypatch):
        bundles = [get_bundle(i) for i in (5, 13)]
        batched = BundleEvaluator(**self.KWARGS).fine_evaluate(
            bundles, repetition_counts=(2, 3)
        )
        _force_reference(monkeypatch)
        scalar = BundleEvaluator(**self.KWARGS).fine_evaluate(
            bundles, repetition_counts=(2, 3)
        )
        assert [_fine_key(r) for r in batched] == [_fine_key(r) for r in scalar]

    def test_selection_identical(self, monkeypatch):
        bundles = [get_bundle(i) for i in (1, 5, 9, 13, 17)]
        batched_eval = BundleEvaluator(**self.KWARGS)
        batched = batched_eval.coarse_evaluate(bundles)
        _force_reference(monkeypatch)
        scalar_eval = BundleEvaluator(**self.KWARGS)
        scalar = scalar_eval.coarse_evaluate(bundles)
        assert batched_eval.pareto_bundles(batched) == scalar_eval.pareto_bundles(scalar)
        assert [
            b.bundle_id for b in batched_eval.select_top_bundles(batched, top_n=3)
        ] == [b.bundle_id for b in scalar_eval.select_top_bundles(scalar, top_n=3)]


def _force_scalar(monkeypatch):
    """Score every config alone, with the reference model.

    Without ``AutoHLS.estimate_batch``, a cache built on ``auto.estimate``
    has no batch entry point and calls the scalar estimator per config.
    """
    monkeypatch.delattr(AutoHLS, "estimate_batch")
    _force_reference(monkeypatch)


class TestJournalInvariance:
    def _journal_for(self, configs):
        auto = AutoHLS(PYNQ_Z1)
        session = SearchSession(name="probe")
        explorer = create_explorer(
            "random",
            estimator=auto.estimate,
            latency_target=LatencyTarget(fps=30.0, tolerance_ms=10.0),
            resource_constraint=ResourceConstraint.for_device(PYNQ_Z1),
            session=session,
        )
        explorer.score_generation(configs)
        return json.dumps(to_jsonable(session.as_dict()), sort_keys=True)

    def test_score_generation_journal_is_path_independent(self, monkeypatch):
        configs = [make_config(4), make_config(8), make_config(16), make_config(4)]
        batched = self._journal_for(configs)
        _force_scalar(monkeypatch)
        scalar = self._journal_for(configs)
        assert batched == scalar


class TestSweepInvariance:
    GRID = dict(
        tolerance_ms=10.0, iterations=12, num_candidates=1, top_bundles=2, seed=7
    )

    def _fingerprint(self, result):
        return [
            (
                outcome.task.name,
                json.dumps(outcome.journal, sort_keys=True),
                outcome.selected_bundles,
                outcome.num_candidates,
                outcome.best_latency_ms,
                outcome.best_gap_ms,
            )
            for outcome in result.outcomes
        ]

    def test_sweep_fingerprint_is_path_independent(self, monkeypatch):
        tasks = build_grid("pynq-z1", ["random", "scd"], [30.0], **self.GRID)
        batched = SweepRunner(tasks, workers=1).run()
        _force_scalar(monkeypatch)
        scalar = SweepRunner(tasks, workers=1).run()
        assert batched.ok and scalar.ok
        assert self._fingerprint(batched) == self._fingerprint(scalar)

    def test_disk_cached_sweep_accounting_is_path_independent(
        self, monkeypatch, tmp_path
    ):
        tasks = build_grid("pynq-z1", ["random"], [30.0], **self.GRID)
        batched = SweepRunner(tasks, workers=1, cache_dir=str(tmp_path / "b")).run()
        _force_scalar(monkeypatch)
        scalar = SweepRunner(tasks, workers=1, cache_dir=str(tmp_path / "s")).run()
        assert batched.ok and scalar.ok
        assert self._fingerprint(batched) == self._fingerprint(scalar)
        # Disk misses count real estimator invocations; the batched path
        # must invoke the estimator for exactly the same configs.
        assert [o.disk_misses for o in batched.outcomes] == [
            o.disk_misses for o in scalar.outcomes
        ]
        assert [o.disk_hits for o in batched.outcomes] == [
            o.disk_hits for o in scalar.outcomes
        ]
