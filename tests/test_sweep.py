"""Tests for the process-based sweep engine (:mod:`repro.sweep`)."""

from __future__ import annotations

import json

import pytest

from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.dnn_config import DNNConfig
from repro.detection.task import TINY_DETECTION_TASK
from repro.hw.device import PYNQ_Z1, resolve_devices
from repro.search import EvaluationCache
from repro.sweep import (
    CHECKPOINT_FILENAME,
    DiskEvaluationCache,
    SweepFailure,
    SweepOutcome,
    SweepRunner,
    SweepTask,
    build_grid,
    coefficients_fingerprint,
    compare,
    expected_cost,
    prepare_device,
    run_sweep_task,
)

#: Shared tiny sweep budget: every task completes in well under a second.
TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)


@pytest.fixture(scope="module")
def engine():
    return AutoHLS(PYNQ_Z1)


@pytest.fixture(scope="module")
def initial():
    return DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK, num_repetitions=2,
                     channel_expansion=(1.5, 1.5), downsample=(1, 1),
                     stem_channels=16, parallel_factor=16, max_channels=128)


class CountingEstimator:
    def __init__(self, estimator):
        self.estimator = estimator
        self.calls = 0

    def __call__(self, config):
        self.calls += 1
        return self.estimator(config)


def journal_views(outcomes):
    """The execution-mode-independent portion of each outcome."""
    return [
        (o.journal, o.selected_bundles, o.num_candidates, o.best_latency_ms,
         o.best_gap_ms, o.evaluations)
        for o in outcomes
    ]


# -------------------------------------------------------------- device lookup
class TestResolveDevices:
    def test_comma_separated_spec(self):
        devices = resolve_devices("pynq-z1,ultra96")
        assert [d.name for d in devices] == ["PYNQ-Z1", "Ultra96"]

    def test_sequence_spec_preserves_order_and_dedupes(self):
        devices = resolve_devices(["ultra96", "PYNQ-Z1", "ultra96"])
        assert [d.name for d in devices] == ["Ultra96", "PYNQ-Z1"]

    def test_all_keyword(self):
        assert {d.name for d in resolve_devices("all")} == {"PYNQ-Z1", "Ultra96", "ZC706"}

    def test_unknown_device(self):
        with pytest.raises(KeyError, match="virtex"):
            resolve_devices("virtex")

    def test_empty_spec(self):
        with pytest.raises(ValueError):
            resolve_devices(" , ")


# ----------------------------------------------------------------------- grid
class TestBuildGrid:
    def test_grid_is_full_cross_product_in_order(self):
        tasks = build_grid("pynq-z1,ultra96", "scd,random", [20.0, 30.0], **TINY)
        assert len(tasks) == 8
        assert [(t.device, t.strategy, t.fps) for t in tasks[:4]] == [
            ("PYNQ-Z1", "scd", 20.0), ("PYNQ-Z1", "scd", 30.0),
            ("PYNQ-Z1", "random", 20.0), ("PYNQ-Z1", "random", 30.0),
        ]
        assert all(t.device == "Ultra96" for t in tasks[4:])

    def test_task_name(self):
        task = build_grid("pynq-z1", ["scd"], [40.0], **TINY)[0]
        assert task.name == "PYNQ-Z1-scd-40fps"

    def test_task_uid_folds_in_budget_and_seed(self):
        task = build_grid("pynq-z1", ["scd"], [40.0], **TINY)[0]
        assert task.uid == "PYNQ-Z1-scd-40fps-t10-i25-c1-b2-s1"
        assert task.uid.startswith(task.name)

    def test_task_round_trips_through_dict(self):
        from repro.utils.serialization import to_jsonable

        task = build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[125.0],
                          utilizations=[0.8], **TINY)[0]
        clone = SweepTask.from_dict(json.loads(json.dumps(to_jsonable(task))))
        assert clone == task and clone.uid == task.uid

    def test_shared_budget_applied(self):
        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        assert task.iterations == 25 and task.num_candidates == 1 and task.seed == 1

    def test_duplicate_axes_deduplicated(self):
        # Duplicate cells would run twice and share a disk-cache shard.
        tasks = build_grid("pynq-z1,pynq-z1", "scd,scd", [40.0, 40.0], **TINY)
        assert len(tasks) == 1
        names = [t.name for t in build_grid("pynq-z1", "scd,random,scd", [40, 40.0], **TINY)]
        assert names == ["PYNQ-Z1-scd-40fps", "PYNQ-Z1-random-40fps"]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="annealing"):
            build_grid("pynq-z1", "gradient-descent", [40.0])

    def test_empty_strategies_or_targets(self):
        with pytest.raises(ValueError):
            build_grid("pynq-z1", " , ", [40.0])
        with pytest.raises(ValueError):
            build_grid("pynq-z1", "scd", [])

    def test_budget_validated_before_workers_spawn(self):
        with pytest.raises(ValueError, match="tolerance_ms"):
            build_grid("pynq-z1", "scd", [40.0], tolerance_ms=0.0)
        with pytest.raises(ValueError, match="positive"):
            build_grid("pynq-z1", "scd", [-40.0])
        with pytest.raises(ValueError, match="positive"):
            build_grid("pynq-z1", "scd", [40.0], iterations=0)

    def test_clock_axis(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[100.0, 125.0], **TINY)
        assert [(t.clock_mhz, t.name) for t in tasks] == [
            (100.0, "PYNQ-Z1-scd-40fps-100MHz"),
            (125.0, "PYNQ-Z1-scd-40fps-125MHz"),
        ]
        # Default axis keeps clock_mhz=None and the legacy cell name.
        default = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        assert default.clock_mhz is None and default.name == "PYNQ-Z1-scd-40fps"

    def test_clock_axis_validated_per_device(self):
        # 200 MHz is fine for ZC706 but above the PYNQ-Z1 maximum.
        with pytest.raises(ValueError, match="PYNQ-Z1 supports at most"):
            build_grid("zc706,pynq-z1", "scd", [40.0], clocks_mhz=[200.0], **TINY)
        with pytest.raises(ValueError, match="positive"):
            build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[-50.0], **TINY)
        with pytest.raises(ValueError):
            build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[], **TINY)

    def test_utilization_axis(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], utilizations=[1.0, 0.7], **TINY)
        assert [(t.utilization, t.name) for t in tasks] == [
            (1.0, "PYNQ-Z1-scd-40fps"),
            (0.7, "PYNQ-Z1-scd-40fps-u0.7"),
        ]
        with pytest.raises(ValueError, match="utilization"):
            build_grid("pynq-z1", "scd", [40.0], utilizations=[1.5], **TINY)
        with pytest.raises(ValueError, match="utilization"):
            build_grid("pynq-z1", "scd", [40.0], utilizations=[0.0], **TINY)

    def test_new_axes_deduplicated(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[100.0, 100],
                           utilizations=[0.8, 0.8], **TINY)
        assert len(tasks) == 1


# ----------------------------------------------------------------- disk cache
class TestDiskEvaluationCache:
    def test_persists_across_instances(self, tmp_path, engine, initial):
        counting = CountingEstimator(engine.estimate)
        first = DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1")
        estimate = first.evaluate(initial)
        assert counting.calls == 1 and first.disk_stats().misses == 1

        reloaded = DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1")
        again = reloaded.evaluate(initial)
        assert counting.calls == 1, "reload must serve from disk"
        assert reloaded.disk_stats().hits == 1 and reloaded.disk_stats().misses == 0
        assert again.latency_ms == estimate.latency_ms
        assert again.resources == estimate.resources
        assert initial in reloaded

    def test_namespace_separates_device_clock_and_context(self, tmp_path, engine, initial):
        counting = CountingEstimator(engine.estimate)
        DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1").evaluate(initial)
        for kwargs in (
            {"device": "Ultra96"},
            {"device": "PYNQ-Z1", "clock_mhz": 150.0},
            {"device": "PYNQ-Z1", "context": "fit-abc"},
        ):
            cache = DiskEvaluationCache(counting, tmp_path, shard=str(kwargs), **kwargs)
            assert len(cache) == 0, f"namespace {kwargs} must not see other entries"
            cache.evaluate(initial)
        assert counting.calls == 4

    def test_layered_under_memory_cache(self, tmp_path, engine, initial):
        counting = CountingEstimator(engine.estimate)
        disk = DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1")
        memory = EvaluationCache(disk)
        for _ in range(3):
            memory.evaluate(initial)
        # The memory layer absorbs the repeats; disk sees exactly one request.
        assert memory.hits == 2 and memory.misses == 1
        assert disk.disk_stats().misses == 1 and disk.disk_stats().hits == 0
        assert counting.calls == 1

        warm = EvaluationCache(DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1"))
        warm.evaluate(initial)
        assert counting.calls == 1, "warm stack must not re-invoke the estimator"

    def test_shared_instance_accounts_every_request_under_threads(self, tmp_path, engine,
                                                                  initial):
        # More threads than cores, switching often, scalar and batched
        # requests over overlapping configs: no counter update is lost, and
        # no key reaches the shard twice.
        import sys
        import threading
        import time

        def slow(config):  # lets threads miss the same key at once
            time.sleep(0.001)
            return engine.estimate(config)

        configs = [initial.with_updates(parallel_factor=pf) for pf in (4, 8, 16, 32)]
        seed = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1", shard="seed")
        seed.evaluate_batch(configs[:2])
        cache = DiskEvaluationCache(slow, tmp_path, device="PYNQ-Z1")
        requests: list = []
        errors: list = []

        def worker(index: int) -> None:
            try:
                for step in range(30):
                    batch = configs[step % 3:] + configs[:1] if (index + step) % 2 else \
                        [configs[(index + step) % 4]]
                    cache.evaluate_batch(batch)
                    requests.append(len(batch))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        memory, disk = cache.stats(), cache.disk_stats()
        assert memory.hits + memory.misses == sum(requests)
        # Every memory miss went to exactly one of the disk tier's outcomes.
        assert memory.misses == disk.hits + disk.misses
        assert disk.hits >= 2 and disk.misses >= 2
        keys = [json.loads(line)["key"] for line in cache.shard_path.read_text().splitlines()]
        assert sorted(keys) == sorted(cache.key_fn(config) for config in configs[2:])
        assert len(cache) == 4
        assert [cache.evaluate(config) for config in configs] == \
            [engine.estimate(config) for config in configs]

    def test_shards_of_same_namespace_share_entries(self, tmp_path, engine, initial):
        # Two writers (sweep tasks) of one namespace use distinct shard
        # files but see each other's results on reload.
        counting = CountingEstimator(engine.estimate)
        DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1",
                            shard="task-a").evaluate(initial)
        other = DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1",
                                    shard="task-b")
        assert other.evaluate(initial)
        assert counting.calls == 1
        assert len(list(tmp_path.glob("*.jsonl"))) == 1, "no second shard written"

    def test_tolerates_torn_and_foreign_lines(self, tmp_path, engine, initial):
        counting = CountingEstimator(engine.estimate)
        DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1").evaluate(initial)
        shard = next(tmp_path.glob("*.jsonl"))
        with shard.open("a") as handle:
            handle.write('{"torn": ')  # interrupted write
        reloaded = DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1")
        assert reloaded.evaluate(initial)
        assert counting.calls == 1

    def test_record_timestamps_come_from_injected_clock(self, tmp_path, engine, initial):
        # PR 6 contract: every persisted timestamp flows through the injected
        # clock, so a frozen clock yields byte-stable shard records.
        counting = CountingEstimator(engine.estimate)
        frozen = DiskEvaluationCache(counting, tmp_path, device="PYNQ-Z1",
                                     clock=lambda: 1700000000.1234)
        frozen.evaluate(initial)
        shard = next(tmp_path.glob("*.jsonl"))
        records = [json.loads(line) for line in shard.read_text().splitlines()]
        assert records and all(r["ts"] == 1700000000.123 for r in records)
        # Two frozen-clock runs in fresh directories produce identical bytes.
        again = DiskEvaluationCache(counting, tmp_path / "other", device="PYNQ-Z1",
                                    clock=lambda: 1700000000.1234)
        again.evaluate(initial)
        other = next((tmp_path / "other").glob("*.jsonl"))
        assert other.read_bytes() == shard.read_bytes()

    def test_fingerprint_stable_and_sensitive(self, engine):
        base = engine.coefficients
        assert coefficients_fingerprint(base) == coefficients_fingerprint(base)
        changed = base.with_updates(alpha=base.alpha * 2)
        assert coefficients_fingerprint(base) != coefficients_fingerprint(changed)


# --------------------------------------------------------------------- worker
class TestRunSweepTask:
    def test_cold_runs_are_deterministic(self, tmp_path):
        task = build_grid("pynq-z1", "random", [40.0], **TINY)[0]
        a = run_sweep_task(task, str(tmp_path / "a"))
        b = run_sweep_task(task, str(tmp_path / "b"))
        assert journal_views([a]) == journal_views([b])
        assert a.journal["records"], "journal must contain evaluations"
        assert a.journal["metadata"]["device"] == "PYNQ-Z1"

    def test_without_cache_dir(self):
        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        outcome = run_sweep_task(task)
        assert outcome.disk_hits == 0 and outcome.disk_misses == 0
        assert outcome.estimator_calls == outcome.memory_misses > 0

    def test_outcome_is_jsonable(self, tmp_path):
        from repro.utils.serialization import to_jsonable

        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        outcome = run_sweep_task(task, str(tmp_path))
        json.dumps(to_jsonable(outcome))


class TestPerCellCounters:
    """Each cell's (memory hits, memory misses, disk hits, disk misses,
    estimator calls), pinned for a cold then a warm run into one cache
    directory.  Cells of a device share a namespace, so later cold cells
    already hit what earlier ones appended."""

    COLD = {
        "PYNQ-Z1-scd-40fps": (4, 28, 0, 28, 28),
        "PYNQ-Z1-random-40fps": (4, 28, 28, 0, 0),
        "PYNQ-Z1-evolutionary-40fps": (17, 59, 28, 31, 31),
        "PYNQ-Z1-annealing-40fps": (4, 28, 28, 0, 0),
        "Ultra96-scd-40fps": (14, 55, 0, 55, 55),
        "Ultra96-random-40fps": (8, 56, 37, 19, 19),
        "Ultra96-evolutionary-40fps": (21, 67, 39, 28, 28),
        "Ultra96-annealing-40fps": (11, 44, 31, 13, 13),
    }
    WARM = {
        "PYNQ-Z1-scd-40fps": (4, 28, 28, 0, 0),
        "PYNQ-Z1-random-40fps": (4, 28, 28, 0, 0),
        "PYNQ-Z1-evolutionary-40fps": (17, 59, 59, 0, 0),
        "PYNQ-Z1-annealing-40fps": (4, 28, 28, 0, 0),
        "Ultra96-scd-40fps": (14, 55, 55, 0, 0),
        "Ultra96-random-40fps": (8, 56, 56, 0, 0),
        "Ultra96-evolutionary-40fps": (21, 67, 67, 0, 0),
        "Ultra96-annealing-40fps": (11, 44, 44, 0, 0),
    }

    @staticmethod
    def _counters(result):
        assert result.ok
        return {
            o.task.name: (o.memory_hits, o.memory_misses, o.disk_hits,
                          o.disk_misses, o.estimator_calls)
            for o in result.outcomes
        }

    def test_cold_then_warm_counters_are_pinned(self, tmp_path):
        tasks = build_grid("pynq-z1,ultra96", "scd,random,evolutionary,annealing", [40.0],
                           tolerance_ms=10, iterations=25, num_candidates=1,
                           top_bundles=2, seed=2019)
        cold = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert self._counters(cold) == self.COLD
        warm = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert self._counters(warm) == self.WARM


# --------------------------------------------------------------------- runner
class TestSweepRunner:
    def test_process_pool_matches_serial_journals(self, tmp_path):
        tasks = build_grid("pynq-z1,ultra96", "scd,random", [40.0], **TINY)
        serial = SweepRunner(tasks, workers=1, cache_dir=tmp_path / "serial").run()
        pooled = SweepRunner(tasks, workers=2, cache_dir=tmp_path / "pooled").run()
        assert journal_views(serial.outcomes) == journal_views(pooled.outcomes)
        assert [o.task for o in pooled.outcomes] == tasks, "task order preserved"
        assert pooled.workers == 2 and len(pooled) == len(tasks)

    def test_warm_disk_cache_skips_every_estimator_call(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        cold = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        warm = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert journal_views(cold.outcomes) == journal_views(warm.outcomes)
        for outcome in warm.outcomes:
            assert outcome.disk_hit_rate == 1.0
            assert outcome.estimator_calls == 0
        assert cold.estimator_calls > 0
        assert warm.estimator_calls < cold.estimator_calls

    def test_result_save_round_trip(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        result = SweepRunner(tasks, workers=1).run()
        path = result.save(tmp_path / "sweep.json")
        payload = json.loads(path.read_text())
        assert payload["workers"] == 1
        assert len(payload["outcomes"]) == 1
        assert payload["outcomes"][0]["journal"]["records"]

    def test_invalid_arguments(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        with pytest.raises(ValueError):
            SweepRunner([], workers=1)
        with pytest.raises(ValueError):
            SweepRunner(tasks, workers=0)


# -------------------------------------------------------- CoDesignFlow wiring
class TestCoDesignFlowCacheWiring:
    def _flow(self):
        from repro.core import CoDesignFlow, CoDesignInputs, LatencyTarget

        inputs = CoDesignInputs(
            task=TINY_DETECTION_TASK, device=PYNQ_Z1,
            latency_targets=(LatencyTarget(fps=120.0, tolerance_ms=2.0),),
        )
        return CoDesignFlow(inputs, top_n_bundles=2, scd_iterations=20)

    def test_attached_evaluation_cache_reaches_the_search(self, engine):
        flow = self._flow()
        shared = EvaluationCache(engine.estimate)
        flow.attach_evaluation_cache(shared)
        assert flow.auto_dnn.cache is shared
        assert flow.auto_dnn.synthesis_cache is None


# -------------------------------------------------------------------- compare
def _outcome(device, strategy, fps, *, records, cached, candidates, gap,
             disk=(0, 0), calls=10, duration=0.5):
    return SweepOutcome(
        task=SweepTask(device=device, strategy=strategy, fps=fps, **TINY),
        journal={
            "records": [{"cached": i < cached} for i in range(records)],
            "candidates": [{"index": i} for i in range(candidates)],
        },
        selected_bundles=[13],
        num_candidates=candidates,
        best_latency_ms=None if gap is None else 1000.0 / fps + gap,
        best_gap_ms=gap,
        evaluations=records,
        memory_hits=cached,
        memory_misses=records - cached,
        disk_hits=disk[0],
        disk_misses=disk[1],
        estimator_calls=calls,
        duration_s=duration,
    )


class TestCompare:
    def fixed_outcomes(self):
        return [
            _outcome("PYNQ-Z1", "scd", 20.0, records=40, cached=10, candidates=2,
                     gap=1.25, disk=(30, 10), calls=10, duration=0.25),
            _outcome("PYNQ-Z1", "random", 20.0, records=60, cached=30, candidates=3,
                     gap=0.75, disk=(50, 10), calls=10, duration=0.5),
            _outcome("Ultra96", "scd", 20.0, records=20, cached=5, candidates=1,
                     gap=0.5, disk=(0, 20), calls=20, duration=0.25),
            _outcome("Ultra96", "random", 20.0, records=30, cached=15, candidates=0,
                     gap=None, disk=(0, 30), calls=30, duration=0.5),
        ]

    def test_report_golden_text(self):
        report = compare(self.fixed_outcomes())
        assert report.render() == GOLDEN_REPORT

    def test_strategy_rows_are_journal_driven(self):
        report = compare(self.fixed_outcomes())
        random_row = next(s for s in report.strategies if s.strategy == "random")
        assert random_row.evaluations == 90       # 60 + 30 journal records
        assert random_row.cached_evaluations == 45
        assert random_row.candidates == 3
        assert random_row.cache_hit_rate == 0.5
        assert random_row.disk_hit_rate == pytest.approx(50 / 90)

    def test_winner_picks_smallest_gap_and_skips_empty(self):
        report = compare(self.fixed_outcomes())
        winners = {w.device: w for w in report.winners}
        assert winners["PYNQ-Z1"].strategy == "random"     # 0.75 < 1.25
        assert winners["Ultra96"].strategy == "scd"        # None ranks last
        assert winners["Ultra96"].best_gap_ms == 0.5

    def test_as_dict_round_trips_through_json(self):
        report = compare(self.fixed_outcomes())
        payload = json.loads(json.dumps(report.as_dict()))
        assert {"strategies", "winners", "totals"} <= set(payload)
        assert payload["totals"]["tasks"] == 4
        assert payload["totals"]["evaluations"] == 150

    def test_accepts_sweep_result(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        result = SweepRunner(tasks, workers=1).run()
        report = compare(result)
        assert report.totals["tasks"] == 1

    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValueError):
            compare([])


GOLDEN_REPORT = """\
Per-strategy comparison
strategy | tasks | evals | cache hit | cands | best gap (ms) | est. calls | disk hit | wall (s)
---------+-------+-------+-----------+-------+---------------+------------+----------+---------
random   | 2     | 90    | 50.0%     | 3     | 0.75          | 40         | 55.6%    | 1.00
scd      | 2     | 60    | 25.0%     | 3     | 0.50          | 30         | 50.0%    | 0.50

Per-device winners
device  | target | winner | best gap (ms) | cands
--------+--------+--------+---------------+------
PYNQ-Z1 | 20 FPS | random | 0.75          | 3
Ultra96 | 20 FPS | scd    | 0.50          | 1

Pareto front [backend=fpga] (gap vs evaluations)
device  | target | strategy | best gap (ms) | evals
--------+--------+----------+---------------+------
Ultra96 | 20 FPS | scd      | 0.50          | 20

Totals: 4 tasks, 150 evaluations, 6 candidates, 70 estimator calls"""


# ------------------------------------------------------------------------ CLI
class TestSweepCLI:
    def test_sweep_command_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        report = tmp_path / "report.json"
        argv = [
            "sweep", "--devices", "pynq-z1,ultra96", "--strategies", "scd,random",
            "--fps", "40", "--tolerance-ms", "10", "--top-bundles", "2",
            "--candidates", "1", "--iterations", "25", "--seed", "1",
            "--workers", "2", "--cache-dir", str(cache_dir),
            "--report", str(report),
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "Sweep: 4 tasks on 2 processes" in cold_out
        assert "Per-strategy comparison" in cold_out
        payload = json.loads(report.read_text())
        assert {"sweep", "comparison"} <= set(payload)
        assert len(payload["sweep"]["outcomes"]) == 4

        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "disk cache 100% hit rate" in warm_out
        assert "0 estimator calls" in warm_out

    def test_sweep_command_rejects_unknown_strategy(self):
        from repro.cli import main

        with pytest.raises(ValueError, match="Unknown search strategy"):
            main(["sweep", "--strategies", "bogus", "--fps", "40"])

    def test_sweep_command_rejects_unknown_device(self, capsys):
        from repro.cli import main

        # Rejected at the parser (usage error, exit code 2), not deep in the
        # runner; the message lists the registered backends and devices.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--devices", "bogus", "--fps", "40"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Unknown fpga device 'bogus'" in err
        assert "Registered backends" in err

    def test_sweep_command_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--devices", "tpu:v4", "--fps", "40"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Unknown backend 'tpu'" in err
        assert "Registered backends" in err


class TestCLIArgumentHardening:
    """Bad numbers, unknown devices and missing input files die as argparse
    usage errors (exit code 2), not as tracebacks deep inside the runner
    after workers spawned."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "0"],
        ["sweep", "--workers", "-3"],
        ["sweep", "--workers", "two"],
        ["sweep", "--timeout-s", "-1"],
        ["sweep", "--timeout-s", "0"],
        ["sweep", "--retries", "-1"],
        ["sweep", "--retry-backoff-s", "-0.5"],
        ["sweep", "--timeout-scale", "0"],
        ["sweep", "--iterations", "0"],
        ["sweep", "--fps", "-40"],
        ["search", "--device", "nope"],
        ["shard", "worker", "--connect", "x", "--workers", "0"],
        ["shard", "coordinator", "--lease-ttl-s", "0"],
        ["shard", "coordinator", "--retries", "-1"],
        ["codesign", "--device", "nope"],
        ["codegen", "--device", "nope"],
        ["compare", "--diff", "missing-a.json", "missing-b.json"],
        ["sweep", "--from", "missing-checkpoint.jsonl"],
    ])
    def test_invalid_numeric_arguments_exit_2(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err

    def test_search_has_no_workers_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_valid_arguments_still_parse(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--devices", "pynq-z1", "--strategies", "scd",
            "--fps", "40", "--tolerance-ms", "10", "--top-bundles", "2",
            "--candidates", "1", "--iterations", "25", "--seed", "1",
            "--workers", "1", "--retries", "0", "--retry-backoff-s", "0",
        ]) == 0


# ----------------------------------------------------------------- run diffing
class TestCompareDiff:
    def _result(self, tmp_path, name, fps=(40.0,), cache=None):
        tasks = build_grid("pynq-z1", "scd", list(fps), **TINY)
        result = SweepRunner(tasks, workers=1, cache_dir=cache).run()
        path = result.save(tmp_path / name)
        return result, path

    def test_identical_runs_diff_clean(self, tmp_path):
        from repro.sweep import diff_results

        _, a = self._result(tmp_path, "a.json")
        _, b = self._result(tmp_path, "b.json")
        diff = diff_results(a, b)
        assert diff.identical
        assert len(diff.rows) == 1 and diff.rows[0].status_a == "ok"
        assert "identical cell for cell" in diff.render()

    def test_missing_and_failed_cells_reported(self, tmp_path):
        from repro.sweep import SweepResult, diff_results

        result_a, path_a = self._result(tmp_path, "a.json", fps=(40.0, 30.0))
        # Run B: one cell missing, the other failed.
        failed = SweepResult(
            outcomes=[],
            workers=1,
            failures=[SweepFailure(task=result_a.outcomes[0].task, kind="timeout",
                                   error="exceeded 1s", attempts=2)],
        )
        path_b = failed.save(tmp_path / "b.json")
        diff = diff_results(path_a, path_b)
        assert not diff.identical
        by_status = {(r.status_a, r.status_b) for r in diff.rows}
        assert by_status == {("ok", "failed"), ("ok", "missing")}
        rendered = diff.render()
        assert "ok -> failed" in rendered and "ok -> missing" in rendered
        assert "2/2 cell(s) differ" in rendered
        assert diff.render(only_changed=True).count("->") == 2

    def test_checkpoint_aware_sources(self, tmp_path):
        """A _checkpoint.jsonl diffs directly against a saved result."""
        from repro.sweep import CHECKPOINT_FILENAME, diff_results

        cache = tmp_path / "cache"
        result, path = self._result(tmp_path, "a.json", cache=str(cache))
        diff = diff_results(cache / CHECKPOINT_FILENAME, path)
        assert diff.identical and len(diff.rows) == 1
        # And an in-memory result works as either side.
        assert diff_results(result, path).identical

    def test_latency_and_evaluation_deltas(self):
        from repro.sweep import SweepResult, diff_results

        def result_with(latency, evals):
            outcome = _outcome("PYNQ-Z1", "scd", 20.0, records=evals, cached=0,
                               candidates=1, gap=None)
            outcome.best_latency_ms = latency
            outcome.best_gap_ms = abs(latency - 50.0)
            outcome.evaluations = evals
            return SweepResult(outcomes=[outcome], workers=1)

        diff = diff_results(result_with(48.0, 40), result_with(51.0, 44),
                            label_a="old", label_b="new")
        row = diff.rows[0]
        assert row.latency_delta_ms == pytest.approx(3.0)
        assert row.gap_delta_ms == pytest.approx(-1.0)
        assert row.evaluations_b - row.evaluations_a == 4
        payload = json.loads(json.dumps(diff.as_dict()))
        assert payload["a"] == "old" and payload["changed"] == 1
        assert payload["rows"][0]["latency_delta_ms"] == pytest.approx(3.0)

    def test_compare_cli_diff(self, tmp_path, capsys):
        from repro.cli import main

        _, a = self._result(tmp_path, "a.json")
        _, b = self._result(tmp_path, "b.json")
        report = tmp_path / "diff.json"
        assert main(["compare", "--diff", str(a), str(b),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "identical cell for cell" in out
        payload = json.loads(report.read_text())
        assert payload["identical"] is True

    def test_compare_cli_requires_diff(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["compare"])


# -------------------------------------------------------- shared preparation
class TestPreparedDevice:
    def test_prepared_matches_inline_preparation(self, tmp_path):
        """Skipping steps 1-2 via the artifact must not change the journal."""
        task = build_grid("pynq-z1", "random", [40.0], **TINY)[0]
        inline = run_sweep_task(task, str(tmp_path / "a"))
        prepared = prepare_device(task)
        shared = run_sweep_task(task, str(tmp_path / "b"), prepared=prepared)
        assert json.dumps(inline.journal, sort_keys=True) == \
            json.dumps(shared.journal, sort_keys=True)
        assert inline.selected_bundles == shared.selected_bundles \
            == list(prepared.selected_bundle_ids)
        assert shared.used_shared_prep and not inline.used_shared_prep

    def test_preparation_runs_once_per_device_per_sweep(self, monkeypatch):
        """Acceptance: model fit + bundle selection once per device, not per cell."""
        from repro.sweep import runner as runner_module

        calls: list[tuple] = []
        real = runner_module.prepare_device

        def counting(task):
            calls.append(task.prep_key)
            return real(task)

        monkeypatch.setattr(runner_module, "prepare_device", counting)
        tasks = build_grid("pynq-z1", "scd,random", [40.0, 30.0], **TINY)
        result = SweepRunner(tasks, workers=1).run()
        assert len(tasks) == 4
        assert len(calls) == 1, "one device grid must prepare exactly once"
        assert all(outcome.used_shared_prep for outcome in result.outcomes)

        calls.clear()
        tasks = build_grid("pynq-z1,ultra96", "scd,random", [40.0], **TINY)
        SweepRunner(tasks, workers=1).run()
        assert len(calls) == 2, "one preparation per device"

    @pytest.mark.parametrize("device", ["pynq-z1", "ultra96"])
    def test_preparation_calls_no_search_estimator(self, monkeypatch, device):
        """Step 1 samples each bundle's initial structure as is: an
        estimate at the default coefficients would be replaced by the fit."""
        calls = []
        real = AutoHLS.estimate

        def counting(engine, config):
            calls.append(config)
            return real(engine, config)

        monkeypatch.setattr(AutoHLS, "estimate", counting)
        prepared = prepare_device(build_grid(device, "scd", [40.0], **TINY)[0])
        assert prepared.coefficients is not None
        assert calls == []

    def test_workers_receive_prepared_artifact(self):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        result = SweepRunner(tasks, workers=2).run()
        assert all(outcome.used_shared_prep for outcome in result.outcomes)
        assert len(result.preparations) == 1
        assert result.prep_time_s > 0

    def test_mismatched_artifact_rejected(self):
        tasks = build_grid("pynq-z1,ultra96", "scd", [40.0], **TINY)
        prepared = prepare_device(tasks[0])
        assert prepared.matches(tasks[0]) and not prepared.matches(tasks[1])
        with pytest.raises(ValueError, match="does not match"):
            run_sweep_task(tasks[1], prepared=prepared)

    def test_wrong_clock_artifact_rejected_for_default_clock_task(self):
        """A default-clock task means the device default (100 MHz here); an
        artifact fitted at another clock carries wrong coefficients and
        must not pass the guard."""
        default_task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        fast_task = build_grid("pynq-z1", "scd", [40.0], clocks_mhz=[125.0], **TINY)[0]
        fast_prepared = prepare_device(fast_task)
        assert not fast_prepared.matches(default_task)
        with pytest.raises(ValueError, match="does not match"):
            run_sweep_task(default_task, prepared=fast_prepared)
        # The device-default artifact matches both spellings of 100 MHz.
        default_prepared = prepare_device(default_task)
        explicit_task = build_grid("pynq-z1", "scd", [40.0],
                                   clocks_mhz=[100.0], **TINY)[0]
        assert default_prepared.matches(default_task)
        assert default_prepared.matches(explicit_task)

    def test_artifact_as_dict_is_compact_json(self):
        prepared = prepare_device(build_grid("pynq-z1", "scd", [40.0], **TINY)[0])
        payload = json.loads(json.dumps(prepared.as_dict()))
        assert payload["device"] == "PYNQ-Z1"
        assert payload["clock_mhz"] == 100.0
        assert payload["selected_bundle_ids"]
        assert "coefficients" not in payload, "full coefficients stay pickle-only"
        assert payload["fingerprint"] == coefficients_fingerprint(prepared.coefficients)


# ------------------------------------------------------- cost-aware schedule
class TestCostOrdering:
    def test_heuristic_cost_scales_with_budget(self):
        small = SweepTask(device="PYNQ-Z1", strategy="scd", fps=40.0, iterations=10)
        large = SweepTask(device="PYNQ-Z1", strategy="scd", fps=40.0, iterations=100)
        assert expected_cost(large) > expected_cost(small)

    def test_journal_timings_override_heuristic(self):
        task = SweepTask(device="PYNQ-Z1", strategy="scd", fps=40.0)
        assert expected_cost(task, {task.uid: 12.5}) == 12.5
        # Hints are keyed by uid only: the display name aliases cells of
        # other budgets, so it never stands in for the uid.
        assert expected_cost(task, {task.name: 12.5}) == expected_cost(task)
        assert expected_cost(task, {task.uid: 7.5, task.name: 12.5}) == 7.5
        assert expected_cost(task, {"other": 12.5}) == expected_cost(task)
        assert expected_cost(task, {task.uid: "garbage"}) == expected_cost(task)

    def test_timings_not_loaded_by_disk_cache(self, tmp_path, engine, initial):
        """The checkpoint sidecar is never read as an estimate shard."""
        (tmp_path / CHECKPOINT_FILENAME).write_text(
            '{"kind": "header", "version": 1, "grid": ["PYNQ-Z1-scd-40fps"]}\n')
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert len(cache) == 0


# --------------------------------------------------------- runner validation
class TestRunnerOptions:
    def test_schedule_and_timeout_validation(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        # One local execution path per mode: no schedule or preparation knob.
        with pytest.raises(TypeError, match="schedule"):
            SweepRunner(tasks, schedule="steal")
        with pytest.raises(TypeError, match="share_preparation"):
            SweepRunner(tasks, share_preparation=False)
        with pytest.raises(ValueError, match="timeout_s"):
            SweepRunner(tasks, timeout_s=0.0)
        with pytest.raises(ValueError, match="retries"):
            SweepRunner(tasks, retries=-1)

    def test_result_dict_includes_failures_and_schedule(self, tmp_path):
        """The dict carries every failure; the ``schedule`` key it used to
        carry is no longer written, and older files holding it still load."""
        task = SweepTask(device="PYNQ-Z1", strategy="scd", fps=40.0)
        from repro.sweep import SweepResult
        from repro.utils.serialization import dump_json

        result = SweepResult(
            outcomes=[],
            workers=2,
            failures=[SweepFailure(task=task, kind="timeout",
                                   error="exceeded 1s", attempts=2)],
        )
        payload = json.loads(json.dumps(result.as_dict()))
        assert "schedule" not in payload
        legacy = dump_json({**payload, "schedule": "chunked"}, tmp_path / "old.json")
        assert SweepResult.load(legacy).as_dict() == payload
        assert payload["failures"][0]["kind"] == "timeout"
        assert payload["failures"][0]["attempts"] == 2
        assert payload["failures"][0]["task"]["device"] == "PYNQ-Z1"
        assert not result.ok
        assert "FAILED" in result.summary()
