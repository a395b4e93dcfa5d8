"""Robustness tests for the resilient sweep scheduler and the disk-cache GC.

A sweep with a poisoned cell (raising, stalling, crashing or returning
garbage) must always complete, record a structured :class:`SweepFailure`
with the attempt count, and leave the surviving cells' journals
byte-identical to a clean run.  Corrupt disk-cache shards are skipped with
a warning and repaired by compaction.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import time

import pytest

from repro.sweep import (
    DiskEvaluationCache,
    SweepRunner,
    build_grid,
    cache_dir_stats,
    compact_cache_dir,
    run_sweep_task,
)

TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)

#: The cells the module-level fault task_fns below poison.
FAILING_CELL = "PYNQ-Z1-random-40fps"
STALLING_CELL = "PYNQ-Z1-scd-40fps"


def journal_dumps(outcomes):
    return {o.task.name: json.dumps(o.journal, sort_keys=True) for o in outcomes}


# Module-level so it pickles under any multiprocessing start method.
def _flaky_task(task, cache_dir, prepared):
    """Fails the flagged cell once, then succeeds (flag file = attempt marker)."""
    flag_dir = os.environ["REPRO_TEST_FLAKY_DIR"]
    marker = os.path.join(flag_dir, task.name.replace("/", "_"))
    if task.name in os.environ.get("REPRO_TEST_FLAKY_TASKS", "").split(",") \
            and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted\n")
        raise RuntimeError(f"transient failure for {task.name}")
    return run_sweep_task(task, cache_dir, prepared)


def _failing_task(task, cache_dir, prepared):
    if task.name == FAILING_CELL:
        raise RuntimeError(f"injected failure for task {task.name}")
    return run_sweep_task(task, cache_dir, prepared)


def _stalling_task(task, cache_dir, prepared):
    if task.name == STALLING_CELL:
        time.sleep(3600.0)  # a hung cell; the per-task timeout kills it
    return run_sweep_task(task, cache_dir, prepared)


def _garbage_task(task, cache_dir, prepared):
    return {"definitely": "not a SweepOutcome"}


def _dying_task(task, cache_dir, prepared):
    """Simulates a segfault/OOM-kill: the worker exits without reporting."""
    if task.strategy == "random":
        os._exit(13)
    return run_sweep_task(task, cache_dir, prepared)


# ------------------------------------------------------------- poisoned cells
class TestPoisonedCells:
    @pytest.fixture()
    def grid(self):
        return build_grid("pynq-z1", "scd,random", [40.0], **TINY)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_yields_failure_record(self, grid, workers):
        result = SweepRunner(grid, workers=workers, retries=1,
                             task_fn=_failing_task).run()
        assert [o.task.name for o in result.outcomes] == ["PYNQ-Z1-scd-40fps"]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.task.name == "PYNQ-Z1-random-40fps"
        assert failure.kind == "error"
        assert failure.attempts == 2, "one retry means two attempts"
        assert "injected failure" in failure.error
        assert not result.ok

    def test_surviving_cells_identical_to_clean_run(self, grid):
        """Acceptance: a poisoned grid completes and the survivors' journals
        are byte-identical to the same cells of an unpoisoned sweep."""
        clean = SweepRunner(grid, workers=2).run()
        poisoned = SweepRunner(grid, workers=2, retries=0, task_fn=_failing_task).run()
        clean_journals = journal_dumps(clean.outcomes)
        for outcome in poisoned.outcomes:
            assert outcome.journal is not None
            assert journal_dumps([outcome])[outcome.task.name] == \
                clean_journals[outcome.task.name]
        payload = json.loads(json.dumps(poisoned.as_dict()))
        assert payload["failures"][0]["attempts"] == 1

    def test_timed_out_cell_is_killed_and_recorded(self, grid):
        """Acceptance: a cell exceeding its wall-clock timeout cannot hang the
        sweep; it is terminated, retried and recorded with its retry count."""
        result = SweepRunner(grid, workers=2, timeout_s=0.5, retries=1,
                             task_fn=_stalling_task).run()
        assert [o.task.name for o in result.outcomes] == ["PYNQ-Z1-random-40fps"]
        failure = result.failures[0]
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        assert "timeout" in failure.error
        assert result.wall_time_s < 30.0, "the stalled cell must not hang the sweep"

    def test_timeout_with_single_worker_slot(self):
        # workers=1 plus a timeout forks each attempt so the stuck process
        # can still be killed.
        grid = build_grid("pynq-z1", "scd", [40.0], **TINY)
        result = SweepRunner(grid, workers=1, timeout_s=0.5, retries=0,
                             task_fn=_stalling_task).run()
        assert not result.outcomes
        assert result.failures[0].kind == "timeout"
        assert result.failures[0].attempts == 1

    def test_acceptance_timeout_cell_workers_1_vs_n(self):
        """Acceptance criterion, end to end: a grid with a cell whose worker
        exceeds its timeout completes, records the failure with its retry
        count in ``SweepResult.as_dict()``, and the workers=1 vs workers=N
        journals are byte-identical for the surviving cells."""
        grid = build_grid("pynq-z1", "scd,random", [40.0, 30.0], **TINY)
        single = SweepRunner(grid, workers=1, timeout_s=0.5, retries=1,
                             task_fn=_stalling_task).run()
        pooled = SweepRunner(grid, workers=3, timeout_s=0.5, retries=1,
                             task_fn=_stalling_task).run()
        for result in (single, pooled):
            assert len(result.outcomes) == 3 and len(result.failures) == 1
            payload = json.loads(json.dumps(result.as_dict()))
            failure = payload["failures"][0]
            assert failure["kind"] == "timeout"
            assert failure["attempts"] == 2
            assert failure["task"]["strategy"] == "scd"
        assert journal_dumps(single.outcomes) == journal_dumps(pooled.outcomes)

    def test_transient_failure_recovers_on_retry(self, grid, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TEST_FLAKY_TASKS", "PYNQ-Z1-scd-40fps")
        result = SweepRunner(grid, workers=2, retries=1, task_fn=_flaky_task).run()
        assert result.ok
        by_name = {o.task.name: o for o in result.outcomes}
        assert by_name["PYNQ-Z1-scd-40fps"].attempts == 2
        assert by_name["PYNQ-Z1-random-40fps"].attempts == 1

    # Both launches of the one attempt loop: in-process and forked.
    @pytest.mark.parametrize("workers", [1, 2], ids=["1-serial", "2-steal"])
    def test_garbage_result_yields_invalid_result_failure(self, grid, workers):
        result = SweepRunner(grid, workers=workers, retries=0,
                             task_fn=_garbage_task).run()
        assert not result.outcomes
        assert {f.kind for f in result.failures} == {"invalid-result"}
        assert all(f.attempts == 1 for f in result.failures)

    def test_crashed_worker_recorded_under_stealing(self, grid):
        """A worker that dies without reporting (segfault-style) becomes a
        'crash' failure; the healthy cell still completes."""
        result = SweepRunner(grid, workers=2, retries=0, task_fn=_dying_task).run()
        assert [o.task.name for o in result.outcomes] == ["PYNQ-Z1-scd-40fps"]
        assert result.failures[0].kind == "crash"
        assert result.failures[0].task.strategy == "random"

    def test_serial_retry_backs_off_in_queue_and_keeps_grid_order(
            self, tmp_path, monkeypatch):
        """workers=1: a failed cell re-enters the queue after its backoff
        instead of sleeping inline; the other cells keep their grid order,
        the retried cell ends with two attempts and the checkpoint holds
        exactly one outcome per uid."""
        from repro.sweep import CHECKPOINT_FILENAME, load_checkpoint

        grid = build_grid("pynq-z1", "scd,random", [40.0, 30.0], **TINY)
        flaky = grid[0].name
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TEST_FLAKY_TASKS", flaky)
        executed = []

        def recording(task, cache_dir, prepared):
            executed.append(task.name)
            return _flaky_task(task, cache_dir, prepared)

        cache = tmp_path / "cache"
        result = SweepRunner(grid, workers=1, cache_dir=cache, retries=1,
                             retry_backoff_s=0.05, task_fn=recording).run()
        assert result.ok
        assert executed == [t.name for t in grid] + [flaky], \
            "the others run in grid order; the retry waits in the queue"
        assert {o.task.name: o.attempts for o in result.outcomes} == \
            {t.name: 2 if t.name == flaky else 1 for t in grid}
        checkpoint = cache / CHECKPOINT_FILENAME
        records = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        outcome_uids = [r["uid"] for r in records if r.get("kind") == "outcome"]
        assert sorted(outcome_uids) == sorted(t.uid for t in grid)
        assert set(load_checkpoint(checkpoint).outcomes) == {t.uid for t in grid}


# --------------------------------------------------------- corrupt cache dirs
class TestCorruptShards:
    def _seed_cache(self, tmp_path):
        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        run_sweep_task(task, str(tmp_path))
        return task

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, caplog):
        task = self._seed_cache(tmp_path)
        shard = next(tmp_path.glob("*.jsonl"))
        with shard.open("a") as handle:
            handle.write("{torn json\n")
            handle.write('{"namespace": 3, "key": null}\n')
        with caplog.at_level(logging.WARNING, logger="repro.sweep.disk_cache"):
            warm = run_sweep_task(task, str(tmp_path))
        assert warm.estimator_calls == 0, "valid entries still serve from disk"
        assert any("corrupt line" in record.message for record in caplog.records)

    def test_truncated_shard_tail_survives(self, tmp_path):
        task = self._seed_cache(tmp_path)
        shard = next(tmp_path.glob("*.jsonl"))
        text = shard.read_text()
        shard.write_text(text[: len(text) - 25])  # chop mid-record
        warm = run_sweep_task(task, str(tmp_path))
        assert warm.disk_hits > 0, "untouched entries still load"

    def test_compaction_repairs_corruption(self, tmp_path):
        task = self._seed_cache(tmp_path)
        shard = next(tmp_path.glob("*.jsonl"))
        with shard.open("a") as handle:
            handle.write("{torn json\n")
        report = compact_cache_dir(tmp_path)
        assert report.corrupt_lines_dropped == 1
        assert report.entries_kept == report.entries_before
        stats = cache_dir_stats(tmp_path)
        assert stats.corrupt_lines == 0
        warm = run_sweep_task(task, str(tmp_path))
        assert warm.estimator_calls == 0, "repaired cache must still hit"


# ------------------------------------------------------------ compaction / GC
def _estimate_in_child(engine, directory, shard: str, config) -> None:
    cache = DiskEvaluationCache(engine.estimate, directory, device="PYNQ-Z1", shard=shard)
    cache.evaluate(config)
    os._exit(0 if cache.disk_stats().misses == 1 else 1)


class TestCompaction:
    def test_dedup_collapses_parallel_shards(self, tmp_path, engine, initial):
        # Two concurrent writers (cold sweep cells of one device in two
        # processes, as at workers=2) estimate the same config into separate
        # shards; compaction folds the shards into one and drops the
        # duplicate without losing the entry.
        a = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                shard="task-a")
        child = multiprocessing.get_context("fork").Process(
            target=_estimate_in_child, args=(engine, tmp_path, "task-b", initial))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        a.evaluate(initial)
        before = cache_dir_stats(tmp_path)
        assert before.duplicates == 1 and before.total_shards == 2
        report = compact_cache_dir(tmp_path)
        assert report.duplicates_dropped == 1
        assert report.shards_after == 1 < report.shards_before
        after = cache_dir_stats(tmp_path)
        assert after.duplicates == 0 and after.entries == 1
        warm = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert initial in warm

    def test_warm_sweep_after_compaction(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        cold = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert cold.estimator_calls > 0
        compact_cache_dir(tmp_path)
        warm = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert warm.estimator_calls == 0, "compaction must not lose entries"

    def test_age_eviction(self, tmp_path, engine, initial):
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        cache.evaluate(initial)
        # Pretend 10 days pass: everything is older than a 5-day budget.
        now = __import__("time").time() + 10 * 86400
        report = compact_cache_dir(tmp_path, max_age_days=5.0, now=now)
        assert report.evicted_by_age == 1
        assert report.entries_kept == 0
        assert cache_dir_stats(tmp_path).entries == 0

    def test_size_eviction_drops_oldest_first(self, tmp_path, engine, initial):
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        older = initial
        newer = initial.with_updates(parallel_factor=32)
        cache.evaluate(older)
        # Make the first record strictly older on the record timestamp.
        shard = next(tmp_path.glob("*.jsonl"))
        record = json.loads(shard.read_text())
        record["ts"] = record["ts"] - 1000.0
        shard.write_text(json.dumps(record, sort_keys=True) + "\n")
        DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                            shard="second").evaluate(newer)
        one_record_mb = (len(json.dumps(record)) + 200) / (1024 * 1024)
        report = compact_cache_dir(tmp_path, max_size_mb=one_record_mb)
        assert report.evicted_by_size == 1
        reloaded = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert newer in reloaded and older not in reloaded

    def test_records_without_timestamp_use_shard_mtime(self, tmp_path, engine, initial):
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        cache.evaluate(initial)
        shard = next(tmp_path.glob("*.jsonl"))
        record = json.loads(shard.read_text())
        del record["ts"]  # pre-GC cache format
        shard.write_text(json.dumps(record, sort_keys=True) + "\n")
        report = compact_cache_dir(tmp_path, max_age_days=365.0)
        assert report.entries_kept == 1, "fresh mtime keeps the legacy record"

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_age_days"):
            compact_cache_dir(tmp_path, max_age_days=0.0)
        with pytest.raises(ValueError, match="max_size_mb"):
            compact_cache_dir(tmp_path, max_size_mb=-1.0)

    def test_empty_directory(self, tmp_path):
        report = compact_cache_dir(tmp_path / "fresh")
        assert report.entries_before == 0 and report.shards_after == 0
        stats = cache_dir_stats(tmp_path / "fresh")
        assert stats.entries == 0 and stats.total_shards == 0


@pytest.fixture(scope="module")
def engine():
    from repro.core.auto_hls import AutoHLS
    from repro.hw.device import PYNQ_Z1

    return AutoHLS(PYNQ_Z1)


@pytest.fixture(scope="module")
def initial():
    from repro.core.bundle_generation import get_bundle
    from repro.core.dnn_config import DNNConfig
    from repro.detection.task import TINY_DETECTION_TASK

    return DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK, num_repetitions=2,
                     channel_expansion=(1.5, 1.5), downsample=(1, 1),
                     stem_channels=16, parallel_factor=16, max_channels=128)
