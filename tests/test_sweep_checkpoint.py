"""Checkpoint/resume, adaptive scheduling and sidecar-GC tests (PR 4).

The core contract: a sweep killed at cell k and resumed with
``resume_from=<checkpoint>`` produces a :class:`SweepResult` whose
deterministic content — journals included — is byte-identical to an
uninterrupted run, while re-executing *only* the unfinished cells.
Alongside: robustness against truncated/corrupt checkpoints and grids
that changed under a checkpoint, plus regression tests for the PR's
bugfixes (SweepTask-name aliasing, failure records feeding the cost
model of a resume, unbounded checkpoint growth).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep import (
    CHECKPOINT_FILENAME,
    CheckpointWriter,
    SweepFailure,
    SweepResult,
    SweepRunner,
    SweepTask,
    build_grid,
    cache_dir_stats,
    compact_cache_dir,
    load_checkpoint,
    run_sweep_task,
)
from repro.sweep import checkpoint as checkpoint_module
from repro.sweep.checkpoint import CheckpointCells
from repro.sweep.ledger import WorkerRegistry

TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)

#: Outcome fields that legitimately differ across runs (wall clock, cache
#: warmth, retry counts); everything else must round-trip byte-identically.
VOLATILE_OUTCOME_FIELDS = ("duration_s", "attempts", "disk_hits", "disk_misses",
                           "estimator_calls")
VOLATILE_FAILURE_FIELDS = ("duration_s", "attempts")


def canonical(result: SweepResult) -> str:
    """The deterministic portion of ``as_dict()`` as one JSON byte string."""
    payload = result.as_dict()
    slim = {"outcomes": payload["outcomes"], "failures": payload["failures"]}
    for outcome in slim["outcomes"]:
        for field in VOLATILE_OUTCOME_FIELDS:
            outcome.pop(field, None)
    for failure in slim["failures"]:
        for field in VOLATILE_FAILURE_FIELDS:
            failure.pop(field, None)
    return json.dumps(slim, sort_keys=True)


class RecordingTaskFn:
    """In-process task_fn that records executed uids; optional kill at k.

    Used with ``workers=1`` (serial scheduler) so closures need not
    pickle.  ``kill_after=k`` simulates the parent dying after k settled
    cells by raising KeyboardInterrupt — which the scheduler deliberately
    does not catch — leaving the incremental checkpoint behind.
    """

    def __init__(self, kill_after=None):
        self.kill_after = kill_after
        self.executed: list[str] = []

    def __call__(self, task, cache_dir, prepared):
        if self.kill_after is not None and len(self.executed) >= self.kill_after:
            raise KeyboardInterrupt
        self.executed.append(task.uid)
        return run_sweep_task(task, cache_dir, prepared)


#: The cell :func:`_failing_task` poisons.
FAILING_CELL = "PYNQ-Z1-random-40fps"


# Module-level so it pickles under any multiprocessing start method.
def _failing_task(task, cache_dir, prepared):
    if task.name == FAILING_CELL:
        raise RuntimeError(f"injected failure for task {task.name}")
    return run_sweep_task(task, cache_dir, prepared)


# ------------------------------------------------------- resume acceptance
class TestCheckpointResume:
    def grid(self):
        return build_grid("pynq-z1", "scd,random", [40.0, 30.0], **TINY)

    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        """Acceptance: kill at cell k, resume, byte-identical result while
        re-executing only the unfinished cells."""
        tasks = self.grid()
        uninterrupted = SweepRunner(tasks, workers=1, cache_dir=tmp_path / "full").run()

        work = tmp_path / "work"
        killer = RecordingTaskFn(kill_after=2)
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(tasks, workers=1, cache_dir=work, task_fn=killer).run()
        assert killer.executed == [t.uid for t in tasks[:2]]
        assert len(load_checkpoint(work / CHECKPOINT_FILENAME).outcomes) == 2

        resumer = RecordingTaskFn()
        resumed = SweepRunner(tasks, workers=1, cache_dir=work,
                              resume_from=work / CHECKPOINT_FILENAME,
                              task_fn=resumer).run()
        assert resumer.executed == [t.uid for t in tasks[2:]], \
            "resume must re-execute only the unfinished cells"
        assert resumed.reused == 2
        assert resumed.ok
        assert canonical(resumed) == canonical(uninterrupted)
        # The reused cells' estimator accounting is replayed verbatim from
        # the first run; the re-executed cells did real estimator work.
        assert [o.task.uid for o in resumed.outcomes] == [t.uid for t in tasks]

    def test_resume_of_complete_checkpoint_executes_nothing(self, tmp_path):
        tasks = self.grid()
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        fn = RecordingTaskFn()
        resumed = SweepRunner(tasks, workers=1, cache_dir=tmp_path,
                              resume_from=tmp_path / CHECKPOINT_FILENAME,
                              task_fn=fn).run()
        assert fn.executed == []
        assert resumed.reused == len(tasks)
        assert not resumed.preparations, "nothing to run = nothing to prepare"

    def test_resumed_compare_report_indistinguishable(self, tmp_path):
        from repro.sweep import compare

        tasks = self.grid()
        full = SweepRunner(tasks, workers=1, cache_dir=tmp_path / "full").run()
        work = tmp_path / "work"
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(tasks, workers=1, cache_dir=work,
                        task_fn=RecordingTaskFn(kill_after=1)).run()
        resumed = SweepRunner(tasks, workers=1, cache_dir=work,
                              resume_from=work / CHECKPOINT_FILENAME).run()
        baseline, report = compare(full), compare(resumed)
        assert [dataclasses.asdict(s) | {"duration_s": None} for s in baseline.strategies] \
            == [dataclasses.asdict(s) | {"duration_s": None} for s in report.strategies]
        assert baseline.winners == report.winners
        assert report.totals["reused_tasks"] == 1

    def test_failed_cells_rerun_on_resume(self, tmp_path):
        """A resume re-runs recorded *failures*, not only missing cells."""
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        poisoned = SweepRunner(tasks, workers=1, cache_dir=tmp_path, retries=0,
                               retry_backoff_s=0.0, task_fn=_failing_task).run()
        assert not poisoned.ok
        fn = RecordingTaskFn()
        resumed = SweepRunner(tasks, workers=1, cache_dir=tmp_path,
                              resume_from=tmp_path / CHECKPOINT_FILENAME,
                              task_fn=fn).run()
        assert fn.executed == [tasks[1].uid]
        assert resumed.ok and resumed.reused == 1
        clean = SweepRunner(tasks, workers=1, cache_dir=tmp_path / "clean").run()
        assert canonical(resumed) == canonical(clean)

    def test_resume_from_saved_result_json(self, tmp_path):
        """A saved result is no resume source (``compare`` reads it); the
        runner refuses it, naming the file, before running anything."""
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        path = SweepRunner(tasks, workers=1).run().save(tmp_path / "result.json")
        with pytest.raises(ValueError, match=r"result\.json is not a checkpoint"):
            SweepRunner(tasks, workers=1, resume_from=path)

    def test_foreign_checkpoint_resume_seeds_checkpoint(self, tmp_path):
        """Resuming from another directory's checkpoint backfills this run's
        checkpoint so the resumed run is itself resumable."""
        tasks = self.grid()
        first, cache = tmp_path / "a", tmp_path / "b"
        SweepRunner(tasks, workers=1, cache_dir=first).run()
        fn = RecordingTaskFn()
        resumed = SweepRunner(tasks, workers=1, cache_dir=cache,
                              resume_from=first / CHECKPOINT_FILENAME, task_fn=fn).run()
        assert fn.executed == [] and resumed.reused == len(tasks)
        status = load_checkpoint(cache / CHECKPOINT_FILENAME)
        assert set(status.outcomes) == {t.uid for t in tasks}

    def test_resume_refreshes_the_checkpoint_grid_header(self, tmp_path):
        """A resume appends a header for the *current* grid (newest wins),
        so the file never misdescribes what a further resume would run."""
        old_grid = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        SweepRunner(old_grid, workers=1, cache_dir=tmp_path).run()
        new_grid = build_grid("pynq-z1", "scd,random", [40.0, 30.0], **TINY)
        SweepRunner(new_grid, workers=1, cache_dir=tmp_path,
                    resume_from=tmp_path / CHECKPOINT_FILENAME).run()
        status = load_checkpoint(tmp_path / CHECKPOINT_FILENAME)
        assert status.grid == [t.uid for t in new_grid]

    def test_resume_works_across_worker_counts(self, tmp_path):
        """Checkpointed outcomes ship to a multi-process resumed run."""
        tasks = self.grid()
        work = tmp_path / "work"
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(tasks, workers=1, cache_dir=work,
                        task_fn=RecordingTaskFn(kill_after=2)).run()
        resumed = SweepRunner(tasks, workers=2, cache_dir=work,
                              resume_from=work / CHECKPOINT_FILENAME).run()
        full = SweepRunner(tasks, workers=1, cache_dir=tmp_path / "full").run()
        assert resumed.reused == 2
        assert canonical(resumed) == canonical(full)

    def test_fresh_run_never_parses_the_old_checkpoint(self, tmp_path, monkeypatch):
        """A fresh run takes no cost hints, so it truncates the directory's
        checkpoint without reading it."""
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()

        def refuse(path):
            raise AssertionError(f"a fresh run parsed {path}")

        monkeypatch.setattr(checkpoint_module, "load_checkpoint", refuse)
        result = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert result.ok and result.reused == 0

    def test_fresh_run_truncates_stale_checkpoint(self, tmp_path):
        tasks = self.grid()
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        before = load_checkpoint(tmp_path / CHECKPOINT_FILENAME)
        assert before.settled == len(tasks)
        # A non-resume run starts the checkpoint over (fresh header, no
        # stale cells from the previous grid).
        small = tasks[:1]
        SweepRunner(small, workers=1, cache_dir=tmp_path).run()
        after = load_checkpoint(tmp_path / CHECKPOINT_FILENAME)
        assert set(after.outcomes) == {small[0].uid}
        assert after.grid == [small[0].uid]

    def test_result_save_load_round_trip(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        result = SweepRunner(tasks, workers=1).run()
        loaded = SweepResult.load(result.save(tmp_path / "r.json"))
        assert canonical(loaded) == canonical(result)
        assert loaded.workers == result.workers
        assert json.dumps(loaded.outcomes[0].journal, sort_keys=True) \
            == json.dumps(result.outcomes[0].journal, sort_keys=True)

    def test_load_accepts_cli_report_wrapper(self, tmp_path):
        from repro.utils.serialization import dump_json

        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        result = SweepRunner(tasks, workers=1).run()
        path = dump_json({"sweep": result.as_dict(), "comparison": {}},
                         tmp_path / "report.json")
        assert canonical(SweepResult.load(path)) == canonical(result)

    def test_pre_change_report_with_schedule_key_still_loads(self, tmp_path, capsys):
        """Reports written while ``SweepResult`` still carried a schedule
        (``"schedule": "chunked"``) load and diff unchanged."""
        from repro.cli import main
        from repro.utils.serialization import dump_json

        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        result = SweepRunner(tasks, workers=1).run()
        legacy = {"sweep": {**result.as_dict(), "schedule": "chunked"}, "comparison": {}}
        path = dump_json(legacy, tmp_path / "legacy-report.json")
        loaded = SweepResult.load(path)
        assert canonical(loaded) == canonical(result)
        assert "schedule" not in loaded.as_dict()
        fresh = result.save(tmp_path / "fresh.json")
        assert main(["compare", "--diff", str(path), str(fresh)]) == 0
        assert "identical cell for cell" in capsys.readouterr().out

    def test_missing_resume_source_raises(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        runner = SweepRunner(tasks, resume_from=tmp_path / "nope.jsonl")
        with pytest.raises(FileNotFoundError):
            runner.run()


# -------------------------------------------------- hypothesis property
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    strategies=st.lists(st.sampled_from(["scd", "random", "annealing"]),
                        min_size=1, max_size=2, unique=True),
    fps=st.lists(st.sampled_from([25.0, 40.0, 60.0]), min_size=2, max_size=2,
                 unique=True),
    kill_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_kill_at_k_resume_is_byte_identical(tmp_path_factory, seed,
                                                     strategies, fps,
                                                     kill_fraction):
    """Killing a sweep after any k settled cells and resuming yields the
    deterministic portion of ``SweepResult.as_dict()`` byte-identical to an
    uninterrupted run, re-executing exactly the n-k unfinished cells."""
    tasks = build_grid("pynq-z1", strategies, fps, tolerance_ms=10.0,
                       iterations=12, num_candidates=1, top_bundles=2, seed=seed)
    k = min(int(kill_fraction * len(tasks)), len(tasks) - 1)
    base = tmp_path_factory.mktemp("resume-prop")

    uninterrupted = SweepRunner(tasks, workers=1, cache_dir=base / "full").run()

    work = base / "work"
    killer = RecordingTaskFn(kill_after=k)
    try:
        SweepRunner(tasks, workers=1, cache_dir=work, task_fn=killer).run()
    except KeyboardInterrupt:
        pass
    resumer = RecordingTaskFn()
    resumed = SweepRunner(tasks, workers=1, cache_dir=work,
                          resume_from=work / CHECKPOINT_FILENAME,
                          task_fn=resumer).run()
    assert resumer.executed == [t.uid for t in tasks[k:]]
    assert resumed.reused == k
    assert canonical(resumed) == canonical(uninterrupted)


# ------------------------------------------------------ checkpoint robustness
class TestCheckpointRobustness:
    def _checkpointed(self, tmp_path, tasks=None):
        tasks = tasks or build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        return tasks, tmp_path / CHECKPOINT_FILENAME

    def test_torn_tail_line_is_skipped(self, tmp_path):
        tasks, path = self._checkpointed(tmp_path)
        with path.open("a") as handle:
            handle.write('{"kind": "outcome", "uid": "half-')  # torn write
        status = load_checkpoint(path)
        assert status.corrupt_lines == 1
        assert set(status.outcomes) == {t.uid for t in tasks}
        fn = RecordingTaskFn()
        resumed = SweepRunner(tasks, workers=1, cache_dir=tmp_path,
                              resume_from=path, task_fn=fn).run()
        assert fn.executed == [] and resumed.reused == len(tasks)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_disk_fails_the_sweep_instead_of_losing_cells(self, tmp_path, disk_full,
                                                               workers):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        disk_full(CHECKPOINT_FILENAME)
        with pytest.raises(OSError) as excinfo:
            SweepRunner(tasks, workers=workers, cache_dir=tmp_path).run()
        assert excinfo.value.errno == errno.ENOSPC
        assert CHECKPOINT_FILENAME in str(excinfo.value)
        assert load_checkpoint(tmp_path / CHECKPOINT_FILENAME).settled == 0

    def test_truncated_mid_record_drops_only_that_cell(self, tmp_path):
        tasks, path = self._checkpointed(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # chop the last record
        status = load_checkpoint(path)
        assert status.corrupt_lines == 1
        assert set(status.outcomes) == {tasks[0].uid}
        fn = RecordingTaskFn()
        resumed = SweepRunner(tasks, workers=1, cache_dir=tmp_path,
                              resume_from=path, task_fn=fn).run()
        assert fn.executed == [tasks[1].uid]
        assert resumed.ok and resumed.reused == 1

    def test_garbage_lines_and_wrong_kinds_are_counted(self, tmp_path):
        tasks, path = self._checkpointed(tmp_path)
        # A resume divides a failure's duration by its attempts: a failure
        # whose numbers are not numbers is corrupt, not a crash.
        failure = SweepFailure(tasks[0], "timeout", "slow", attempts=1).as_dict()
        with path.open("a") as handle:
            handle.write("[1, 2, 3]\n")                       # not a dict
            handle.write('{"kind": "party"}\n')               # unknown kind
            handle.write('{"kind": "outcome", "uid": 7}\n')   # bad uid
            handle.write('{"kind": "outcome", "uid": "x", "outcome": {}}\n')
            handle.write(json.dumps({"kind": "failure", "uid": tasks[0].uid,
                                     "failure": {**failure, "duration_s": "slow"}}) + "\n")
        status = load_checkpoint(path)
        assert status.corrupt_lines == 5
        assert len(status.outcomes) == len(tasks)

    def test_incremental_cells_view_follows_truncation_and_removal(self, tmp_path):
        tasks, path = self._checkpointed(tmp_path)
        header, *records = path.read_text().splitlines(keepends=True)
        late = json.dumps({
            "kind": "failure", "uid": tasks[0].uid, "ts": 0.0,
            "failure": SweepFailure(task=tasks[0], kind="error", error="late",
                                    attempts=1).as_dict(),
        }) + "\n"
        path.unlink()
        view = CheckpointCells(path)
        assert view.counts() == (0, 0)
        path.write_text(header + "".join(records) + late)
        status = load_checkpoint(path)
        assert view.counts() == (len(status.outcomes), len(status.failures)) == (1, 1)
        assert view.cells() == {tasks[0].uid: "failure", tasks[1].uid: "outcome"}
        path.write_text(header + late)  # rewritten in place, shorter
        assert view.cells() == {tasks[0].uid: "failure"}
        assert view.failures() == list(load_checkpoint(path).failures.values())
        path.unlink()
        assert view.counts() == (0, 0) and view.cells() == {}

    def test_cells_view_and_cache_stats_count_lines_as_resume_does(self, tmp_path):
        """A line of the right shape whose record does not rebuild is corrupt
        to every reader, never a settled cell to some of them."""
        tasks, path = self._checkpointed(tmp_path)
        with path.open("a") as handle:
            handle.write('{"kind": "outcome", "uid": "x", "outcome": {}}\n')
            handle.write('{"kind": "failure", "uid": "y", "failure": {"task": {}}}\n')
        status = load_checkpoint(path)
        assert (len(status.outcomes), len(status.failures), status.corrupt_lines) == (2, 0, 2)
        view = CheckpointCells(path)
        assert view.counts() == (2, 0) and view.corrupt_lines() == 2
        assert view.cells() == {task.uid: "outcome" for task in tasks}
        stats = cache_dir_stats(tmp_path)
        assert (stats.checkpoint_outcomes, stats.checkpoint_failures,
                stats.checkpoint_corrupt_lines) == (2, 0, 2)
        with path.open("a") as handle:
            handle.write('{"kind": "outcome", "uid": "half-')  # torn write
        assert load_checkpoint(path).corrupt_lines == 3
        assert view.corrupt_lines() == 3 == cache_dir_stats(tmp_path).checkpoint_corrupt_lines

    def test_checkpoint_of_changed_grid_reruns_unknown_cells(self, tmp_path, caplog):
        import logging

        old_grid = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        _, path = self._checkpointed(tmp_path, old_grid)
        new_grid = build_grid("pynq-z1", "scd,random", [30.0], **TINY)
        fn = RecordingTaskFn()
        with caplog.at_level(logging.WARNING, logger="repro.sweep.runner"):
            resumed = SweepRunner(new_grid, workers=1, cache_dir=tmp_path / "new",
                                  resume_from=path, task_fn=fn).run()
        assert fn.executed == [t.uid for t in new_grid], \
            "no checkpointed cell matches the new grid: everything re-runs"
        assert resumed.reused == 0 and resumed.ok
        assert any("not in the current grid" in r.message for r in caplog.records)

    def test_budget_change_does_not_alias_checkpoint_cells(self, tmp_path):
        """Regression (name-aliasing): re-running the same axes with a
        different budget must not reuse the old budget's outcomes."""
        old_grid = build_grid("pynq-z1", "scd", [40.0], **TINY)
        _, path = self._checkpointed(tmp_path, old_grid)
        bigger = build_grid("pynq-z1", "scd", [40.0],
                            **{**TINY, "iterations": 30})
        fn = RecordingTaskFn()
        resumed = SweepRunner(bigger, workers=1, cache_dir=tmp_path / "new",
                              resume_from=path, task_fn=fn).run()
        assert fn.executed == [bigger[0].uid]
        assert resumed.reused == 0

    def test_empty_and_missing_checkpoints(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.jsonl").settled == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert load_checkpoint(empty).settled == 0

    def test_writer_newest_record_wins(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        outcome = run_sweep_task(tasks[0])
        path = tmp_path / CHECKPOINT_FILENAME
        writer = CheckpointWriter(path, grid=[tasks[0].uid], fresh=True)
        writer.record_failure(SweepFailure(task=tasks[0], kind="error",
                                           error="boom", attempts=1))
        assert load_checkpoint(path).failures
        writer.record_outcome(outcome)
        status = load_checkpoint(path)
        assert set(status.outcomes) == {tasks[0].uid}
        assert not status.failures, "the later outcome supersedes the failure"


# ------------------------------------------------- satellite bugfix regressions
class TestTaskUidAliasing:
    def test_uid_distinguishes_budget_and_seed(self):
        base = SweepTask(device="PYNQ-Z1", strategy="scd", fps=40.0, **TINY)
        assert base.uid != dataclasses.replace(base, seed=2).uid
        assert base.uid != dataclasses.replace(base, iterations=50).uid
        assert base.uid != dataclasses.replace(base, tolerance_ms=5.0).uid
        assert base.uid != dataclasses.replace(base, num_candidates=2).uid
        assert base.uid != dataclasses.replace(base, top_bundles=3).uid
        # Same display name throughout: that is exactly the old bug.
        assert base.name == dataclasses.replace(base, seed=2).name

    def test_duplicate_tasks_rejected(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        with pytest.raises(ValueError, match="duplicate sweep task"):
            SweepRunner(tasks + tasks)
        # Same name, different seed: distinct uids, accepted.
        other = dataclasses.replace(tasks[0], seed=99)
        SweepRunner(tasks + [other])

    def test_same_name_tasks_get_separate_timings_and_checkpoints(self, tmp_path):
        """Regression: cells differing only in seed used to collide in
        their cost hints, the disk-cache shard name and the checkpoint."""
        a = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        b = dataclasses.replace(a, seed=99)
        result = SweepRunner([a, b], workers=1, cache_dir=tmp_path).run()
        assert result.ok
        failed = tmp_path / "failed" / CHECKPOINT_FILENAME
        writer = CheckpointWriter(failed, grid=[a.uid, b.uid])
        writer.record_failure(SweepFailure(a, "timeout", "slow", attempts=1, duration_s=1.0))
        writer.record_failure(SweepFailure(b, "timeout", "slow", attempts=2, duration_s=6.0))
        resumer = SweepRunner([a, b], resume_from=failed)
        resumer._load_resume()
        assert resumer._hints == {a.uid: 1.0, b.uid: 3.0}
        status = load_checkpoint(tmp_path / CHECKPOINT_FILENAME)
        assert set(status.outcomes) == {a.uid, b.uid}
        # Shard files are uid-suffixed (a shard only appears once its cell
        # records a disk miss, so assert on the naming, not the count):
        # the two cells can never append to one shared shard file.
        shards = {p.name for p in tmp_path.glob("*--*.jsonl")}
        assert shards and all(
            name.endswith((f"{a.uid}.jsonl", f"{b.uid}.jsonl")) for name in shards
        )
        assert not any(name.endswith(f"--{a.name}.jsonl") for name in shards), \
            "the display name must no longer key the shard"


class TimeoutProbe:
    """Transport that records the timeout the runner's board gives each
    cell, then returns without running any (the cells stay unsettled)."""

    def __init__(self):
        self.timeouts: dict[str, float] = {}

    def execute(self, runner, order, preparations):
        registry = WorkerRegistry()
        board = runner.board(order, workers=registry, lease_ttl_s=math.inf)
        for cell in board.lease(registry.register("probe"), len(order)):
            self.timeouts[cell.task.uid] = cell.timeout_s
        return {}, {}


class TestFailureTimings:
    def test_failed_cell_records_cost_hint(self, tmp_path):
        """Regression: the cost model used to learn nothing from failures,
        so a repeatedly timing-out cell kept being scheduled as cheap.
        A failed cell's checkpoint record hints its resume whether the
        attempts ran in-process (``workers=1``) or in forked processes
        (``workers=2``); a reused cell needs no hint."""
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        for workers in (1, 2):
            cache = tmp_path / f"workers-{workers}"
            result = SweepRunner(tasks, workers=workers, cache_dir=cache, retries=1,
                                 retry_backoff_s=0.0, task_fn=_failing_task).run()
            assert not result.ok
            failure = result.failures[0]
            assert failure.duration_s > 0
            resumer = SweepRunner(tasks, workers=workers, cache_dir=cache,
                                  resume_from=cache / CHECKPOINT_FILENAME)
            assert resumer.run().ok
            hints = resumer._hints
            assert tasks[1].uid in hints, "failure durations must persist"
            assert hints[tasks[1].uid] == failure.duration_s / failure.attempts
            assert tasks[0].uid not in hints

    def test_killed_run_resume_scales_timeout_of_failed_cell(self, tmp_path):
        """A run killed after a slow cell failed leaves no record but the
        checkpoint; its resume gives that cell ``timeout_scale x`` the
        attempt's time as its timeout, not the ``timeout_s`` floor."""
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)

        def fail_slowly_then_die(task, cache_dir, prepared):
            if task.uid == tasks[0].uid:
                time.sleep(0.2)
                raise RuntimeError("slow failure")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(tasks, workers=1, cache_dir=tmp_path, retries=0,
                        task_fn=fail_slowly_then_die).run()
        failure = load_checkpoint(tmp_path / CHECKPOINT_FILENAME).failures[tasks[0].uid]
        assert failure.attempts == 1 and failure.duration_s >= 0.2
        probe = TimeoutProbe()
        SweepRunner(tasks, workers=1, cache_dir=tmp_path, timeout_s=0.1,
                    timeout_scale=3.0, resume_from=tmp_path / CHECKPOINT_FILENAME,
                    transport=probe).run()
        scaled = min(3.0 * failure.duration_s, 0.1 * SweepRunner.MAX_TIMEOUT_GROWTH)
        assert probe.timeouts == {tasks[0].uid: scaled, tasks[1].uid: 0.1}

    def test_effective_timeout_scales_from_hint(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        runner = SweepRunner(tasks, timeout_s=2.0, timeout_scale=3.0)
        task = tasks[0]
        assert runner._effective_timeout(task, {}) == 2.0
        assert runner._effective_timeout(task, {task.uid: 5.0}) == 15.0
        assert runner._effective_timeout(task, {task.uid: 0.1}) == 2.0, \
            "timeout_s is a floor, never lowered by a cheap hint"
        assert runner._effective_timeout(task, {task.name: 4.0}) == 2.0, \
            "hints are keyed by uid only, never by the display name"
        # A permanently stuck cell records ~its own timeout as the hint;
        # the growth must stay bounded across resumed runs.
        assert runner._effective_timeout(task, {task.uid: 1000.0}) \
            == 2.0 * SweepRunner.MAX_TIMEOUT_GROWTH
        no_timeout = SweepRunner(tasks, timeout_s=None)
        assert no_timeout._effective_timeout(task, {task.uid: 10.0}) is None

    def test_backoff_is_exponential_deterministic_and_capped(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        runner = SweepRunner(tasks, retry_backoff_s=0.5)
        assert [runner._backoff_delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
        assert runner._backoff_delay(30) == SweepRunner.MAX_BACKOFF_S
        assert SweepRunner(tasks, retry_backoff_s=0.0)._backoff_delay(5) == 0.0
        with pytest.raises(ValueError, match="retry_backoff_s"):
            SweepRunner(tasks, retry_backoff_s=-1.0)
        with pytest.raises(ValueError, match="timeout_scale"):
            SweepRunner(tasks, timeout_scale=0.0)


class TestSidecarGC:
    def test_gc_dedups_and_repairs_checkpoint(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        path = tmp_path / CHECKPOINT_FILENAME
        lines_before = path.read_text().splitlines()
        with path.open("a") as handle:
            handle.write("{torn\n")
        # Duplicate the outcome record: superseded lines must collapse.
        with path.open("a") as handle:
            handle.write(lines_before[-1] + "\n")
        report = compact_cache_dir(tmp_path)
        assert report.checkpoint_records_pruned == 2  # torn + superseded
        status = load_checkpoint(path)
        assert status.corrupt_lines == 0
        assert set(status.outcomes) == {tasks[0].uid}
        assert "sidecars:" in report.summary()

    def test_gc_drops_uid_mismatched_records_instead_of_keeping_them(self, tmp_path):
        """A record whose embedded task does not match its uid is rejected
        by the loader; gc must drop it too — never let it clobber the good
        record of that uid via newest-wins."""
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        path = tmp_path / CHECKPOINT_FILENAME
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        outcome_record = next(r for r in lines if r.get("kind") == "outcome")
        mismatched = dict(outcome_record)
        mismatched["uid"] = tasks[1].uid  # claims the other cell's slot
        with path.open("a") as handle:
            handle.write(json.dumps(mismatched) + "\n")
        assert load_checkpoint(path).corrupt_lines == 1
        report = compact_cache_dir(tmp_path)
        assert report.checkpoint_records_pruned == 1
        status = load_checkpoint(path)
        assert status.corrupt_lines == 0
        assert set(status.outcomes) == {t.uid for t in tasks}, \
            "both genuine records survive; the impostor is gone"

    def test_gc_age_evicts_checkpoint_records(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        future = time.time() + 100 * 86400
        report = compact_cache_dir(tmp_path, max_age_days=30.0, now=future)
        assert report.checkpoint_records_pruned == 1
        assert load_checkpoint(tmp_path / CHECKPOINT_FILENAME).settled == 0

    def test_stats_count_sidecars_not_as_corrupt_shards(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        stats = cache_dir_stats(tmp_path)
        # The checkpoint's lines must not be misread as corrupt cache shards.
        assert stats.corrupt_lines == 0
        assert stats.checkpoint_outcomes == 1
        assert stats.checkpoint_records == 1
        assert all("_checkpoint" not in ns.namespace for ns in stats.namespaces)

    def test_gc_fsyncs_the_rewritten_checkpoint_before_replacing_it(self, tmp_path,
                                                                     monkeypatch):
        """Every checkpoint record is one fsynced line, so the compacted
        file must reach the disk before it replaces the old one."""
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        calls: list[tuple] = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        compact_cache_dir(tmp_path)
        inode = (tmp_path / CHECKPOINT_FILENAME).stat().st_ino
        replaced = calls.index(("replace", inode, CHECKPOINT_FILENAME))
        assert ("fsync", inode) in calls[:replaced], calls

    def test_gc_does_not_delete_the_checkpoint_file(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        compact_cache_dir(tmp_path)
        assert (tmp_path / CHECKPOINT_FILENAME).exists()
        assert load_checkpoint(tmp_path / CHECKPOINT_FILENAME).settled == 1
        warm = SweepRunner(tasks, workers=1, cache_dir=tmp_path,
                           resume_from=tmp_path / CHECKPOINT_FILENAME).run()
        assert warm.reused == 1


class TestConcurrentCheckpointWriter:
    """PR-5 concurrent-writer safety: the shard coordinator settles cells
    from parallel HTTP handler threads into one CheckpointWriter."""

    def _grid(self, n):
        return build_grid("pynq-z1", "scd", [float(10 + i) for i in range(n)],
                          **TINY)

    def _outcome(self, task):
        from repro.utils.serialization import to_jsonable

        payload = json.loads(json.dumps({
            "task": to_jsonable(task),
            "journal": {"records": [], "candidates": []},
            "selected_bundles": [13],
            "num_candidates": 1,
            "best_latency_ms": 10.0,
            "best_gap_ms": 0.5,
            "evaluations": 3,
            "memory_hits": 0,
            "memory_misses": 3,
            "disk_hits": 0,
            "disk_misses": 0,
            "estimator_calls": 3,
            "duration_s": 0.1,
        }))
        from repro.sweep import SweepOutcome

        return SweepOutcome.from_dict(payload)

    def test_parallel_appends_produce_a_clean_checkpoint(self, tmp_path):
        import threading

        tasks = self._grid(24)
        writer = CheckpointWriter(tmp_path / CHECKPOINT_FILENAME,
                                  grid=[t.uid for t in tasks])
        barrier = threading.Barrier(8)

        def record(chunk):
            barrier.wait()
            for task in chunk:
                writer.record_outcome(self._outcome(task))

        threads = [
            threading.Thread(target=record, args=(tasks[i::8],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status = load_checkpoint(tmp_path / CHECKPOINT_FILENAME)
        assert status.corrupt_lines == 0, "interleaved writes must not tear lines"
        assert set(status.outcomes) == {t.uid for t in tasks}
        assert all(writer.has_outcome(t.uid) for t in tasks)
