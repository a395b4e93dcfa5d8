"""Property-style determinism tests for the sweep engine (hypothesis).

The sweep's core contract is that a cell's journal depends only on the cell
itself: worker count (in-process vs forked attempts) and the cost hints a
resume takes from recorded failures are pure execution-mode knobs.  These
properties drive randomized grids through the different execution modes
and require byte-identical journals and identical comparison winners.

Budgets are tiny (a cell runs in ~50 ms) and ``max_examples`` is small so
the suite stays fast while still sampling the strategy / device / seed
space.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep import (
    CHECKPOINT_FILENAME,
    CheckpointWriter,
    SweepFailure,
    SweepRunner,
    build_grid,
    compare,
)

SETTINGS = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Randomized-but-tiny grid axes.
grids = st.builds(
    lambda device, strategies, fps, seed, iterations: build_grid(
        device,
        strategies,
        fps,
        tolerance_ms=10.0,
        iterations=iterations,
        num_candidates=1,
        top_bundles=2,
        seed=seed,
    ),
    device=st.sampled_from(["pynq-z1", "ultra96"]),
    strategies=st.lists(
        st.sampled_from(["scd", "random", "annealing"]),
        min_size=1, max_size=2, unique=True,
    ),
    fps=st.lists(st.sampled_from([25.0, 40.0, 60.0]), min_size=1, max_size=2,
                 unique=True),
    seed=st.integers(min_value=0, max_value=2**16),
    iterations=st.integers(min_value=8, max_value=20),
)


def fingerprint(result):
    """Byte-level view of everything that must be execution-mode invariant."""
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


def winners(result):
    return [(w.device, w.fps, w.strategy, w.best_gap_ms)
            for w in compare(result).winners]


@SETTINGS
@given(tasks=grids)
def test_worker_count_invariance(tasks):
    """workers=1 and workers=N produce byte-identical journals and winners."""
    serial = SweepRunner(tasks, workers=1).run()
    pooled = SweepRunner(tasks, workers=3).run()
    assert serial.ok and pooled.ok
    assert fingerprint(serial) == fingerprint(pooled)
    assert winners(serial) == winners(pooled)


@SETTINGS
@given(tasks=grids, costs=st.lists(st.floats(min_value=0.001, max_value=1e6),
                                   min_size=8, max_size=8))
def test_cost_hint_invariance(tasks, costs):
    """Arbitrary durations recorded as checkpoint failures reorder a resume's
    dispatch, never its results."""
    hints = {task.uid: cost for task, cost in zip(tasks, costs)}
    with tempfile.TemporaryDirectory() as root:
        plain_dir, hinted_dir = pathlib.Path(root, "plain"), pathlib.Path(root, "hinted")
        checkpoint = hinted_dir / CHECKPOINT_FILENAME
        writer = CheckpointWriter(checkpoint, grid=[task.uid for task in tasks])
        for task in tasks:
            writer.record_failure(SweepFailure(task, "timeout", "seeded", attempts=1,
                                               duration_s=hints[task.uid]))
        baseline = SweepRunner(tasks, workers=2, cache_dir=plain_dir).run()
        runner = SweepRunner(tasks, workers=2, cache_dir=hinted_dir, resume_from=checkpoint)
        hinted = runner.run()
        assert runner._hints == hints
    assert fingerprint(baseline) == fingerprint(hinted)
    assert [o.task for o in hinted.outcomes] == list(tasks), "task order preserved"


@SETTINGS
@given(tasks=grids)
def test_repeated_runs_are_identical(tasks):
    """Two sweeps of the same grid are bit-equal (no hidden global state)."""
    first = SweepRunner(tasks, workers=1).run()
    second = SweepRunner(tasks, workers=1).run()
    assert fingerprint(first) == fingerprint(second)
