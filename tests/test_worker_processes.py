"""Lifecycle of the long-lived worker processes behind ``SweepRunner(workers=N)``.

Forked cells run on :class:`repro.sweep.runner.WorkerProcesses`: each
process runs many cells, a process killed for a timeout is replaced rather
than reused, every process is reaped before ``run()`` returns, and a
SIGKILLed parent leaves no process behind.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.sweep import CHECKPOINT_FILENAME, SweepRunner, build_grid, run_sweep_task

TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The cell the stalling task_fn below hangs on.
STALLING_CELL = "PYNQ-Z1-scd-40fps"


def _record_pid(task) -> None:
    with open(os.path.join(os.environ["REPRO_TEST_PID_DIR"], "pids"), "a") as handle:
        handle.write(f"{os.getpid()} {task.name}\n")


# Module-level so it pickles under any multiprocessing start method.
def _pid_recording_task(task, cache_dir, prepared):
    """Record which process ran the cell, then run it."""
    _record_pid(task)
    return run_sweep_task(task, cache_dir, prepared)


def _pid_stalling_task(task, cache_dir, prepared):
    """Record the process, then hang on the stalling cell until killed."""
    _record_pid(task)
    if task.name == STALLING_CELL:
        time.sleep(3600.0)
    return run_sweep_task(task, cache_dir, prepared)


def _recorded_runs(pid_dir: pathlib.Path) -> list[tuple[int, str]]:
    """``(pid, cell name)`` per started cell, in start order."""
    runs = []
    for line in (pid_dir / "pids").read_text().splitlines():
        pid, name = line.split(" ", 1)
        runs.append((int(pid), name))
    return runs


class TestReuseAndReaping:
    def test_cells_share_at_most_workers_processes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PID_DIR", str(tmp_path))
        grid = build_grid("pynq-z1", "scd,random,annealing,evolutionary", [40.0, 30.0],
                          **TINY)
        result = SweepRunner(grid, workers=2, task_fn=_pid_recording_task).run()
        assert result.ok and len(result) == len(grid) == 8
        runs = _recorded_runs(tmp_path)
        assert sorted(name for _, name in runs) == sorted(task.name for task in grid)
        pids = {pid for pid, _ in runs}
        assert os.getpid() not in pids, "forked cells must not run in the parent"
        assert len(pids) <= 2, f"{len(grid)} cells ran in {len(pids)} processes"
        assert multiprocessing.active_children() == []

    def test_a_process_killed_for_a_timeout_runs_no_other_cell(self, tmp_path, monkeypatch):
        """workers=1 with a timeout: the stalling cell is dispatched first
        (grid order, equal costs), killed, and every later cell runs in one
        replacement process."""
        monkeypatch.setenv("REPRO_TEST_PID_DIR", str(tmp_path))
        grid = build_grid("pynq-z1", "scd,random,annealing", [40.0], **TINY)
        assert grid[0].name == STALLING_CELL
        result = SweepRunner(grid, workers=1, timeout_s=1.0, retries=0,
                             task_fn=_pid_stalling_task).run()
        assert [failure.kind for failure in result.failures] == ["timeout"]
        assert sorted(o.task.name for o in result.outcomes) == \
            sorted(task.name for task in grid[1:])
        runs = _recorded_runs(tmp_path)
        assert runs[0][1] == STALLING_CELL
        killed = runs[0][0]
        later = {pid for pid, _ in runs[1:]}
        assert killed not in later, "a killed process must never run another cell"
        assert len(later) == 1, "the cells after the kill share one replacement"
        assert multiprocessing.active_children() == []

    def test_serial_in_process_sweep_starts_no_process(self):
        grid = build_grid("pynq-z1", "scd", [40.0], **TINY)
        assert SweepRunner(grid, workers=1).run().ok
        assert multiprocessing.active_children() == []


# ------------------------------------------------------------------- layering
@pytest.mark.parametrize("workers", [1, 2])
def test_local_sweep_imports_no_http_code(workers):
    """The attempt ledger a local sweep drains lives in ``repro.sweep``: a
    serial or forked local run imports neither the shard tier nor an HTTP
    stack (checked in a fresh interpreter)."""
    script = (
        "import sys\n"
        "from repro.sweep import SweepRunner, build_grid\n"
        f"grid = build_grid('pynq-z1', 'scd,random', [40.0], **{TINY!r})\n"
        f"assert SweepRunner(grid, workers={workers}).run().ok\n"
        "print(sorted(name for name in ('repro.shard', 'http.server', 'urllib.request')\n"
        "             if name in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120.0)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# ------------------------------------------------------------ orphaned workers
def _children_of(pid: int) -> list[int]:
    """Pids whose parent is ``pid``, read from ``/proc/<pid>/stat``."""
    children = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...": comm may hold spaces and parens.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def _running(pid: int) -> bool:
    """False once ``pid`` exited; a zombie counts as exited, because a
    container's PID 1 may never reap it."""
    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    state = next((line for line in status.splitlines() if line.startswith("State:")), "")
    return "Z" not in state.split()[1:2]


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(),
                    reason="reads the process table from /proc")
def test_sigkilled_sweep_leaves_no_worker_process(tmp_path):
    """A SIGKILLed ``sweep --workers 2`` must not orphan its workers.

    Each journal here exceeds a 64 KiB pipe buffer, so a child that still
    held a parent-side pipe end would block forever on sending its result.
    An idle child must see EOF at once; a busy one must exit at its next
    send, within one cell.
    """
    cache = tmp_path / "cache"
    checkpoint = cache / CHECKPOINT_FILENAME
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "sweep",
         "--devices", "pynq-z1,ultra96",
         "--strategies", "scd,random,evolutionary,annealing",
         "--fps", "20", "15", "10", "--tolerance-ms", "8", "--iterations", "30",
         "--candidates", "2", "--top-bundles", "5", "--seed", "1",
         "--workers", "2", "--retries", "0", "--cache-dir", str(cache)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    children: list[int] = []
    try:
        deadline = time.monotonic() + 120.0
        while not (checkpoint.exists() and '"kind": "outcome"' in checkpoint.read_text()):
            assert sweep.poll() is None, "the sweep ended before its first cell settled"
            assert time.monotonic() < deadline, "no cell settled"
            time.sleep(0.01)
        children = _children_of(sweep.pid)
        sweep.kill()
        sweep.wait(timeout=30.0)
        assert children, "the sweep had no worker process"
        deadline = time.monotonic() + 30.0  # far more than one cell
        while any(_running(pid) for pid in children):
            alive = [pid for pid in children if _running(pid)]
            assert time.monotonic() < deadline, f"orphaned workers still alive: {alive}"
            time.sleep(0.05)
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait(timeout=30.0)
        for pid in filter(_running, children):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
