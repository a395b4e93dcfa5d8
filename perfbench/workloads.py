"""The four benchmark workloads over the paper grid, and their repetitions.

Every workload runs the paper grid (PYNQ-Z1 + Ultra96 x scd / random /
evolutionary / annealing x 10 / 15 / 20 fps at the ``SweepSpec`` default
budget) through public entry points only: ``build_grid`` / ``SweepRunner``
for the grids, ``ServiceCoordinator`` / ``ShardWorker`` / ``ServiceClient``
for the service.  Each repetition gets its own cache directory.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pathlib
import resource
import shutil
import threading
import time
from typing import Callable, Optional

from repro.service import ServiceClient, ServiceCoordinator
from repro.shard import ShardWorker
from repro.sweep import SweepOutcome, SweepRunner, SweepSpec, build_grid
from repro.sweep.checkpoint import CHECKPOINT_FILENAME
from repro.sweep.runner import run_sweep_task

import oracle
import tracer as tracing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK_ROOT = REPO_ROOT / ".perfbench_work"
DEFAULT_SEED = 2019

DEVICES = ("pynq-z1", "ultra96")
STRATEGIES = ("scd", "random", "evolutionary", "annealing")
#: The two service jobs: half the paper grid each, submitted back to back.
SERVICE_JOBS = (("pynq-z1", ("scd", "random")), ("ultra96", ("evolutionary", "annealing")))

#: Client poll interval while waiting for service jobs (``ServiceClient.wait``
#: polls every 0.5 s, which would quantise ``first_result_s``).
SERVICE_POLL_S = 0.025
#: The worker exits after this long without a lease once the jobs are done.
WORKER_IDLE_TIMEOUT_S = 1.0
#: Hard limit on one repetition; a stuck run fails instead of hanging.
REP_DEADLINE_S = 150.0


@dataclasses.dataclass(frozen=True)
class Budget:
    """Search budget and FPS axis of every cell (defaults: ``SweepSpec``'s)."""

    fps: tuple[float, ...] = (10.0, 15.0, 20.0)
    tolerance_ms: float = 8.0
    iterations: int = 120
    num_candidates: int = 2
    top_bundles: int = 5

    @property
    def cells_per_job(self) -> int:
        """Cells of one service job (two strategies x the FPS axis)."""
        return len(SERVICE_JOBS[0][1]) * len(self.fps)

    def grid_kwargs(self, seed: int) -> dict:
        return {"tolerance_ms": self.tolerance_ms, "iterations": self.iterations,
                "num_candidates": self.num_candidates, "top_bundles": self.top_bundles,
                "seed": seed}


DEFAULT_BUDGET = Budget()


def paper_grid(seed: int, budget: Budget = DEFAULT_BUDGET) -> list:
    return build_grid(list(DEVICES), list(STRATEGIES), list(budget.fps),
                      **budget.grid_kwargs(seed))


def service_specs(seed: int, budget: Budget = DEFAULT_BUDGET) -> list[SweepSpec]:
    return [
        SweepSpec(devices=device, strategies=",".join(strategies), fps=tuple(budget.fps),
                  **budget.grid_kwargs(seed))
        for device, strategies in SERVICE_JOBS
    ]


@dataclasses.dataclass
class Cells:
    """What a set of settled cells produced: journal digests and accounting.

    Journals are reduced to per-uid SHA-256 digests of their canonical bytes
    as soon as a run ends, so memory does not grow with the repetitions.
    """

    digests: dict
    journal_bytes: int = 0
    cell_s: float = 0.0
    estimator_calls: int = 0
    memory_hits: int = 0
    memory_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    @classmethod
    def of(cls, outcomes) -> "Cells":
        cells = cls(digests={})
        for outcome in outcomes:
            encoded = oracle.journal_bytes(outcome.journal)
            cells.digests[outcome.task.uid] = oracle.digest_bytes(encoded)
            cells.journal_bytes += len(encoded)
            cells.cell_s += outcome.duration_s
            cells.estimator_calls += outcome.estimator_calls
            cells.memory_hits += outcome.memory_hits
            cells.memory_misses += outcome.memory_misses
            cells.disk_hits += outcome.disk_hits
            cells.disk_misses += outcome.disk_misses
        return cells


@dataclasses.dataclass
class Rep:
    """One repetition of a workload: timings and what its cells produced."""

    wall_s: float
    cpu_s: float
    setup_s: float
    first_result_s: float
    cells: Cells
    failed: int
    attempted: int
    workers: int
    layers: Optional[dict] = None
    first_lease_s: float = 0.0
    wire_bytes: int = 0


def _cpu_now() -> float:
    """User + system CPU of this process and its reaped children (µs resolution)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_grid(tasks, *, workers: int, cache_dir) -> Cells:
    """An untimed grid run (warm fill, oracle reference); any failure raises."""
    result = SweepRunner(tasks, workers=workers, cache_dir=str(cache_dir)).run()
    if result.failures:
        raise RuntimeError("; ".join(failure.summary() for failure in result.failures))
    return Cells.of(result.outcomes)


def _settled_epoch(cache_dir: pathlib.Path, count: int) -> Optional[float]:
    """When the run's checkpoint recorded its ``count``-th outcome."""
    stamps = []
    for line in (cache_dir / CHECKPOINT_FILENAME).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("kind") == "outcome":
            stamps.append(float(record["ts"]))
    return sorted(stamps)[count - 1] if len(stamps) >= count else None


class Workload:
    """A workload: one-off preparation, then repeatable timed repetitions."""

    workers = 1

    def __init__(self, seed: int, budget: Budget, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.budget = budget
        self.workdir = workdir
        self._serial = 0

    def fresh_dir(self, label: str) -> pathlib.Path:
        self._serial += 1
        path = self.workdir / f"{label}-{self._serial}"
        path.mkdir(parents=True)
        return path

    def prepare(self) -> None:
        """Untimed one-off set-up (counted in ``setup_s``)."""

    def run(self, task_fn: Callable) -> Rep:
        raise NotImplementedError

    def reference(self, reps: list[Rep]) -> Cells:
        """Serial cold-cache journals of the same cells, for the oracle."""
        return run_grid(self.tasks, workers=1, cache_dir=self.fresh_dir("reference"))


class GridWorkload(Workload):
    """The paper grid through ``SweepRunner``, cold, warm or in parallel."""

    def prepare(self) -> None:
        self.tasks = paper_grid(self.seed, self.budget)

    def rep_cache_dir(self) -> pathlib.Path:
        return self.fresh_dir("cache")

    def run(self, task_fn: Callable) -> Rep:
        setup_start = time.perf_counter()
        cache_dir = self.rep_cache_dir()
        runner = SweepRunner(self.tasks, workers=self.workers, cache_dir=str(cache_dir),
                             task_fn=task_fn)
        setup_s = time.perf_counter() - setup_start
        cpu_start = _cpu_now()
        epoch_start = time.time()
        result = runner.run()
        cpu_s = _cpu_now() - cpu_start
        # A grid's "first result" is a service job's worth of settled cells.
        first = _settled_epoch(cache_dir, self.budget.cells_per_job)
        shutil.rmtree(cache_dir)
        return Rep(
            wall_s=result.wall_time_s,
            cpu_s=cpu_s,
            setup_s=setup_s,
            first_result_s=(first - epoch_start) if first is not None else result.wall_time_s,
            cells=Cells.of(result.outcomes),
            failed=len(result.failures),
            attempted=len(self.tasks),
            workers=self.workers,
        )


class GridCold(GridWorkload):
    """``workers=1`` from an empty cache: estimation and cache writes."""

    def reference(self, reps: list[Rep]) -> Cells:
        # The workload *is* the serial cold run: its first repetition is the
        # reference every later one must reproduce byte for byte.
        return reps[0].cells


class GridWarm(GridWorkload):
    """``workers=1`` over a cache filled once and restored before every run."""

    def prepare(self) -> None:
        super().prepare()
        self.snapshot = self.fresh_dir("snapshot")
        self.fill = run_grid(self.tasks, workers=1, cache_dir=self.snapshot)

    def rep_cache_dir(self) -> pathlib.Path:
        # A copy of the snapshot: each run rewrites _checkpoint.jsonl and
        # _timings.json, which must not drift the next run's input.
        self._serial += 1
        path = self.workdir / f"cache-{self._serial}"
        shutil.copytree(self.snapshot, path)
        return path

    def reference(self, reps: list[Rep]) -> Cells:
        return self.fill


class GridParallel(GridWorkload):
    """``workers=2`` steal schedule from an empty cache: process dispatch."""

    workers = 2


class Service2Jobs(Workload):
    """Two 6-cell jobs through an in-process service with one worker thread."""

    def prepare(self) -> None:
        self.specs = service_specs(self.seed, self.budget)
        self.tasks = [task for spec in self.specs for task in spec.build_tasks()]

    def run(self, task_fn: Callable) -> Rep:
        setup_start = time.perf_counter()
        root = self.fresh_dir("service")
        coordinator = ServiceCoordinator(root / "root", bind=("127.0.0.1", 0))
        coordinator.start()
        worker = ShardWorker(coordinator.url, workers=1, cache_dir=str(root / "worker"),
                             name="perfbench", task_fn=task_fn,
                             idle_timeout_s=WORKER_IDLE_TIMEOUT_S)
        exit_codes: list[int] = []
        thread = threading.Thread(target=lambda: exit_codes.append(worker.run()),
                                  name="perfbench-worker")
        try:
            thread.start()
            while coordinator.status()["workers"] < 1:
                if time.perf_counter() - setup_start > REP_DEADLINE_S:
                    raise RuntimeError("the worker never registered")
                time.sleep(0.002)
            client = ServiceClient(coordinator.url)
            setup_s = time.perf_counter() - setup_start
            return self._timed(client, setup_s)
        finally:
            # The worker leaves on its idle timeout once the jobs are done;
            # it must be gone before the coordinator's socket closes.
            thread.join(timeout=REP_DEADLINE_S)
            coordinator.stop()
            if thread.is_alive() or exit_codes != [0]:
                raise RuntimeError(f"service worker did not exit cleanly: {exit_codes}")
            shutil.rmtree(root)

    def _timed(self, client: ServiceClient, setup_s: float) -> Rep:
        active = tracing.ACTIVE
        cpu_start = _cpu_now()
        start = time.perf_counter()
        uids = [client.submit(spec)["job"] for spec in self.specs]
        first_done = None
        while True:
            states = {job["job"]: job["state"] for job in client.jobs()}
            settled = [uid for uid in uids if states.get(uid) in ("done", "failed", "cancelled")]
            now = time.perf_counter()
            if settled and first_done is None:
                first_done = now
            if len(settled) == len(uids):
                break
            if now - start > REP_DEADLINE_S:
                raise RuntimeError(f"service jobs still running after {REP_DEADLINE_S:g}s")
            time.sleep(SERVICE_POLL_S)
        wall_s = now - start
        cpu_s = _cpu_now() - cpu_start
        layers = active.collect() if active is not None else None
        outcomes = [SweepOutcome.from_dict(outcome) for uid in uids
                    for outcome in client.result(uid)["sweep"]["outcomes"]]
        return Rep(
            wall_s=wall_s,
            cpu_s=cpu_s,
            setup_s=setup_s,
            first_result_s=first_done - start,
            cells=Cells.of(outcomes),
            failed=len(self.tasks) - len(outcomes),
            attempted=len(self.tasks),
            workers=1,
            layers=layers,
            first_lease_s=(active.first_lease_at - start)
            if active is not None and active.first_lease_at is not None else 0.0,
            wire_bytes=active.wire_bytes if active is not None else 0,
        )


WORKLOADS = {
    "grid-cold": GridCold,
    "grid-warm": GridWarm,
    "grid-parallel": GridParallel,
    "service-2jobs": Service2Jobs,
}


def run_rep(workload: Workload, traced: Optional[tracing.Tracer]) -> Rep:
    """One repetition, optionally under the tracer (installed only meanwhile)."""
    gc.collect()  # start every repetition from the same heap state
    if traced is None:
        return workload.run(run_sweep_task)
    traced.reset()
    traced.install()
    tracing.ACTIVE = traced
    try:
        rep = workload.run(tracing.traced_cell)
    finally:
        tracing.ACTIVE = None
        traced.uninstall()
    if rep.layers is None:
        rep.layers = traced.collect()
    return rep
