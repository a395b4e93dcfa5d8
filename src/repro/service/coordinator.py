"""HTTP face of the job service: many jobs, one lease surface, one fleet.

Architecture: :class:`ServiceCoordinator` *is* the shard tier's
:class:`~repro.shard.coordinator.LeaseCoordinator` — the routes, the
single worker registry and the fair cross-board leasing a one-shot
``shard coordinator`` serves — made persistent and extended with the
``/v1/jobs`` routes.  Every admitted job is driven by a stock
:class:`~repro.sweep.runner.SweepRunner` in its own daemon thread, with a
:class:`_JobTransport` plugged in — so grid validation, shared
preparation, resume, cost ordering and checkpointing are the
battle-tested single-run machinery, unchanged (a restarted job's resume
takes its cost hints from the job's own checkpoint).  The transport
attaches the job's pending cells as one board (lease ids prefixed
``<job_uid>:``) and waits for it to settle:

* workers register once with the service and stay job-agnostic; ids
  issued by a previous incarnation are re-adopted on first contact;
* ``/v1/lease`` round-robins one cell at a time across the running jobs
  (fair interleaving: a wide job cannot starve a small one);
* ``/v1/report`` routes by the payload's ``job`` field;
* cancellation detaches the board — lease revocation by omission: the
  board stops granting, in-flight leases die with their heartbeats, and
  nothing requeues.

The coordinator process is crash-only: ``stop()`` (and SIGKILL) abandon
running jobs without writing a terminal state (``stop()`` answers parked
workers ``done`` first), and the next start replays
``_service.jsonl``, requeues them, and their runners resume from the
per-job checkpoints — journals stay byte-identical to an uninterrupted
run.
"""

from __future__ import annotations

import pathlib
import threading
import time
from typing import Callable, Mapping, Optional

from repro.service.jobs import TERMINAL_STATES, Job, JobQueue, JournalError
from repro.shard.coordinator import JOIN_TIMEOUT_S, LeaseCoordinator, _CoordinatorHandler
from repro.shard.protocol import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    PROTOCOL_VERSION,
    ShardProtocolError,
)
import repro.telemetry as telemetry
from repro.sweep.checkpoint import CHECKPOINT_FILENAME, load_checkpoint
from repro.sweep.runner import SweepResult
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["ServiceCoordinator", "ServiceStopped"]


class ServiceStopped(RuntimeError):
    """Raised inside a job driver when the service is shutting down.

    Deliberately *not* a job failure: the driver thread unwinds without
    recording a terminal state, which is exactly the crash-recovery path —
    the job replays as queued on the next start and resumes from its
    checkpoint.
    """


class _JobTransport:
    """Per-job transport: serve the job's cells as one board of the service."""

    def __init__(self, service: "ServiceCoordinator", job: Job) -> None:
        self.service = service
        self.job = job

    def execute(self, runner, order, preparations):
        service, job = self.service, self.job
        board = service.attach(runner, order, preparations, job=job.uid)
        try:
            service.queue.set_state(job, "running")
            telemetry.event("service.job.attached", job=job.uid, cells=len(order))
            # A failed checkpoint append stops the job too: run() raises it.
            service.wait(board, stopped=lambda: service._stopping.is_set()
                         or job.cancel.is_set() or runner._write_error is not None)
            if board.done and runner._write_error is None:
                # The checkpoint holds every cell now: this board's and the
                # ones a resume reused.  Keep the counts before the board
                # goes, so no status poll has to decode the checkpoint.
                failed = board.counts()["failed"]
                job.board_counts = (job.total_cells - failed, failed)
        finally:
            service.detach(board)
        if not board.done and runner._write_error is None:
            if service._stopping.is_set():
                raise ServiceStopped(f"service stopping with job {job.uid} in flight")
            counts = board.counts()
            logger.info("service: job %s cancelled with %d cell(s) unsettled",
                        job.uid, counts["cells"] - counts["settled"])
        return dict(board.outcomes), dict(board.failures)


class _ServiceHandler(_CoordinatorHandler):
    """The lease routes plus the ``/v1/jobs`` routes."""

    coordinator: "ServiceCoordinator"

    server_version = "repro-service"

    def _handle_get(self, route: str) -> Optional[dict]:
        reply = super()._handle_get(route)
        if reply is not None:
            return reply
        if route == "/v1/jobs":
            return self.coordinator.handle_jobs_list()
        if route.startswith("/v1/jobs/"):
            rest = route[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                return self.coordinator.handle_job_result(rest[: -len("/result")])
            if rest and "/" not in rest:
                return self.coordinator.handle_job_status(rest)
        return None

    def _handle_post(self, route: str, payload: dict) -> Optional[dict]:
        if route == "/v1/jobs":
            return self.coordinator.handle_job_submit(payload)
        return super()._handle_post(route, payload)

    def _handle_delete(self, route: str) -> Optional[dict]:
        if route.startswith("/v1/jobs/"):
            rest = route[len("/v1/jobs/"):]
            if rest and "/" not in rest:
                return self.coordinator.handle_job_cancel(rest)
        return super()._handle_delete(route)


class ServiceCoordinator(LeaseCoordinator):
    """Persistent multi-tenant coordinator over a service root directory.

    ``start()`` serves HTTP, re-admits journalled jobs, and returns; job
    threads and the HTTP server run as daemons until ``stop()``.
    """

    persistent = True
    handler_class = _ServiceHandler

    def __init__(
        self,
        root,
        *,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        token: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        max_active: int = 4,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.root = pathlib.Path(root)
        # The estimator-cache exchange hub shared by every job and worker.
        super().__init__(bind, token=token, lease_ttl_s=lease_ttl_s,
                         heartbeat_s=heartbeat_s, cache_dir=self.root / "cache")
        self.clock = clock
        self.queue = JobQueue(self.root, clock=clock)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._stopping = threading.Event()
        self._admission = threading.Semaphore(max_active)
        self._threads: list[threading.Thread] = []
        self._sink = None

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Serve HTTP, re-admit journalled jobs, return (everything is a daemon)."""
        if telemetry.enabled() and telemetry.sink() is None:
            from repro.telemetry import TELEMETRY_FILENAME, TelemetrySink

            # One root-level sidecar for the whole service; job attribution
            # rides on the boards' per-event ``job`` labels.
            self._sink = TelemetrySink(str(self.root / TELEMETRY_FILENAME),
                                       fresh=False, clock=self.clock)
            telemetry.set_sink(self._sink)
        super().start()
        logger.info("service: coordinator listening on %s (root %s)",
                    self.url, self.root)
        for job in self.queue.jobs():
            if job.state == "queued":
                self._spawn(job)

    def stop(self) -> None:
        """Hard stop: abandon running jobs (they resume on the next start).

        Lease requests parked in a long poll are answered ``done``, so idle
        workers exit 0 instead of retrying a socket that is gone.
        """
        self._stopping.set()
        self.close()  # wakes every job's wait()
        for thread in self._threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        if self._sink is not None:
            telemetry.set_sink(None)
            self._sink = None

    # --------------------------------------------------------------- job driving
    def _spawn(self, job: Job) -> None:
        thread = threading.Thread(target=self._drive, args=(job,), daemon=True,
                                  name=f"service-job-{job.uid}")
        self._threads.append(thread)
        thread.start()

    def _drive(self, job: Job) -> None:
        """Run one job start-to-finish under the admission semaphore.

        A transition the journal cannot record ends this thread with one ERROR;
        the job keeps its journalled state and resumes on the next start."""
        with self._admission:
            try:
                self._run_job(job)
            except JournalError as exc:
                logger.error("service: job %s stopped: %s", job.uid, exc)

    def _run_job(self, job: Job) -> None:
        if self._stopping.is_set():
            return  # stays queued in the journal; next start resumes it
        if job.cancel.is_set():
            if job.state != "cancelled":
                self.queue.set_state(job, "cancelled")
            return
        self.queue.set_state(job, "preparing")
        checkpoint = job.directory / CHECKPOINT_FILENAME
        resume = str(checkpoint) if checkpoint.exists() else None
        try:
            runner = job.spec.build_runner(
                cache_dir=str(job.directory),
                transport=_JobTransport(self, job),
                resume_from=resume,
                clock=self.clock,
            )
            result = runner.run()
        except ServiceStopped:
            return  # no terminal record: replay requeues and resumes
        except JournalError:
            raise  # the transport's "running" transition: not a job failure
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            logger.exception("service: job %s failed", job.uid)
            self.queue.set_state(job, "failed",
                                 error=f"{type(exc).__name__}: {exc}")
            return
        job.result = result
        if job.cancel.is_set():
            self.queue.set_state(job, "cancelled")
        elif result.failures:
            self.queue.set_state(
                job, "failed",
                error=f"{len(result.failures)} of {job.total_cells} cell(s) failed",
            )
        else:
            self.queue.set_state(job, "done")
        telemetry.event("service.job.settled", job=job.uid, state=job.state)

    # -------------------------------------------------------------- job routes
    def _get_job(self, uid: str) -> Job:
        try:
            return self.queue.get(uid)
        except KeyError:
            raise ShardProtocolError(f"unknown job '{uid}'") from None

    def handle_job_submit(self, payload: Mapping) -> dict:
        if self._stopping.is_set():
            raise ShardProtocolError("service is shutting down")
        from repro.sweep.spec import SweepSpec

        spec_payload = payload.get("spec")
        if not isinstance(spec_payload, Mapping):
            raise ShardProtocolError("submit payload must carry a 'spec' object")
        try:
            spec = SweepSpec.from_payload(spec_payload)
        except ValueError as exc:
            raise ShardProtocolError(f"invalid job spec: {exc}") from None
        name = payload.get("name")
        job = self.queue.submit(spec, name=str(name) if name else None)
        telemetry.event("service.job.submitted", job=job.uid,
                        cells=job.total_cells)
        self._spawn(job)
        return {"job": job.uid, "name": job.name, "state": job.state,
                "cells": job.total_cells}

    def handle_jobs_list(self) -> dict:
        return {
            "version": PROTOCOL_VERSION,
            "service": True,
            "jobs": [self._job_summary(job) for job in self.queue.jobs()],
        }

    def handle_job_status(self, uid: str) -> dict:
        job = self._get_job(uid)
        summary = self._job_summary(job)
        detail: dict[str, dict] = {}
        for task in job.spec.build_tasks():
            detail[task.uid] = {"status": "pending", "attempts": 0, "worker": None}
        for cell_uid, kind in job.settled.cells().items():
            entry = detail.get(cell_uid)
            if entry is not None:
                entry["status"] = "completed" if kind == "outcome" else "failed"
        board = self.board(uid)
        failures: list[dict] = []
        if board is not None:
            for state in board.cell_states():
                entry = detail.get(state["uid"])
                if entry is None:
                    continue
                entry["attempts"] = state["attempts"]
                entry["worker"] = state["worker"]
                if state["status"] == "leased":
                    entry["status"] = "leased"
                elif state["status"] == "settled":
                    entry["status"] = "failed" if state["failed"] else "completed"
            failures = [f.as_dict() for _i, f in sorted(board.failures.items())]
        elif job.terminal:
            failures = [failure.as_dict() for failure in job.settled.failures()]
        summary["cells_detail"] = detail
        summary["failures"] = failures
        return summary

    def handle_job_result(self, uid: str) -> dict:
        job = self._get_job(uid)
        if not job.terminal:
            raise ShardProtocolError(
                f"job '{uid}' is {job.state}; the result is available once it settles"
            )
        result = job.result if job.result is not None else self._rebuild_result(job)
        return {"job": job.uid, "name": job.name, "state": job.state,
                "sweep": result.as_dict()}

    def handle_job_cancel(self, uid: str) -> dict:
        job = self._get_job(uid)
        if job.terminal:
            return {"job": job.uid, "state": job.state, "cancelled": False}
        job.cancel.set()
        if job.state == "queued":
            # Not yet admitted: settle immediately instead of waiting for
            # the driver thread to reach the semaphore.
            self.queue.set_state(job, "cancelled")
            final = "cancelled"
        else:
            # Running: the woken transport detaches the board (requeue
            # suppression) and the job thread records the state; outstanding
            # leases die with their next heartbeat.
            self.notify()
            final = "cancelling"
        telemetry.event("service.job.cancelled", job=job.uid)
        return {"job": job.uid, "state": final, "cancelled": True}

    def _rebuild_result(self, job: Job) -> SweepResult:
        """Reconstruct a terminal job's result from its checkpoint.

        The in-memory result dies with the process that ran the job; the
        checkpoint carries every settled cell's full journal, so a result
        served after a restart is payload-identical where it matters
        (outcomes and failures) and zeroes the run-shape fields
        (wall time, worker count) that describe a run this process never
        performed.
        """
        status = load_checkpoint(job.directory / CHECKPOINT_FILENAME)
        order = {task.uid: i for i, task in enumerate(job.spec.build_tasks())}
        outcomes = [status.outcomes[u] for u in
                    sorted(status.outcomes, key=lambda u: order.get(u, len(order)))]
        failures = [status.failures[u] for u in
                    sorted(status.failures, key=lambda u: order.get(u, len(order)))]
        return SweepResult(
            outcomes=outcomes,
            workers=0,
            cache_dir=str(job.directory),
            failures=failures,
            reused=len(outcomes),
        )

    def _job_summary(self, job: Job) -> dict:
        summary = job.as_summary()
        board = self.board(job.uid)
        if board is not None:
            counts = board.counts()
            # A resumed board only covers the unsettled cells; fold the
            # checkpointed ones back in so the counts describe the grid.
            reused = job.total_cells - counts["cells"]
            summary["counts"] = {
                "cells": job.total_cells,
                "pending": counts["pending"],
                "leased": counts["leased"],
                "settled": counts["settled"] + reused,
                "failed": counts["failed"],
                "workers": len(self.workers),
            }
        else:
            completed, failed = job.board_counts or job.settled.counts()
            summary["counts"] = {
                "cells": job.total_cells,
                "pending": max(job.total_cells - completed - failed, 0),
                "leased": 0,
                "settled": completed + failed,
                "failed": failed,
                "workers": 0,
            }
        return summary

    # ------------------------------------------------------------- dashboards
    def _job_totals(self, summaries: list[dict]) -> dict:
        """Grid counts summed over every job, fleet size, all-terminal flag."""
        totals = {key: sum(s["counts"][key] for s in summaries)
                  for key in ("cells", "pending", "leased", "settled", "failed")}
        totals["workers"] = len(self.workers)
        totals["done"] = all(s["state"] in TERMINAL_STATES for s in summaries)
        return totals

    def status(self) -> dict:
        jobs = self.queue.jobs()
        states: dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "version": PROTOCOL_VERSION,
            "service": True,
            "jobs": states,
            **self._job_totals([self._job_summary(job) for job in jobs]),
        }

    def metrics(self) -> dict:
        """`/v1/metrics`: the lease coordinator's reply with job-wide counts,
        so ``shard status`` renders both, plus a ``jobs`` section the CLI
        turns into per-job blocks."""
        summaries = [self._job_summary(job) for job in self.queue.jobs()]
        return {**super().metrics(), "service": True,
                "counts": self._job_totals(summaries), "jobs": summaries}
