"""The attempt ledger: one lease board per grid, in every execution mode.

A :class:`LeaseBoard` hands a grid's cells out as bounded-lifetime
**leases**, counts each attempt and settles each cell exactly once.  The
local sweep drains it in process (``SweepRunner._run_cells``); the lease
coordinator (:mod:`repro.shard.coordinator`) serves it over HTTP.  Both
get it from :meth:`repro.sweep.runner.SweepRunner.board`, so one policy
covers every mode:

* **Failed attempt** — requeued after the runner's deterministic
  exponential backoff until ``retries`` is spent, then a structured
  ``SweepFailure`` of the reported kind.
* **Stalled cell** — a lease past its cost-hint-scaled timeout is revoked
  (``kind="timeout"``); the next heartbeat returns it as lost, so its
  holder can kill the process.
* **Dead worker** — heartbeats stop, the lease expires (``kind="crash"``).
* **Duplicate completion** — settlement is keyed by task uid and the
  first record wins; later reports are acknowledged but dropped.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Iterator, Mapping, Optional, Sequence

import repro.telemetry as telemetry
from repro.sweep.runner import SweepFailure, SweepOutcome, SweepTask
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Default lease time-to-live: a worker that misses heartbeats for this
#: long is presumed dead and its cells are requeued.
DEFAULT_LEASE_TTL_S = 30.0

#: Lease-lifecycle counters each board keeps and the coordinator sums.
LEASE_COUNTERS = ("granted", "heartbeats", "completed", "failed", "requeued",
                  "expired", "revoked", "duplicates")

#: Added to timed waits so a wake-up lands strictly past the deadline it
#: was computed for (lease expiry compares with ``>``).
WAKE_SLACK_S = 0.001

#: An affine lease looks only at the ready cells expected to cost at least
#: this share of the first one, so it leaves no much longer cell waiting.
AFFINITY_BAND = 0.5


class ShardProtocolError(RuntimeError):
    """A malformed or unexpected message (a bad body, an unknown worker id)."""


class WorkerRegistry:
    """A coordinator's one table of workers: ids, liveness, per-worker tallies.

    Every board of a coordinator shares it, so a worker registers once and
    is accounted once however many jobs it serves.  With ``adopt_unknown``
    an id this registry never issued is re-admitted on first contact (a
    persistent service's workers outlive a coordinator restart);
    otherwise it is a protocol error.
    """

    def __init__(self, *, adopt_unknown: bool = False) -> None:
        self.adopt_unknown = adopt_unknown
        self._lock = threading.Lock()
        self._workers: dict[str, dict] = {}
        self._seq = 0

    @staticmethod
    def _entry(name: str) -> dict:
        return {"name": name, "last_seen": time.monotonic(), "leased": 0,
                "completed": 0, "errors": 0, "busy_s": 0.0, "told_done": False}

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def register(self, name: str) -> str:
        with self._lock:
            self._seq += 1
            while f"w{self._seq}" in self._workers:  # an adopted id took it
                self._seq += 1
            worker_id = f"w{self._seq}"
            self._workers[worker_id] = self._entry(name)
        logger.info("worker %s (%s) registered", worker_id, name)
        telemetry.event("shard.worker.registered", worker=worker_id,
                        worker_name=name)
        return worker_id

    def touch(self, worker_id: str) -> None:
        """Record a sign of life from ``worker_id``; unknown ids are adopted or rejected."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                if not self.adopt_unknown:
                    raise ShardProtocolError(f"unknown worker id '{worker_id}'")
                info = self._workers[worker_id] = self._entry(f"reattached-{worker_id}")
            info["last_seen"] = time.monotonic()

    def tally(self, worker_id: str, **amounts: float) -> None:
        """Add to a worker's ``leased`` / ``completed`` / ``errors`` / ``busy_s``."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is not None:
                for key, amount in amounts.items():
                    info[key] += amount

    def tell_done(self, worker_id: str) -> bool:
        """Note that ``worker_id`` heard the grid is done; True the first time."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None or info["told_done"]:
                return False
            info["told_done"] = True
            return True

    def awaiting_done(self, horizon_s: float) -> bool:
        """Whether a worker seen within ``horizon_s`` has not heard ``done`` yet."""
        now = time.monotonic()
        with self._lock:
            return any(not info["told_done"] and now - info["last_seen"] < horizon_s
                       for info in self._workers.values())

    def stats(self) -> list[dict]:
        """Per-worker accounting for `/v1/metrics` and `shard status`."""
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "worker_id": worker_id,
                    "name": info["name"],
                    "leased": info["leased"],
                    "completed": info["completed"],
                    "errors": info["errors"],
                    "busy_s": round(info["busy_s"], 3),
                    "last_seen_s": round(max(now - info["last_seen"], 0.0), 3),
                }
                for worker_id, info in sorted(self._workers.items())
            ]


class _Cell:
    """Ledger state of one grid cell."""

    __slots__ = (
        "index", "task", "attempts", "spent_s", "ready_at", "lease_id",
        "worker_id", "lease_started", "expires_at", "deadline_at",
        "timeout_s", "issued_leases", "status", "cost",
    )

    def __init__(self, index: int, task: SweepTask, timeout_s: Optional[float], cost: float) -> None:
        self.index = index
        self.task = task
        self.cost = cost
        self.attempts = 0
        self.spent_s = 0.0
        self.ready_at = 0.0
        self.lease_id: Optional[str] = None
        self.worker_id: Optional[str] = None
        self.lease_started = 0.0
        self.expires_at = 0.0
        self.deadline_at: Optional[float] = None
        self.timeout_s = timeout_s
        self.issued_leases: set[str] = set()
        self.status = "pending"  # pending | leased | settled


def _affine(ready: Iterator[_Cell], key: Optional[tuple], held: set) -> Optional[_Cell]:
    """The cell a slot whose process last ran ``key`` leases from ``ready``
    (queue order), read only as far as :data:`AFFINITY_BAND` reaches."""
    first = unheld = None
    for cell in ready:
        if first is None:
            first = cell
        elif cell.cost < AFFINITY_BAND * first.cost:
            break
        if cell.task.prep_key == key:
            return cell
        if unheld is None and cell.task.prep_key not in held:
            unheld = cell
    return unheld or first


class LeaseBoard:
    """Thread-safe lease-based work queue over (part of) a sweep grid.

    The queue is primed with ``order``, and ``costs`` holds each cell's
    expected cost (all equal when absent).  Workers come from the shared
    :class:`WorkerRegistry`.  ``on_outcome`` / ``on_failure`` fire exactly
    once per cell, in the thread that settled it (the checkpoint writer
    behind them is thread-safe).  A board owned by a service job carries
    the job uid: it labels telemetry events and prefixes lease ids
    (``<job>:``) so heartbeats partition across boards.
    """

    def __init__(
        self,
        tasks: Mapping[int, SweepTask],
        order: list[int],
        *,
        workers: WorkerRegistry,
        retries: int = 1,
        backoff: Callable[[int], float] = lambda attempts: 0.0,
        timeouts: Optional[Mapping[int, Optional[float]]] = None,
        costs: Optional[Mapping[int, float]] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        on_outcome: Optional[Callable[[int, SweepOutcome], None]] = None,
        on_failure: Optional[Callable[[int, SweepFailure], None]] = None,
        job: Optional[str] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.lease_ttl_s = lease_ttl_s
        self.on_outcome = on_outcome
        self.on_failure = on_failure
        self.job = job
        self.lease_prefix = f"{job}:" if job is not None else "l"
        self._lock = threading.Lock()
        self._cells: dict[int, _Cell] = {
            index: _Cell(index, tasks[index],
                         (timeouts or {}).get(index), (costs or {}).get(index, 0.0))
            for index in order
        }
        self._by_uid: dict[str, int] = {
            cell.task.uid: index for index, cell in self._cells.items()
        }
        self._queue: list[int] = list(order)
        self._lease_seq = 0
        self.outcomes: dict[int, SweepOutcome] = {}
        self.failures: dict[int, SweepFailure] = {}
        # Lease-lifecycle counters, always on (they are a handful of integer
        # adds under the lock the handlers hold anyway): `/v1/metrics` and
        # `repro-codesign shard status` must work without --telemetry.
        self.metrics: dict[str, int] = dict.fromkeys(LEASE_COUNTERS, 0)

    # ---------------------------------------------------------------- helpers
    @property
    def done(self) -> bool:
        with self._lock:
            return not self._queue and all(
                cell.status == "settled" for cell in self._cells.values()
            )

    def counts(self) -> dict:
        with self._lock:
            status = {"pending": 0, "leased": 0, "settled": 0}
            for cell in self._cells.values():
                status[cell.status] += 1
            return {
                "cells": len(self._cells),
                "pending": status["pending"],
                "leased": status["leased"],
                "settled": status["settled"],
                "failed": len(self.failures),
                "done": status["settled"] == len(self._cells),
            }

    def next_deadline(self, now: float) -> Optional[float]:
        """Earliest monotonic time a lease falls due or a backed-off cell turns
        ready (``None`` when nothing is timed, as under an infinite TTL)."""
        with self._lock:
            times = [
                cell.expires_at if cell.deadline_at is None
                else min(cell.expires_at, cell.deadline_at)
                for cell in self._cells.values() if cell.status == "leased"
            ]
            times.extend(ready for ready in (self._cells[i].ready_at for i in self._queue)
                         if ready > now)
        return min((t for t in times if t < math.inf), default=None)

    # ----------------------------------------------------------- introspection
    def metrics_counts(self) -> dict:
        """Copy of the always-on lease-lifecycle counters."""
        with self._lock:
            return dict(self.metrics)

    def cell_states(self) -> list[dict]:
        """Per-cell progress (uid, status, attempts, worker) in grid order."""
        with self._lock:
            return [
                {
                    "uid": cell.task.uid,
                    "status": cell.status,
                    "attempts": cell.attempts,
                    "worker": cell.worker_id,
                    "failed": cell.index in self.failures,
                }
                for cell in sorted(self._cells.values(), key=lambda c: c.index)
            ]

    # --------------------------------------------------------------- protocol
    def lease(self, worker_id: str, slots: int,
              keys: Optional[Sequence[Optional[tuple]]] = None) -> list[_Cell]:
        """Lease up to ``slots`` ready cells to ``worker_id``, first ready first.

        ``keys`` (the local drain's, at ``workers >= 2``) holds one entry
        per slot: the :attr:`SweepTask.prep_key` its process last ran, or
        ``None`` for a slot with no process yet.  Among the ready cells in
        :data:`AFFINITY_BAND` of the first one's cost, each slot then takes
        a cell of its key, else one of a key no leased cell holds, else the
        first ready cell, so a process stays on the device it warmed.
        """
        self.workers.touch(worker_id)
        now = time.monotonic()
        self._expire_locked_leases(now)
        leased: list[_Cell] = []
        with self._lock:
            held = None if keys is None else {
                cell.task.prep_key for cell in self._cells.values() if cell.status == "leased"}
            while len(leased) < max(slots, 0):
                ready = (self._cells[index] for index in self._queue
                         if self._cells[index].ready_at <= now)
                cell = next(ready, None) if keys is None \
                    else _affine(ready, keys[len(leased)], held)
                if cell is None:
                    break
                self._queue.remove(cell.index)
                if held is not None:
                    held.add(cell.task.prep_key)
                self._lease_seq += 1
                cell.lease_id = f"{self.lease_prefix}{self._lease_seq}"
                cell.issued_leases.add(cell.lease_id)
                cell.worker_id = worker_id
                cell.attempts += 1
                cell.lease_started = now
                cell.expires_at = now + self.lease_ttl_s
                cell.deadline_at = (
                    now + cell.timeout_s if cell.timeout_s is not None else None
                )
                cell.status = "leased"
                self.metrics["granted"] += 1
                leased.append(cell)
        if leased:
            self.workers.tally(worker_id, leased=len(leased))
        # Telemetry events fire outside the lock: the sink fsyncs per record,
        # and handler threads must never block each other on disk.
        for cell in leased:
            telemetry.event(
                "shard.lease.granted", uid=cell.task.uid, worker=worker_id,
                lease=cell.lease_id, attempt=cell.attempts, **self._job_tag(),
            )
        return leased

    def heartbeat(self, worker_id: str, lease_ids: list[str]) -> list[str]:
        """Revoke overdue leases, extend the worker's live ones; return the ids it lost."""
        self.workers.touch(worker_id)
        now = time.monotonic()
        self._expire_locked_leases(now)
        lost: list[str] = []
        with self._lock:
            self.metrics["heartbeats"] += 1
            live = {
                cell.lease_id: cell
                for cell in self._cells.values()
                if cell.status == "leased" and cell.worker_id == worker_id
            }
            for lease_id in lease_ids:
                cell = live.get(lease_id)
                if cell is None:
                    lost.append(lease_id)
                else:
                    cell.expires_at = now + self.lease_ttl_s
        return lost

    def report(
        self,
        worker_id: str,
        lease_id: str,
        uid: str,
        *,
        outcome: Optional[SweepOutcome] = None,
        error: Optional[str] = None,
        kind: str = "error",
        duration_s: float = 0.0,
    ) -> tuple[bool, str]:
        """Settle (or requeue) one reported cell; returns ``(accepted, reason)``.

        A report without an ``outcome`` is a failed attempt of ``kind``.
        A successful report is matched by uid, not by live lease: a worker
        whose lease expired during a network hiccup may still deliver a
        valid result, and dropping it would waste the work.  A cell
        settled this way while sitting requeued is pulled back out of the
        queue, so it can never be leased — let alone settled — twice.

        *Failure* reports, by contrast, only count against the cell's
        **current** lease: once the expiry reaper requeued (or another
        worker re-leased) the cell, that attempt's failure has already
        been accounted for, and acting on the stale report again would
        double-requeue the cell or fail a cell another worker is busy
        completing.  Only reports whose lease id was never issued for the
        cell are rejected outright.
        """
        self.workers.touch(worker_id)
        settle_outcome: Optional[tuple[int, SweepOutcome]] = None
        settle_failure: Optional[tuple[int, SweepFailure]] = None
        events: list[tuple[str, dict]] = []
        duration = max(float(duration_s), 0.0)
        now = time.monotonic()
        with self._lock:
            index = self._by_uid.get(uid)
            if index is None:
                return (False, "unknown-cell")
            cell = self._cells[index]
            if lease_id not in cell.issued_leases:
                return (False, "unknown-lease")
            if cell.status == "settled":
                self.metrics["duplicates"] += 1
                return (False, "duplicate")
            cell.spent_s += duration
            if outcome is not None:
                outcome.attempts = cell.attempts
                if cell.status == "pending" and index in self._queue:
                    self._queue.remove(index)
                cell.status = "settled"
                cell.lease_id = None
                cell.worker_id = None
                self.outcomes[index] = outcome
                settle_outcome = (index, outcome)
                self.metrics["completed"] += 1
                tally = {"completed": 1, "busy_s": duration}
                events.append(("shard.cell.completed", {
                    "uid": uid, "worker": worker_id,
                    "duration_s": round(duration, 6), **self._job_tag(),
                }))
            else:
                if cell.status != "leased" or lease_id != cell.lease_id:
                    # The reaper already requeued this attempt (or another
                    # worker holds the cell now); the stale failure must
                    # not be charged a second time.
                    return (False, "stale-lease")
                tally = {"errors": 1}
                verdict = (kind, error or "worker reported an unspecified error")
                settled = self._requeue_or_fail(cell, verdict, now, events)
                if settled is not None:
                    settle_failure = (index, settled)
        self.workers.tally(worker_id, **tally)
        # Callbacks and telemetry events run outside the lock: they fsync.
        if settle_outcome is not None and self.on_outcome is not None:
            self.on_outcome(*settle_outcome)
        if settle_failure is not None and self.on_failure is not None:
            self.on_failure(*settle_failure)
        for name, attrs in events:
            telemetry.event(name, **attrs)
        return (True, "settled" if settle_outcome or settle_failure else "requeued")

    def expire_leases(self) -> int:
        """Requeue (or fail) every lease that is past its TTL or deadline."""
        return self._expire_locked_leases(time.monotonic())

    # --------------------------------------------------------------- internal
    def _job_tag(self) -> dict:
        """Job label merged into telemetry events (empty for one-shot grids)."""
        return {"job": self.job} if self.job is not None else {}

    def _requeue_or_fail(
        self, cell: _Cell, verdict: tuple[str, str], now: float,
        events: list[tuple[str, dict]],
    ) -> Optional[SweepFailure]:
        """Called with the lock held; returns the failure when it settles.
        A requeue adds its event to ``events``, fired after the lock."""
        cell.lease_id = None
        cell.worker_id = None
        if cell.attempts <= self.retries:
            logger.warning(
                "cell %s attempt %d failed (%s); requeueing",
                cell.task.name, cell.attempts, verdict[1],
            )
            cell.ready_at = now + self.backoff(cell.attempts)
            cell.status = "pending"
            self._queue.append(cell.index)
            self.metrics["requeued"] += 1
            events.append(("sweep.cell.retry", {
                "uid": cell.task.uid, "attempt": cell.attempts, "kind": verdict[0],
                **self._job_tag(),
            }))
            return None
        failure = SweepFailure(
            task=cell.task, kind=verdict[0], error=verdict[1],
            attempts=cell.attempts, duration_s=cell.spent_s,
        )
        cell.status = "settled"
        self.failures[cell.index] = failure
        self.metrics["failed"] += 1
        return failure

    def _expire_locked_leases(self, now: float) -> int:
        settled: list[tuple[int, SweepFailure]] = []
        events: list[tuple[str, dict]] = []
        expired = 0
        with self._lock:
            for cell in self._cells.values():
                if cell.status != "leased":
                    continue
                if cell.deadline_at is not None and now > cell.deadline_at:
                    cell.spent_s += now - cell.lease_started
                    verdict = (
                        "timeout",
                        f"exceeded the {cell.timeout_s:g}s per-cell timeout "
                        f"on worker {cell.worker_id}",
                    )
                    self.metrics["revoked"] += 1
                    events.append(("shard.lease.revoked", {
                        "uid": cell.task.uid, "worker": cell.worker_id,
                        "lease": cell.lease_id, **self._job_tag(),
                    }))
                elif now > cell.expires_at:
                    cell.spent_s += now - cell.lease_started
                    verdict = (
                        "crash",
                        f"worker {cell.worker_id} stopped heartbeating "
                        f"(lease expired after {self.lease_ttl_s:g}s)",
                    )
                    self.metrics["expired"] += 1
                    events.append(("shard.lease.expired", {
                        "uid": cell.task.uid, "worker": cell.worker_id,
                        "lease": cell.lease_id, **self._job_tag(),
                    }))
                else:
                    continue
                expired += 1
                failure = self._requeue_or_fail(cell, verdict, now, events)
                if failure is not None:
                    settled.append((cell.index, failure))
        for index, failure in settled:
            if self.on_failure is not None:
                self.on_failure(index, failure)
        for name, attrs in events:
            telemetry.event(name, **attrs)
        return expired
