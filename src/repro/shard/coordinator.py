"""The lease coordinator: one HTTP lease surface for one-shot grids and jobs.

The coordinator is the *only* writer of sweep state.  Every grid it
serves — the single grid of a one-shot ``shard coordinator`` run, or one
job of the persistent service (:mod:`repro.service`) — is a
:class:`LeaseBoard`: it hands cells out as bounded-lifetime **leases**,
collects streamed :class:`~repro.sweep.runner.SweepOutcome` /
``SweepFailure`` records, and settles each cell exactly once — the settle
callbacks append to the very same fsynced ``_checkpoint.jsonl`` the
single-machine sweep writes, so a distributed run is checkpointed,
resumable and comparable with the existing tooling, byte for byte.

:class:`LeaseCoordinator` is the one HTTP surface over the attached boards
and one :class:`WorkerRegistry`.  Workers register once and stay
job-agnostic: ``/v1/lease`` round-robins one cell per board per pass (a
wide job cannot starve a small one), ``/v1/report`` routes by the echoed
``job`` field (or by uid) and ``/v1/heartbeat`` by the lease-id prefix.
A one-shot coordinator answers ``done`` once its board settled and stays
up until every live worker heard so; the service subclass is persistent —
never done, and it re-adopts worker ids issued before a restart.

Nothing polls on a fixed tick.  Board changes, cancellation and shutdown
wake one condition variable: the lease reaper sleeps until the next lease
deadline or change, and a ``/v1/lease`` request carrying ``wait_s`` parks
until a cell is ready, the grid is done or the wait runs out.

Fault model
-----------
* **Dead worker** — heartbeats stop, the lease's ``expires_at`` passes,
  the cell is requeued (its attempt already counted).  Reassignment per
  cell is bounded by the runner's ``retries`` budget; a cell whose every
  assignment dies becomes a structured ``SweepFailure(kind="crash")``.
* **Stalled cell** — heartbeats keep arriving but the cell exceeds its
  effective per-cell timeout (the runner's cost-hint-scaled deadline); the
  lease is revoked and the cell requeued / failed as ``kind="timeout"``.
* **Duplicate completion** — a revoked lease's worker may still finish
  and report.  Settlement is keyed by task uid and **first record wins**;
  later reports are acknowledged but dropped, so reassignment can never
  double-settle a cell.  (Journals are deterministic per task, so any
  duplicate is byte-identical anyway — the dedup keeps the accounting
  single-valued.)
* **Retry pacing** — a requeued cell re-enters the queue after the
  runner's deterministic exponential backoff, exactly like the local
  attempt loop.

Ordering is the runner's longest-expected-first cost order: each board's
lease queue is primed with the cost-sorted indices, so remote fleets see
the same dispatch policy as local pools.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.shard.protocol import (
    AUTH_HEADER,
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_POLL_S,
    MAX_BODY_BYTES,
    MAX_LEASE_WAIT_S,
    PROTOCOL_VERSION,
    ShardProtocolError,
    check_lease_timing,
    outcome_from_wire,
    prepared_to_wire,
    require,
    task_to_wire,
    token_matches,
)
import repro.telemetry as telemetry
from repro.sweep.disk_cache import CacheHub, read_cache_records
from repro.sweep.runner import SweepFailure, SweepOutcome, SweepTask
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.runner import PreparedTarget, SweepRunner

logger = get_logger(__name__)

#: Lease-lifecycle counters each board keeps and the coordinator sums.
LEASE_COUNTERS = ("granted", "heartbeats", "completed", "failed", "requeued",
                  "expired", "revoked", "duplicates")

#: Added to timed waits so a wake-up lands strictly past the deadline it
#: was computed for (lease expiry compares with ``>``).
_WAKE_SLACK_S = 0.001


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
        logger.info("shard: worker %s (%s) registered", worker_id, name)
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
    """Coordinator-side state of one grid cell."""

    __slots__ = (
        "index", "task", "attempts", "spent_s", "ready_at", "lease_id",
        "worker_id", "lease_started", "expires_at", "deadline_at",
        "timeout_s", "issued_leases", "status",
    )

    def __init__(self, index: int, task: SweepTask, timeout_s: Optional[float]) -> None:
        self.index = index
        self.task = task
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


class LeaseBoard:
    """Thread-safe lease-based work queue over (part of) a sweep grid.

    Pure in-memory state machine, independent of HTTP: the coordinator's
    request handlers and the tests drive it directly.  Workers come from
    the coordinator's shared :class:`WorkerRegistry`.  ``on_outcome`` /
    ``on_failure`` fire exactly once per cell, in the thread that settled
    it (the checkpoint writer behind them is thread-safe).  A board owned
    by a service job carries the job uid: it labels telemetry events and
    prefixes lease ids (``<job>:``) so heartbeats partition across boards.
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
                         (timeouts or {}).get(index))
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
        """Earliest monotonic time a lease falls due or a backed-off cell turns ready."""
        with self._lock:
            times = [
                cell.expires_at if cell.deadline_at is None
                else min(cell.expires_at, cell.deadline_at)
                for cell in self._cells.values() if cell.status == "leased"
            ]
            times.extend(ready for ready in (self._cells[i].ready_at for i in self._queue)
                         if ready > now)
        return min(times, default=None)

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

    def has_cell(self, uid: str) -> bool:
        with self._lock:
            return uid in self._by_uid

    # --------------------------------------------------------------- protocol
    def lease(self, worker_id: str, slots: int) -> list[_Cell]:
        """Lease up to ``slots`` ready cells to ``worker_id``."""
        self.workers.touch(worker_id)
        now = time.monotonic()
        self._expire_locked_leases(now)
        leased: list[_Cell] = []
        with self._lock:
            while len(leased) < max(slots, 0):
                position = next(
                    (p for p, index in enumerate(self._queue)
                     if self._cells[index].ready_at <= now),
                    None,
                )
                if position is None:
                    break
                index = self._queue.pop(position)
                cell = self._cells[index]
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
        """Extend the worker's live leases; return the ids it has lost."""
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
        duration_s: float = 0.0,
    ) -> tuple[bool, str]:
        """Settle (or requeue) one reported cell; returns ``(accepted, reason)``.

        A successful report is matched by uid, not by live lease: a worker
        whose lease expired during a network hiccup may still deliver a
        valid result, and dropping it would waste the work.  A cell
        settled this way while sitting requeued is pulled back out of the
        queue, so it can never be leased — let alone settled — twice.

        *Error* reports, by contrast, only count against the cell's
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
                verdict = ("error", error or "worker reported an unspecified error")
                settled = self._requeue_or_fail(cell, verdict, now)
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
        self, cell: _Cell, verdict: tuple[str, str], now: float
    ) -> Optional[SweepFailure]:
        """Called with the lock held; returns the failure when it settles."""
        cell.lease_id = None
        cell.worker_id = None
        if cell.attempts <= self.retries:
            logger.warning(
                "shard: cell %s attempt %d failed (%s); requeueing",
                cell.task.name, cell.attempts, verdict[1],
            )
            cell.ready_at = now + self.backoff(cell.attempts)
            cell.status = "pending"
            self._queue.append(cell.index)
            self.metrics["requeued"] += 1
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
                failure = self._requeue_or_fail(cell, verdict, now)
                if failure is not None:
                    settled.append((cell.index, failure))
        for index, failure in settled:
            if self.on_failure is not None:
                self.on_failure(index, failure)
        for name, attrs in events:
            telemetry.event(name, **attrs)
        return expired


def parse_report(payload: Mapping) -> tuple[str, str, str, dict]:
    """Validate one ``/v1/report`` body into ``LeaseBoard.report`` arguments.

    Returns ``(worker_id, lease_id, uid, kwargs)`` where ``kwargs`` carries
    either a parsed ``outcome`` or an ``error`` string plus ``duration_s``.
    """
    worker_id = require(payload, "worker_id", str)
    lease_id = require(payload, "lease_id", str)
    uid = require(payload, "uid", str)
    status = require(payload, "status", str)
    duration_s = float(payload.get("duration_s", 0.0))
    if status == "ok":
        wire = require(payload, "outcome", dict)
        try:
            outcome = outcome_from_wire(wire)
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardProtocolError(f"malformed outcome payload: {exc}") from exc
        if outcome.task.uid != uid:
            raise ShardProtocolError(
                f"outcome uid '{outcome.task.uid}' does not match report uid '{uid}'"
            )
        return worker_id, lease_id, uid, {"outcome": outcome, "duration_s": duration_s}
    if status == "error":
        error = str(payload.get("error") or "unspecified worker error")
        return worker_id, lease_id, uid, {"error": error, "duration_s": duration_s}
    raise ShardProtocolError(f"unknown report status '{status}'")


class _BodyTooLarge(ShardProtocolError):
    """A request body above :data:`MAX_BODY_BYTES`, answered with 413."""

    status = 413


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """One HTTP request against a :class:`LeaseCoordinator`."""

    # Set by LeaseCoordinator when the server is built.
    coordinator: "LeaseCoordinator"

    server_version = "repro-shard"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("shard http: " + format, *args)

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot be reused.
            self.close_connection = True
            if length < 0:
                raise ShardProtocolError(f"invalid Content-Length {declared!r}")
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShardProtocolError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ShardProtocolError("request body must be a JSON object")
        return payload

    def _authorized(self) -> bool:
        """Shared-secret gate for mutating routes; replies 401 on failure."""
        if token_matches(self.coordinator.token, self.headers.get(AUTH_HEADER)):
            return True
        self._reply({"error": f"missing or invalid {AUTH_HEADER} header"},
                    status=401)
        return False

    # Route tables — subclasses (the service coordinator's handler) extend
    # these; a ``None`` return means "no such route" and yields a 404.
    def _handle_get(self, route: str) -> Optional[dict]:
        if route == "/v1/status":
            return self.coordinator.status()
        if route == "/v1/metrics":
            return self.coordinator.metrics()
        return None

    def _handle_post(self, route: str, payload: dict) -> Optional[dict]:
        if route == "/v1/register":
            return self.coordinator.handle_register(payload)
        if route == "/v1/lease":
            return self.coordinator.handle_lease(payload)
        if route == "/v1/report":
            return self.coordinator.handle_report(payload)
        if route == "/v1/heartbeat":
            return self.coordinator.handle_heartbeat(payload)
        if route == "/v1/cache/pull":
            return self.coordinator.handle_cache_pull(payload)
        if route == "/v1/cache/push":
            return self.coordinator.handle_cache_push(payload)
        return None

    def _handle_delete(self, route: str) -> Optional[dict]:
        return None

    def _dispatch(self, handler: Callable[[], Optional[dict]]) -> None:
        try:
            reply = handler()
            if reply is None:
                self._reply({"error": f"unknown endpoint {self.path}"}, status=404)
            else:
                self._reply(reply)
        except ShardProtocolError as exc:
            self._reply({"error": str(exc)}, status=getattr(exc, "status", 400))
        except Exception as exc:  # noqa: BLE001 - one bad request must not kill the server
            logger.exception("shard: unhandled error serving %s", self.path)
            # It may have settled a cell first (a failed checkpoint append): wake the waiters.
            self.coordinator.notify()
            self._reply({"error": f"{type(exc).__name__}: {exc}"}, status=500)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(lambda: self._handle_get(self.path.rstrip("/")))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            return
        self._dispatch(lambda: self._handle_post(self.path.rstrip("/"),
                                                 self._read_body()))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            return
        self._dispatch(lambda: self._handle_delete(self.path.rstrip("/")))


class LeaseCoordinator:
    """The HTTP lease surface over any number of boards and one worker registry.

    :meth:`attach` turns a :class:`~repro.sweep.runner.SweepRunner`'s
    pending cells into a board (keyed by its job uid, ``None`` for a
    one-shot grid) and :meth:`wait` blocks the board's owner until it
    settles.  The base class is one-shot: it answers ``done`` once every
    attached board settled.  A :attr:`persistent` subclass (the job
    service) is never done and re-adopts worker ids from a previous run.
    """

    #: Never ``done``; re-adopts worker ids issued before a restart.
    persistent = False
    handler_class: type = _CoordinatorHandler

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        *,
        token: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poll_s: float = DEFAULT_POLL_S,
        cache_dir=None,
    ) -> None:
        check_lease_timing(lease_ttl_s, heartbeat_s)
        self.token = token or None
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        #: Estimator-cache exchange hub: workers pull this directory's records
        #: in bulk after registering and push back what they compute.
        self.cache_dir = cache_dir
        self._cache_hub = CacheHub(cache_dir) if cache_dir is not None else None
        self.workers = WorkerRegistry(adopt_unknown=self.persistent)
        # Leaf lock over the board tables: no board method runs under it.
        self._lock = threading.Lock()
        self._boards: dict[Optional[str], LeaseBoard] = {}  # round-robin order
        self._prep_keys: dict[Optional[str], dict[int, Optional[str]]] = {}
        self._prepared_wire: dict[str, dict] = {}
        self._retired = dict.fromkeys(LEASE_COUNTERS, 0)
        # Every board change bumps the generation and wakes the waiters.
        self._changed = threading.Condition()
        self._generation = 0
        self._closing = False
        handler = type("BoundCoordinatorHandler", (self.handler_class,),
                       {"coordinator": self})
        self.server = ThreadingHTTPServer(bind, handler)
        self.server.daemon_threads = True
        self._server_thread: Optional[threading.Thread] = None

    # ---------------------------------------------------------------- address
    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Serve HTTP from a daemon thread; returns at once."""
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="lease-coordinator-http",
        )
        self._server_thread.start()

    def close(self, join_timeout_s: float = 5.0) -> None:
        """Stop serving: release parked requests and waiters, close the socket."""
        with self._changed:
            self._closing = True
            self._generation += 1
            self._changed.notify_all()
        if self._server_thread is not None:
            self.server.shutdown()
            self._server_thread.join(timeout=join_timeout_s)
        self.server.server_close()

    # ----------------------------------------------------------------- boards
    def attach(
        self,
        runner: "SweepRunner",
        order: list[int],
        preparations: Mapping[tuple, "PreparedTarget"],
        *,
        job: Optional[str] = None,
    ) -> LeaseBoard:
        """Serve ``runner``'s cost-ordered pending cells as one new board.

        Reassignment bounds, retry backoff and per-cell timeouts come from
        the runner, and settled cells stream into its checkpoint — remote
        attempts are retried, paced and timed out exactly like local ones.
        """
        board = LeaseBoard(
            {index: runner.tasks[index] for index in order},
            list(order),
            workers=self.workers,
            retries=runner.retries,
            backoff=runner._backoff_delay,
            timeouts={index: runner.effective_timeout_for(index) for index in order},
            lease_ttl_s=self.lease_ttl_s,
            on_outcome=lambda index, outcome: runner.settle_outcome(outcome),
            on_failure=lambda index, failure: runner.settle_failure(failure),
            job=job,
        )
        artifacts = {index: preparations.get(runner.tasks[index].prep_key)
                     for index in order}
        unique = {a.wire_key: a for a in artifacts.values() if a is not None}
        wire = {key: prepared_to_wire(a) for key, a in unique.items()
                if key not in self._prepared_wire}
        with self._lock:
            self._boards[job] = board
            self._prep_keys[job] = {
                index: a.wire_key if a is not None else None
                for index, a in artifacts.items()
            }
            for key, payload in wire.items():
                self._prepared_wire.setdefault(key, payload)
        self.notify()
        return board

    def detach(self, board: LeaseBoard) -> None:
        """Stop serving ``board``: no new leases; its reports and heartbeats drop."""
        counters = board.metrics_counts()
        with self._lock:
            if self._boards.get(board.job) is board:
                del self._boards[board.job]
                del self._prep_keys[board.job]
                for key, value in counters.items():
                    self._retired[key] += value
        self.notify()

    def board(self, job: Optional[str]) -> Optional[LeaseBoard]:
        with self._lock:
            return self._boards.get(job)

    def wait(self, board: LeaseBoard, stopped: Callable[[], bool] = lambda: False) -> None:
        """Block until ``board`` settles, ``stopped()`` or close.

        Expired leases are reaped exactly when they fall due; whoever makes
        ``stopped()`` true must call :meth:`notify` afterwards.
        """
        while True:
            seen = self._generation
            if board.expire_leases():
                self.notify()
            if board.done or stopped() or self._closing:
                return
            self._await_change(seen, [board])

    def linger(self, timeout_s: float) -> None:
        """Keep answering ``done`` until every live worker heard it (at most ``timeout_s``).

        A worker silent for longer than a lease TTL is presumed dead, as
        the boards presume it, and not waited for.
        """
        until = time.monotonic() + timeout_s
        while True:
            seen = self._generation
            if not self.workers.awaiting_done(self.lease_ttl_s) \
                    or self._closing or time.monotonic() >= until:
                return
            self._await_change(seen, [], until)

    def notify(self) -> None:
        """Wake everything waiting on a board change (reapers, parked leases, linger)."""
        with self._changed:
            self._generation += 1
            self._changed.notify_all()

    def _await_change(self, seen: int, boards: list[LeaseBoard],
                      until: Optional[float] = None,
                      since: Optional[float] = None) -> None:
        """Sleep until a change after generation ``seen``, the boards' next
        timed event after ``since`` (default: now), ``until`` or close —
        whichever comes first."""
        now = time.monotonic()
        after = now if since is None else since
        wake = [d for d in (board.next_deadline(after) for board in boards) if d is not None]
        if until is not None:
            wake.append(until)
        timeout = max(min(wake) - now, 0.0) + _WAKE_SLACK_S if wake else None
        with self._changed:
            if self._generation == seen and not self._closing:
                self._changed.wait(timeout)

    def _attached(self) -> list[LeaseBoard]:
        with self._lock:
            return list(self._boards.values())

    def _done(self) -> bool:
        """One-shot: every attached board settled.  Persistent: never."""
        if self.persistent:
            return False
        boards = self._attached()
        return bool(boards) and all(board.done for board in boards)

    def _reply_done(self, worker_id: str) -> bool:
        """The ``done`` flag of a reply to ``worker_id`` (noting who heard it)."""
        done = self._done()
        if done and self.workers.tell_done(worker_id):
            self.notify()
        return done

    # --------------------------------------------------------------- handlers
    def counts(self) -> dict:
        """Cell counts over the attached boards, plus fleet size and ``done``."""
        totals = dict.fromkeys(("cells", "pending", "leased", "settled", "failed"), 0)
        for board in self._attached():
            counts = board.counts()
            for key in totals:
                totals[key] += counts[key]
        totals["workers"] = len(self.workers)
        totals["done"] = self._done()
        return totals

    def status(self) -> dict:
        return {"version": PROTOCOL_VERSION, **self.counts()}

    def lease_metrics(self) -> dict:
        """Lease-lifecycle counters summed over live and detached boards."""
        with self._lock:
            totals = dict(self._retired)
            boards = list(self._boards.values())
        for board in boards:
            for key, value in board.metrics_counts().items():
                totals[key] += value
        return totals

    def metrics(self) -> dict:
        """`/v1/metrics`: counts, lease counters, per-worker stats, telemetry snapshot.

        The lease counters and worker stats are always on; the ``telemetry``
        key is ``None`` unless the coordinator process runs with telemetry
        enabled (``--telemetry`` / ``REPRO_TELEMETRY=1``).
        """
        snap = telemetry.snapshot()
        return {
            "version": PROTOCOL_VERSION,
            "counts": self.counts(),
            "lease_metrics": self.lease_metrics(),
            "workers": self.workers.stats(),
            "telemetry": snap.as_dict() if snap is not None else None,
        }

    def handle_register(self, payload: Mapping) -> dict:
        version = payload.get("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ShardProtocolError(
                f"worker speaks protocol v{version}, coordinator is v{PROTOCOL_VERSION}"
            )
        reply = {
            "worker_id": self.workers.register(str(payload.get("name") or "worker")),
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "poll_s": self.poll_s,
            "grid_size": sum(board.counts()["cells"] for board in self._attached()),
            "cache": self.cache_dir is not None,
        }
        if self.persistent:
            reply["service"] = True
        return reply

    def handle_lease(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        slots = max(int(payload.get("slots", 1)), 0)
        known = {str(key) for key in payload.get("known_preps", [])}
        wait_s = payload.get("wait_s", 0.0)
        if isinstance(wait_s, bool) or not isinstance(wait_s, (int, float)) \
                or not math.isfinite(wait_s):
            raise ShardProtocolError("message field 'wait_s' must be a finite number")
        until = time.monotonic() + min(max(float(wait_s), 0.0), MAX_LEASE_WAIT_S)
        self.workers.touch(worker_id)
        while True:
            seen, started = self._generation, time.monotonic()
            leased = self._lease_round(worker_id, slots)
            if leased or not slots or self._done() or self._closing \
                    or time.monotonic() >= until:
                break
            # Long poll: park until a board changes or a backoff ends,
            # counting one that ended while this round ran.
            self._await_change(seen, self._attached(), until, since=started)
        if leased:
            self.notify()  # the reapers' next lease deadline moved
        with self._lock:
            prep_keys = [self._prep_keys.get(board.job, {}).get(cell.index)
                         for board, cell in leased]
            prepared = {key: self._prepared_wire[key] for key in prep_keys
                        if key is not None and key not in known
                        and key in self._prepared_wire}
        return {
            "cells": [
                {
                    "lease_id": cell.lease_id,
                    "uid": cell.task.uid,
                    "task": task_to_wire(cell.task),
                    "prep": prep_key,
                    "timeout_s": cell.timeout_s,
                    "job": board.job,
                }
                for (board, cell), prep_key in zip(leased, prep_keys)
            ],
            "prepared": prepared,
            "done": self._reply_done(worker_id),
            "retry_after_s": self.poll_s,
        }

    def _lease_round(self, worker_id: str, slots: int) -> list[tuple[LeaseBoard, _Cell]]:
        """Lease up to ``slots`` cells, one per board per pass (fair interleave)."""
        with self._lock:
            boards = list(self._boards.values())
            if boards:
                # Rotate the round-robin start so successive lease calls
                # begin with a different board even at one cell per call.
                first = next(iter(self._boards))
                self._boards[first] = self._boards.pop(first)
        leased: list[tuple[LeaseBoard, _Cell]] = []
        progress = True
        while progress and len(leased) < slots:
            progress = False
            for board in boards:
                if len(leased) >= slots:
                    break
                for cell in board.lease(worker_id, 1):
                    leased.append((board, cell))
                    progress = True
        return leased

    def handle_report(self, payload: Mapping) -> dict:
        worker_id, lease_id, uid, kwargs = parse_report(payload)
        self.workers.touch(worker_id)
        job = payload.get("job")
        if isinstance(job, str) and job:
            board = self.board(job)
        else:
            # One-shot grids and job-oblivious workers route by uid.
            board = next((b for b in self._attached() if b.has_cell(uid)), None)
        if board is None:
            # Cancelled / settled / unknown job: acknowledge without acting,
            # exactly like a duplicate — requeue suppression on cancel.
            accepted, reason = False, "unknown-job"
        else:
            accepted, reason = board.report(worker_id, lease_id, uid, **kwargs)
            self.notify()
        return {"accepted": accepted, "reason": reason,
                "done": self._reply_done(worker_id)}

    def handle_heartbeat(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        lease_ids = [str(l) for l in payload.get("lease_ids", [])]
        self.workers.touch(worker_id)
        by_board: dict[LeaseBoard, list[str]] = {}
        lost: list[str] = []
        with self._lock:
            for lease_id in lease_ids:
                job, sep, _ = lease_id.rpartition(":")
                board = self._boards.get(job if sep else None)
                if board is None:
                    # The owning board is gone (job cancelled, settled, or
                    # the lease predates a restart): the lease is lost.
                    lost.append(lease_id)
                else:
                    by_board.setdefault(board, []).append(lease_id)
        # No wake-up needed: extended leases fall due later than the
        # deadlines the waiters already sleep towards.
        for board, ids in by_board.items():
            lost.extend(board.heartbeat(worker_id, ids))
        return {"ok": True, "lost": lost, "done": self._reply_done(worker_id)}

    # ------------------------------------------------------------ cache sync
    def handle_cache_pull(self, payload: Mapping) -> dict:
        """Bulk ``DiskEvaluationCache`` export so fresh workers warm-start."""
        require(payload, "worker_id", str)
        if self.cache_dir is None:
            return {"records": [], "count": 0, "enabled": False}
        namespaces = payload.get("namespaces")
        if namespaces is not None and not isinstance(namespaces, list):
            raise ShardProtocolError("'namespaces' must be a list when present")
        records = read_cache_records(self.cache_dir, namespaces=namespaces)
        return {"records": records, "count": len(records), "enabled": True}

    def handle_cache_push(self, payload: Mapping) -> dict:
        """Merge worker-computed estimates into the coordinator's cache.

        The hub dedups against its key index under its own lock, so a push
        costs O(records pushed plus bytes appended since the last push) and
        concurrent pushes of one record accept it once.
        """
        require(payload, "worker_id", str)
        records = require(payload, "records", list)
        if self._cache_hub is None:
            return {"accepted": 0, "enabled": False}
        accepted = self._cache_hub.merge(records)
        if accepted:
            telemetry.event("shard.cache.pushed", records=accepted)
        return {"accepted": accepted, "enabled": True}
