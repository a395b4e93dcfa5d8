"""The lease coordinator: one HTTP lease surface for one-shot grids and jobs.

The coordinator is the *only* writer of sweep state.  Every grid it
serves — the single grid of a one-shot ``shard coordinator`` run, or one
job of the persistent service (:mod:`repro.service`) — is the runner's
own attempt ledger, a :class:`~repro.sweep.ledger.LeaseBoard` (see there
for the fault model): it leases cells to remote workers, collects
streamed :class:`~repro.sweep.runner.SweepOutcome` / ``SweepFailure``
records, and settles each cell exactly once into the very same fsynced
``_checkpoint.jsonl`` the single-machine sweep writes, so a distributed
run is checkpointed, resumable and comparable with the existing tooling,
byte for byte.

:class:`LeaseCoordinator` is the one HTTP surface over the attached boards
and one :class:`~repro.sweep.ledger.WorkerRegistry`.  Workers register
once and stay job-agnostic: ``/v1/lease`` round-robins one cell per board
per pass (a wide job cannot starve a small one), ``/v1/report`` routes by
the echoed ``job`` field (null for a one-shot grid) and ``/v1/heartbeat``
by the lease-id prefix.  A report may also carry the worker's new
estimator-cache records and ask for its next cells: one round trip per
settled cell.  A one-shot coordinator is a
:class:`~repro.sweep.runner.SweepRunner`'s transport: :meth:`execute`
answers ``done`` once the run's board settled, stays up until every live
worker heard so (at most :data:`LINGER_S`) and closes.  The service
subclass is persistent — done only once it closes, and it re-adopts
worker ids issued before a restart.

Nothing polls on a fixed tick.  Board changes, cancellation and shutdown
wake one condition variable: the lease reaper sleeps until the next lease
deadline or change, and a ``/v1/lease`` request carrying ``wait_s`` parks
until a cell is ready, the grid is done, the wait runs out or the
coordinator closes (a closing service answers it ``done``).  Each
board's queue is primed in the runner's longest-expected-first cost
order, so remote fleets see the same dispatch policy as local pools.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.shard.protocol import (
    AUTH_HEADER,
    DEFAULT_HEARTBEAT_S,
    MAX_BODY_BYTES,
    MAX_LEASE_WAIT_S,
    PROTOCOL_VERSION,
    REQUEST_TIMEOUT_S,
    ShardProtocolError,
    check_lease_timing,
    number_field,
    require,
    string_list_field,
    token_matches,
)
import repro.telemetry as telemetry
from repro.sweep.disk_cache import CacheIndex, read_cache_records
from repro.sweep.ledger import (DEFAULT_LEASE_TTL_S, LEASE_COUNTERS, WAKE_SLACK_S,
                                LeaseBoard, WorkerRegistry, _Cell)
from repro.sweep.runner import SweepOutcome
from repro.utils.logging import get_logger
from repro.utils.serialization import to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.runner import PreparedTarget, SweepRunner

logger = get_logger(__name__)

#: Longest a one-shot coordinator keeps answering ``done`` after its grid
#: settled, for live workers to hear it.  Shorter than the default 5 s
#: heartbeat period: a worker asks about a lapsed cell at once, not at a beat.
LINGER_S = 2.0

#: Longest :meth:`LeaseCoordinator.close` waits for the HTTP thread to stop.
JOIN_TIMEOUT_S = 5.0


def parse_report(payload: Mapping) -> tuple[str, str, str, dict]:
    """Validate one ``/v1/report`` body into ``LeaseBoard.report`` arguments.

    Returns ``(worker_id, lease_id, uid, kwargs)`` where ``kwargs`` carries
    either a parsed ``outcome`` or an ``error`` string plus ``duration_s``.
    """
    worker_id = require(payload, "worker_id", str)
    lease_id = require(payload, "lease_id", str)
    uid = require(payload, "uid", str)
    status = require(payload, "status", str)
    duration_s = number_field(payload, "duration_s", 0.0)
    if status == "ok":
        wire = require(payload, "outcome", dict)
        try:
            outcome = SweepOutcome.from_dict(wire)
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


def parse_lease_request(payload: Mapping) -> tuple[int, set[str]]:
    """``(slots, known_preps)`` of a ``/v1/lease`` body or a report's ``lease`` field."""
    slots = max(int(number_field(payload, "slots", 1)), 0)
    return slots, set(string_list_field(payload, "known_preps") or ())


class _BodyTooLarge(ShardProtocolError):
    """A request body above :data:`MAX_BODY_BYTES`, answered with 413."""

    status = 413


class _BodyIncomplete(ShardProtocolError):
    """A request body that stalled or ended before its ``Content-Length``: 408."""

    status = 408


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """One HTTP request against a :class:`LeaseCoordinator`."""

    # Set by LeaseCoordinator when the server is built.
    coordinator: "LeaseCoordinator"

    server_version = "repro-shard"
    protocol_version = "HTTP/1.1"
    #: Seconds any one socket read or write may block (the workers' request
    #: timeout), so a stalled client cannot hold its thread forever.
    timeout = REQUEST_TIMEOUT_S

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
        try:
            raw = self.rfile.read(length) if length else b"{}"
            problem = f"ended after {len(raw)} of {length} bytes" if len(raw) < length else ""
        except OSError as exc:  # a TimeoutError past `timeout`, or a reset
            problem = f"read failed: {exc}"
        if problem:
            # The client's fault: it stalled or hung up mid-body.
            self.close_connection = True
            logger.debug("shard http: %s request body %s", self.path, problem)
            raise _BodyIncomplete(f"request body {problem}")
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
            try:
                self._reply({"error": str(exc)}, status=getattr(exc, "status", 400))
            except OSError:  # a client that sent half a body may have hung up
                self.close_connection = True
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


class _LeaseHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Listen backlog.  socketserver's 5 makes a burst of workers connecting
    #: at once (each request opens a connection) wait out SYN retransmits.
    request_queue_size = 128


class LeaseCoordinator:
    """The HTTP lease surface over any number of boards and one worker registry.

    :meth:`attach` turns a :class:`~repro.sweep.runner.SweepRunner`'s
    pending cells into a board (keyed by its job uid, ``None`` for a
    one-shot grid) and :meth:`wait` blocks the board's owner until it
    settles.  The base class is one-shot: it answers ``done`` once every
    attached board settled, and a started one is a runner's ``transport``
    (:meth:`execute`), so workers may register before the run begins.  A
    :attr:`persistent` subclass (the job service) is done only once it
    closes and re-adopts worker ids from a previous run.
    """

    #: ``done`` only once closing; re-adopts worker ids issued before a restart.
    persistent = False
    handler_class: type = _CoordinatorHandler

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        *,
        token: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        cache_dir=None,
    ) -> None:
        check_lease_timing(lease_ttl_s, heartbeat_s)
        self.token = token or None
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = heartbeat_s
        #: Estimator-cache exchange hub: workers pull this directory's records
        #: in bulk after registering, and their reports carry what they compute.
        self.cache_dir = cache_dir
        self._cache_hub = CacheIndex(cache_dir) if cache_dir is not None else None
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
        self.server = _LeaseHTTPServer(bind, handler)
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

    def close(self) -> None:
        """Stop serving: release parked requests and waiters, close the socket."""
        with self._changed:
            self._closing = True
            self._generation += 1
            self._changed.notify_all()
        if self._server_thread is not None:
            self.server.shutdown()
            self._server_thread.join(timeout=JOIN_TIMEOUT_S)
        self.server.server_close()

    def execute(self, runner: "SweepRunner", order: list[int],
                preparations: Mapping[tuple, "PreparedTarget"]):
        """Serve ``runner``'s pending cells to the workers, then close.

        The :class:`~repro.sweep.runner.SweepRunner` transport: attach the
        cells as the one board, wait until they settle, keep answering
        ``done`` until every live worker heard it (at most :data:`LINGER_S`)
        and close.  Returns ``(outcomes_by_index, failures_by_index)``.
        """
        try:
            board = self.attach(runner, order, preparations)
            logger.info("shard: coordinator serving %d cell(s) on %s", len(order), self.url)
            # A failed checkpoint append stops the grid: run() raises it.
            self.wait(board, stopped=lambda: runner._write_error is not None)
            if board.done:
                self.linger(LINGER_S)
            return dict(board.outcomes), dict(board.failures)
        finally:
            self.close()

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

        The board is :meth:`SweepRunner.board`, the one a local sweep
        drains: remote attempts are retried, paced, timed out and
        checkpointed exactly like local ones.
        """
        board = runner.board(order, workers=self.workers,
                             lease_ttl_s=self.lease_ttl_s, job=job)
        artifacts = {index: preparations.get(runner.tasks[index].prep_key)
                     for index in order}
        unique = {a.wire_key: a for a in artifacts.values() if a is not None}
        wire = {key: a.to_wire() for key, a in unique.items()
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
        timeout = max(min(wake) - now, 0.0) + WAKE_SLACK_S if wake else None
        with self._changed:
            if self._generation == seen and not self._closing:
                self._changed.wait(timeout)

    def _attached(self) -> list[LeaseBoard]:
        with self._lock:
            return list(self._boards.values())

    def _done(self) -> bool:
        """One-shot: every attached board settled.  Persistent: once closing,
        so a stopping service releases the workers it answers."""
        if self.persistent:
            return self._closing
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
        return {
            "worker_id": self.workers.register(str(payload.get("name") or "worker")),
            "heartbeat_s": self.heartbeat_s,
            "cache": self.cache_dir is not None,
        }

    def handle_lease(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        slots, known = parse_lease_request(payload)
        wait_s = number_field(payload, "wait_s", 0.0)
        until = time.monotonic() + min(max(wait_s, 0.0), MAX_LEASE_WAIT_S)
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
        return self._lease_reply(worker_id, leased, known)

    def _lease_reply(self, worker_id: str, leased: list[tuple[LeaseBoard, _Cell]],
                     known: set[str]) -> dict:
        """The ``/v1/lease`` reply for ``leased``, shipping the preps not ``known``."""
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
                    "task": to_jsonable(cell.task),
                    "prep": prep_key,
                    "timeout_s": cell.timeout_s,
                    "job": board.job,
                }
                for (board, cell), prep_key in zip(leased, prep_keys)
            ],
            "prepared": prepared,
            "done": self._reply_done(worker_id),
        }

    def _lease_round(self, worker_id: str, slots: int) -> list[tuple[LeaseBoard, _Cell]]:
        """Lease up to ``slots`` cells, one per board per pass (fair interleave).

        Nothing once closing: the coordinator would never hear their reports.
        """
        if self._closing:
            return []
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
        """Settle one reported cell; merge the records and lease the cells it carries.

        ``job`` names the board: null (or absent) is the one-shot grid's.
        The optional ``cache_records`` are the worker's new estimator-cache
        records, and the optional ``lease`` (``slots``, ``known_preps``) asks
        for the worker's next cells: the reply's ``lease`` is then a
        ``/v1/lease`` reply, leased after the report settled and never
        parked.  Every field is checked before anything happens, so a 4xx
        settles, merges and leases nothing; a merge that fails is logged,
        and the report still settles.
        """
        worker_id, lease_id, uid, kwargs = parse_report(payload)
        job = payload.get("job")
        if job is not None and not isinstance(job, str):
            raise ShardProtocolError("message field 'job' must be a string or null")
        lease = payload.get("lease")
        if lease is not None and not isinstance(lease, dict):
            raise ShardProtocolError("message field 'lease' must be an object")
        request = parse_lease_request(lease) if lease is not None else None
        records = payload.get("cache_records")
        if records is not None and not isinstance(records, list):
            raise ShardProtocolError("message field 'cache_records' must be a list")
        self.workers.touch(worker_id)
        if records:
            try:
                self._merge_cache(records)
            except Exception:  # noqa: BLE001 - the cache is an optimisation: settle regardless
                logger.exception("shard: dropped %d cache record(s) reported by %s",
                                 len(records), worker_id)
        board = self.board(job)
        if board is None:
            # Cancelled / settled / unknown job: acknowledge without acting,
            # exactly like a duplicate — requeue suppression on cancel.
            accepted, reason = False, "unknown-job"
        else:
            accepted, reason = board.report(worker_id, lease_id, uid, **kwargs)
            self.notify()
        reply = {"accepted": accepted, "reason": reason}
        if request is not None:
            slots, known = request
            reply["lease"] = self._lease_reply(
                worker_id, self._lease_round(worker_id, slots), known)
        reply["done"] = self._reply_done(worker_id)
        return reply

    def handle_heartbeat(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        lease_ids = string_list_field(payload, "lease_ids") or []
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
        records = read_cache_records(self.cache_dir)
        return {"records": records, "count": len(records), "enabled": True}

    def _merge_cache(self, records: list) -> None:
        """Merge a report's wire records into the hub (dropped without one).

        The hub owns its :class:`CacheIndex` (a worker in this process
        reads another), which dedups under its lock, so concurrent merges
        of one record accept it once.
        """
        if self._cache_hub is None:
            return
        accepted = self._cache_hub.merge(records)
        if accepted:
            telemetry.event("shard.cache.pushed", records=accepted)
