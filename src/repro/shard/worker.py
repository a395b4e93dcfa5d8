"""Shard worker: pull leased cells from a coordinator and stream results back.

A worker is a thin loop around the *existing* single-cell execution path
(:func:`repro.sweep.runner.run_sweep_task`): register → lease → execute →
report, with a daemon heartbeat thread keeping the leases alive.  A report
asks for the worker's next cells too, so a busy worker makes one round trip
per settled cell; ``/v1/lease`` is only called for the first cell, for the
idle long poll, and by a pooled worker beside running cells when its
previous pass settled none.  Nothing about cell execution is
distributed-specific — the worker rebuilds the
:class:`~repro.sweep.runner.PreparedTarget` shipped by the coordinator
(bit-exact JSON round trip) and calls the same function the local sweep's
drain calls, so a cell's journal is byte-identical no matter which
machine ran it.

One lease loop serves every ``workers`` setting: it leases up to
``workers`` cells, launches each, and reports every cell as it settles.
Only the launch differs, by the local sweep's rule.  ``workers=1`` runs a
cell without a timeout in-process, so a serial worker leases one cell,
runs it and reports it before it leases again (easiest to debug and test;
a custom ``task_fn`` need not be picklable).  Every other cell runs on
:class:`~repro.sweep.runner.WorkerProcesses`, the local sweep's process
model: one shard worker per machine, up to ``workers`` long-lived
processes, each running many cells, an attempt going to the idle process
that last ran its prep key.  A cell whose process dies is
reported as an error and the process is replaced; the others keep
running.

Failure handling is deliberately asymmetric: the coordinator's board
owns all retry, requeue and timeout policy.  A worker reports raw errors
and keeps going; it never retries a cell on its own (that would skew the
board's bounded per-cell attempt accounting), and it kills the process of
a lease a heartbeat returns as lost; when a running cell's timeout lapses,
it sends that heartbeat at once.  A worker that loses its coordinator
exits non-zero after :data:`MAX_CONNECT_FAILURES` failed attempts in a
row — unless it already observed ``done=True``, which is the normal
shutdown path.

A worker may keep its own ``cache_dir`` for the persistent estimator
cache (per-machine, like any local sweep); journals do not depend on
cache warmth, so byte-identity across the fleet is unaffected.  Against a
coordinator with a cache hub, the worker pulls the hub once at
registration, and every report carries the records its cells appended
since the previous delivered report that the hub has not seen (at most
:data:`~repro.shard.protocol.MAX_REPORT_RECORDS`; the rest ride on later
reports, as a batch whose report failed does) — it parses only the newly
appended shard bytes, never the whole directory.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Optional

from repro.shard.protocol import (
    MAX_LEASE_WAIT_S,
    MAX_REPORT_RECORDS,
    PROTOCOL_VERSION,
    REQUEST_TIMEOUT_S,
    ShardProtocolError,
    connect_url,
    post_json,
)
import repro.telemetry as telemetry
from repro.sweep.disk_cache import CacheDirTail, CacheIndex
from repro.sweep.runner import (
    PreparedTarget,
    SweepOutcome,
    SweepTask,
    WorkerProcesses,
    execute_cell,
    run_sweep_task,
)
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Failed round trips in a row after which a worker gives its coordinator up.
MAX_CONNECT_FAILURES = 10

#: Seconds between those attempts.
RECONNECT_DELAY_S = 0.5


class ShardWorker:
    """One worker process in a distributed sweep fleet."""

    def __init__(
        self,
        connect: str,
        *,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        name: Optional[str] = None,
        task_fn: Callable[..., SweepOutcome] = run_sweep_task,
        token: Optional[str] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if idle_timeout_s is not None and idle_timeout_s < 0:
            raise ValueError("idle_timeout_s must be >= 0")
        self.connect = connect_url(connect)
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.task_fn = task_fn
        self.token = token or None
        # None keeps the one-shot contract (exit only on done); a number
        # makes an idle worker (no work in any job) exit 0 after that many
        # seconds without a lease — the multi-job default.
        self.idle_timeout_s = idle_timeout_s

        self.worker_id: Optional[str] = None
        self.heartbeat_s = 5.0
        self.executed = 0
        self.reported_errors = 0
        self._prepared: dict[str, PreparedTarget] = {}
        self._lease_lock = threading.Lock()
        self._active_leases: set[str] = set()
        # Leases a heartbeat returned as lost, for the lease loop to stop.
        self._lost_leases: set[str] = set()
        self._saw_done = threading.Event()
        self._stop = threading.Event()
        self._idle_since: Optional[float] = None
        self._cache_sync = False
        # Keys the coordinator holds: pulled, or delivered by a report.
        self._cache_delivered: set[tuple[str, str]] = set()
        # Read but not yet delivered (the next report carries them).
        self._cache_unsent: dict[tuple[str, str], dict] = {}
        self._cache_tail = CacheDirTail(self.cache_dir) if self.cache_dir is not None else None

    # ----------------------------------------------------------------- wire io
    def _post(self, path: str, payload: dict) -> dict:
        return post_json(self.connect, path, payload,
                         timeout_s=REQUEST_TIMEOUT_S, token=self.token)

    def _register(self) -> None:
        reply = self._post("/v1/register", {
            "name": self.name, "version": PROTOCOL_VERSION,
        })
        self.worker_id = str(reply["worker_id"])
        self.heartbeat_s = float(reply.get("heartbeat_s", self.heartbeat_s))
        logger.info("shard worker %s registered as %s at %s",
                    self.name, self.worker_id, self.connect)
        self._cache_sync = bool(reply.get("cache")) and self.cache_dir is not None
        if self._cache_sync:
            self._pull_cache()

    # --------------------------------------------------------------- cache sync
    def _pull_cache(self) -> None:
        """Warm-start: bulk-import the coordinator's estimator-cache records."""
        try:
            reply = self._post("/v1/cache/pull", {"worker_id": self.worker_id})
        except ShardProtocolError as exc:
            logger.warning("shard worker %s: cache pull failed: %s",
                           self.worker_id, exc)
            return
        records = [r for r in (reply.get("records") or []) if isinstance(r, dict)]
        for record in records:
            namespace, key = record.get("namespace"), record.get("key")
            if isinstance(namespace, str) and isinstance(key, str):
                # The coordinator already holds these; never send them back.
                self._cache_delivered.add((namespace, key))
        if not records:
            return
        # Through an index dropped after the merge: a cell's cache reads the
        # pulled shard as any other, in this process or a forked one.
        added = CacheIndex(self.cache_dir).merge(records, shard=f"pulled-{self.worker_id}")
        if added:
            logger.info("shard worker %s: warm-started %d cached estimate(s)",
                        self.worker_id, added)
            telemetry.event("shard.cache.pulled", records=added)

    def _unsent_records(self) -> list[dict]:
        """The next report's batch: records appended since the last delivery
        that the coordinator has not seen, at most :data:`MAX_REPORT_RECORDS`."""
        if not self._cache_sync:
            return []
        _restarted, appended = self._cache_tail.read()
        for record, _estimate in appended:
            slot = (record["namespace"], record["key"])
            if slot not in self._cache_delivered:
                self._cache_unsent[slot] = record
        batch = sorted(self._cache_unsent)[:MAX_REPORT_RECORDS]
        return [self._cache_unsent[slot] for slot in batch]

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            self._heartbeat()

    def _heartbeat(self) -> None:
        """Renew the held leases; note ``done`` and the leases revoked since."""
        with self._lease_lock:
            leases = sorted(self._active_leases)
        try:
            reply = self._post("/v1/heartbeat", {
                "worker_id": self.worker_id, "lease_ids": leases,
            })
        except ShardProtocolError:
            return  # transient; the main loop handles a dead coordinator
        if reply.get("done"):
            self._saw_done.set()
        lost = [str(lease_id) for lease_id in reply.get("lost") or []]
        if lost:
            logger.warning("shard worker %s: coordinator revoked lease(s) %s",
                           self.worker_id, ", ".join(lost))
            with self._lease_lock:
                self._active_leases.difference_update(lost)
                self._lost_leases.update(lost)

    def _lease_request(self, slots: int) -> dict:
        return {"slots": slots, "known_preps": sorted(self._prepared)}

    def _lease(self, slots: int, wait_s: float = 0.0) -> list[dict]:
        """The cells of one ``/v1/lease`` round trip."""
        payload = {"worker_id": self.worker_id, **self._lease_request(slots)}
        if wait_s > 0:
            payload["wait_s"] = wait_s
        return self._leased(self._post("/v1/lease", payload))

    def _leased(self, reply: dict) -> list[dict]:
        """A ``/v1/lease`` reply's cells, noting its preps and ``done``."""
        for key, wire in (reply.get("prepared") or {}).items():
            if key not in self._prepared:
                self._prepared[key] = PreparedTarget.from_wire(wire)
        if reply.get("done"):
            self._saw_done.set()
        return reply.get("cells") or []

    def _report(self, lease_id: str, uid: str, kind: str, value,
                duration_s: float, job: Optional[str] = None,
                slots: int = 0) -> dict:
        """Report one settled cell with the unsent cache records; with
        ``slots``, ask for that many next cells (the reply's ``lease``)."""
        payload = {
            "worker_id": self.worker_id,
            "lease_id": lease_id,
            "uid": uid,
            # Every failure kind travels as the wire's one failure status.
            "status": "ok" if kind == "ok" else "error",
            "duration_s": duration_s,
        }
        if job is not None:
            payload["job"] = job
        if kind == "ok":
            payload["outcome"] = value.as_dict()
        else:
            payload["error"] = str(value)
        records = self._unsent_records()
        if records:
            payload["cache_records"] = records
        if slots:
            payload["lease"] = self._lease_request(slots)
        reply = self._post("/v1/report", payload)
        if kind != "ok":
            self.reported_errors += 1
        for record in records:
            slot = (record["namespace"], record["key"])
            del self._cache_unsent[slot]
            self._cache_delivered.add(slot)
        if reply.get("done"):
            self._saw_done.set()
        if not reply.get("accepted"):
            logger.info("shard worker %s: report for %s dropped (%s)",
                        self.worker_id, uid, reply.get("reason"))
        with self._lease_lock:
            self._active_leases.discard(lease_id)
        return reply

    # ------------------------------------------------------------------- main
    def run(self) -> int:
        """Work until the coordinator reports the grid done.

        Returns a process exit code: 0 after a clean ``done`` shutdown,
        1 when the coordinator became unreachable mid-run.
        """
        failures = 0
        while True:
            try:
                self._register()
                break
            except ShardProtocolError as exc:
                failures += 1
                if failures >= MAX_CONNECT_FAILURES:
                    logger.error("shard worker %s: cannot reach coordinator: %s",
                                 self.name, exc)
                    return 1
                time.sleep(RECONNECT_DELAY_S)

        heartbeat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        heartbeat.start()
        pool = WorkerProcesses(self.task_fn)  # forks on demand
        try:
            return self._lease_loop(pool)
        finally:
            pool.close()
            self._stop.set()
            heartbeat.join(timeout=2.0)

    def _checked(self, call: Callable[[], dict]) -> Optional[dict]:
        """One coordinator round trip with bounded-failure accounting."""
        failures = 0
        while True:
            try:
                return call()
            except ShardProtocolError as exc:
                if self._saw_done.is_set():
                    return None  # grid finished; the socket is simply gone
                failures += 1
                if failures >= MAX_CONNECT_FAILURES:
                    logger.error("shard worker %s: lost the coordinator: %s",
                                 self.worker_id or self.name, exc)
                    raise
                time.sleep(RECONNECT_DELAY_S)

    def _idle_wait_s(self) -> float:
        """Start the idle clock; how long a lease with nothing in flight may park.

        The coordinator holds such a request until a cell is ready (long
        poll), so waiting for work costs no polling.  One-shot grids wait
        until the coordinator's ``done`` reply; against a persistent
        multi-job service, "no work in any job" is an ordinary steady state
        and the wait is bounded by the idle budget left.
        """
        now = time.monotonic()
        if self._idle_since is None:
            self._idle_since = now
        wait_s = min(MAX_LEASE_WAIT_S, REQUEST_TIMEOUT_S / 2)
        if self.idle_timeout_s is not None:
            wait_s = min(wait_s, self.idle_timeout_s - (now - self._idle_since))
        return max(wait_s, 0.0)

    def _idle_expired(self) -> bool:
        """True once the idle timeout elapsed without a lease (exit 0)."""
        if self.idle_timeout_s is None or self._idle_since is None:
            return False
        idle_s = time.monotonic() - self._idle_since
        if idle_s < self.idle_timeout_s:
            return False
        logger.info("shard worker %s: no work for %.1fs; exiting on idle timeout",
                    self.worker_id, idle_s)
        return True

    def _lease_loop(self, pool: WorkerProcesses) -> int:
        in_flight: dict[str, tuple] = {}  # lease_id -> (uid, job)
        lapses: dict[str, float] = {}  # lease_id -> when its cell's timeout lapses
        # The cells the last report's reply leased ([] when none was ready);
        # None when it asked for none.
        leased: Optional[list[dict]] = None
        try:
            # A worker that heard "done" leaves at once (once its cells
            # settle): the coordinator closes as soon as every live worker
            # heard it.
            while in_flight or not self._saw_done.is_set():
                settled = []  # (lease_id, kind, value, duration_s)
                free = self.workers - len(in_flight)
                if free > 0:
                    if leased is not None:
                        cells, leased = leased, None
                    else:
                        # Park only when idle: results of running cells
                        # must not wait behind a long poll.
                        wait_s = 0.0 if in_flight else self._idle_wait_s()
                        cells = self._checked(lambda: self._lease(free, wait_s))
                        if cells is None:
                            return 0
                    if cells:
                        self._idle_since = None
                    elif not in_flight:
                        if self._idle_expired():
                            return 0
                        continue
                    for cell in cells:
                        lease_id = str(cell["lease_id"])
                        with self._lease_lock:
                            self._active_leases.add(lease_id)
                        in_flight[lease_id] = (str(cell["uid"]), cell.get("job"))
                        task = SweepTask.from_dict(cell["task"])
                        prepared = self._prepared.get(cell.get("prep") or "")
                        timeout_s = cell.get("timeout_s")
                        # The local drain's rule: only a process can be
                        # stopped, so a cell with a timeout never runs inline.
                        if self.workers == 1 and timeout_s is None:
                            settled.append((lease_id, *execute_cell(
                                self.task_fn, task, self.cache_dir, prepared)))
                        else:
                            pool.submit(lease_id, task, self.cache_dir, prepared)
                            if timeout_s is not None:
                                lapses[lease_id] = time.monotonic() + float(timeout_s)
                if pool.busy:
                    # Bounded wait so freed slots keep leasing while slow cells
                    # run, and lost leases are stopped promptly.
                    settled.extend(pool.wait(timeout=0.5))
                for position, (lease_id, kind, value, duration) in enumerate(settled, 1):
                    uid, job = in_flight.pop(lease_id)
                    self.executed += 1
                    # The pass's last report asks for every free slot.
                    slots = self.workers - len(in_flight) if position == len(settled) else 0
                    reply = self._checked(
                        lambda lid=lease_id, u=uid, k=kind, v=value, d=duration, j=job,
                        n=slots: self._report(lid, u, k, v, d, j, n))
                    if reply is None:
                        return 0
                    lease = reply.get("lease")
                    if slots and isinstance(lease, dict):
                        leased = self._leased(lease)
                # The board revokes a lease when its cell's timeout lapses.
                # Ask at once, not at the next beat: if that settled the
                # grid, the coordinator closes before the beat would come.
                now = time.monotonic()
                lapsed = [lease_id for lease_id, at in lapses.items() if at <= now]
                for lease_id in lapsed:
                    del lapses[lease_id]
                if in_flight.keys() & lapsed:
                    self._heartbeat()
                # Stop what a heartbeat returned as lost, unreported: the
                # board charged those attempts (in-process cells have settled).
                with self._lease_lock:
                    lost, self._lost_leases = self._lost_leases, set()
                for lease_id in lost & in_flight.keys():
                    del in_flight[lease_id]
                    pool.kill(lease_id)
            return 0
        except ShardProtocolError:
            return 1
