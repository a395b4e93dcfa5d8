"""Job queue of the co-design service: admission, state, durable journal.

A **job** is one named sweep (grid spec + runner knobs, carried as a
:class:`repro.sweep.SweepSpec`) moving through the state machine::

    queued → preparing → running → done | failed | cancelled

Each job owns ``<root>/jobs/<uid>/``: the spec as ``job.json`` plus the
standard sweep sidecars (``_checkpoint.jsonl``, ``_timings.json``,
``_telemetry.jsonl``) in their PR 4/6 formats — ``repro-codesign sweep
--resume``, ``compare`` and ``telemetry report`` work on a job directory
exactly as on any local sweep's cache dir.

Every queue change is first one fsynced line in ``<root>/_service.jsonl``
(a durable :class:`~repro.utils.jsonl.JsonlLog`), then applied in memory; a
change the journal cannot record raises :class:`JournalError`.  Startup
replays the journal tolerating a torn tail.  A job that was
``preparing``/``running`` when the coordinator died is requeued and —
because the per-job checkpoint already holds its settled cells — resumes
instead of restarting, keeping the final journals byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json
import pathlib
import re
import threading
import time
from typing import Callable, Optional

from repro.shard.protocol import ShardProtocolError
from repro.sweep.checkpoint import CHECKPOINT_FILENAME, CheckpointCells
from repro.sweep.spec import SweepSpec
from repro.utils.jsonl import JsonlLog, parse_lines
from repro.utils.logging import get_logger
from repro.utils.serialization import dump_json

logger = get_logger(__name__)

__all__ = [
    "SERVICE_LOG_FILENAME", "SERVICE_LOG_VERSION", "JOB_SPEC_FILENAME",
    "JOBS_DIRNAME", "JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue",
    "JournalError", "load_service_log",
]

#: Queue journal; the underscore prefix keeps it out of cache-shard scans.
SERVICE_LOG_FILENAME = "_service.jsonl"
SERVICE_LOG_VERSION = 1

#: Per-job spec file inside the job directory.
JOB_SPEC_FILENAME = "job.json"

#: Directory under the service root holding one subdirectory per job.
JOBS_DIRNAME = "jobs"

JOB_STATES = ("queued", "preparing", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_UID_SEQ_RE = re.compile(r"^j(\d+)")


def _sanitize_name(name: str) -> str:
    """Job-name slug safe in a uid, a path and a lease-id prefix."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-")[:48]


class Job:
    """Runtime state of one submitted sweep job."""

    def __init__(
        self,
        uid: str,
        name: str,
        spec: SweepSpec,
        directory: pathlib.Path,
        created_ts: float,
        state: str = "queued",
    ) -> None:
        self.uid = uid
        self.name = name
        self.spec = spec
        self.directory = directory
        self.created_ts = created_ts
        self.state = state
        self.state_ts = created_ts
        self.error: Optional[str] = None
        #: Set to abandon the job: the transport detaches its board (no new
        #: leases, no requeue) and the driver records ``cancelled``.
        self.cancel = threading.Event()
        #: In-memory result while this process ran the job to completion;
        #: after a restart the checkpoint is the source of truth instead.
        self.result = None
        self.total_cells = len(spec.build_tasks())
        #: Which cells the job checkpoint settled, read incrementally by
        #: status polls (a settled job's checkpoint is decoded once).
        self.settled = CheckpointCells(directory / CHECKPOINT_FILENAME)
        #: ``(completed, failed)`` once this process's board for the job
        #: settled every cell.  ``None`` for a job run before a restart,
        #: cancelled with cells unsettled, or whose checkpoint append
        #: failed: those are counted from :attr:`settled` instead.
        self.board_counts: Optional[tuple[int, int]] = None
        #: True when this queue instance re-admitted the job after a crash.
        self.recovered = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_summary(self) -> dict:
        return {
            "job": self.uid,
            "name": self.name,
            "state": self.state,
            "cells": self.total_cells,
            "error": self.error,
            "created_ts": round(self.created_ts, 3),
            "state_ts": round(self.state_ts, 3),
            "recovered": self.recovered,
        }


def load_service_log(path) -> tuple[list[dict], int]:
    """Replay a ``_service.jsonl``; returns ``(records, corrupt_lines)``.

    A SIGKILL mid-append leaves at most one torn final line; any line that
    fails to parse (or is not a JSON object) is counted and skipped, never
    fatal — the journal idiom shared with ``_checkpoint.jsonl``.
    """
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError:  # missing (a fresh root) or unreadable
        return [], 0
    parsed = list(parse_lines(text.splitlines()))
    records = [record for record in parsed if record is not None and "kind" in record]
    return records, len(parsed) - len(records)


class JournalError(ShardProtocolError):
    """A queue change the ``_service.jsonl`` journal could not record (a full disk)."""

    status = 503  # the HTTP answer: the service refuses work it cannot journal


class JobQueue:
    """Persistent multi-job admission queue over a service root directory.

    Owns uid assignment (``j0001-<name>`` — monotonic, so the submit order
    is recoverable from the uids alone), the per-job directories and the
    durable state journal.  Thread-safe: HTTP handler threads submit and
    cancel while job driver threads transition states.
    """

    def __init__(self, root, *, clock: Callable[[], float] = time.time) -> None:
        self.root = pathlib.Path(root)
        self.jobs_dir = self.root / JOBS_DIRNAME
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.root / SERVICE_LOG_FILENAME
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        self.corrupt_lines = 0
        self._replay()
        self._log = JsonlLog(self.path, best_effort=False)
        if not self.path.exists():
            self._journal({"kind": "header", "version": SERVICE_LOG_VERSION})
        self._requeue_unfinished()

    def _journal(self, record: dict) -> None:
        """Append one record durably; a failed append raises :class:`JournalError`."""
        record = dict(record, ts=round(self._clock(), 3))
        try:
            self._log.write([json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"])
        except OSError as exc:
            raise JournalError(f"cannot journal to {self.path}: {exc}") from exc

    # ------------------------------------------------------------- admission
    def submit(self, spec: SweepSpec, name: Optional[str] = None) -> Job:
        """Admit one validated spec; returns the queued :class:`Job`.

        The job is listed only once its ``submitted`` record is journalled.
        """
        slug = _sanitize_name(name or "") if name else ""
        with self._lock:
            self._seq += 1
            uid = f"j{self._seq:04d}" + (f"-{slug}" if slug else "")
        directory = self.jobs_dir / uid
        directory.mkdir(parents=True, exist_ok=True)
        now = self._clock()
        job = Job(uid, name or uid, spec, directory, now)
        dump_json({"job": uid, "name": job.name, "spec": spec.as_dict()},
                  directory / JOB_SPEC_FILENAME)
        self._journal({
            "kind": "submitted", "job": uid, "name": job.name,
            "spec": spec.as_dict(),
        })
        with self._lock:
            self._jobs[uid] = job
        logger.info("service: job %s (%s) submitted — %d cell(s)",
                    uid, job.name, job.total_cells)
        return job

    def get(self, uid: str) -> Job:
        with self._lock:
            job = self._jobs.get(uid)
        if job is None:
            raise KeyError(uid)
        return job

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[uid] for uid in sorted(self._jobs)]

    # ----------------------------------------------------------- transitions
    def set_state(self, job: Job, state: str, *, error: Optional[str] = None) -> None:
        """Journal the transition durably, then apply it to ``job``."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state '{state}'")
        now = self._clock()
        record = {"kind": "state", "job": job.uid, "state": state}
        if error is not None:
            record["error"] = error
        self._journal(record)
        with self._lock:
            job.state = state
            job.state_ts = now
            job.error = error
        logger.info("service: job %s → %s%s", job.uid, state,
                    f" ({error})" if error else "")

    # --------------------------------------------------------------- replay
    def _replay(self) -> None:
        """Rebuild the queue from the journal (startup path, single-threaded)."""
        records, self.corrupt_lines = load_service_log(self.path)
        for record in records:
            kind = record.get("kind")
            if kind == "submitted":
                uid = record.get("job")
                if not isinstance(uid, str) or not uid:
                    continue
                match = _UID_SEQ_RE.match(uid)
                if match:
                    self._seq = max(self._seq, int(match.group(1)))
                ts = record.get("ts")
                created = float(ts) if isinstance(ts, (int, float)) else 0.0
                try:
                    spec = SweepSpec.from_payload(record.get("spec") or {})
                except ValueError as exc:
                    logger.warning("service: job %s has an unreadable spec "
                                   "after restart: %s", uid, exc)
                    # Admit it as failed so the uid stays visible (and the
                    # sequence monotonic) instead of silently vanishing.
                    job = Job(uid, str(record.get("name") or uid), SweepSpec(),
                              self.jobs_dir / uid, created, state="failed")
                    job.error = f"unreadable spec after restart: {exc}"
                    self._jobs[uid] = job
                    continue
                job = Job(uid, str(record.get("name") or uid), spec,
                          self.jobs_dir / uid, created)
                self._jobs[uid] = job
            elif kind == "state":
                job = self._jobs.get(record.get("job"))
                state = record.get("state")
                if job is None or state not in JOB_STATES:
                    continue
                job.state = state
                ts = record.get("ts")
                if isinstance(ts, (int, float)):
                    job.state_ts = float(ts)
                job.error = record.get("error") if isinstance(
                    record.get("error"), str) else None

    def _requeue_unfinished(self) -> None:
        """Re-admit jobs the previous process never finished (crash recovery).

        Runs during ``__init__``, so every known job came from the journal:
        any non-terminal one was abandoned by a dead coordinator.  Jobs
        caught mid-flight (``preparing``/``running``) go back to ``queued``;
        their checkpoints make the re-run a resume, not a restart.
        """
        for job in self.jobs():
            if job.terminal:
                continue
            job.recovered = True
            if job.state != "queued":
                logger.info("service: job %s was %s at shutdown; requeueing "
                            "(resumes from its checkpoint)", job.uid, job.state)
                self.set_state(job, "queued")
                self._journal({"kind": "recovered", "job": job.uid})
