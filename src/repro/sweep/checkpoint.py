"""Incremental sweep checkpoint: the one on-disk record of a settled cell.

A sweep with a ``--cache-dir`` keeps ``_checkpoint.jsonl`` next to the
evaluation-cache shards: one JSON line per *settled* grid cell, appended
by the parent the moment the cell's
:class:`~repro.sweep.runner.SweepOutcome` or
:class:`~repro.sweep.runner.SweepFailure` is final, as one fsynced line of
a durable :class:`~repro.utils.jsonl.JsonlLog`.  A sweep killed at any
point (OOM, preemption, ^C) leaves every cell that finished before the
kill, possibly followed by one torn line, which the loader skips, and a
failed append (a full disk) raises.  ``SweepRunner(resume_from=...)``
replays the recorded outcomes verbatim and re-runs only the failed and
missing cells; each failure line's ``duration_s`` per attempt is the cost
hint that orders and times out the cell's re-run.

Records are keyed by the task *uid* — the fully qualified cell identity
including the search budget and seed — never by the shorter display name,
so cells differing only in ``iterations`` or ``seed`` can never alias
each other's records.

Records are reconstructed through ``SweepOutcome.from_dict`` /
``SweepFailure.from_dict``; any line that fails to parse or rebuild is
counted as corrupt and skipped (and dropped by compaction), never
trusted.  When one uid appears several times — a resumed sweep appends a
fresh record for a re-run cell — the newest line wins, and an outcome
and a failure for the same uid supersede each other in file order.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.sweep.runner import SweepFailure, SweepOutcome
from repro.utils.jsonl import JsonlLog, JsonlTail, parse_lines
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Name of the per-cache-dir incremental checkpoint (JSON lines).
CHECKPOINT_FILENAME = "_checkpoint.jsonl"

#: Checkpoint line format version (bumped on incompatible changes).
CHECKPOINT_VERSION = 1

_PathLike = Union[str, pathlib.Path]


def _iter_checkpoint_lines(path: pathlib.Path):
    """``(kind, uid, record)`` per line of the checkpoint at ``path``.

    Reads the whole file at once; raises ``OSError`` when it cannot be
    read — each caller decides what that means.
    """
    return _parse_checkpoint_lines(path.read_text(encoding="utf-8").splitlines())


def _parse_checkpoint_lines(lines):
    """Yield ``(kind, uid, record)`` per checkpoint line.

    Shared line-level parsing for the loader, the incremental
    :class:`CheckpointCells` view and the compactor:
    JSON-decode, shape-check and kind/uid-validate every line, yielding
    ``("corrupt", None, None)`` for anything malformed and
    ``("header", None, record)`` for header lines.
    """
    for record in parse_lines(lines):
        if record is None:
            yield "corrupt", None, None
            continue
        kind = record.get("kind")
        if kind == "header":
            yield "header", None, record
            continue
        uid = record.get("uid")
        if kind not in ("outcome", "failure") or not isinstance(uid, str):
            yield "corrupt", None, None
            continue
        yield kind, uid, record


def _rebuild(kind: str, uid: str, record: dict) -> Optional[Union[SweepOutcome, SweepFailure]]:
    """The ``outcome`` / ``failure`` payload of a record, rebuilt; ``None``
    when it does not rebuild, or rebuilds as another cell than ``uid``."""
    payload = record.get(kind)
    if not isinstance(payload, dict):
        return None
    try:
        rebuilt = (SweepOutcome if kind == "outcome" else SweepFailure).from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    return rebuilt if rebuilt.task.uid == uid else None


# -------------------------------------------------------------- checkpointing
@dataclass
class CheckpointStatus:
    """Parsed view of one ``_checkpoint.jsonl`` file."""

    path: str
    grid: list[str] = field(default_factory=list)
    outcomes: dict[str, SweepOutcome] = field(default_factory=dict)
    failures: dict[str, SweepFailure] = field(default_factory=dict)
    records: int = 0
    corrupt_lines: int = 0

    @property
    def settled(self) -> int:
        """Number of cells with a current (newest-wins) record."""
        return len(self.outcomes) + len(self.failures)

    def summary(self) -> str:
        line = (
            f"checkpoint {self.path}: {len(self.outcomes)} completed, "
            f"{len(self.failures)} failed"
        )
        if self.corrupt_lines:
            line += f", {self.corrupt_lines} corrupt line(s)"
        return line


def load_checkpoint(path: _PathLike) -> CheckpointStatus:
    """Parse a checkpoint file; torn/garbage lines are counted and skipped.

    The newest record per task uid wins; an outcome supersedes an earlier
    failure of the same cell and vice versa (a resumed sweep appends the
    re-run's result after the original failure record).
    """
    path = pathlib.Path(path)
    status = CheckpointStatus(path=str(path))
    if not path.exists():
        return status
    try:
        parsed = list(_iter_checkpoint_lines(path))
    except OSError:  # pragma: no cover - unreadable checkpoint
        logger.warning("checkpoint %s is unreadable; treating it as empty", path)
        return status
    for kind, uid, record in parsed:
        if kind == "corrupt":
            status.corrupt_lines += 1
        elif kind == "header":
            version = record.get("version")
            if isinstance(version, int) and version > CHECKPOINT_VERSION:
                logger.warning(
                    "checkpoint %s was written by a newer format "
                    "(version %d, this build reads %d); records may be misread",
                    path, version, CHECKPOINT_VERSION,
                )
            grid = record.get("grid")
            if isinstance(grid, list):
                status.grid = [str(u) for u in grid]
        else:
            rebuilt = _rebuild(kind, uid, record)
            if rebuilt is None:
                status.corrupt_lines += 1
                continue
            if kind == "outcome":
                status.outcomes[uid] = rebuilt
                status.failures.pop(uid, None)
            else:
                status.failures[uid] = rebuilt
                status.outcomes.pop(uid, None)
            status.records += 1
    if status.corrupt_lines:
        logger.warning(
            "checkpoint %s: skipped %d corrupt line(s); "
            "run 'repro-codesign cache gc' to repair it",
            path, status.corrupt_lines,
        )
    return status


class CheckpointCells:
    """Newest-wins view of the cells a growing checkpoint settled, read incrementally.

    Every query first folds in the complete lines appended since the
    previous one, so polling a settled job's checkpoint decodes nothing,
    and a torn final line counts once it is completed.  A checkpoint that
    vanished, shrank or was replaced (``cache gc``) is folded again from its
    start.  Each record is rebuilt as :func:`load_checkpoint` rebuilds it,
    so the two count the same lines as outcomes, failures and corrupt; the
    view keeps only each cell's kind and the failure records, never an
    outcome's journal.  Thread-safe.
    """

    def __init__(self, path: _PathLike) -> None:
        self._tail = JsonlTail(path)
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        self._failures: dict[str, SweepFailure] = {}
        self._corrupt = 0

    def _refresh(self) -> None:
        restarted, lines = self._tail.read()
        if restarted:
            self._kinds.clear()
            self._failures.clear()
            self._corrupt = 0
        for kind, uid, record in _parse_checkpoint_lines(lines):
            if kind == "header":
                continue
            rebuilt = None if kind == "corrupt" else _rebuild(kind, uid, record)
            if rebuilt is None:
                self._corrupt += 1
                continue
            self._kinds[uid] = kind
            if kind == "failure":
                self._failures[uid] = rebuilt
            else:
                self._failures.pop(uid, None)

    def counts(self) -> tuple[int, int]:
        """``(outcomes, failures)``, as :func:`load_checkpoint` counts them."""
        with self._lock:
            self._refresh()
            outcomes = sum(1 for kind in self._kinds.values() if kind == "outcome")
            return outcomes, len(self._kinds) - outcomes

    def cells(self) -> dict[str, str]:
        """``{uid: "outcome" | "failure"}`` for every cell with a current record."""
        with self._lock:
            self._refresh()
            return dict(self._kinds)

    def failures(self) -> list[SweepFailure]:
        """The current failure records in uid order, as :func:`load_checkpoint` has them."""
        with self._lock:
            self._refresh()
            return [self._failures[uid] for uid in sorted(self._failures)]

    def corrupt_lines(self) -> int:
        """Lines that do not rebuild, a torn final line included, as
        :func:`load_checkpoint` counts them."""
        with self._lock:
            self._refresh()
            return self._corrupt + int(self._tail.torn)


class CheckpointWriter:
    """Append settled-cell records to a checkpoint, one atomic line each.

    ``fresh=True`` (a sweep that is *not* resuming) truncates any previous
    checkpoint and writes a header carrying the grid's task uids, so a
    later ``--resume`` can report a grid mismatch.  ``fresh=False`` keeps
    the existing file, appends a new header describing the *current* grid
    (the newest header wins on load, so the file never misdescribes what
    a further resume would run), and then appends records — a resumed
    sweep that dies can itself be resumed.

    Every record is one fsynced line appended through a durable
    :class:`~repro.utils.jsonl.JsonlLog`: a parent killed mid-sweep loses at
    most the line being written, which the loader skips as corrupt, and a
    failed append raises ``OSError`` to the caller.

    The writer is **thread-safe**: a lock serialises appends and the
    recorded-uid bookkeeping, because a lease board served by the shard
    coordinator settles cells from concurrent HTTP handler threads
    (several workers reporting at once), while a local sweep drains its
    board from a single thread.

    All timestamps come from the injected ``clock`` (default
    :func:`time.time`): tests freeze it to make checkpoint bytes
    reproducible, and telemetry span records share the same clock so their
    ``ts`` values correlate with checkpoint ``ts`` values.
    """

    def __init__(
        self,
        path: _PathLike,
        grid: Sequence[str],
        fresh: bool = True,
        recorded: Optional[set[str]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log = JsonlLog(self.path, best_effort=False)
        self._lock = threading.Lock()
        self._recorded: set[str] = set()
        self._clock = clock
        header = {
            "kind": "header",
            "version": CHECKPOINT_VERSION,
            "grid": [str(uid) for uid in grid],
            "ts": round(self._clock(), 3),
        }
        if fresh or not self.path.exists():
            self.path.write_text(json.dumps(header, sort_keys=True) + "\n",
                                 encoding="utf-8")
            return
        self._append(header)
        if recorded is not None:
            # The caller already parsed this checkpoint (resume path):
            # don't reconstruct every journal a second time just to learn
            # which uids are present.
            self._recorded = set(recorded)
        else:
            self._recorded = set(load_checkpoint(self.path).outcomes)

    def has_outcome(self, uid: str) -> bool:
        """True when the checkpoint already holds an outcome for ``uid``."""
        with self._lock:
            return uid in self._recorded

    def record_outcome(self, outcome: SweepOutcome) -> None:
        record = {
            "kind": "outcome",
            "uid": outcome.task.uid,
            "outcome": outcome.as_dict(),
            "ts": round(self._clock(), 3),
        }
        with self._lock:
            self._append(record)
            self._recorded.add(outcome.task.uid)

    def record_failure(self, failure: SweepFailure) -> None:
        record = {
            "kind": "failure",
            "uid": failure.task.uid,
            "failure": failure.as_dict(),
            "ts": round(self._clock(), 3),
        }
        with self._lock:
            self._append(record)
            self._recorded.discard(failure.task.uid)

    def _append(self, record: dict) -> None:
        self._log.write([json.dumps(record, sort_keys=True) + "\n"])


def compact_checkpoint(
    path: _PathLike,
    *,
    max_age_days: Optional[float] = None,
    now: Optional[float] = None,
) -> tuple[int, int, int]:
    """Rewrite a checkpoint: newest record per uid, drop corrupt, age-evict.

    Returns ``(records_kept, records_pruned, corrupt_lines_dropped)``.
    The newest header is preserved; records older than ``max_age_days``
    (by their line timestamp, falling back to the file's mtime) are
    evicted.  The rewrite is atomic and durable (fsynced temp file +
    rename), as every appended line is.  A missing file is a no-op.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return 0, 0, 0
    now = time.time() if now is None else float(now)
    try:
        mtime = path.stat().st_mtime
        parsed = list(_iter_checkpoint_lines(path))
    except OSError:  # pragma: no cover - unreadable checkpoint
        logger.warning("checkpoint %s is unreadable; leaving it untouched", path)
        return 0, 0, 0

    header: Optional[dict] = None
    newest: dict[str, dict] = {}
    total = 0
    corrupt = 0
    for kind, uid, record in parsed:
        if kind == "corrupt":
            corrupt += 1
            continue
        if kind == "header":
            header = record
            continue
        if _rebuild(kind, uid, record) is None:
            # The loader rejects such a line as corrupt; keeping it here
            # would let it clobber a good record of the same uid.
            corrupt += 1
            continue
        if not isinstance(record.get("ts"), (int, float)):
            record["ts"] = round(mtime, 3)
        total += 1
        newest[uid] = record  # later lines win

    kept = dict(newest)
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        kept = {uid: rec for uid, rec in kept.items() if rec["ts"] >= cutoff}
    pruned = total - len(kept)

    payload_lines = []
    if header is not None:
        payload_lines.append(json.dumps(header, sort_keys=True))
    for uid in sorted(kept, key=lambda u: (kept[u]["ts"], u)):
        payload_lines.append(json.dumps(kept[uid], sort_keys=True))
    tmp = path.with_suffix(".jsonl.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in payload_lines))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(kept), pruned, corrupt
