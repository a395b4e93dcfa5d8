"""Persistent on-disk evaluation cache (JSON-lines).

:class:`DiskEvaluationCache` is a :class:`repro.search.cache.EvaluationCache`
with a persistent second tier: it memoizes analytical-estimator calls
*across process boundaries and across runs*.  Every newly estimated
configuration is appended as one JSON line to a shard file inside the cache
directory, and a fresh instance starts from every record of its namespace.
One instance is a sweep cell's whole memo::

    cache = DiskEvaluationCache(auto_hls.estimate, cache_dir,
                                device=device.name, clock_mhz=100.0,
                                context=coefficients_fingerprint(coeffs))
    flow.attach_evaluation_cache(cache)

A repeated same-seed sweep then serves every estimate from disk and never
invokes the estimator at all.  ``cache.stats()`` counts the memory tier and
``cache.disk_stats()`` the disk tier, whose misses are the exact count of
real estimator invocations.

A sweep cell opens a second instance over
:func:`repro.core.auto_hls.synthesis_estimate`, in the context ``synth``:
step 3's post-synthesis latency and resources of each final candidate, so a
warm cell runs no synthesis either.  Its records have the estimates' shape;
only the namespace tells them apart.

Entries are namespaced by ``device @ clock | context``: an estimate is only
valid for the device, accelerator clock and fitted model coefficients it was
computed under, so the context should embed a coefficients fingerprint
(:func:`coefficients_fingerprint`).  A synthesis report depends on no
coefficient, so its namespace is ``device @ clock | synth``.  Writes go to
a per-instance shard file, which keeps concurrent sweep workers from
interleaving appends; a failed append (a full disk) warns once and leaves
the estimate in memory.  The caches a process opens on a directory share
one :class:`CacheIndex` of it, which decodes each line other writers
appended once and none the process wrote, so workers still share each
other's results and opens in one process never append a key twice.

The shard protocol exchanges whole records between machines.
:func:`read_cache_records` exports a directory (``/v1/cache/pull``).
A :class:`CacheDirTail` hands a worker only the records its cells appended
since its previous delivery; :meth:`CacheIndex.merge` appends delivered
records whose key the directory does not hold, through a coordinator's
own index or, for a worker's pull, one dropped after the merge.  All of
these appends are best-effort :class:`~repro.utils.jsonl.JsonlLog` writes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import pathlib
import re
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import repro.telemetry as telemetry
from repro.hw.analytical import PerformanceEstimate
from repro.hw.resource import ResourceVector
from repro.search.cache import CacheStats, EvaluationCache, config_cache_key
from repro.utils.jsonl import Appended, JsonlLog, JsonlTail, parse_lines
from repro.utils.logging import get_logger
from repro.utils.serialization import to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dnn_config import DNNConfig
    from repro.hw.analytical import AnalyticalModelCoefficients

logger = get_logger(__name__)


def coefficients_fingerprint(coefficients: "AnalyticalModelCoefficients") -> str:
    """Short, stable fingerprint of a set of analytical-model coefficients.

    Embedded in the disk-cache namespace so that entries computed under one
    coefficient fit can never be served after a refit changed the model.
    """
    payload = json.dumps(to_jsonable(coefficients), sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


@functools.lru_cache(maxsize=1024)  # hubs and compaction call it once per record
def _sanitize(name: str) -> str:
    """Make ``name`` safe as a file-name stem."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "cache"


def _estimate_payload(estimate: PerformanceEstimate) -> dict:
    return {
        "latency_ms": float(estimate.latency_ms),
        "compute_ms": float(estimate.compute_ms),
        "data_movement_ms": float(estimate.data_movement_ms),
        "resources": {
            "lut": float(estimate.resources.lut),
            "ff": float(estimate.resources.ff),
            "dsp": float(estimate.resources.dsp),
            "bram": float(estimate.resources.bram),
        },
    }


def _estimate_from_payload(payload) -> Optional[PerformanceEstimate]:
    # Payloads also arrive from the wire (a report's cache_records): any
    # shape is possible, and a malformed one must be rejected, never raise.
    # An integer past the float range, or a NaN or infinity, is malformed
    # too: no estimator produces one.
    if not isinstance(payload, dict) or not isinstance(payload.get("resources", {}), dict):
        return None
    try:
        resources = payload.get("resources", {})
        estimate = PerformanceEstimate(
            latency_ms=float(payload["latency_ms"]),
            resources=ResourceVector(
                lut=float(resources.get("lut", 0.0)),
                ff=float(resources.get("ff", 0.0)),
                dsp=float(resources.get("dsp", 0.0)),
                bram=float(resources.get("bram", 0.0)),
            ),
            compute_ms=float(payload.get("compute_ms", 0.0)),
            data_movement_ms=float(payload.get("data_movement_ms", 0.0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    resources = estimate.resources
    numbers = (estimate.latency_ms, estimate.compute_ms, estimate.data_movement_ms,
               resources.lut, resources.ff, resources.dsp, resources.bram)
    return estimate if all(map(math.isfinite, numbers)) else None


def _record_ts(ts) -> float:
    """A wire record's ``ts`` as stored: 0.0 ("oldest") unless a finite number,
    never this machine's wall clock."""
    try:
        ts = float(ts) if isinstance(ts, (int, float)) else 0.0
    except OverflowError:  # an integer past the float range
        return 0.0
    return round(ts, 3) if math.isfinite(ts) else 0.0


class DiskEvaluationCache(EvaluationCache):
    """An :class:`EvaluationCache` with a JSON-lines tier, shared across runs.

    The memory tier and its counters (``hits``, ``misses``, :meth:`stats`)
    are the base class's.  This class adds the disk tier behind its two
    hooks: :meth:`get_many` answers memory misses from the namespace's live
    records in the process's :class:`CacheIndex` of the directory, and
    :meth:`put_many` appends what the estimator then scored, unless an
    open in this process already did, to this instance's shard.
    :meth:`disk_stats` counts that tier: hits served from disk, and misses,
    which are the real estimator invocations.

    Parameters
    ----------
    estimator:
        The underlying estimator invoked on a miss.
    directory:
        Cache directory; created when missing.  Every record of this
        instance's namespace in it is served from the start.
    device:
        Device name the estimates belong to (part of the namespace).
    clock_mhz:
        Accelerator clock the estimates were computed at.
    context:
        Extra namespace component, typically a coefficients fingerprint.
    shard:
        Stem of the shard file new entries are appended to.  Give every
        concurrent writer (one sweep task = one worker process) a unique
        shard so appends never interleave; defaults to the namespace.
    clock:
        Wall-clock source for the per-record ``ts`` timestamps (default
        :func:`time.time`) — the same injected-clock contract as the
        checkpoint, timings and telemetry sidecars, so frozen-clock tests
        get byte-stable shard records.
    """

    def __init__(
        self,
        estimator: Callable[["DNNConfig"], PerformanceEstimate],
        directory,
        *,
        device: str,
        clock_mhz: float = 100.0,
        context: str = "",
        shard: Optional[str] = None,
        key_fn: Callable[["DNNConfig"], str] = config_cache_key,
        clock: Callable[[], float] = time.time,
    ) -> None:
        super().__init__(estimator, key_fn)
        self.directory = pathlib.Path(directory)
        self.namespace = f"{device}@{clock_mhz:g}MHz"
        if context:
            self.namespace += f"|{context}"
        # Shard files are namespace-prefixed, so an open reads only its own.
        self._prefix = _sanitize(self.namespace)
        self.shard_path = self.directory / f"{self._prefix}--{_sanitize(shard or 'main')}.jsonl"
        self._disk_hits = 0
        self._estimator_calls = 0
        self._clock = clock
        self._log = JsonlLog(self.shard_path, best_effort=True)
        self._index = _process_index(self.directory)  # makes the directory
        # Live: every open of the namespace in this process shares it.
        self._records = self._index.namespace(self.namespace)
        if self._records:
            logger.debug("disk cache loaded %d entries for %s", len(self._records), self.namespace)

    # perfbench/tracer.py patches these three names on this class.
    def evaluate_with_info(self, config: "DNNConfig") -> tuple[PerformanceEstimate, bool]:
        return super().evaluate_with_info(config)

    def estimate_batch(self, configs: Sequence["DNNConfig"]) -> list[PerformanceEstimate]:
        return self.evaluate_batch(configs)

    def _append(self, key: str, estimate: PerformanceEstimate) -> None:
        self._append_many([(key, estimate)])

    # -------------------------------------------------------------- disk tier
    def get_many(self, keys: Sequence[str]) -> list:
        """The records for ``keys``; ``None`` where absent.  Found ones are disk hits."""
        with self._lock:
            values = [self._records.get(key) for key in keys]
            found = len(values) - values.count(None)
            self._disk_hits += found
        reg = telemetry.registry()
        if reg is not None:
            if found:
                reg.counter("sweep.disk_cache.hits").inc(found)
        return values

    def put_many(self, entries: Sequence[tuple[str, PerformanceEstimate]]) -> None:
        """Record freshly estimated entries, one estimator call (disk miss) each."""
        with self._lock:
            self._estimator_calls += len(entries)
        self._append_many(entries)
        reg = telemetry.registry()
        if reg is not None:
            reg.counter("sweep.disk_cache.misses").inc(len(entries))

    def _append_many(self, entries: Sequence[tuple[str, PerformanceEstimate]]) -> None:
        """Append the records the index lacks with one shard-file write (and one ``ts``).

        Best-effort, because the cache is only an optimisation: after the
        first failure (a full disk) this instance's estimates stay in memory.
        """
        if entries:
            ts = round(self._clock(), 3)
            self._index.append(self._log, self._prefix,
                               [(self.namespace, key, estimate, ts) for key, estimate in entries])

    # ------------------------------------------------------------ bookkeeping
    def disk_stats(self) -> CacheStats:
        """The disk tier's hits and misses (real estimator invocations)."""
        with self._lock:
            return CacheStats(hits=self._disk_hits, misses=self._estimator_calls,
                              size=len(self._records))

    # The disk tier: every record of the namespace the process's index holds.
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, config: "DNNConfig") -> bool:
        return self.key_fn(config) in self._records


# --------------------------------------------------------- compaction and GC
@dataclass(frozen=True)
class CompactionReport:
    """What one :func:`compact_cache_dir` pass did to a cache directory."""

    shards_before: int
    shards_after: int
    entries_before: int
    entries_kept: int
    duplicates_dropped: int
    corrupt_lines_dropped: int
    evicted_by_age: int
    evicted_by_size: int
    bytes_before: int
    bytes_after: int
    #: Stale / garbage ``_timings.json`` cost hints dropped.
    timing_entries_pruned: int = 0
    #: Superseded / corrupt / aged ``_checkpoint.jsonl`` records dropped.
    checkpoint_records_pruned: int = 0

    def summary(self) -> str:
        line = (
            f"compaction: {self.shards_before} -> {self.shards_after} shards, "
            f"{self.entries_before} -> {self.entries_kept} entries "
            f"({self.duplicates_dropped} duplicates, "
            f"{self.corrupt_lines_dropped} corrupt lines, "
            f"{self.evicted_by_age} age-evicted, {self.evicted_by_size} size-evicted), "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )
        if self.timing_entries_pruned or self.checkpoint_records_pruned:
            line += (
                f"; sidecars: {self.timing_entries_pruned} timing hint(s) and "
                f"{self.checkpoint_records_pruned} checkpoint record(s) pruned"
            )
        return line


@dataclass(frozen=True)
class NamespaceStats:
    """Per-namespace view of one cache directory."""

    namespace: str
    entries: int
    shards: int
    bytes: int


@dataclass(frozen=True)
class CacheDirStats:
    """Aggregate view of one cache directory (see :func:`cache_dir_stats`).

    Corrupt lines and duplicates are directory-level counts: a torn line
    cannot be attributed to a namespace because it does not parse.
    """

    directory: str
    namespaces: list[NamespaceStats] = field(default_factory=list)
    corrupt_lines: int = 0
    duplicates: int = 0
    total_shards: int = 0
    total_bytes: int = 0
    #: Cost hints in the ``_timings.json`` sidecar (0 when absent).
    timing_entries: int = 0
    #: Settled cells currently recorded in ``_checkpoint.jsonl``.
    checkpoint_outcomes: int = 0
    checkpoint_failures: int = 0
    checkpoint_corrupt_lines: int = 0

    @property
    def entries(self) -> int:
        return sum(ns.entries for ns in self.namespaces)

    @property
    def checkpoint_records(self) -> int:
        return self.checkpoint_outcomes + self.checkpoint_failures


def _shard_paths(directory: pathlib.Path, pattern: str = "*.jsonl") -> list[pathlib.Path]:
    """The directory's estimate shards (matching ``pattern``), sorted by name.

    Underscore-prefixed files are sidecars (checkpoint, timings tempfiles),
    not estimate shards: scanning them would misreport every checkpoint
    line as corrupt — and compaction would delete the file.
    """
    return sorted(
        path for path in directory.glob(pattern) if not path.name.startswith("_")
    )


def _record_estimate(record) -> Optional[PerformanceEstimate]:
    """The estimate of a well-formed ``{namespace, key, estimate}`` record, else ``None``."""
    if not isinstance(record, dict) or not isinstance(record.get("namespace"), str) \
            or not isinstance(record.get("key"), str):
        return None
    return _estimate_from_payload(record.get("estimate", {}))


def _parse_records(lines) -> list[Optional[tuple[dict, PerformanceEstimate]]]:
    """Each shard line as its record dict and decoded estimate; ``None`` when
    torn or malformed.  A line is decoded once, for validation and use alike."""
    entries: list[Optional[tuple[dict, PerformanceEstimate]]] = []
    for record in parse_lines(lines):
        estimate = _record_estimate(record)
        entries.append(None if estimate is None else (record, estimate))
    return entries


def _scan_cache_dir(directory: pathlib.Path):
    """Parse every shard; returns (records, corrupt, duplicates, bytes, shards).

    ``records`` maps ``(namespace, key)`` to the newest valid record line
    (dict).  Records missing a timestamp inherit their shard's mtime, so
    pre-timestamp caches still age-evict sensibly.
    """
    records: dict[tuple[str, str], dict] = {}
    corrupt = 0
    duplicates = 0
    total_bytes = 0
    shard_paths = _shard_paths(directory)
    for path in shard_paths:
        try:
            mtime = path.stat().st_mtime
            text = path.read_text()
        except OSError:  # pragma: no cover - unreadable shard
            continue
        total_bytes += len(text.encode("utf-8"))
        for entry in _parse_records(text.splitlines()):
            if entry is None:
                corrupt += 1
                continue
            record = entry[0]
            if not isinstance(record.get("ts"), (int, float)):
                record["ts"] = round(mtime, 3)
            slot = (record["namespace"], record["key"])
            if slot in records:
                duplicates += 1
                if record["ts"] >= records[slot]["ts"]:
                    records[slot] = record
            else:
                records[slot] = record
    return records, corrupt, duplicates, total_bytes, shard_paths


def _sidecar_stats(directory: pathlib.Path) -> tuple[int, int, int, int]:
    """(timing entries, checkpoint outcomes, failures, corrupt lines).

    The checkpoint is counted as ``--resume`` reads it, one record at a
    time, so a stats command never holds every recorded journal at once.
    """
    from repro.sweep.checkpoint import CHECKPOINT_FILENAME, CheckpointCells, load_timings
    from repro.sweep.runner import TIMINGS_FILENAME

    timing_entries = len(load_timings(directory / TIMINGS_FILENAME))
    checkpoint = CheckpointCells(directory / CHECKPOINT_FILENAME)
    outcomes, failures = checkpoint.counts()
    return timing_entries, outcomes, failures, checkpoint.corrupt_lines()


def cache_dir_stats(directory) -> CacheDirStats:
    """Summarise a cache directory (sidecars included) without modifying it."""
    directory = pathlib.Path(directory)
    records, corrupt, duplicates, total_bytes, shard_paths = _scan_cache_dir(directory)
    timing_entries, ck_outcomes, ck_failures, ck_corrupt = _sidecar_stats(directory)
    by_namespace: dict[str, dict] = {}
    for (namespace, _key), record in records.items():
        info = by_namespace.setdefault(namespace, {"entries": 0, "bytes": 0})
        info["entries"] += 1
        info["bytes"] += len(json.dumps(record, sort_keys=True)) + 1
    stats = []
    for namespace in sorted(by_namespace):
        info = by_namespace[namespace]
        prefix = f"{_sanitize(namespace)}--"
        shards = sum(1 for path in shard_paths if path.name.startswith(prefix))
        stats.append(NamespaceStats(
            namespace=namespace,
            entries=info["entries"],
            shards=shards,
            bytes=info["bytes"],
        ))
    return CacheDirStats(
        directory=str(directory),
        namespaces=stats,
        corrupt_lines=corrupt,
        duplicates=duplicates,
        total_shards=len(shard_paths),
        total_bytes=total_bytes,
        timing_entries=timing_entries,
        checkpoint_outcomes=ck_outcomes,
        checkpoint_failures=ck_failures,
        checkpoint_corrupt_lines=ck_corrupt,
    )


def compact_cache_dir(
    directory,
    *,
    max_age_days: Optional[float] = None,
    max_size_mb: Optional[float] = None,
    now: Optional[float] = None,
) -> CompactionReport:
    """Compact a cache directory: dedup, drop corrupt lines, evict by budget.

    All shards are parsed, corrupt / torn lines are dropped, duplicate
    ``(namespace, key)`` entries collapse to their newest record, entries
    older than ``max_age_days`` are evicted, then the oldest remaining
    entries are evicted until the directory fits ``max_size_mb``.  Each
    namespace is rewritten as a single ``<prefix>--main.jsonl`` shard
    (atomically: temp file + rename), and stale shard files are removed.
    The sidecars are pruned in the same pass: garbage and (under
    ``max_age_days``) stale ``_timings.json`` cost hints of grids that no
    longer run, plus superseded / corrupt / aged ``_checkpoint.jsonl``
    records — without this, every grid ever swept against the directory
    leaves its task uids behind forever.

    Run this offline — concurrent sweep writers appending to a shard being
    rewritten would lose their appends.
    """
    directory = pathlib.Path(directory)
    if max_age_days is not None and max_age_days <= 0:
        raise ValueError("max_age_days must be positive")
    if max_size_mb is not None and max_size_mb <= 0:
        raise ValueError("max_size_mb must be positive")
    now = time.time() if now is None else float(now)

    records, corrupt, duplicates, bytes_before, shard_paths = _scan_cache_dir(directory)
    entries_before = len(records) + duplicates

    evicted_age = 0
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        fresh = {slot: rec for slot, rec in records.items() if rec["ts"] >= cutoff}
        evicted_age = len(records) - len(fresh)
        records = fresh

    # Oldest-first size eviction against the serialized-line budget.
    lines = {
        slot: json.dumps(record, sort_keys=True) + "\n"
        for slot, record in records.items()
    }
    evicted_size = 0
    if max_size_mb is not None:
        budget = max_size_mb * 1024 * 1024
        total = sum(len(line.encode("utf-8")) for line in lines.values())
        for slot in sorted(records, key=lambda s: (records[s]["ts"], s)):
            if total <= budget:
                break
            total -= len(lines[slot].encode("utf-8"))
            del records[slot]
            del lines[slot]
            evicted_size += 1

    # Rewrite one shard per (sanitized) namespace; records of distinct
    # namespaces that sanitize to the same prefix share a file — harmless,
    # the loader checks the per-record namespace anyway.
    by_prefix: dict[str, list[tuple]] = {}
    for slot in sorted(records, key=lambda s: (s[0], records[s]["ts"], s[1])):
        by_prefix.setdefault(_sanitize(slot[0]), []).append(slot)
    written: set[str] = set()
    bytes_after = 0
    for prefix, slots in by_prefix.items():
        name = f"{prefix}--main.jsonl"
        payload = "".join(lines[slot] for slot in slots)
        tmp = directory / (name + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, directory / name)
        written.add(name)
        bytes_after += len(payload.encode("utf-8"))
    for path in shard_paths:
        if path.name not in written:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    from repro.sweep.checkpoint import (
        CHECKPOINT_FILENAME,
        compact_checkpoint,
        compact_timings,
    )
    from repro.sweep.runner import TIMINGS_FILENAME

    _, timings_pruned = compact_timings(
        directory / TIMINGS_FILENAME, max_age_days=max_age_days, now=now,
    )
    _, ck_pruned, ck_corrupt = compact_checkpoint(
        directory / CHECKPOINT_FILENAME, max_age_days=max_age_days, now=now,
    )

    reg = telemetry.registry()
    if reg is not None:
        if evicted_age or evicted_size:
            reg.counter("sweep.disk_cache.evicted").inc(evicted_age + evicted_size)
        telemetry.event(
            "sweep.disk_cache.compacted",
            kept=len(records), duplicates=duplicates, corrupt=corrupt,
            evicted_by_age=evicted_age, evicted_by_size=evicted_size,
        )

    report = CompactionReport(
        shards_before=len(shard_paths),
        shards_after=len(written),
        entries_before=entries_before,
        entries_kept=len(records),
        duplicates_dropped=duplicates,
        corrupt_lines_dropped=corrupt,
        evicted_by_age=evicted_age,
        evicted_by_size=evicted_size,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
        timing_entries_pruned=timings_pruned,
        checkpoint_records_pruned=ck_pruned + ck_corrupt,
    )
    logger.info("%s", report.summary())
    return report


# ------------------------------------------------------------- wire exchange
def read_cache_records(directory) -> list[dict]:
    """Export a cache directory's records as wire-ready JSON dicts.

    Deduplicated (newest per ``(namespace, key)``) and deterministically
    ordered.  This is the payload of the shard protocol's
    ``/v1/cache/pull`` — the record shape is exactly the on-disk JSONL
    line, so the receiving side can append verbatim.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    records, _corrupt, _dups, _bytes, _shards = _scan_cache_dir(directory)
    return [record for _slot, record in sorted(records.items())]


class CacheDirTail:
    """Incremental reader over every estimate shard of one cache directory.

    Each :meth:`read` returns the valid records appended to any shard since
    the previous call, in shard-name then file order, each with its decoded
    estimate; a shard that appeared since is read from its start.  Unchanged
    shards cost one open and ``fstat`` each, never a parse.  A ``prefix``
    limits the reader to the shards of one namespace prefix.  Not
    thread-safe: the owner serialises calls.
    """

    def __init__(self, directory, prefix: str = "") -> None:
        self.directory = pathlib.Path(directory)
        self._pattern = f"{prefix}--*.jsonl" if prefix else "*.jsonl"
        self._tails: dict[str, JsonlTail] = {}

    def read(self) -> tuple[bool, list[tuple[dict, PerformanceEstimate]]]:
        """``(restarted, [(record, estimate), ...])`` appended since the previous call.

        ``restarted`` is True when a shard read before vanished, shrank or
        was replaced (as ``cache gc`` leaves it); a shrunk or replaced
        shard's records are returned again from its start.  Torn or
        malformed lines are skipped with a warning when first read.
        """
        restarted = False
        records: list[tuple[dict, PerformanceEstimate]] = []
        present = set()
        for path in _shard_paths(self.directory, self._pattern):
            present.add(path.name)
            tail = self._tails.get(path.name)
            if tail is None:
                tail = self._tails[path.name] = JsonlTail(path)
            shard_restarted, lines = tail.read()
            restarted = restarted or shard_restarted
            parsed = _parse_records(lines)
            records.extend(entry for entry in parsed if entry is not None)
            if None in parsed:
                logger.warning("disk cache shard %s: skipped %d corrupt line(s); run "
                               "'repro-codesign cache gc' to repair it", path.name, parsed.count(None))
        for name in set(self._tails) - present:
            del self._tails[name]
            restarted = True
        return restarted, records

    def skip_own(self, path: pathlib.Path, span: Appended) -> None:
        """Never return the lines the owner appended to ``path`` as ``span``
        (see :meth:`JsonlTail.skip_own`)."""
        tail = self._tails.get(path.name)
        if tail is None:
            tail = self._tails[path.name] = JsonlTail(self.directory / path.name)
        tail.skip_own(span)


class CacheIndex:
    """The records of one cache directory, each shard line decoded once.

    For each namespace prefix asked about, the index tails the prefix's
    shards and holds ``{namespace: {key: estimate}}``; when one of them
    vanished, shrank or was replaced (by ``cache gc``, an offline operation:
    see :func:`compact_cache_dir`), the prefix's namespace dicts are cleared
    in place and refilled from the start, so every holder of one sees the
    directory as it now is.  The index's own appends are indexed as they
    land and skipped by its tails, so it decodes only the lines other
    writers appended, to any shard.  One lock serialises the refreshes and
    each dedup-and-append, so an index never writes a key twice.  A process
    keeps one for its caches (:func:`_process_index`); a hub owns its own.
    """

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self._lock = threading.Lock()
        self._tails: dict[str, CacheDirTail] = {}
        self._namespaces: dict[str, dict[str, PerformanceEstimate]] = {}

    def namespace(self, namespace: str) -> dict[str, PerformanceEstimate]:
        """``namespace``'s records, refreshed now, as the index's live dict."""
        with self._lock:
            self._refresh(_sanitize(namespace))
            return self._namespaces.setdefault(namespace, {})

    def append(self, log: JsonlLog, prefix: str, entries: Sequence[tuple]) -> int:
        """Append the ``(namespace, key, estimate, ts)`` entries whose key is
        new through ``log``, a shard of the refreshed ``prefix``, as one
        write; index what landed and skip it in the tail.  Returns how many."""
        with self._lock:
            fresh: dict[tuple[str, str], tuple] = {}
            for entry in entries:
                if entry[1] not in self._namespaces.get(entry[0], ()):
                    fresh.setdefault(entry[:2], entry)
            if not fresh:
                return 0
            span = log.write([
                json.dumps({"namespace": namespace, "key": key, "ts": ts,
                            "estimate": _estimate_payload(estimate)}, sort_keys=True) + "\n"
                for namespace, key, estimate, ts in fresh.values()])
            if span is None:
                return 0
            for namespace, key, estimate, _ts in fresh.values():
                self._namespaces.setdefault(namespace, {})[key] = estimate
            self._tails[prefix].skip_own(log.path, span)
            return len(fresh)

    def merge(self, records: Sequence[dict], *, shard: str = "pushed") -> int:
        """Append the valid wire records whose key is new; returns how many.

        Malformed records are dropped, records whose ``(namespace, key)`` the
        directory already holds are skipped (merges are idempotent), and
        fresh records are appended to per-namespace ``<ns>--<shard>.jsonl``
        files in the exact on-disk format, so a
        :class:`DiskEvaluationCache` opened on the directory picks them up as
        ordinary shards.  Only the prefixes the records name are refreshed.
        Appends are best-effort: a file that cannot take its records (a full
        disk, a directory that cannot be made) logs a WARNING, and they are
        neither indexed nor counted.
        """
        by_prefix: dict[str, list[tuple]] = {}
        for record in records:
            estimate = _record_estimate(record)
            if estimate is not None:
                by_prefix.setdefault(_sanitize(record["namespace"]), []).append(
                    (record["namespace"], record["key"], estimate, _record_ts(record.get("ts"))))
        if by_prefix:
            # A directory that cannot be made fails each append, which warns.
            with contextlib.suppress(OSError):
                self.directory.mkdir(parents=True, exist_ok=True)
        accepted = 0
        for prefix, entries in by_prefix.items():
            with self._lock:
                self._refresh(prefix)
            # A log per merge: the next merge retries a disk that was full.
            log = JsonlLog(self.directory / f"{prefix}--{_sanitize(shard)}.jsonl", best_effort=True)
            accepted += self.append(log, prefix, entries)
        return accepted

    def _refresh(self, prefix: str) -> None:
        """Fold in what was appended to ``prefix``'s shards since its last
        refresh; all of them afresh when one was rewritten.  Holds the lock."""
        tail = self._tails.get(prefix)
        restarted, records = tail.read() if tail is not None else (True, [])
        if restarted:
            for namespace, held in self._namespaces.items():
                if _sanitize(namespace) == prefix:
                    held.clear()
            tail = self._tails[prefix] = CacheDirTail(self.directory, prefix)
            _restarted, records = tail.read()
        for record, estimate in records:
            self._namespaces.setdefault(record["namespace"], {})[record["key"]] = estimate


#: ``(identity, index)`` of the last directory this process's caches opened:
#: one directory at a time, so a process that opens many holds one's records.
_process_slot: Optional[tuple[tuple, CacheIndex]] = None
_process_slot_lock = threading.Lock()


def _forget_index_in_child() -> None:
    # The fork copied the locks as other threads left them, mid-refresh maybe.
    global _process_slot, _process_slot_lock
    _process_slot, _process_slot_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_index_in_child)


def _process_index(directory: pathlib.Path) -> CacheIndex:
    """The process's index of ``directory`` (made if missing); it replaces the
    one the process held of another directory."""
    global _process_slot
    directory.mkdir(parents=True, exist_ok=True)
    stat = directory.stat()
    identity = (os.path.abspath(directory), stat.st_dev, stat.st_ino)
    with _process_slot_lock:
        if _process_slot is None or _process_slot[0] != identity:
            _process_slot = (identity, CacheIndex(identity[0]))
        return _process_slot[1]
