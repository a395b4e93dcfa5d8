"""Persistent on-disk evaluation cache (JSON-lines).

:class:`DiskEvaluationCache` memoizes analytical-estimator calls *across
process boundaries and across runs*: every newly estimated configuration is
appended as one JSON line to a shard file inside the cache directory, and a
fresh instance reloads every shard on open.  It exposes the same callable
protocol as a plain estimator, so it layers *under* the in-memory
:class:`repro.search.cache.EvaluationCache`::

    disk = DiskEvaluationCache(auto_hls.estimate, cache_dir,
                               device=device.name, clock_mhz=100.0,
                               context=coefficients_fingerprint(coeffs))
    cache = EvaluationCache(disk)   # memory layer on top

With that stack, a repeated same-seed sweep serves every estimate from disk
and never invokes the estimator at all (``disk.misses`` is the exact count
of real estimator invocations).

Entries are namespaced by ``device @ clock | context``: an estimate is only
valid for the device, accelerator clock and fitted model coefficients it was
computed under, so the context should embed a coefficients fingerprint
(:func:`coefficients_fingerprint`).  Writes go to a per-instance shard file,
which keeps concurrent sweep workers from interleaving appends; reads scan
every shard of the instance's namespace (shard file names are
namespace-prefixed, so other devices' shards are never parsed), so workers
still share each other's results on the next run.

The shard protocol exchanges whole records between machines.
:func:`read_cache_records` exports a directory (``/v1/cache/pull``).
A :class:`CacheDirTail` hands a worker only the records its cells appended
since its previous push, and a coordinator's :class:`CacheHub` appends
pushed records whose key it has not seen, checked against an in-memory key
index that is refreshed from appended bytes only.
"""

from __future__ import annotations

import hashlib
import json
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
from repro.search.cache import CacheStats, config_cache_key, resolve_batch_estimator
from repro.utils.jsonl import JsonlTail
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
    # Payloads also arrive from the wire (/v1/cache/push): any shape is
    # possible, and a malformed one must be rejected, never raise.
    if not isinstance(payload, dict) or not isinstance(payload.get("resources", {}), dict):
        return None
    try:
        resources = payload.get("resources", {})
        return PerformanceEstimate(
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
    except (KeyError, TypeError, ValueError):
        return None


class DiskEvaluationCache:
    """JSON-lines-backed estimator memoization, shared across runs.

    Parameters
    ----------
    estimator:
        The underlying estimator invoked on a miss.
    directory:
        Cache directory; created when missing.  Every shard of this
        instance's namespace in it is loaded on open.
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
        self.estimator = estimator
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key_fn = key_fn
        self.namespace = f"{device}@{clock_mhz:g}MHz"
        if context:
            self.namespace += f"|{context}"
        # Shard files are namespace-prefixed so loading can skip shards of
        # other devices / coefficient fits without parsing them.
        self._prefix = _sanitize(self.namespace)
        self.shard_path = self.directory / f"{self._prefix}--{_sanitize(shard or 'main')}.jsonl"
        self._store: dict[str, PerformanceEstimate] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()
        self._clock = clock
        self._load()

    # ------------------------------------------------------------ persistence
    def _load(self) -> None:
        loaded = 0
        # Only shards of this namespace are parsed; the per-record namespace
        # check below stays as a guard against sanitization collisions.
        for path in sorted(self.directory.glob(f"{self._prefix}--*.jsonl")):
            try:
                lines = path.read_text().splitlines()
            except OSError:  # pragma: no cover - unreadable shard
                continue
            corrupt = 0
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:  # torn write: skip the line
                    corrupt += 1
                    continue
                if not isinstance(record, dict) or record.get("namespace") != self.namespace:
                    continue
                estimate = _estimate_from_payload(record.get("estimate", {}))
                key = record.get("key")
                if estimate is not None and isinstance(key, str):
                    self._store[key] = estimate
                    loaded += 1
            if corrupt:
                logger.warning(
                    "disk cache shard %s: skipped %d corrupt line(s); "
                    "run 'repro-codesign cache gc' to repair it",
                    path.name, corrupt,
                )
        if loaded:
            logger.debug("disk cache loaded %d entries for %s", loaded, self.namespace)

    def _append(self, key: str, estimate: PerformanceEstimate) -> None:
        record = {
            "namespace": self.namespace,
            "key": key,
            "estimate": _estimate_payload(estimate),
            "ts": round(self._clock(), 3),
        }
        with self.shard_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _append_many(self, entries: Sequence[tuple[str, PerformanceEstimate]]) -> None:
        """Append many records with one shard-file open (and one ``ts``).

        Record format and order match a sequence of :meth:`_append` calls, so
        shards written by the batched path replay identically.
        """
        if not entries:
            return
        ts = round(self._clock(), 3)
        lines = [
            json.dumps(
                {
                    "namespace": self.namespace,
                    "key": key,
                    "estimate": _estimate_payload(estimate),
                    "ts": ts,
                },
                sort_keys=True,
            ) + "\n"
            for key, estimate in entries
        ]
        with self.shard_path.open("a", encoding="utf-8") as handle:
            handle.write("".join(lines))

    # ------------------------------------------------------------- evaluation
    def __call__(self, config: "DNNConfig") -> PerformanceEstimate:
        return self.evaluate(config)

    def evaluate(self, config: "DNNConfig") -> PerformanceEstimate:
        return self.evaluate_with_info(config)[0]

    def evaluate_with_info(self, config: "DNNConfig") -> tuple[PerformanceEstimate, bool]:
        """Evaluate one config; returns ``(estimate, served_from_disk)``."""
        key = self.key_fn(config)
        reg = telemetry.registry()
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._hits += 1
                if reg is not None:
                    reg.counter("sweep.disk_cache.hits").inc()
                return cached, True
        value = self.estimator(config)
        with self._lock:
            self._misses += 1
            if key not in self._store:
                self._store[key] = value
                self._append(key, value)
        if reg is not None:
            reg.counter("sweep.disk_cache.misses").inc()
        return value, False

    def estimate_batch(self, configs: Sequence["DNNConfig"]) -> list[PerformanceEstimate]:
        """Evaluate a batch: bulk disk lookup, one estimator batch, one append.

        ``misses`` still counts exactly the configs the underlying estimator
        scored (one per unique missing key — the in-memory layer above
        already deduplicates, so in the sweep stack this equals the scalar
        path's count record for record).  The underlying estimator's own
        ``estimate_batch`` is used when it offers one; results and shard
        records are bit-identical either way.
        """
        keys = [self.key_fn(config) for config in configs]
        results: list = [None] * len(configs)
        missing: dict[str, int] = {}
        batch_hits = 0
        with self._lock:
            for index, key in enumerate(keys):
                value = self._store.get(key)
                if value is not None:
                    results[index] = value
                    self._hits += 1
                    batch_hits += 1
                elif key not in missing:
                    missing[key] = index
        batch_misses = 0
        representatives = [configs[index] for index in missing.values()]
        if representatives:
            batch_estimate = resolve_batch_estimator(self.estimator)
            if batch_estimate is not None and len(representatives) > 1:
                values = batch_estimate(representatives)
            else:
                values = [self.estimator(config) for config in representatives]
            with self._lock:
                fresh: list[tuple[str, PerformanceEstimate]] = []
                for key, value in zip(missing, values):
                    self._misses += 1
                    batch_misses += 1
                    if key not in self._store:
                        self._store[key] = value
                        fresh.append((key, value))
                self._append_many(fresh)
        with self._lock:
            for index, key in enumerate(keys):
                if results[index] is None:
                    results[index] = self._store[key]
        reg = telemetry.registry()
        if reg is not None:
            if batch_hits:
                reg.counter("sweep.disk_cache.hits").inc(batch_hits)
            if batch_misses:
                reg.counter("sweep.disk_cache.misses").inc(batch_misses)
        return results

    # ------------------------------------------------------------- bulk access
    def get_many(self, configs: Sequence["DNNConfig"]) -> list:
        """Bulk lookup; ``None`` marks configs absent from the disk store.

        A pure read: found entries count as hits, absent ones leave
        ``misses`` untouched (that counter is reserved for real estimator
        invocations).
        """
        reg = telemetry.registry()
        results: list = []
        found = 0
        with self._lock:
            for config in configs:
                value = self._store.get(self.key_fn(config))
                if value is not None:
                    self._hits += 1
                    found += 1
                results.append(value)
        if reg is not None:
            if found:
                reg.counter("sweep.disk_cache.hits").inc(found)
        return results

    def put_many(
        self, configs: Sequence["DNNConfig"], estimates: Sequence[PerformanceEstimate]
    ) -> None:
        """Persist precomputed estimates; counter-neutral, one shard append."""
        if len(configs) != len(estimates):
            raise ValueError("configs and estimates must have the same length")
        with self._lock:
            fresh: list[tuple[str, PerformanceEstimate]] = []
            for config, value in zip(configs, estimates):
                key = self.key_fn(config)
                if key not in self._store:
                    self._store[key] = value
                    fresh.append((key, value))
            self._append_many(fresh)

    # ------------------------------------------------------------ bookkeeping
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        """Real estimator invocations (disk misses)."""
        return self._misses

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, size=len(self._store))

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, config: "DNNConfig") -> bool:
        return self.key_fn(config) in self._store


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


def _shard_paths(directory: pathlib.Path) -> list[pathlib.Path]:
    """The directory's estimate shards, sorted by name.

    Underscore-prefixed files are sidecars (checkpoint, timings tempfiles),
    not estimate shards: scanning them would misreport every checkpoint
    line as corrupt — and compaction would delete the file.
    """
    return sorted(
        path for path in directory.glob("*.jsonl") if not path.name.startswith("_")
    )


def _record_estimate(record) -> Optional[PerformanceEstimate]:
    """The estimate of a well-formed ``{namespace, key, estimate}`` record, else ``None``."""
    if not isinstance(record, dict) or not isinstance(record.get("namespace"), str) \
            or not isinstance(record.get("key"), str):
        return None
    return _estimate_from_payload(record.get("estimate", {}))


def _parse_record(line: str) -> Optional[dict]:
    """One shard line as its record dict; ``None`` when torn or malformed."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    return record if _record_estimate(record) is not None else None


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
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = _parse_record(line)
            if record is None:
                corrupt += 1
                continue
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

    Uses the cheap checkpoint scan — a stats command must not rebuild
    every recorded journal just to count them.
    """
    from repro.sweep.checkpoint import CHECKPOINT_FILENAME, load_timings, scan_checkpoint
    from repro.sweep.runner import TIMINGS_FILENAME

    timing_entries = len(load_timings(directory / TIMINGS_FILENAME))
    outcomes, failures, corrupt = scan_checkpoint(directory / CHECKPOINT_FILENAME)
    return timing_entries, outcomes, failures, corrupt


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
def read_cache_records(directory, namespaces: Optional[Sequence[str]] = None) -> list[dict]:
    """Export a cache directory's records as wire-ready JSON dicts.

    Deduplicated (newest per ``(namespace, key)``), deterministically
    ordered, optionally filtered to ``namespaces``.  This is the payload of
    the shard protocol's ``/v1/cache/pull`` — the record shape is exactly
    the on-disk JSONL line, so the receiving side can append verbatim.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    records, _corrupt, _dups, _bytes, _shards = _scan_cache_dir(directory)
    wanted = set(namespaces) if namespaces is not None else None
    return [
        record
        for (namespace, _key), record in sorted(records.items())
        if wanted is None or namespace in wanted
    ]


class CacheDirTail:
    """Incremental reader over every estimate shard of one cache directory.

    Each :meth:`read` returns the valid records appended to any shard since
    the previous call, in shard-name then file order; a shard that appeared
    since is read from its start.  Unchanged shards cost one open and
    ``fstat`` each, never a parse.  Not thread-safe: the owner serialises
    calls.
    """

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self._tails: dict[str, JsonlTail] = {}

    def read(self) -> tuple[bool, list[dict]]:
        """``(restarted, records)`` appended since the previous call.

        ``restarted`` is True when a shard read before vanished, shrank or
        was replaced (as ``cache gc`` leaves it); a shrunk or replaced
        shard's records are returned again from its start.
        """
        restarted = False
        records: list[dict] = []
        present = set()
        for path in _shard_paths(self.directory):
            present.add(path.name)
            tail = self._tails.get(path.name)
            if tail is None:
                tail = self._tails[path.name] = JsonlTail(path)
            shard_restarted, lines = tail.read()
            restarted = restarted or shard_restarted
            for line in lines:
                line = line.strip()
                record = _parse_record(line) if line else None
                if record is not None:
                    records.append(record)
        for name in set(self._tails) - present:
            del self._tails[name]
            restarted = True
        return restarted, records


class CacheHub:
    """Merge point for wire cache records, deduplicated by an in-memory key index.

    The index is the directory's ``(namespace, key)`` set — keys only, never
    estimates.  Each :meth:`merge` first folds in the bytes appended since
    the previous one, so records other writers appended are still seen, and
    rebuilds the index in full when a shard vanished, shrank or was
    replaced (``cache gc``; compacting a live hub stays unsupported, see
    :func:`compact_cache_dir`).  One lock serialises the refresh, the dedup
    and the appends, so concurrent merges never write a key twice.
    """

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self._lock = threading.Lock()
        self._tail = CacheDirTail(self.directory)
        self._keys: set[tuple[str, str]] = set()

    def _refresh(self) -> None:
        restarted, records = self._tail.read()
        if restarted:
            self._tail = CacheDirTail(self.directory)
            self._keys.clear()
            _restarted, records = self._tail.read()
        self._keys.update((record["namespace"], record["key"]) for record in records)

    def merge(self, records: Sequence[dict], *, shard: str = "pushed") -> int:
        """Append the valid records whose key is new; returns how many.

        Malformed records are dropped, records whose ``(namespace, key)`` the
        directory already holds are skipped (merges are idempotent), and
        fresh records are appended to per-namespace ``<ns>--<shard>.jsonl``
        files in the exact on-disk format, so a
        :class:`DiskEvaluationCache` opened on the directory picks them up as
        ordinary shards.
        """
        candidates: list[tuple[tuple[str, str], str]] = []
        for record in records:
            estimate = _record_estimate(record)
            if estimate is None:
                continue
            ts = record.get("ts")
            candidates.append(((record["namespace"], record["key"]), json.dumps({
                "namespace": record["namespace"],
                "key": record["key"],
                "estimate": _estimate_payload(estimate),
                # Keep the producer's timestamp; a missing one falls back to
                # 0.0 ("oldest"), never to this machine's wall clock.
                "ts": round(float(ts), 3) if isinstance(ts, (int, float)) else 0.0,
            }, sort_keys=True)))
        accepted = 0
        with self._lock:
            self._refresh()
            fresh: dict[str, dict[tuple[str, str], str]] = {}
            for slot, line in candidates:
                if slot not in self._keys:
                    fresh.setdefault(_sanitize(slot[0]), {}).setdefault(slot, line)
            if fresh:
                self.directory.mkdir(parents=True, exist_ok=True)
            for prefix, lines in fresh.items():
                path = self.directory / f"{prefix}--{_sanitize(shard)}.jsonl"
                with path.open("a", encoding="utf-8") as handle:
                    handle.write("".join(line + "\n" for line in lines.values()))
                # Indexed only once written: a failed append stays retryable.
                self._keys.update(lines)
                accepted += len(lines)
        return accepted


def append_cache_records(directory, records: Sequence[dict], *, shard: str = "pushed") -> int:
    """Merge wire cache records into ``directory`` once; returns how many were new.

    A one-off :meth:`CacheHub.merge` (it reads the whole directory); a
    long-lived merge point keeps one :class:`CacheHub` instead.
    """
    return CacheHub(directory).merge(records, shard=shard)
