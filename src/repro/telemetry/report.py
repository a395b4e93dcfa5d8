"""Run summaries from the checkpoint + telemetry sidecar pair.

``repro-codesign telemetry report`` aggregates two sources found in a
sweep's ``--cache-dir``:

* ``_checkpoint.jsonl`` — always present for checkpointed sweeps, telemetry
  on or off: per-cell durations, attempt counts, cache hit/miss accounting
  and failure kinds, so the report works even for runs that never enabled
  telemetry;
* ``_telemetry.jsonl`` — when present, enriches the report with span
  aggregates, scheduler events (retries, timeout kills, lease lifecycle)
  and the final metrics snapshot, including per-worker throughput for
  shard runs.

The module also hosts :func:`write_bench_json`, the perf-trajectory
emitter used by the benchmark suite to produce ``BENCH_sweep.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.telemetry.metrics import MetricsSnapshot
from repro.telemetry.sink import TELEMETRY_FILENAME, read_telemetry

__all__ = [
    "REPORT_DURATION_BUCKETS_S",
    "CellTiming",
    "TelemetryReport",
    "build_report",
    "duration_histogram",
    "write_bench_json",
]

#: Bucket upper bounds (seconds) for the rendered cell-duration histogram.
REPORT_DURATION_BUCKETS_S: tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, float("inf"),
)


@dataclass(frozen=True)
class CellTiming:
    """One settled cell's wall clock, for the slowest-cells table."""

    uid: str
    duration_s: float
    attempts: int


def duration_histogram(
    durations: Sequence[float],
    buckets: Sequence[float] = REPORT_DURATION_BUCKETS_S,
) -> list[tuple[str, int]]:
    """Bucket durations into ``(label, count)`` rows for text rendering."""
    counts = [0] * len(buckets)
    for value in durations:
        for i, bound in enumerate(buckets):
            if value <= bound:
                counts[i] += 1
                break
    rows: list[tuple[str, int]] = []
    for i, bound in enumerate(buckets):
        if bound == float("inf"):
            previous = buckets[i - 1] if i else 0.0
            label = f">{previous:g}s"
        else:
            label = f"<={bound:g}s"
        rows.append((label, counts[i]))
    return rows


@dataclass
class TelemetryReport:
    """Aggregated view of one sweep run (see :func:`build_report`)."""

    cache_dir: str
    cells_completed: int = 0
    cells_failed: int = 0
    memory_hits: int = 0
    memory_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    evaluations: int = 0
    estimator_calls: int = 0
    retried_cells: int = 0
    extra_attempts: int = 0
    failure_kinds: dict = field(default_factory=dict)
    timings: list = field(default_factory=list)
    per_worker: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    snapshot: Optional[MetricsSnapshot] = None
    checkpoint_records: int = 0
    telemetry_records: int = 0
    telemetry_corrupt: int = 0

    @property
    def has_data(self) -> bool:
        return bool(self.checkpoint_records or self.telemetry_records
                    or self.cells_completed or self.cells_failed)

    @property
    def memory_hit_rate(self) -> float:
        total = self.memory_hits + self.memory_misses
        return self.memory_hits / total if total else 0.0

    @property
    def disk_hit_rate(self) -> float:
        total = self.disk_hits + self.disk_misses
        return self.disk_hits / total if total else 0.0

    @property
    def timeout_kills(self) -> int:
        """Leases revoked for their per-cell timeout (sidecar events), in
        every mode: the attempt ledger emits ``shard.lease.revoked``."""
        return int(self.events.get("shard.lease.revoked", 0))

    @property
    def timeout_failures(self) -> int:
        """Cells that settled as failures of kind ``timeout``."""
        return int(self.failure_kinds.get("timeout", 0))

    def as_dict(self) -> dict:
        return {
            "cache_dir": self.cache_dir,
            "cells": {
                "completed": self.cells_completed,
                "failed": self.cells_failed,
                "retried": self.retried_cells,
                "extra_attempts": self.extra_attempts,
            },
            "cache": {
                "memory_hits": self.memory_hits,
                "memory_misses": self.memory_misses,
                "memory_hit_rate": round(self.memory_hit_rate, 4),
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "disk_hit_rate": round(self.disk_hit_rate, 4),
            },
            "evaluations": self.evaluations,
            "estimator_calls": self.estimator_calls,
            "failure_kinds": {k: self.failure_kinds[k] for k in sorted(self.failure_kinds)},
            "timeouts": {"kills": self.timeout_kills, "failures": self.timeout_failures},
            "slowest_cells": [
                {"uid": t.uid, "duration_s": round(t.duration_s, 3), "attempts": t.attempts}
                for t in self.timings
            ],
            "duration_histogram": [
                {"bucket": label, "count": count}
                for label, count in duration_histogram([t.duration_s for t in self.timings])
            ],
            "per_worker": {k: self.per_worker[k] for k in sorted(self.per_worker)},
            "events": {k: self.events[k] for k in sorted(self.events)},
            "spans": {k: self.spans[k] for k in sorted(self.spans)},
            "telemetry": {
                "records": self.telemetry_records,
                "corrupt_lines": self.telemetry_corrupt,
                "snapshot": self.snapshot.as_dict() if self.snapshot else None,
            },
        }

    def render(self, top: int = 5) -> str:
        lines = [f"Telemetry report for {self.cache_dir}"]
        lines.append(
            f"  Cells: {self.cells_completed} completed, {self.cells_failed} failed"
        )
        mem_total = self.memory_hits + self.memory_misses
        disk_total = self.disk_hits + self.disk_misses
        cache_line = (
            f"  Cache hit rate: memory {self.memory_hit_rate:.1%}"
            f" ({self.memory_hits}/{mem_total})"
        )
        if disk_total:
            cache_line += f", disk {self.disk_hit_rate:.1%} ({self.disk_hits}/{disk_total})"
        lines.append(cache_line)
        lines.append(
            f"  Evaluations: {self.evaluations} ({self.estimator_calls} estimator calls)"
        )
        retry_line = (
            f"  Retries: {self.retried_cells} cell(s) retried, "
            f"{self.extra_attempts} extra attempt(s)"
        )
        if self.telemetry_records:
            retry_line += f"; timeout kills: {self.timeout_kills}"
        lines.append(retry_line)
        lines.append(f"  Timeout failures: {self.timeout_failures}")
        if self.failure_kinds:
            kinds = ", ".join(f"{k}={self.failure_kinds[k]}" for k in sorted(self.failure_kinds))
            lines.append(f"  Failure kinds: {kinds}")
        if self.timings:
            lines.append(f"  Top {min(top, len(self.timings))} slowest cells:")
            for timing in self.timings[:top]:
                attempt_note = f" ({timing.attempts} attempts)" if timing.attempts > 1 else ""
                lines.append(f"    {timing.duration_s:8.2f}s  {timing.uid}{attempt_note}")
            lines.append("  Cell duration histogram:")
            rows = duration_histogram([t.duration_s for t in self.timings])
            peak = max(count for _, count in rows) or 1
            for label, count in rows:
                bar = "#" * round(20 * count / peak) if count else ""
                lines.append(f"    {label:>8} | {bar}{' ' if bar else ''}{count}")
        if self.per_worker:
            lines.append("  Per-worker throughput:")
            for name in sorted(self.per_worker):
                stats = self.per_worker[name]
                cells = stats.get("cells", 0)
                busy = stats.get("busy_s", 0.0)
                rate = cells / busy if busy else 0.0
                lines.append(
                    f"    {name}: {cells} cell(s), {busy:.2f}s busy"
                    + (f", {rate:.3f} cells/s" if rate else "")
                )
        if self.spans:
            lines.append("  Spans (_telemetry.jsonl):")
            for name in sorted(self.spans):
                agg = self.spans[name]
                lines.append(
                    f"    {name}: {agg['count']} x, total {agg['total_s']:.2f}s"
                )
        if self.telemetry_corrupt:
            lines.append(f"  Telemetry sidecar: {self.telemetry_corrupt} corrupt line(s) skipped")
        return "\n".join(lines)


def build_report(cache_dir: str) -> TelemetryReport:
    """Aggregate the checkpoint and (optional) telemetry sidecar of a run."""
    # Imported lazily: repro.sweep imports repro.telemetry at module load,
    # so the reverse import has to happen at call time.
    from repro.sweep.checkpoint import CHECKPOINT_FILENAME, load_checkpoint

    report = TelemetryReport(cache_dir=str(cache_dir))
    status = load_checkpoint(os.path.join(cache_dir, CHECKPOINT_FILENAME))
    report.checkpoint_records = status.records
    timings: list[CellTiming] = []
    for uid, outcome in status.outcomes.items():
        report.cells_completed += 1
        report.memory_hits += outcome.memory_hits
        report.memory_misses += outcome.memory_misses
        report.disk_hits += outcome.disk_hits
        report.disk_misses += outcome.disk_misses
        report.evaluations += outcome.evaluations
        report.estimator_calls += outcome.estimator_calls
        if outcome.attempts > 1:
            report.retried_cells += 1
            report.extra_attempts += outcome.attempts - 1
        timings.append(CellTiming(uid=uid, duration_s=outcome.duration_s,
                                  attempts=outcome.attempts))
    for uid, failure in status.failures.items():
        report.cells_failed += 1
        report.failure_kinds[failure.kind] = report.failure_kinds.get(failure.kind, 0) + 1
        if failure.attempts > 1:
            report.retried_cells += 1
            report.extra_attempts += failure.attempts - 1
    report.timings = sorted(timings, key=lambda t: (-t.duration_s, t.uid))

    log = read_telemetry(os.path.join(cache_dir, TELEMETRY_FILENAME))
    report.telemetry_records = log.records
    report.telemetry_corrupt = log.corrupt_lines
    for record in log.events:
        name = record.get("name", "?")
        report.events[name] = report.events.get(name, 0) + 1
        if name == "shard.cell.completed":
            attrs = record.get("attrs") or {}
            worker = str(attrs.get("worker", "?"))
            stats = report.per_worker.setdefault(worker, {"cells": 0, "busy_s": 0.0})
            stats["cells"] += 1
            duration = attrs.get("duration_s")
            if isinstance(duration, (int, float)):
                stats["busy_s"] = round(stats["busy_s"] + float(duration), 6)
    for record in log.spans:
        name = record.get("name", "?")
        agg = report.spans.setdefault(name, {"count": 0, "total_s": 0.0})
        agg["count"] += 1
        duration = record.get("duration_s")
        if isinstance(duration, (int, float)):
            agg["total_s"] = round(agg["total_s"] + float(duration), 6)
    report.snapshot = log.last_snapshot
    return report


def write_bench_json(
    path: str,
    *,
    bench: str,
    metrics: Mapping[str, float],
    meta: Optional[Mapping] = None,
    snapshot: Optional[MetricsSnapshot] = None,
) -> str:
    """Write a ``BENCH_*.json`` perf-trajectory artifact atomically.

    The flat ``metrics`` mapping is the machine-comparable surface future
    PRs are gated against; ``meta`` describes the workload that produced
    the numbers, and ``snapshot`` optionally embeds the full telemetry
    snapshot for drill-down.
    """
    payload: dict = {
        "bench": bench,
        "version": 1,
        "metrics": {key: metrics[key] for key in sorted(metrics)},
    }
    if meta:
        payload["meta"] = {key: meta[key] for key in sorted(meta)}
    if snapshot is not None:
        payload["telemetry"] = snapshot.as_dict()
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path
