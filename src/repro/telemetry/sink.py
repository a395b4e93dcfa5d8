"""Telemetry sidecar file: ``_telemetry.jsonl`` next to the checkpoint.

Each record is one fsynced JSON line of a best-effort
:class:`~repro.utils.jsonl.JsonlLog`: a crash leaves at worst a torn final
line, which the reader skips, and a full disk disables the sink with one
WARNING instead of failing the run.  The leading underscore keeps the file
invisible to the disk-cache shard scanner and its garbage collector.

Record kinds:

* ``header``   — written when the sink is opened; carries the version.
* ``span``     — a completed ``trace()`` block (name, duration, attributes).
* ``event``    — a point-in-time occurrence (retry, lease grant, ...).
* ``snapshot`` — a full :class:`~repro.telemetry.metrics.MetricsSnapshot`,
  usually written once when a run finishes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.telemetry.metrics import MetricsSnapshot
from repro.utils.jsonl import JsonlLog, parse_lines

__all__ = ["TELEMETRY_FILENAME", "TELEMETRY_VERSION", "TelemetrySink", "TelemetryLog", "read_telemetry"]

#: Sidecar file name; the underscore prefix keeps it out of cache-shard scans.
TELEMETRY_FILENAME = "_telemetry.jsonl"
TELEMETRY_VERSION = 1


class TelemetrySink:
    """Append-only JSONL writer for telemetry records (best-effort)."""

    def __init__(
        self,
        path: str,
        *,
        fresh: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self._clock = clock
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if fresh:
            with open(path, "w", encoding="utf-8"):
                pass
        self.log = JsonlLog(path, best_effort=True)
        self._append({"kind": "header", "version": TELEMETRY_VERSION})

    def _append(self, record: dict) -> None:
        record = dict(record)
        record["ts"] = round(self._clock(), 3)
        self.log.write([json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"])

    def write_span(self, name: str, duration_s: float, attrs: Optional[Mapping] = None) -> None:
        record = {"kind": "span", "name": name, "duration_s": round(float(duration_s), 6)}
        if attrs:
            record["attrs"] = dict(attrs)
        self._append(record)

    def write_event(self, name: str, attrs: Optional[Mapping] = None) -> None:
        record = {"kind": "event", "name": name}
        if attrs:
            record["attrs"] = dict(attrs)
        self._append(record)

    def write_snapshot(self, snapshot: MetricsSnapshot) -> None:
        self._append({"kind": "snapshot", "metrics": snapshot.as_dict()})


@dataclass
class TelemetryLog:
    """Parsed contents of a ``_telemetry.jsonl`` sidecar."""

    path: str
    version: Optional[int] = None
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    records: int = 0
    corrupt_lines: int = 0

    @property
    def last_snapshot(self) -> Optional[MetricsSnapshot]:
        if not self.snapshots:
            return None
        return MetricsSnapshot.from_dict(self.snapshots[-1]["metrics"])


def read_telemetry(path: str) -> TelemetryLog:
    """Load a telemetry sidecar, tolerating a torn (partial) final line.

    A torn or otherwise corrupt line is counted in ``corrupt_lines`` and
    skipped; everything parseable is kept.  Missing file yields an empty log.
    """
    log = TelemetryLog(path=path)
    if not os.path.exists(path):
        return log
    with open(path, "r", encoding="utf-8") as handle:
        for record in parse_lines(handle):
            if record is None:
                log.corrupt_lines += 1
                continue
            log.records += 1
            kind = record.get("kind")
            if kind == "header":
                log.version = record.get("version")
            elif kind == "span":
                log.spans.append(record)
            elif kind == "event":
                log.events.append(record)
            elif kind == "snapshot":
                log.snapshots.append(record)
    return log
