"""Append-only JSON-lines files: the one appender, line parser and tail reader.

Checkpoints, the service journal, telemetry and the cache shards share the
rules kept here.  :class:`JsonlLog` is the only code that appends to a file,
:func:`parse_lines` the only line decoder (a torn line decodes as ``None``),
and :class:`JsonlTail` returns only the complete lines appended since its
previous read, so status surfaces polling a growing file never re-read it.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Iterable, Iterator, Optional, Sequence

from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["JsonlLog", "JsonlTail", "parse_lines"]


class JsonlLog:
    """Append complete lines to one JSON-lines file under one failure policy.

    Each :meth:`write` opens the file (a held handle would keep appending to
    a shard ``cache gc`` replaced), appends in one ``write`` and flushes,
    under the instance's lock; the underscore sidecars are also fsynced.  A
    torn tail (a writer killed mid-append) gets a newline first, so readers
    skip the fragment, not the new record.  A durable log raises a failed
    write's ``OSError``; a ``best_effort`` one logs one WARNING, sets
    :attr:`failed` and drops every later write.
    """

    def __init__(self, path, *, best_effort: bool) -> None:
        self.path = pathlib.Path(path)
        self.best_effort = best_effort
        #: Set by a best-effort log's first failed write; later writes are dropped.
        self.failed = False
        self._fsync = self.path.name.startswith("_")
        self._lock = threading.Lock()

    def write(self, lines: Sequence[str]) -> None:
        """Append ``lines``, each ending in a newline, as one write."""
        data = "".join(lines).encode("utf-8")
        with self._lock:
            if self.failed:
                return
            try:
                # repro: disable=lock-discipline -- this leaf lock exists to order appends to one file, so the open, write and fsync are what it serialises
                with open(self.path, "a+b") as handle:
                    end = handle.tell()
                    if end:
                        handle.seek(end - 1)
                        if handle.read(1) != b"\n":
                            data = b"\n" + data
                    handle.write(data)
                    handle.flush()
                    if self._fsync:
                        # repro: disable=lock-discipline -- a sidecar line is durable only once fsynced, and the next append to the file must wait for it
                        os.fsync(handle.fileno())
            except OSError as exc:
                if not self.best_effort:
                    raise
                self.failed = True
                logger.warning("%s: append failed (%s); later writes to it are dropped",
                               self.path, exc)


def parse_lines(lines: Iterable[str]) -> Iterator[Optional[dict]]:
    """Yield each non-blank line's JSON object, or ``None`` for a torn or non-object line."""
    for line in lines:
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:  # a write torn at a kill point
                record = None
            yield record if isinstance(record, dict) else None


class JsonlTail:
    """Read one append-only JSON-lines file a growing piece at a time.

    Each :meth:`read` returns the complete lines appended since the previous
    call.  A torn final line (no newline yet) stays unread until a later
    call finds it completed, so it is returned exactly once.  A file that
    vanished, shrank or was replaced (a new inode, as an atomic
    temp-file-and-rename rewrite leaves) since the previous call is read
    again from its start, and the call says so.  Not thread-safe: the
    owner serialises calls.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self._identity: Optional[tuple[int, int]] = None
        self._offset = 0

    def read(self) -> tuple[bool, list[str]]:
        """``(restarted, lines)``: the lines appended since the previous call.

        ``restarted`` is True when the file read before vanished, shrank or
        was replaced; ``lines`` then starts at the new file's first line.
        """
        try:
            with open(self.path, "rb") as handle:
                # Identity and size come from the open handle, so a rewrite
                # racing this call cannot pair one file's offset with another.
                stat = os.fstat(handle.fileno())
                identity = (stat.st_dev, stat.st_ino)
                restarted = self._identity is not None and (
                    identity != self._identity or stat.st_size < self._offset)
                if restarted or self._identity is None:
                    self._identity, self._offset = identity, 0
                if stat.st_size == self._offset:
                    return restarted, []
                handle.seek(self._offset)
                chunk = handle.read(stat.st_size - self._offset)
        except OSError:  # vanished or unreadable: read it afresh once it is back
            restarted = self._identity is not None
            self._identity, self._offset = None, 0
            return restarted, []
        complete = chunk.rfind(b"\n") + 1
        self._offset += complete
        return restarted, chunk[:complete].decode("utf-8", errors="replace").splitlines()
