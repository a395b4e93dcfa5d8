"""Append-only JSON-lines files: the one appender, line parser and tail reader.

Checkpoints, the service journal, telemetry and the cache shards share the
rules kept here.  :class:`JsonlLog` is the only code that appends to a file,
:func:`parse_lines` the only line decoder (a torn line decodes as ``None``),
and :class:`JsonlTail` returns only the complete lines appended since its
previous read, so status surfaces polling a growing file never re-read it.
A writer that also tails the file hands the :class:`Appended` span each
write returns to :meth:`JsonlTail.skip_own`, so it never reads its own lines
back.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["Appended", "JsonlLog", "JsonlTail", "parse_lines"]


class Appended(NamedTuple):
    """The bytes one :meth:`JsonlLog.write` appended: ``[start, end)`` of the
    file whose ``(st_dev, st_ino)`` is ``identity``."""

    identity: tuple[int, int]
    start: int
    end: int


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

    def write(self, lines: Sequence[str]) -> Optional[Appended]:
        """Append ``lines``, each ending in a newline, as one write.

        Returns where they landed, or ``None`` when a best-effort log
        dropped them.
        """
        data = "".join(lines).encode("utf-8")
        with self._lock:
            if self.failed:
                return None
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
                    # An append lands at the end whatever tell() said before it.
                    end = handle.tell()
                    stat = os.fstat(handle.fileno())
                    return Appended((stat.st_dev, stat.st_ino), end - len(data), end)
            except OSError as exc:
                if not self.best_effort:
                    raise
                self.failed = True
                logger.warning("%s: append failed (%s); later writes to it are dropped",
                               self.path, exc)
        return None


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
    call finds it completed, so it is returned exactly once; meanwhile
    :attr:`torn` says one is pending.  A file that vanished, shrank or was
    replaced (a new inode, as an atomic temp-file-and-rename rewrite leaves)
    since the previous call is read again from its start, and the call says
    so.  Not thread-safe: the owner serialises calls.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self._identity: Optional[tuple[int, int]] = None
        self._offset = 0
        #: True when the last read ended on a non-blank line without a newline.
        self.torn = False

    def read(self) -> tuple[bool, list[str]]:
        """``(restarted, lines)``: the lines appended since the previous call.

        ``restarted`` is True when the file read before vanished, shrank or
        was replaced; ``lines`` then starts at the new file's first line.
        """
        self.torn = False
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
        self.torn = bool(chunk[complete:].strip())
        return restarted, chunk[:complete].decode("utf-8", errors="replace").splitlines()

    def skip_own(self, span: Appended) -> bool:
        """Count lines the owner appended itself (``span``) as read; True if it did.

        Only when they come next in the file this tail follows: lines that
        another writer appended before or after them are still returned by
        the next :meth:`read`, and so are the owner's own when they are not.
        """
        if self._offset != span.start or self._identity not in (None, span.identity):
            return False
        self._identity, self._offset = span.identity, span.end
        return True
