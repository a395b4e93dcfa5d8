"""Incremental reading of append-only JSON-lines files.

Status surfaces poll files that only ever grow — cache shards, sweep
checkpoints — so re-reading them whole on every request costs O(file)
each time.  :class:`JsonlTail` remembers how far it has read and returns
only the complete lines appended since.
"""

from __future__ import annotations

import os
import pathlib
from typing import Optional

__all__ = ["JsonlTail"]


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
