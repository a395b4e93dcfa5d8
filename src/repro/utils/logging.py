"""Logging helpers.

The library uses the standard :mod:`logging` module so that applications
embedding the co-design flow can control verbosity through the usual
``logging`` configuration machinery.
"""

from __future__ import annotations

import logging
import sys

_FORMAT = "%(asctime)s %(name)s %(levelname)s: %(message)s"


class _StderrHandler(logging.StreamHandler):
    """A console handler on whatever ``sys.stderr`` is when a record is emitted.

    A plain ``StreamHandler()`` keeps the stream it was built with, so once
    that stream is closed or swapped (as a test harness's capture is) every
    record becomes a ``--- Logging error ---`` report.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def get_logger(name: str, level: int | None = None) -> logging.Logger:
    """Return a namespaced logger under the ``repro`` hierarchy.

    Parameters
    ----------
    name:
        Module name; typically ``__name__`` of the caller.
    level:
        Optional explicit level.  When omitted the logger inherits the level
        of its ancestors.
    """
    if not name.startswith("repro"):
        name = f"repro.{name}"
    logger = logging.getLogger(name)
    if level is not None:
        logger.setLevel(level)
    return logger


def configure_logging(level: int | str = logging.INFO) -> None:
    """Configure a basic console handler for the ``repro`` logger tree.

    Safe to call multiple times; subsequent calls only adjust the level —
    of the logger *and* of the handlers installed earlier, so lowering to
    ``DEBUG`` after an initial ``INFO`` call actually emits debug records.
    Accepts a numeric level or a name like ``"debug"``.
    """
    if isinstance(level, str):
        parsed = logging.getLevelName(level.strip().upper())
        if not isinstance(parsed, int):
            raise ValueError(f"unknown log level {level!r}")
        level = parsed
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not root.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
    for handler in root.handlers:
        handler.setLevel(level)
