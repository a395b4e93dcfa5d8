"""Run ``repro-codesign`` with injected cell or disk faults, for tests and CI smokes.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python tests/fault_cli.py --fail PYNQ-Z1-random-40fps -- sweep --devices pynq-z1 ...
    python tests/fault_cli.py --stall PYNQ-Z1-scd-40fps -- shard worker --connect ...
    python tests/fault_cli.py --full-disk _checkpoint.jsonl -- sweep --cache-dir ...

``--fail NAME`` makes every attempt of the named cell raise; ``--stall NAME``
makes it block for an hour, like a hung cell that a per-task timeout or an
expired lease must reclaim.  ``NAME`` is a cell's display name or uid; both
options repeat.  ``--full-disk GLOB`` makes every append to a JSON-lines
file whose name matches ``GLOB`` fail with ENOSPC, as on a full disk.
Everything after ``--`` is passed to ``repro.cli.main``.

Cell faults replace ``repro.sweep.runner._run_sweep_task``, which
:func:`~repro.sweep.runner.run_sweep_task` looks up on every call; disk
faults replace the ``open`` of :mod:`repro.utils.jsonl`, the one module that
appends to files.  Code run in-process sees a replacement directly and
forked worker processes inherit it, so one patch covers ``--workers 1`` and
``N`` sweeps and in-process shard workers alike.  Tests that drive ``main``
directly use :func:`faulty` and :func:`full_disk` with
``monkeypatch.setattr`` instead.
"""

from __future__ import annotations

import argparse
import errno
import fnmatch
import os
import sys
import time

import repro.sweep.runner as runner
import repro.utils.jsonl as jsonl

#: How long a stalled cell blocks (it is killed or abandoned long before).
STALL_S = 3600.0


def faulty(fail=(), stall=()):
    """A stand-in for ``_run_sweep_task`` that fails or stalls named cells."""
    fail, stall = set(fail), set(stall)
    original = runner._run_sweep_task

    def run(task, cache_dir, prepared):
        if fail & {task.name, task.uid}:
            raise RuntimeError(f"injected failure for task {task.name}")
        if stall & {task.name, task.uid}:
            time.sleep(STALL_S)
        return original(task, cache_dir, prepared)

    return run


def full_disk(pattern: str):
    """A stand-in for ``open`` in :mod:`repro.utils.jsonl` that fails appends
    to files whose name matches the glob ``pattern`` with ENOSPC."""

    def fake_open(file, mode="r", *args, **kwargs):
        if "a" in mode and fnmatch.fnmatch(os.path.basename(file), pattern):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
        return open(file, mode, *args, **kwargs)

    return fake_open


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="fault_cli.py", description=__doc__.splitlines()[0])
    parser.add_argument("--fail", action="append", default=[], metavar="NAME")
    parser.add_argument("--stall", action="append", default=[], metavar="NAME")
    parser.add_argument("--full-disk", metavar="GLOB")
    args = parser.parse_args(argv[:split])
    runner._run_sweep_task = faulty(args.fail, args.stall)
    if args.full_disk:
        jsonl.open = full_disk(args.full_disk)

    from repro.cli import main as cli_main

    return cli_main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main())
