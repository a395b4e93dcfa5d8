"""Run ``repro-codesign`` with injected cell faults, for tests and CI smokes.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python tests/fault_cli.py --fail PYNQ-Z1-random-40fps -- sweep --devices pynq-z1 ...
    python tests/fault_cli.py --stall PYNQ-Z1-scd-40fps -- shard worker --connect ...

``--fail NAME`` makes every attempt of the named cell raise; ``--stall NAME``
makes it block for an hour, like a hung cell that a per-task timeout or an
expired lease must reclaim.  ``NAME`` is a cell's display name or uid; both
options repeat.  Everything after ``--`` is passed to ``repro.cli.main``.

The fault is injected by replacing ``repro.sweep.runner._run_sweep_task``,
which :func:`~repro.sweep.runner.run_sweep_task` looks up on every call.
Cells run in-process see the replacement directly and forked worker
processes inherit it, so one patch covers ``--workers 1`` and ``N`` sweeps
and in-process shard workers alike.  Tests that drive ``main`` directly use
:func:`faulty` with ``monkeypatch.setattr`` instead.
"""

from __future__ import annotations

import argparse
import sys
import time

import repro.sweep.runner as runner

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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="fault_cli.py", description=__doc__.splitlines()[0])
    parser.add_argument("--fail", action="append", default=[], metavar="NAME")
    parser.add_argument("--stall", action="append", default=[], metavar="NAME")
    args = parser.parse_args(argv[:split])
    runner._run_sweep_task = faulty(args.fail, args.stall)

    from repro.cli import main as cli_main

    return cli_main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main())
