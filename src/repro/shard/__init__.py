"""Cross-machine distributed sweep: lease-based coordinator/worker tier.

``repro.shard`` scales the sweep grid past one machine with nothing but
the standard library: a coordinator (``http.server``) owns the grid and
leases cells to workers (``urllib``), ships each worker the serialized
per-device :class:`~repro.sweep.runner.PreparedTarget` for its cells,
and streams every settled :class:`~repro.sweep.runner.SweepOutcome` /
``SweepFailure`` into the exact same fsynced ``_checkpoint.jsonl`` a
local sweep writes — so ``--resume``, :meth:`SweepResult.load`,
``compare`` and ``compare --diff`` treat distributed and local runs
identically, and the merged result's journals are byte-identical to a
single-machine ``workers=1`` run of the same grid and seed.

Each grid is served from the runner's own attempt ledger, the
:class:`~repro.sweep.ledger.LeaseBoard` a local sweep drains: an expired
or timed-out lease requeues its cell (the runner's retry/backoff/cost-hint
policy), and duplicate completions are resolved deterministically by task
uid — first settled record wins.

One :class:`LeaseCoordinator` serves both shapes of deployment: a
one-shot grid here, and every job of the persistent service
(:mod:`repro.service`), which subclasses it.

Quickstart (two terminals)::

    # terminal 1 — the coordinator owns the grid and the checkpoint
    repro-codesign shard coordinator --bind 0.0.0.0:8765 \
        --devices pynq-z1,ultra96 --strategies scd,random \
        --fps 20 30 --cache-dir .sweep-cache --report sweep.json

    # terminal 2..N — workers on any machine that can reach it
    repro-codesign shard worker --connect coordinator-host:8765 --workers 4

Programmatically the distributed tier is one argument — a started
:class:`LeaseCoordinator` as the runner's ``transport``; without it the
runner executes the cells locally.  Workers may register as soon as the
coordinator serves, and it closes once the run's cells settled::

    from repro.shard import LeaseCoordinator
    from repro.sweep import SweepRunner, build_grid

    tasks = build_grid("pynq-z1,ultra96", "scd,random", [20.0, 30.0])
    coordinator = LeaseCoordinator(("0.0.0.0", 8765), cache_dir=".sweep-cache")
    coordinator.start()
    result = SweepRunner(tasks, cache_dir=".sweep-cache",
                         transport=coordinator).run()
"""

from repro.shard.coordinator import LeaseCoordinator, parse_report
from repro.shard.protocol import (
    AUTH_HEADER,
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_PORT,
    MAX_LEASE_WAIT_S,
    PROTOCOL_VERSION,
    SERVICE_TOKEN_ENV,
    ShardProtocolError,
    delete_json,
    get_json,
    parse_bind,
    post_json,
    resolve_token,
    token_matches,
)
from repro.shard.worker import ShardWorker
from repro.sweep.ledger import LeaseBoard, WorkerRegistry
from repro.sweep.runner import execute_cell

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_HEARTBEAT_S",
    "MAX_LEASE_WAIT_S",
    "AUTH_HEADER",
    "SERVICE_TOKEN_ENV",
    "ShardProtocolError",
    "parse_bind",
    "parse_report",
    "post_json",
    "get_json",
    "delete_json",
    "resolve_token",
    "token_matches",
    "LeaseBoard",
    "LeaseCoordinator",
    "WorkerRegistry",
    "ShardWorker",
    "execute_cell",
]
