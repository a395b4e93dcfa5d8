"""The distributed transport: serve a `SweepRunner`'s cells to remote workers.

:class:`~repro.sweep.runner.SweepRunner` accepts a ``transport``: any
object whose ``execute(runner, order, preparations)`` runs the
cost-ordered pending cells and returns
``(outcomes_by_index, failures_by_index)``.  Grid validation, shared
preparation, resume, cost hints, timings and result assembly all stay in
the runner, and so does the attempt ledger: ``runner.board(order, ...)``
settles every cell through ``runner.settle_outcome`` /
``runner.settle_failure``, so the incremental checkpoint is written
identically in every mode.  A transport only decides *where* the
single-cell execution path (:func:`repro.sweep.runner.run_sweep_task`)
runs.  Without one the runner drains the board locally.

:class:`CoordinatorTransport` serves the run's board from a one-shot
:class:`~repro.shard.coordinator.LeaseCoordinator` to remote
:mod:`repro.shard.worker` processes instead of forking local ones.  The
job service serves each job from the same coordinator class through its
own per-job transport.
"""

from __future__ import annotations

from typing import Optional

from repro.shard.coordinator import LeaseCoordinator
from repro.shard.protocol import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    check_lease_timing,
)
from repro.utils.logging import get_logger

logger = get_logger(__name__)


class CoordinatorTransport:
    """Serve the pending cells to remote workers over the shard protocol.

    The transport owns a one-shot :class:`LeaseCoordinator` for the
    duration of one :meth:`SweepRunner.run` call: the run's cells are its
    only board, ``done`` goes out once they all settled, and the socket
    closes as soon as every live worker heard so — ``linger_s`` caps that
    wait.
    """

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        *,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        linger_s: float = 2.0,
        on_bound=None,
        token: Optional[str] = None,
    ) -> None:
        check_lease_timing(lease_ttl_s, heartbeat_s)
        self.bind = bind
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = heartbeat_s
        self.linger_s = linger_s
        self.on_bound = on_bound
        self.token = token or None
        #: The coordinator of the in-flight run (exposed for tests/status).
        self.coordinator: Optional[LeaseCoordinator] = None
        #: Lease metrics / per-worker stats of the last finished run, kept
        #: after the server socket closes so the CLI can print a recap.
        self.final_counts: Optional[dict] = None
        self.final_workers: Optional[list] = None

    def execute(self, runner, order, preparations):
        if not order:
            return {}, {}
        coordinator = LeaseCoordinator(
            self.bind,
            token=self.token,
            lease_ttl_s=self.lease_ttl_s,
            heartbeat_s=self.heartbeat_s,
            # The run's cache dir doubles as the cache-exchange hub: fresh
            # workers pull it in bulk and push back what they compute.
            cache_dir=runner.cache_dir,
        )
        board = coordinator.attach(runner, order, preparations)
        coordinator.start()
        self.coordinator = coordinator
        logger.info(
            "shard: coordinator serving %d cell(s) on %s", len(order), coordinator.url
        )
        try:
            if self.on_bound is not None:
                self.on_bound(coordinator)
            # A failed checkpoint append stops the grid: run() raises it.
            coordinator.wait(board, stopped=lambda: runner._write_error is not None)
            if board.done:
                coordinator.linger(self.linger_s)
        finally:
            self.final_counts = coordinator.lease_metrics()
            self.final_workers = coordinator.workers.stats()
            coordinator.close()
            self.coordinator = None
        return dict(board.outcomes), dict(board.failures)
