"""Tests for the cross-machine distributed sweep tier (:mod:`repro.shard`)."""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.device import get_device
from repro.shard import (
    DEFAULT_HEARTBEAT_S,
    CoordinatorTransport,
    LeaseBoard,
    LeaseCoordinator,
    ShardProtocolError,
    ShardWorker,
    WorkerRegistry,
    get_json,
    parse_bind,
    post_json,
)
from repro.sweep import (
    CHECKPOINT_FILENAME,
    PreparedTarget,
    SweepRunner,
    build_grid,
    load_checkpoint,
    prepare_device,
    run_sweep_task,
)
from repro.utils.serialization import to_jsonable

#: Shared tiny sweep budget: every cell completes in well under a second.
TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)


def journal_bytes(outcomes):
    """The canonical byte form of each outcome's journal, in order."""
    return [json.dumps(to_jsonable(o.journal), sort_keys=True) for o in outcomes]


# ---------------------------------------------------------------- bind parsing
class TestParseBind:
    def test_host_and_port(self):
        assert parse_bind("0.0.0.0:9000") == ("0.0.0.0", 9000)

    def test_defaults(self):
        assert parse_bind("") == ("127.0.0.1", 8765)
        assert parse_bind("myhost") == ("myhost", 8765)
        assert parse_bind(":9001") == ("127.0.0.1", 9001)

    def test_invalid_port(self):
        with pytest.raises(ValueError, match="invalid port"):
            parse_bind("host:http")
        with pytest.raises(ValueError, match="out of range"):
            parse_bind("host:70000")


# --------------------------------------------------- PreparedTarget wire trip
class TestPreparedDeviceWire:
    def test_wire_round_trip_is_bit_exact(self):
        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        prepared = prepare_device(task)
        # Through real JSON text, as the HTTP transport ships it.
        clone = PreparedTarget.from_wire(json.loads(json.dumps(prepared.to_wire())))
        assert clone == prepared, "floats must survive the JSON trip bit-exact"
        assert clone.coefficients == prepared.coefficients
        assert clone.selected_bundle_ids == prepared.selected_bundle_ids

    def test_wire_round_trip_execution_matches_in_process(self, tmp_path):
        """Acceptance: a shipped artifact yields byte-identical journals."""
        task = build_grid("pynq-z1", "random", [40.0], **TINY)[0]
        prepared = prepare_device(task)
        clone = PreparedTarget.from_wire(json.loads(json.dumps(prepared.to_wire())))
        inline = run_sweep_task(task, str(tmp_path / "a"), prepared=prepared)
        shipped = run_sweep_task(task, str(tmp_path / "b"), prepared=clone)
        assert journal_bytes([inline]) == journal_bytes([shipped])

    def test_from_wire_rejects_missing_coefficients(self):
        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        payload = prepare_device(task).to_wire()
        del payload["coefficients"]
        with pytest.raises(ValueError, match="coefficients"):
            PreparedTarget.from_wire(payload)

    def test_wire_key_separates_prep_axes(self):
        base = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        util = build_grid("pynq-z1", "scd", [40.0], tolerance_ms=10.0, iterations=25,
                          num_candidates=1, top_bundles=2, seed=1,
                          utilizations=[0.8])[0]
        assert prepare_device(base).wire_key != prepare_device(util).wire_key

    def test_wire_key_is_float_exact(self):
        """Regression: ':g' formatting (6 significant digits) aliased
        preparations whose floats differ past the 6th digit, silently
        shipping workers the wrong artifact."""
        import dataclasses

        prepared = prepare_device(build_grid("pynq-z1", "scd", [40.0], **TINY)[0])
        close = dataclasses.replace(prepared, utilization=prepared.utilization
                                    - 1e-9)
        assert close.utilization != prepared.utilization
        assert close.wire_key != prepared.wire_key

    @settings(max_examples=6, deadline=None)
    @given(
        device=st.sampled_from(["pynq-z1", "ultra96", "zc706"]),
        clock_factor=st.sampled_from([None, 0.6, 1.0]),
        utilization=st.sampled_from([1.0, 0.8, 0.5]),
    )
    def test_wire_trip_property_over_prep_keys(self, device, clock_factor, utilization):
        """Serialize → deserialize → execute must be invisible for every
        (device, clock, utilization) preparation key."""
        clocks = None
        if clock_factor is not None:
            clocks = [round(get_device(device).default_clock_mhz * clock_factor, 1)]
        task = build_grid(device, "scd", [40.0], tolerance_ms=10.0, iterations=10,
                          num_candidates=1, top_bundles=2, seed=1,
                          clocks_mhz=clocks, utilizations=[utilization])[0]
        prepared = prepare_device(task)
        clone = PreparedTarget.from_wire(json.loads(json.dumps(prepared.to_wire())))
        assert clone == prepared
        inline = run_sweep_task(task, prepared=prepared)
        shipped = run_sweep_task(task, prepared=clone)
        assert journal_bytes([inline]) == journal_bytes([shipped])


# ------------------------------------------------------------------ lease board
def make_board(tasks, **kwargs):
    order = list(range(len(tasks)))
    kwargs.setdefault("workers", WorkerRegistry())
    return LeaseBoard(dict(enumerate(tasks)), order, **kwargs)


def fake_outcome(task):
    from repro.sweep import SweepOutcome

    return SweepOutcome(
        task=task, journal={"records": [], "candidates": []}, selected_bundles=[13],
        num_candidates=1, best_latency_ms=10.0, best_gap_ms=0.5, evaluations=3,
        memory_hits=0, memory_misses=3, disk_hits=0, disk_misses=0,
        estimator_calls=3, duration_s=0.1,
    )


class TestLeaseBoard:
    def tasks(self, n=3):
        return build_grid("pynq-z1", ["scd", "random", "annealing"][:n],
                          [40.0], **TINY)

    def test_lease_order_and_attempts(self):
        tasks = self.tasks(3)
        board = make_board(tasks)
        worker = board.workers.register("a")
        cells = board.lease(worker, 2)
        assert [c.index for c in cells] == [0, 1]
        assert all(c.attempts == 1 and c.status == "leased" for c in cells)
        assert board.lease(worker, 5)[0].index == 2
        assert board.lease(worker, 1) == []

    def test_report_outcome_settles_once(self):
        tasks = self.tasks(1)
        settled = []
        board = make_board(tasks, on_outcome=lambda i, o: settled.append(i))
        worker = board.workers.register("a")
        lease_id = board.lease(worker, 1)[0].lease_id
        accepted, reason = board.report(worker, lease_id, tasks[0].uid,
                                        outcome=fake_outcome(tasks[0]))
        assert (accepted, reason) == (True, "settled")
        assert board.done and settled == [0]
        duplicate = board.report(worker, lease_id, tasks[0].uid,
                                 outcome=fake_outcome(tasks[0]))
        assert duplicate == (False, "duplicate")
        assert len(board.outcomes) == 1 and settled == [0]

    def test_report_validates_lease_and_uid(self):
        tasks = self.tasks(1)
        board = make_board(tasks)
        worker = board.workers.register("a")
        cell = board.lease(worker, 1)[0]
        assert board.report(worker, "l999", tasks[0].uid,
                            outcome=fake_outcome(tasks[0])) == (False, "unknown-lease")
        assert board.report(worker, cell.lease_id, "not-a-uid",
                            outcome=fake_outcome(tasks[0])) == (False, "unknown-cell")
        with pytest.raises(ShardProtocolError, match="unknown worker"):
            board.report("w999", cell.lease_id, tasks[0].uid,
                         outcome=fake_outcome(tasks[0]))

    def test_error_reports_requeue_then_fail(self):
        tasks = self.tasks(1)
        failures = []
        board = make_board(tasks, retries=1,
                           on_failure=lambda i, f: failures.append(f))
        worker = board.workers.register("a")
        cell = board.lease(worker, 1)[0]
        accepted, reason = board.report(worker, cell.lease_id, tasks[0].uid,
                                        error="boom")
        assert (accepted, reason) == (True, "requeued")
        cell = board.lease(worker, 1)[0]
        assert cell.attempts == 2
        accepted, reason = board.report(worker, cell.lease_id, tasks[0].uid,
                                        error="boom again", duration_s=0.5)
        assert (accepted, reason) == (True, "settled")
        assert board.done
        assert failures[0].kind == "error" and failures[0].attempts == 2
        assert failures[0].duration_s == pytest.approx(0.5)

    def test_expired_lease_requeues_bounded(self):
        tasks = self.tasks(1)
        failures = []
        board = make_board(tasks, retries=1, lease_ttl_s=0.05,
                           on_failure=lambda i, f: failures.append(f))
        worker = board.workers.register("dying")
        assert board.lease(worker, 1)
        time.sleep(0.08)
        assert board.expire_leases() == 1
        cells = board.lease(worker, 1)  # requeued, second (and last) attempt
        assert cells and cells[0].attempts == 2
        time.sleep(0.08)
        assert board.expire_leases() == 1
        assert board.done
        assert failures and failures[0].kind == "crash"
        assert "stopped heartbeating" in failures[0].error

    def test_heartbeat_extends_lease_and_reports_lost(self):
        tasks = self.tasks(1)
        board = make_board(tasks, lease_ttl_s=0.3)
        worker = board.workers.register("a")
        cell = board.lease(worker, 1)[0]
        for _ in range(3):
            time.sleep(0.15)
            assert board.heartbeat(worker, [cell.lease_id]) == []
            assert board.expire_leases() == 0
        assert board.heartbeat(worker, ["l999"]) == ["l999"]

    def test_cell_deadline_overrides_live_heartbeat(self):
        """A stalled cell is requeued even while its worker heartbeats."""
        tasks = self.tasks(1)
        board = make_board(tasks, retries=0, lease_ttl_s=30.0,
                           timeouts={0: 0.05})
        worker = board.workers.register("staller")
        lease_id = board.lease(worker, 1)[0].lease_id
        assert board.heartbeat(worker, [lease_id]) == []
        time.sleep(0.08)
        # The heartbeat itself runs the reaper: the stalled cell is revoked
        # even though its worker is demonstrably alive.
        assert board.heartbeat(worker, [lease_id]) == [lease_id]
        assert board.done
        assert board.failures[0].kind == "timeout"

    def test_late_report_after_requeue_is_first_wins(self):
        """A revoked worker's result still counts when it arrives first."""
        tasks = self.tasks(1)
        board = make_board(tasks, retries=2, lease_ttl_s=0.05)
        slow = board.workers.register("slow")
        stale_lease = board.lease(slow, 1)[0].lease_id
        time.sleep(0.08)
        board.expire_leases()
        fast = board.workers.register("fast")
        fresh_lease = board.lease(fast, 1)[0].lease_id
        assert fresh_lease != stale_lease
        # The presumed-dead worker reports first: accepted (work not wasted).
        assert board.report(slow, stale_lease, tasks[0].uid,
                            outcome=fake_outcome(tasks[0])) == (True, "settled")
        # The reassigned worker's duplicate is dropped deterministically.
        assert board.report(fast, fresh_lease, tasks[0].uid,
                            outcome=fake_outcome(tasks[0])) == (False, "duplicate")
        assert len(board.outcomes) == 1 and board.done

    def test_late_report_for_requeued_cell_leaves_queue_clean(self):
        """Regression: a late result for a cell sitting requeued (expired but
        not yet re-leased) must settle it exactly once — and pull it out of
        the queue so it can never be leased, re-run and settled again."""
        tasks = self.tasks(1)
        settled = []
        board = make_board(tasks, retries=3, lease_ttl_s=0.05,
                           on_outcome=lambda i, o: settled.append(i))
        worker = board.workers.register("slow")
        stale_lease = board.lease(worker, 1)[0].lease_id
        time.sleep(0.08)
        board.expire_leases()  # cell requeued, back in the lease queue
        assert board.report(worker, stale_lease, tasks[0].uid,
                            outcome=fake_outcome(tasks[0])) == (True, "settled")
        assert board.done and settled == [0]
        assert board.lease(worker, 5) == [], "settled cell must not be re-leased"
        assert len(board.outcomes) == 1 and not board.failures

    def test_stale_error_reports_are_not_charged_again(self):
        """Regression: an error report from an expired (or superseded) lease
        must not double-requeue the cell or fail it under another worker."""
        tasks = self.tasks(1)
        board = make_board(tasks, retries=1, lease_ttl_s=0.05)
        slow = board.workers.register("slow")
        stale_lease = board.lease(slow, 1)[0].lease_id
        time.sleep(0.08)
        board.expire_leases()  # requeued: that attempt is already accounted
        assert board.report(slow, stale_lease, tasks[0].uid,
                            error="late boom") == (False, "stale-lease")
        fast = board.workers.register("fast")
        cells = board.lease(fast, 5)
        assert len(cells) == 1, "exactly one queued copy of the cell"
        fresh_lease = cells[0].lease_id
        assert board.lease(fast, 5) == []
        # A stale error while another worker holds the cell: also inert.
        assert board.report(slow, stale_lease, tasks[0].uid,
                            error="later boom") == (False, "stale-lease")
        assert board.report(fast, fresh_lease, tasks[0].uid,
                            outcome=fake_outcome(tasks[0])) == (True, "settled")
        assert board.done and not board.failures

    def test_backoff_delays_requeued_cell(self):
        tasks = self.tasks(1)
        board = make_board(tasks, retries=1, backoff=lambda attempts: 0.2)
        worker = board.workers.register("a")
        cell = board.lease(worker, 1)[0]
        board.report(worker, cell.lease_id, tasks[0].uid, error="flaky")
        assert board.lease(worker, 1) == [], "cell must be inside its backoff window"
        time.sleep(0.25)
        assert board.lease(worker, 1), "cell must come back after the backoff"


class TestWorkerRegistry:
    def test_concurrent_leases_across_boards_tally_each_cell_once(self):
        """Stress: more leasing threads than cores over two boards sharing one
        registry lose no per-worker tally and grant no cell twice."""
        import sys

        registry = WorkerRegistry()
        tasks = build_grid("pynq-z1,ultra96", "scd,random,annealing",
                           [40.0, 50.0, 60.0, 70.0], **TINY)
        boards = [LeaseBoard(dict(enumerate(tasks)), list(range(len(tasks))),
                             workers=registry, job=job) for job in ("a", "b")]
        leased = []

        def grab(worker_id):
            for board in boards:
                while cells := board.lease(worker_id, 1):
                    leased.extend(cells)

        threads = [threading.Thread(target=grab, args=(registry.register(f"w{i}"),))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({cell.lease_id for cell in leased}) == len(leased) == 2 * len(tasks)
        assert sum(entry["leased"] for entry in registry.stats()) == 2 * len(tasks)


# ------------------------------------------------------------- HTTP coordinator
def serve(tasks, preparations=None, **runner_kwargs):
    """A started one-shot coordinator serving ``tasks`` as its one board."""
    coordinator = LeaseCoordinator()
    coordinator.attach(SweepRunner(tasks, **runner_kwargs),
                       list(range(len(tasks))), preparations or {})
    coordinator.start()
    return coordinator


# --------------------------------------------------------- request body bounds
@pytest.fixture(params=["coordinator", "service"])
def lease_surface(request, tmp_path):
    """A started coordinator of each handler table: one-shot and service."""
    if request.param == "coordinator":
        surface = LeaseCoordinator()
        stop = surface.close
    else:
        from repro.service import ServiceCoordinator

        surface = ServiceCoordinator(tmp_path / "root")
        stop = surface.stop
    surface.start()
    yield surface
    stop()


def post_declaring_length(url: str, declared: str) -> tuple[int, dict]:
    """POST /v1/report with a ``Content-Length`` header and no body bytes."""
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10.0)
    try:
        connection.putrequest("POST", "/v1/report")
        connection.putheader("Content-Length", declared)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestRequestBodyBounds:
    """``Content-Length`` is checked before a single body byte is read."""

    def test_non_integer_length_is_rejected_with_400(self, lease_surface):
        status, reply = post_declaring_length(lease_surface.url, "abc")
        assert status == 400 and "Content-Length" in reply["error"]

    def test_negative_length_is_rejected_with_400(self, lease_surface):
        # Regression: rfile.read(-1) parked the handler thread, no reply.
        status, reply = post_declaring_length(lease_surface.url, "-1")
        assert status == 400 and "Content-Length" in reply["error"]

    def test_oversized_length_is_rejected_with_413(self, lease_surface):
        from repro.shard.protocol import MAX_BODY_BYTES

        status, reply = post_declaring_length(lease_surface.url, str(MAX_BODY_BYTES + 1))
        assert status == 413 and "exceeds" in reply["error"]


class TestStalledConnections:
    """A handler thread never outlives its socket timeout."""

    TIMEOUT_S = 0.5

    @staticmethod
    def _wait_for_threads(count: int) -> None:
        deadline = time.monotonic() + 10.0
        while threading.active_count() < count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() >= count

    @pytest.mark.parametrize("kind", ["coordinator", "service"])
    def test_stop_leaves_no_handler_thread_behind(self, kind, tmp_path, monkeypatch,
                                                   caplog, capfd):
        import logging
        import socket
        import struct

        from repro.service import ServiceCoordinator
        from repro.shard.coordinator import _CoordinatorHandler

        monkeypatch.setattr(_CoordinatorHandler, "timeout", self.TIMEOUT_S)
        baseline = threading.active_count()
        if kind == "coordinator":
            surface = LeaseCoordinator()
            stop = surface.close
        else:
            surface = ServiceCoordinator(tmp_path / "root")
            stop = surface.stop
        surface.start()
        serving = threading.active_count()
        head = b"POST /v1/lease HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n"
        stalled = []
        try:
            # One at a time, so each is accepted and holds its own thread.
            for _ in range(20):
                stalled.append(socket.create_connection(surface.address, timeout=10.0))
                stalled[-1].sendall(head)
                self._wait_for_threads(serving + len(stalled))
            idle = socket.create_connection(surface.address, timeout=10.0)
            stalled.append(idle)
            idle.sendall(b"GET /v1/status HTTP/1.1\r\nHost: t\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 200")
            # Six clients hang up half-way through their body, three with a
            # reset (SO_LINGER 0).
            for hangup in range(6):
                with socket.create_connection(surface.address, timeout=10.0) as sock:
                    if hangup % 2:
                        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        struct.pack("ii", 1, 0))
                    sock.sendall(head + b'{"worker_id": ')
            stop()
            deadline = time.monotonic() + self.TIMEOUT_S + 10.0
            while threading.active_count() > baseline and time.monotonic() < deadline:
                time.sleep(0.05)
            assert threading.active_count() <= baseline
            for sock in stalled[:-1]:
                assert sock.recv(65536).startswith(b"HTTP/1.1 408")
        finally:
            for sock in stalled:
                sock.close()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        # socketserver's handle_error: a reply written to a vanished client.
        assert "Exception occurred during processing" not in capfd.readouterr().err


class TestListenBacklog:
    def test_a_burst_of_connections_is_not_held_back(self):
        import socket

        coordinator = LeaseCoordinator()
        sockets = []
        try:
            # Not serving yet: every connection waits in the listen backlog.
            start = time.monotonic()
            for _ in range(20):
                sockets.append(socket.create_connection(coordinator.address, timeout=5.0))
            assert time.monotonic() - start < 1.0
        finally:
            for sock in sockets:
                sock.close()
            coordinator.close()


#: One malformed field per body; each must answer 400 naming the field.
MALFORMED_FIELDS = [
    ("/v1/lease", {"slots": "x"}, "slots"),
    ("/v1/lease", {"slots": None}, "slots"),
    ("/v1/lease", {"known_preps": 5}, "known_preps"),
    ("/v1/heartbeat", {"lease_ids": 5}, "lease_ids"),
    ("/v1/report", {"duration_s": "x"}, "duration_s"),
    ("/v1/report", {"duration_s": None}, "duration_s"),
    ("/v1/cache/pull", {"namespaces": [{}]}, "namespaces"),
]


class TestMalformedLeaseFields:
    @pytest.mark.parametrize("route,fields,name", MALFORMED_FIELDS,
                             ids=[f"{route}-{name}-{list(fields.values())[0]!r}"
                                  for route, fields, name in MALFORMED_FIELDS])
    def test_bad_field_answers_400_naming_it(self, lease_surface, route, fields, name):
        url = lease_surface.url
        worker = post_json(url, "/v1/register", {"name": "t"})["worker_id"]
        body = {"worker_id": worker, "lease_id": "l1", "uid": "u", "status": "error",
                **fields}
        with pytest.raises(ShardProtocolError, match=rf"HTTP 400.*'{name}'"):
            post_json(url, route, body)
        assert get_json(url, "/v1/status")["version"] == 1, "the server survived"


class TestCoordinatorHTTP:
    def test_protocol_round_trip_over_real_sockets(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        prepared = prepare_device(tasks[0])
        coordinator = serve(tasks, {tasks[0].prep_key: prepared})
        try:
            url = coordinator.url
            registration = post_json(url, "/v1/register", {"name": "t", "version": 1})
            worker_id = registration["worker_id"]
            assert registration["grid_size"] == 1

            reply = post_json(url, "/v1/lease",
                              {"worker_id": worker_id, "slots": 1, "known_preps": []})
            assert len(reply["cells"]) == 1
            cell = reply["cells"][0]
            assert cell["uid"] == tasks[0].uid
            shipped = PreparedTarget.from_wire(reply["prepared"][cell["prep"]])
            assert shipped == prepared

            # A second lease round advertising the prep does not re-ship it.
            empty = post_json(url, "/v1/lease", {
                "worker_id": worker_id, "slots": 1,
                "known_preps": [cell["prep"]],
            })
            assert empty["cells"] == [] and empty["prepared"] == {}

            heartbeat = post_json(url, "/v1/heartbeat",
                                  {"worker_id": worker_id,
                                   "lease_ids": [cell["lease_id"]]})
            assert heartbeat == {"ok": True, "lost": [], "done": False}

            outcome = run_sweep_task(tasks[0], prepared=prepared)
            report = post_json(url, "/v1/report", {
                "worker_id": worker_id, "lease_id": cell["lease_id"],
                "uid": cell["uid"], "status": "ok",
                "outcome": to_jsonable(outcome), "duration_s": 0.1,
            })
            assert report["accepted"] and report["done"]
            status = get_json(url, "/v1/status")
            assert status["settled"] == 1 and status["done"]
            # The only worker heard "done": the one-shot coordinator need
            # not linger for anybody.
            started = time.monotonic()
            coordinator.linger(30.0)
            assert time.monotonic() - started < 5.0
        finally:
            coordinator.close()

    def test_malformed_requests_rejected_not_fatal(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        coordinator = serve(tasks)
        try:
            url = coordinator.url
            with pytest.raises(ShardProtocolError, match="missing required field"):
                post_json(url, "/v1/lease", {"slots": 1})
            with pytest.raises(ShardProtocolError, match="unknown worker"):
                post_json(url, "/v1/lease", {"worker_id": "w99", "slots": 1})
            with pytest.raises(ShardProtocolError, match="HTTP 404"):
                post_json(url, "/v1/nope", {})
            with pytest.raises(ShardProtocolError, match="protocol v99"):
                post_json(url, "/v1/register", {"name": "x", "version": 99})
            worker_id = post_json(url, "/v1/register", {"name": "x"})["worker_id"]
            with pytest.raises(ShardProtocolError, match="wait_s"):
                post_json(url, "/v1/lease", {"worker_id": worker_id, "wait_s": "soon"})
            # The server survived all of it.
            assert get_json(url, "/v1/status")["cells"] == 1
        finally:
            coordinator.close()

    def test_parked_lease_is_answered_when_a_backoff_ends(self):
        """Long poll: a lease that finds no ready cell is held and answered
        the moment the requeued cell's retry backoff ends."""
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        coordinator = serve(tasks, retry_backoff_s=0.5)
        try:
            url = coordinator.url
            worker = post_json(url, "/v1/register", {"name": "w"})["worker_id"]
            cell = post_json(url, "/v1/lease", {"worker_id": worker})["cells"][0]
            post_json(url, "/v1/report", {
                "worker_id": worker, "lease_id": cell["lease_id"],
                "uid": cell["uid"], "status": "error", "error": "flaky",
            })
            reply = post_json(url, "/v1/lease", {"worker_id": worker, "wait_s": 8.0},
                              timeout_s=30.0)
            assert [c["uid"] for c in reply["cells"]] == [tasks[0].uid]
            assert reply["cells"][0]["lease_id"] != cell["lease_id"]
        finally:
            coordinator.close()


    def test_backoff_ending_mid_round_still_wakes_the_parked_lease(self, monkeypatch):
        """Regression: a retry backoff that ends while an empty lease round is
        still returning must wake the parked request at once, not when its
        wait runs out."""
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        coordinator = serve(tasks, retry_backoff_s=1.0)
        try:
            url = coordinator.url
            worker = post_json(url, "/v1/register", {"name": "w"})["worker_id"]
            cell = post_json(url, "/v1/lease", {"worker_id": worker})["cells"][0]
            post_json(url, "/v1/report", {
                "worker_id": worker, "lease_id": cell["lease_id"],
                "uid": cell["uid"], "status": "error", "error": "flaky",
            })
            lease_round = coordinator._lease_round
            rounds = []

            def slow_round(worker_id, slots):
                leased = lease_round(worker_id, slots)
                if not rounds:
                    rounds.append(leased)
                    time.sleep(1.5)  # the backoff ends before this round returns
                return leased

            monkeypatch.setattr(coordinator, "_lease_round", slow_round)
            started = time.monotonic()
            reply = post_json(url, "/v1/lease", {"worker_id": worker, "wait_s": 8.0},
                              timeout_s=30.0)
            assert rounds == [[]], "the first round must find the cell backing off"
            assert [c["uid"] for c in reply["cells"]] == [tasks[0].uid]
            assert time.monotonic() - started < 5.0
        finally:
            coordinator.close()

# -------------------------------------------------------------------- end to end
def run_distributed(tasks, *, worker_count=2, worker_workers=1, cache_dir=None,
                    runner_kwargs=None, worker_hook=None, lease_ttl_s=10.0,
                    heartbeat_s=0.2, task_fn=run_sweep_task, worker_kwargs=None):
    """One coordinator (in a thread) + N in-process serial workers."""
    bound = threading.Event()
    holder = {}

    def on_bound(coordinator):
        holder["url"] = coordinator.url
        bound.set()

    transport = CoordinatorTransport(
        bind=("127.0.0.1", 0), lease_ttl_s=lease_ttl_s, heartbeat_s=heartbeat_s,
        poll_s=0.05, linger_s=0.5, on_bound=on_bound,
    )
    runner = SweepRunner(tasks, workers=1, cache_dir=cache_dir,
                         transport=transport, **(runner_kwargs or {}))
    result_holder = {}

    def coordinate():
        result_holder["result"] = runner.run()

    coordinator_thread = threading.Thread(target=coordinate, daemon=True)
    coordinator_thread.start()
    assert bound.wait(timeout=60.0), "coordinator never bound its socket"
    if worker_hook is not None:
        worker_hook(holder["url"])
    workers = [
        ShardWorker(holder["url"], workers=worker_workers, name=f"test-{i}",
                    cache_dir=None, task_fn=task_fn, **(worker_kwargs or {}))
        for i in range(worker_count)
    ]
    codes = []
    threads = [
        threading.Thread(target=lambda w=w: codes.append(w.run()), daemon=True)
        for w in workers
    ]
    for thread in threads:
        thread.start()
    coordinator_thread.join(timeout=180.0)
    assert not coordinator_thread.is_alive(), "coordinator did not finish"
    for thread in threads:
        thread.join(timeout=60.0)
    return result_holder["result"], workers, codes


#: The cell whose process dies in the pooled-worker crash test.
CRASHING_CELL = "PYNQ-Z1-random-40fps"


#: The cell that hangs in the timeout tests.
STALLING_CELL = "PYNQ-Z1-scd-40fps"


# Module-level so it pickles under any multiprocessing start method.
def _crashing_task(task, cache_dir, prepared):
    """Dies without a reply on one cell, as a segfault or an OOM kill would."""
    if task.name == CRASHING_CELL:
        os._exit(13)
    return run_sweep_task(task, cache_dir, prepared)


def _stalling_task(task, cache_dir, prepared):
    """Hangs on one cell until its process is killed."""
    if task.name == STALLING_CELL:
        time.sleep(3600.0)
    return run_sweep_task(task, cache_dir, prepared)


class TestDistributedSweep:
    def test_matches_single_machine_run(self, tmp_path):
        """Acceptance: coordinator + 2 workers == workers=1, byte for byte."""
        tasks = build_grid("pynq-z1,ultra96", "scd,random", [40.0], **TINY)
        local = SweepRunner(tasks, workers=1,
                            cache_dir=tmp_path / "local").run()
        distributed, workers, codes = run_distributed(
            tasks, worker_count=2, cache_dir=str(tmp_path / "shard"))
        assert codes == [0, 0]
        assert distributed.ok and len(distributed) == len(tasks)
        assert [o.task for o in distributed.outcomes] == tasks
        assert journal_bytes(local.outcomes) == journal_bytes(distributed.outcomes)
        # Both workers actually participated.
        assert sorted(w.executed for w in workers) == [2, 2]
        # The checkpoint is the standard one: resumable with zero re-runs.
        status = load_checkpoint(tmp_path / "shard" / CHECKPOINT_FILENAME)
        assert set(status.outcomes) == {task.uid for task in tasks}
        resumed = SweepRunner(
            tasks, workers=1, cache_dir=str(tmp_path / "shard"),
            resume_from=str(tmp_path / "shard" / CHECKPOINT_FILENAME),
        ).run()
        assert resumed.reused == len(tasks)
        assert journal_bytes(resumed.outcomes) == journal_bytes(local.outcomes)

    def test_dead_worker_cell_requeued_without_loss_or_duplication(self, tmp_path):
        """Acceptance: killing a worker mid-run loses and duplicates nothing."""
        tasks = build_grid("pynq-z1", "scd,random,annealing", [40.0], **TINY)

        def grab_and_abandon(url):
            # A "worker" that leases the most expensive cell and dies
            # without ever reporting or heartbeating.
            registration = post_json(url, "/v1/register", {"name": "doomed"})
            reply = post_json(url, "/v1/lease", {
                "worker_id": registration["worker_id"], "slots": 1,
                "known_preps": [],
            })
            assert len(reply["cells"]) == 1

        result, workers, codes = run_distributed(
            tasks, worker_count=1, cache_dir=str(tmp_path),
            worker_hook=grab_and_abandon, lease_ttl_s=0.5,
            runner_kwargs={"retries": 1, "retry_backoff_s": 0.0},
        )
        assert codes == [0]
        assert result.ok and len(result) == len(tasks)
        uids = [o.task.uid for o in result.outcomes]
        assert uids == [task.uid for task in tasks], "no loss, no duplicates"
        # The abandoned cell ran on its second assignment.
        assert max(o.attempts for o in result.outcomes) == 2
        status = load_checkpoint(tmp_path / CHECKPOINT_FILENAME)
        assert len(status.outcomes) == len(tasks) and not status.failures

    def test_mixed_backend_grid_with_killed_worker(self, tmp_path):
        """A grid mixing FPGA and GPU targets distributes like a local run,
        including requeue of a cell whose worker died mid-lease."""
        tasks = build_grid("fpga:pynq-z1,gpu:jetson-tx2", "scd,random",
                           [40.0], **TINY)
        assert {t.device for t in tasks} == {"PYNQ-Z1", "gpu:jetson-tx2"}
        local = SweepRunner(tasks, workers=1,
                            cache_dir=tmp_path / "local").run()

        def grab_and_abandon(url):
            registration = post_json(url, "/v1/register", {"name": "doomed"})
            reply = post_json(url, "/v1/lease", {
                "worker_id": registration["worker_id"], "slots": 1,
                "known_preps": [],
            })
            assert len(reply["cells"]) == 1

        distributed, _, codes = run_distributed(
            tasks, worker_count=1, cache_dir=str(tmp_path / "shard"),
            worker_hook=grab_and_abandon, lease_ttl_s=0.5,
            runner_kwargs={"retries": 1, "retry_backoff_s": 0.0},
        )
        assert codes == [0]
        assert distributed.ok and len(distributed) == len(tasks)
        assert [o.task.uid for o in distributed.outcomes] == \
            [task.uid for task in tasks]
        assert max(o.attempts for o in distributed.outcomes) == 2
        assert journal_bytes(local.outcomes) == journal_bytes(distributed.outcomes)

    def test_poisoned_cell_becomes_failure_with_exit_semantics(self, tmp_path, monkeypatch):
        from fault_cli import faulty

        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        monkeypatch.setattr("repro.sweep.runner._run_sweep_task",
                            faulty(fail=[tasks[1].name]))
        result, _, codes = run_distributed(
            tasks, worker_count=1, cache_dir=str(tmp_path),
            runner_kwargs={"retries": 0},
        )
        assert codes == [0]
        assert not result.ok
        assert len(result.outcomes) == 1 and len(result.failures) == 1
        assert result.failures[0].kind == "error"
        assert "injected failure" in result.failures[0].error
        status = load_checkpoint(tmp_path / CHECKPOINT_FILENAME)
        assert set(status.failures) == {tasks[1].uid}

    def test_pooled_worker_matches_serial(self):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        local = SweepRunner(tasks, workers=1).run()
        distributed, _, codes = run_distributed(
            tasks, worker_count=1, worker_workers=2)
        assert codes == [0]
        assert journal_bytes(local.outcomes) == journal_bytes(distributed.outcomes)

    def test_pooled_worker_reaps_its_processes(self):
        tasks = build_grid("pynq-z1", "scd,random,annealing,evolutionary", [40.0], **TINY)
        result, workers, codes = run_distributed(tasks, worker_count=1, worker_workers=2)
        assert codes == [0] and result.ok and workers[0].executed == len(tasks)
        assert multiprocessing.active_children() == []

    def test_a_crashing_cell_fails_alone_on_a_pooled_worker(self):
        """One cell's process dies mid-run: that cell fails (as an error, the
        wire's only worker-side failure kind), the cells beside and after it
        complete, and the worker exits 0 with every process reaped."""
        tasks = build_grid("pynq-z1", "scd,random,annealing,evolutionary", [40.0], **TINY)
        assert CRASHING_CELL in {task.name for task in tasks}
        result, workers, codes = run_distributed(
            tasks, worker_count=1, worker_workers=2, task_fn=_crashing_task,
            runner_kwargs={"retries": 0})
        assert codes == [0]
        assert sorted(o.task.name for o in result.outcomes) == \
            sorted(task.name for task in tasks if task.name != CRASHING_CELL)
        assert [(f.task.name, f.kind) for f in result.failures] == [(CRASHING_CELL, "error")]
        assert "died without a result" in result.failures[0].error
        assert workers[0].reported_errors == 1
        assert multiprocessing.active_children() == []

    def test_pooled_worker_kills_a_revoked_cell_and_exits(self):
        """A cell revoked for its timeout loses its process on a pooled
        worker, so the worker exits 0 once the grid settles instead of
        waiting on stalled processes forever."""
        tasks = build_grid("pynq-z1", "scd,random,annealing,evolutionary", [40.0], **TINY)
        assert STALLING_CELL in {task.name for task in tasks}
        result, _, codes = run_distributed(
            tasks, worker_count=1, worker_workers=2, task_fn=_stalling_task,
            runner_kwargs={"timeout_s": 2.0, "retries": 1},
            worker_kwargs={"request_timeout_s": 5.0})
        assert codes == [0], "the worker must return once the grid settled"
        assert len(result.outcomes) == 3
        assert [(f.task.name, f.kind, f.attempts) for f in result.failures] == \
            [(STALLING_CELL, "timeout", 2)]
        assert multiprocessing.active_children() == []

    def test_inline_worker_kills_a_revoked_cell_and_exits(self):
        """A ``workers=1`` worker runs a cell that has a timeout in a
        process, as the local drain does, so a revoked cell is stopped and
        the worker exits 0; run in-process it would hang inside the cell
        (``run_distributed`` bounds that with its join timeout).  The
        heartbeat period (the default 5 s) outlasts the coordinator's 0.5 s
        linger, so the worker must ask about the lapsed lease at once."""
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        assert [task.name for task in tasks] == [STALLING_CELL]
        result, _, codes = run_distributed(
            tasks, worker_count=1, worker_workers=1, task_fn=_stalling_task,
            heartbeat_s=DEFAULT_HEARTBEAT_S,
            runner_kwargs={"timeout_s": 0.5, "retries": 0})
        assert codes == [0], "the worker must return once the grid settled"
        assert not result.outcomes
        assert [(f.task.name, f.kind) for f in result.failures] == [(STALLING_CELL, "timeout")]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", ["shard", "local"])
    def test_telemetry_report_counts_timeout_kills(self, tmp_path, mode):
        """Every mode's timeout goes through the ledger's lease revocation,
        so ``telemetry report`` counts it as a kill."""
        from repro import telemetry
        from repro.telemetry import build_report

        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        timeouts = {"timeout_s": 1.0, "retries": 0}
        telemetry.enable(fresh=True)
        try:
            if mode == "shard":
                result, _, codes = run_distributed(
                    tasks, worker_count=1, worker_workers=2, cache_dir=str(tmp_path),
                    task_fn=_stalling_task, runner_kwargs=timeouts,
                    worker_kwargs={"request_timeout_s": 5.0})
                assert codes == [0]
            else:
                result = SweepRunner(tasks, workers=1, cache_dir=tmp_path,
                                     task_fn=_stalling_task, **timeouts).run()
        finally:
            telemetry.disable()
        assert [(f.task.name, f.kind) for f in result.failures] == [(STALLING_CELL, "timeout")]
        report = build_report(str(tmp_path))
        assert report.timeout_kills == 1
        assert "timeout kills: 1" in report.render()

    def test_lease_loop_round_trips_per_cell(self, monkeypatch):
        """Folding the serial and pooled loops into one adds no round trips:
        a serial worker leases and reports each cell once, a pooled one
        reports each cell once."""
        import repro.shard.worker as shard_worker

        tasks = build_grid("pynq-z1", "scd,random,annealing", [40.0, 60.0], **TINY)
        assert len(tasks) == 6
        paths = []  # list.append is atomic; the heartbeat thread posts too
        real_post = shard_worker.post_json

        def counting_post(base_url, path, payload, **kwargs):
            paths.append(path)
            return real_post(base_url, path, payload, **kwargs)

        monkeypatch.setattr(shard_worker, "post_json", counting_post)
        for worker_workers in (1, 2):
            paths.clear()
            result, _, codes = run_distributed(
                tasks, worker_count=1, worker_workers=worker_workers)
            assert codes == [0] and result.ok and len(result) == len(tasks)
            assert paths.count("/v1/report") == len(tasks)
            if worker_workers == 1:
                assert paths.count("/v1/lease") == len(tasks)

    def test_a_failed_checkpoint_append_stops_the_grid(self, tmp_path, disk_full):
        """The first report the checkpoint cannot take answers 500 and ends the
        run at once: no further cell is leased, and run() raises the error."""
        tasks = build_grid("pynq-z1", "scd,random,annealing", [40.0], **TINY)
        disk_full(CHECKPOINT_FILENAME)
        bound = threading.Event()
        # A linger longer than the join below: a stopped grid must not wait
        # for workers to hear a "done" that never comes.
        transport = CoordinatorTransport(poll_s=0.05, linger_s=60.0,
                                         on_bound=lambda coordinator: bound.set())
        runner = SweepRunner(tasks, workers=1, retries=0, cache_dir=str(tmp_path),
                             transport=transport)
        raised = []

        def coordinate():
            try:
                runner.run()
            except OSError as exc:
                raised.append(exc)

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        assert bound.wait(timeout=60.0), "coordinator never bound its socket"
        url = transport.coordinator.url
        worker = post_json(url, "/v1/register", {"name": "w"})["worker_id"]
        cell = post_json(url, "/v1/lease", {"worker_id": worker})["cells"][0]
        with pytest.raises(ShardProtocolError, match="HTTP 500"):
            post_json(url, "/v1/report", {
                "worker_id": worker, "lease_id": cell["lease_id"],
                "uid": cell["uid"], "status": "error", "error": "flaky",
            })
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "the run kept serving after a failed append"
        assert [exc.errno for exc in raised] == [errno.ENOSPC]
        assert transport.final_counts["granted"] == 1


# ----------------------------------------------------------- transport wiring
class TestTransportWiring:
    def test_runner_rejects_invalid_transport(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        with pytest.raises(TypeError, match="execute"):
            SweepRunner(tasks, transport=object())

    def test_transport_validation(self):
        with pytest.raises(ValueError, match="heartbeat_s"):
            CoordinatorTransport(lease_ttl_s=1.0, heartbeat_s=2.0)
        with pytest.raises(ValueError, match="lease_ttl_s"):
            CoordinatorTransport(lease_ttl_s=0.0)

    def test_worker_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ShardWorker("127.0.0.1:1", workers=0)

    def test_worker_without_coordinator_exits_nonzero(self):
        worker = ShardWorker("127.0.0.1:9", workers=1,
                             max_connect_failures=2, reconnect_delay_s=0.01)
        assert worker.run() == 1

    def test_execute_cell_classifies_errors(self):
        from repro.shard import execute_cell

        def boom(task, cache_dir, prepared):
            raise RuntimeError("kaput")

        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        status, value, duration = execute_cell(boom, task, None, None)
        assert status == "error" and "kaput" in value and duration >= 0

        status, value, _ = execute_cell(
            lambda task, cache_dir, prepared: "garbage", task, None, None)
        assert status == "invalid-result" and "instead of SweepOutcome" in value


# --------------------------------------------------------------------- shard CLI
class TestShardCLI:
    def test_worker_rejects_bad_workers(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["shard", "worker", "--connect", "x", "--workers", "0"])

    def test_shard_requires_role(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["shard"])

    def test_coordinator_cross_field_validation_is_a_usage_error(self, capsys):
        """Regression: --heartbeat-s >= --lease-ttl-s and a malformed --bind
        must die as usage errors (exit 2), not ValueError tracebacks."""
        from repro.cli import main

        assert main(["shard", "coordinator", "--lease-ttl-s", "5",
                     "--heartbeat-s", "5"]) == 2
        assert "--heartbeat-s" in capsys.readouterr().err
        assert main(["shard", "coordinator", "--bind", "host:notaport"]) == 2
        assert "--bind" in capsys.readouterr().err

    def test_cli_coordinator_and_worker_round_trip(self, tmp_path, capsys):
        """The two CLI entry points drive a full distributed sweep."""
        from repro.cli import main

        argv = [
            "shard", "coordinator", "--bind", "127.0.0.1:0",
            "--devices", "pynq-z1", "--strategies", "scd,random",
            "--fps", "40", "--tolerance-ms", "10", "--top-bundles", "2",
            "--candidates", "1", "--iterations", "25", "--seed", "1",
            "--lease-ttl-s", "10", "--heartbeat-s", "0.5",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(tmp_path / "report.json"),
        ]
        codes = {}

        def coordinate():
            codes["coordinator"] = main(argv)

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        # The CLI prints the bound URL; poll the cache dir's status instead:
        # reuse a worker pointed at the ephemeral port requires the URL, so
        # wait for the coordinator banner on stdout.
        deadline = time.monotonic() + 60.0
        url = None
        while time.monotonic() < deadline and url is None:
            out = capsys.readouterr().out
            for line in out.splitlines():
                if line.startswith("Coordinator listening on "):
                    url = line.split()[3]
            time.sleep(0.05)
        assert url, "coordinator banner with the bound URL never appeared"
        codes["worker"] = main(["shard", "worker", "--connect", url,
                                "--workers", "1", "--name", "cli-test"])
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert codes == {"coordinator": 0, "worker": 0}
        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["sweep"]["outcomes"]) == 2
        assert "comparison" in payload
        out = capsys.readouterr().out
        assert "executed 2 cell(s)" in out
