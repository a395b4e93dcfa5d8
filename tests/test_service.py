"""Tests for the persistent multi-tenant job service (:mod:`repro.service`)."""

from __future__ import annotations

import json
import logging
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.utils.jsonl as jsonl_module
from repro.service import (
    SERVICE_LOG_FILENAME,
    JobQueue,
    ServiceClient,
    ServiceCoordinator,
    load_service_log,
)
from repro.shard import (
    LeaseCoordinator,
    ShardProtocolError,
    ShardWorker,
    get_json,
    post_json,
)
from repro.shard.protocol import MAX_JOB_CELLS
from repro.sweep import (
    CHECKPOINT_FILENAME,
    SweepFailure,
    compact_cache_dir,
    load_checkpoint,
    read_cache_records,
    run_sweep_task,
)
from repro.sweep.disk_cache import CacheIndex
from repro.sweep.spec import SweepSpec
from repro.utils.jsonl import JsonlTail
from repro.utils.serialization import to_jsonable

#: Shared tiny sweep budget: every cell completes in well under a second.
TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2,
            seed=1)


def tiny_spec(**overrides) -> SweepSpec:
    return SweepSpec(**{"fps": (10.0,), **TINY, **overrides})


def journal_map(checkpoint_path) -> dict[str, str]:
    """uid → canonical journal bytes for every outcome in a checkpoint."""
    status = load_checkpoint(checkpoint_path)
    return {
        uid: json.dumps(to_jsonable(outcome.journal), sort_keys=True)
        for uid, outcome in status.outcomes.items()
    }


def local_journal_map(spec: SweepSpec, tmp_path) -> dict[str, str]:
    """Journals of an uninterrupted single-machine run of ``spec``."""
    run_dir = tmp_path / "local-reference"
    spec.build_runner(cache_dir=str(run_dir), workers=1).run()
    return journal_map(run_dir / CHECKPOINT_FILENAME)


def run_worker(url: str, cache_dir, *, token=None, idle_timeout_s=1.5,
               task_fn=None) -> int:
    # The worker's idle lease is held at the service until a cell is ready,
    # so the timeout only has to outlast a tiny job's preparation.
    kwargs = dict(cache_dir=str(cache_dir), token=token,
                  idle_timeout_s=idle_timeout_s)
    if task_fn is not None:
        kwargs["task_fn"] = task_fn
    return ShardWorker(url, **kwargs).run()


def cache_record(key: str, namespace: str = "ns", ts: float = 1.0) -> dict:
    """One estimator-cache record in the on-disk (and wire) shape."""
    return {"namespace": namespace, "key": key, "ts": ts, "estimate": {
        "latency_ms": 1.0, "compute_ms": 0.5, "data_movement_ms": 0.5,
        "resources": {"lut": 1.0, "ff": 2.0, "dsp": 3.0, "bram": 4.0}}}


def append_shard(directory, shard: str, keys) -> None:
    """Append records to one shard the way a cell's disk cache does."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"ns--{shard}.jsonl", "a", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(cache_record(key), sort_keys=True) + "\n"
                             for key in keys))


def shard_slots(directory) -> list[tuple[str, str]]:
    """Every ``(namespace, key)`` line of a cache directory, duplicates kept."""
    return [
        (record["namespace"], record["key"])
        for path in sorted(directory.glob("*.jsonl"))
        for record in map(json.loads, path.read_text(encoding="utf-8").splitlines())
    ]


def wait_for(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# ------------------------------------------------------------------ SweepSpec
class TestSweepSpec:
    def test_round_trips_through_payload(self):
        spec = tiny_spec(strategies="scd,random", utilizations=(0.8,))
        assert SweepSpec.from_payload(spec.as_dict()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sweep spec field"):
            SweepSpec.from_payload({"stratagies": "scd"})

    def test_rejects_bad_axis_via_grid_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            SweepSpec.from_payload({"strategies": "not-a-strategy"})
        with pytest.raises(ValueError):
            SweepSpec.from_payload({"devices": "no-such-device"})

    def test_rejects_bool_and_non_numeric_knobs(self):
        with pytest.raises(ValueError, match="'iterations'"):
            SweepSpec.from_payload({"iterations": True})
        with pytest.raises(ValueError, match="'fps'"):
            SweepSpec.from_payload({"fps": ["ten"]})

    def test_rejects_a_grid_over_the_cell_limit(self, monkeypatch):
        import repro.sweep.runner as runner

        # 3 devices x 5 strategies x 5,000 FPS values: a 39 KB body.
        payload = {"devices": "all", "fps": list(range(1, 5001)),
                   "strategies": "scd,random,evolutionary,annealing,regularized-evolution"}
        expanded = []
        monkeypatch.setattr(runner, "build_grid", lambda *a, **k: expanded.append(1))
        with pytest.raises(ValueError, match=rf"75000 cells.*at most {MAX_JOB_CELLS}"):
            SweepSpec.from_payload(payload)
        assert expanded == [], "the grid is counted, never expanded"

    def test_same_spec_same_uids(self):
        spec = tiny_spec(strategies="scd,random")
        uids = [t.uid for t in spec.build_tasks()]
        again = [t.uid for t in SweepSpec.from_payload(spec.as_dict()).build_tasks()]
        assert uids == again


# ------------------------------------------------------------------- JobQueue
class TestJobQueue:
    def test_submit_creates_dir_spec_and_journal(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(tiny_spec(), name="My Job!")
        assert job.uid == "j0001-My-Job"
        assert (job.directory / "job.json").exists()
        records, corrupt = load_service_log(tmp_path / SERVICE_LOG_FILENAME)
        assert corrupt == 0
        assert [r["kind"] for r in records] == ["header", "submitted"]

    def test_replay_requeues_unfinished_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        running = queue.submit(tiny_spec(), name="running")
        done = queue.submit(tiny_spec(seed=2), name="done")
        queue.set_state(running, "running")
        queue.set_state(done, "done")
        # Simulate a SIGKILL'd coordinator: a fresh queue on the same root.
        revived = JobQueue(tmp_path)
        by_uid = {job.uid: job for job in revived.jobs()}
        assert by_uid[running.uid].state == "queued"
        assert by_uid[running.uid].recovered
        assert by_uid[done.uid].state == "done"
        assert not by_uid[done.uid].recovered
        # Sequence continues after the replayed uids.
        assert revived.submit(tiny_spec(seed=3)).uid.startswith("j0003")

    def test_torn_tail_is_tolerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(tiny_spec(), name="torn")
        queue.set_state(job, "running")
        path = tmp_path / SERVICE_LOG_FILENAME
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "job": "' + job.uid)  # torn line
        revived = JobQueue(tmp_path)
        assert revived.corrupt_lines == 1
        assert revived.get(job.uid).state == "queued"  # requeued, not lost

    def test_cancelled_jobs_stay_cancelled_across_replay(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(tiny_spec())
        queue.set_state(job, "cancelled")
        assert JobQueue(tmp_path).get(job.uid).state == "cancelled"

    def test_a_torn_tail_does_not_swallow_the_next_submit(self, tmp_path):
        alpha = JobQueue(tmp_path).submit(tiny_spec(), name="alpha")
        with open(tmp_path / SERVICE_LOG_FILENAME, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "job": "' + alpha.uid)  # SIGKILL mid-append
        beta = JobQueue(tmp_path).submit(tiny_spec(seed=2), name="beta")
        assert beta.uid == "j0002-beta"
        revived = JobQueue(tmp_path)
        assert revived.corrupt_lines == 1
        assert [job.uid for job in revived.jobs()] == [alpha.uid, beta.uid]


# ----------------------------------------------------------- service lifecycle
class TestServiceLifecycle:
    def test_two_jobs_one_worker_byte_identical_to_local(self, tmp_path):
        spec_a = tiny_spec()
        spec_b = tiny_spec(devices="fpga:pynq-z1,gpu:jetson-tx2", seed=2)
        service = ServiceCoordinator(tmp_path / "root", max_active=2)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid_a = client.submit(spec_a, name="a")["job"]
            uid_b = client.submit(spec_b, name="b")["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            assert client.wait(uid_a, timeout_s=60)["state"] == "done"
            assert client.wait(uid_b, timeout_s=60)["state"] == "done"
            for uid, spec in ((uid_a, spec_a), (uid_b, spec_b)):
                served = journal_map(
                    tmp_path / "root" / "jobs" / uid / CHECKPOINT_FILENAME)
                local = local_journal_map(spec, tmp_path / f"ref-{uid}")
                assert served == local, (
                    f"job {uid} journals must be byte-identical to a local run"
                )
        finally:
            service.stop()

    def test_result_endpoint_round_trips_sweep_payload(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec())["job"]
            # Result before the job settles is a protocol error (HTTP 400).
            with pytest.raises(ShardProtocolError, match="available once"):
                client.result(uid)
            assert run_worker(service.url, tmp_path / "wcache") == 0
            client.wait(uid, timeout_s=60)
            payload = client.result(uid)
            assert payload["state"] == "done"
            assert len(payload["sweep"]["outcomes"]) == 1
        finally:
            service.stop()

    def test_cancel_queued_job_settles_immediately(self, tmp_path):
        # max_active=1 and no worker: the first job camps on the admission
        # slot in "preparing", the second stays queued and cancels instantly.
        service = ServiceCoordinator(tmp_path / "root", max_active=1)
        service.start()
        try:
            client = ServiceClient(service.url)
            client.submit(tiny_spec(), name="hog")
            queued = client.submit(tiny_spec(seed=2), name="victim")["job"]
            wait_for(lambda: client.status(queued)["state"] == "queued",
                     timeout_s=5)
            reply = client.cancel(queued)
            assert reply["cancelled"]
            assert client.status(queued)["state"] == "cancelled"
            # Cancelling a terminal job is a no-op.
            assert client.cancel(queued)["cancelled"] is False
        finally:
            service.stop()

    def test_cancel_running_job_releases_its_leases(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(strategies="scd,random"))["job"]
            assert wait_for(lambda: client.status(uid)["state"] == "running",
                            timeout_s=15)
            client.cancel(uid)
            assert wait_for(
                lambda: client.status(uid)["state"] == "cancelled", timeout_s=15)
            # Workers arriving later find no leasable work for this job.
            worker_exit = run_worker(service.url, tmp_path / "wcache",
                                     idle_timeout_s=1.0)
            assert worker_exit == 0
            assert client.status(uid)["state"] == "cancelled"
        finally:
            service.stop()

    def test_worker_errors_fail_the_job(self, tmp_path):
        def boom(task, cache_dir, prepared=None):
            raise RuntimeError("injected cell failure")

        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(retries=0, retry_backoff_s=0.0))["job"]
            assert run_worker(service.url, tmp_path / "wcache",
                              task_fn=boom, idle_timeout_s=2.0) == 0
            summary = client.wait(uid, timeout_s=60)
            assert summary["state"] == "failed"
            assert "1 of 1" in summary["error"]
            detail = client.status(uid)
            assert detail["failures"][0]["kind"] == "error"
        finally:
            service.stop()

    def test_metrics_reports_per_job_sections(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(), name="metered")["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            client.wait(uid, timeout_s=60)
            metrics = client.metrics()
            assert metrics["service"] is True
            jobs = {j["job"]: j for j in metrics["jobs"]}
            assert jobs[uid]["counts"]["settled"] == 1
            assert metrics["counts"]["done"] is True
            assert metrics["lease_metrics"]["completed"] >= 1
        finally:
            service.stop()

    def test_idle_worker_exits_zero_on_timeout(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            started = time.monotonic()
            code = run_worker(service.url, tmp_path / "wcache",
                              idle_timeout_s=1.0)
            elapsed = time.monotonic() - started
            assert code == 0
            assert elapsed < 30.0
        finally:
            service.stop()

    def test_stop_answers_a_parked_worker_done(self, tmp_path, caplog):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        parked = threading.Event()
        handle_lease = service.handle_lease
        service.handle_lease = lambda payload: parked.set() or handle_lease(payload)
        # No idle timeout: only "done" ends this worker's long poll.
        worker = ShardWorker(service.url, cache_dir=str(tmp_path / "wcache"))
        exited: list[tuple[int, float]] = []
        thread = threading.Thread(
            target=lambda: exited.append((worker.run(), time.monotonic())), daemon=True)
        try:
            with caplog.at_level(logging.DEBUG):
                thread.start()
                assert parked.wait(timeout=30)
                stopped = time.monotonic()
                service.stop()
                thread.join(timeout=30)
        finally:
            service.stop()
        assert [code for code, _ in exited] == [0]
        assert exited[0][1] - stopped < 1.0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_oversized_job_answers_400_and_journals_nothing(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            spec = tiny_spec(fps=tuple(float(f) for f in range(1, MAX_JOB_CELLS + 2)))
            with pytest.raises(ShardProtocolError,
                               match=rf"HTTP 400.*{MAX_JOB_CELLS + 1} cells.*{MAX_JOB_CELLS}"):
                ServiceClient(service.url).submit(spec)
            assert get_json(service.url, "/v1/jobs")["jobs"] == []
        finally:
            service.stop()
        root = tmp_path / "root"
        assert '"submitted"' not in (root / SERVICE_LOG_FILENAME).read_text()
        assert not list(root.glob("jobs/*"))


# ------------------------------------------------------------------------ auth
class TestAuth:
    def test_mutating_routes_reject_missing_or_wrong_token(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root", token="s3cret")
        service.start()
        try:
            spec = tiny_spec()
            for bad_token in (None, "wrong"):
                with pytest.raises(ShardProtocolError, match="401"):
                    ServiceClient(service.url, token=bad_token).submit(spec)
                with pytest.raises(ShardProtocolError, match="401"):
                    post_json(service.url, "/v1/register", {"name": "x"},
                              token=bad_token)
                with pytest.raises(ShardProtocolError, match="401"):
                    ServiceClient(service.url, token=bad_token).cancel("j0001")
            # Reads stay open: dashboards don't need the secret.
            assert get_json(service.url, "/v1/jobs")["jobs"] == []
            # The right token passes end to end, worker included.
            client = ServiceClient(service.url, token="s3cret")
            uid = client.submit(spec)["job"]
            assert run_worker(service.url, tmp_path / "wcache",
                              token="s3cret") == 0
            assert client.wait(uid, timeout_s=60)["state"] == "done"
        finally:
            service.stop()

    def test_no_token_accepts_everything(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            assert ServiceClient(service.url).submit(tiny_spec())["job"]
        finally:
            service.stop()


# -------------------------------------------------------------- crash recovery
class TestCrashRecovery:
    def test_killed_coordinator_resumes_and_matches_local(self, tmp_path):
        spec = tiny_spec(strategies="scd,random", fps=(10.0, 15.0))
        root = tmp_path / "root"
        checkpoint = None
        # The first worker runs one cell and holds the next until the
        # coordinator is dead, so the kill lands mid-run however the
        # threads are scheduled.
        killed = threading.Event()
        ran: list[str] = []

        def one_cell_then_hold(task, cache_dir, prepared=None):
            if ran:
                killed.wait(timeout=60)
            ran.append(task.uid)
            return run_sweep_task(task, cache_dir, prepared)

        service = ServiceCoordinator(root)
        service.start()
        uid = ServiceClient(service.url).submit(spec, name="crashy")["job"]
        checkpoint = root / "jobs" / uid / CHECKPOINT_FILENAME
        worker = threading.Thread(
            target=run_worker, args=(service.url, tmp_path / "w1"),
            kwargs={"idle_timeout_s": 30.0, "task_fn": one_cell_then_hold}, daemon=True)
        worker.start()
        # Let at least one cell settle, then die without a terminal state.
        assert wait_for(lambda: len(journal_map(checkpoint)) >= 1)
        service.stop()
        killed.set()
        settled_before = len(journal_map(checkpoint))
        assert settled_before < len(spec.build_tasks()), (
            "the kill must land mid-run for this test to exercise resume")

        revived = ServiceCoordinator(root)
        job = revived.queue.get(uid)
        assert job.state == "queued" and job.recovered
        revived.start()
        try:
            client = ServiceClient(revived.url)
            assert run_worker(revived.url, tmp_path / "w2") == 0
            summary = client.wait(uid, timeout_s=90)
            assert summary["state"] == "done"
            assert summary["counts"]["settled"] == len(spec.build_tasks())
            # Byte-identity: interrupted+resumed == uninterrupted local run.
            assert journal_map(checkpoint) == local_journal_map(spec, tmp_path)
            # The result endpoint rebuilds from the checkpoint (the run that
            # produced the in-memory result died with the first process).
            payload = client.result(uid)
            assert len(payload["sweep"]["outcomes"]) == len(spec.build_tasks())
        finally:
            revived.stop()

    def test_stop_before_admission_keeps_job_queued(self, tmp_path):
        root = tmp_path / "root"
        service = ServiceCoordinator(root, max_active=1)
        service.start()
        client = ServiceClient(service.url)
        client.submit(tiny_spec(), name="hog")
        queued = client.submit(tiny_spec(seed=2), name="waiting")["job"]
        service.stop()
        revived = JobQueue(root)
        assert revived.get(queued).state == "queued"


# ------------------------------------------------------------------ full disk
class TestFullDisk:
    def test_journal_failures_refuse_work_and_resume_after_restart(self, tmp_path, monkeypatch,
                                                                  disk_full, caplog):
        root = tmp_path / "root"
        service = ServiceCoordinator(root)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(), name="alpha")["job"]
            assert wait_for(lambda: client.status(uid)["state"] == "running")
            disk_full(SERVICE_LOG_FILENAME)
            with pytest.raises(ShardProtocolError, match="HTTP 503"):
                client.submit(tiny_spec(seed=2), name="beta")
            assert [job["job"] for job in client.jobs()] == [uid]
            with caplog.at_level(logging.ERROR, logger="repro.service.coordinator"):
                assert run_worker(service.url, tmp_path / "wcache") == 0
                job_thread = service._threads[0]
                job_thread.join(timeout=30.0)
                assert not job_thread.is_alive()
            # The cells settled, but "done" never reached the journal, so
            # memory keeps the state the journal holds.
            assert client.status(uid)["state"] == "running"
            records, _corrupt = load_service_log(root / SERVICE_LOG_FILENAME)
            assert [r["state"] for r in records if r["kind"] == "state"] == [
                "preparing", "running"]
            assert len([r for r in caplog.records if r.levelno == logging.ERROR
                        and r.name == "repro.service.coordinator"]) == 1
        finally:
            service.stop()
        monkeypatch.undo()  # the disk has room again
        revived = ServiceCoordinator(root)
        revived.start()
        try:
            client = ServiceClient(revived.url)
            assert client.wait(uid, timeout_s=60, poll_s=0.05)["state"] == "done"
            assert [job["job"] for job in client.jobs()] == [uid]
        finally:
            revived.stop()

    def test_job_whose_checkpoint_cannot_be_written_fails(self, tmp_path, disk_full):
        disk_full(CHECKPOINT_FILENAME)
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(strategies="scd,random,annealing"))["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            final = client.wait(uid, timeout_s=60, poll_s=0.05)
            assert final["state"] == "failed"
            assert "No space left on device" in final["error"]
            # The first failed append stopped the job: no second cell was leased.
            assert service.lease_metrics()["granted"] == 1
        finally:
            service.stop()

    def test_full_hub_refuses_pushes_until_the_disk_has_room(self, tmp_path, monkeypatch,
                                                            disk_full, caplog):
        hub = tmp_path / "hub"
        coordinator = LeaseCoordinator(cache_dir=hub)
        coordinator.start()

        def report(*keys):
            # No board holds the cell: the report is acknowledged, its records merged.
            return post_json(coordinator.url, "/v1/report", {
                "worker_id": worker, "lease_id": "l1", "uid": "u1", "status": "error",
                "job": None, "cache_records": [cache_record(k) for k in keys]})

        try:
            worker = post_json(coordinator.url, "/v1/register", {"name": "w"})["worker_id"]
            disk_full("*--pushed.jsonl")
            with caplog.at_level(logging.WARNING, logger="repro.utils.jsonl"):
                assert [report(k)["reason"] for k in "abb"] == ["unknown-job"] * 3
            # One WARNING per refused delivery, never a 500.
            assert len([r for r in caplog.records if r.name == "repro.utils.jsonl"]) == 3
            assert read_cache_records(hub) == []
            monkeypatch.undo()  # the disk has room again
            report("a", "c")
            assert sorted(shard_slots(hub)) == [("ns", "a"), ("ns", "c")]
            report("c", "d")
            assert sorted(shard_slots(hub)) == [("ns", "a"), ("ns", "c"), ("ns", "d")]
        finally:
            coordinator.close()

    def test_worker_on_a_full_disk_warns_and_runs_its_cells(self, tmp_path, disk_full,
                                                           caplog):
        service = ServiceCoordinator(tmp_path / "root")
        append_shard(service.cache_dir, "seed", ["k1", "k2"])  # something to pull
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec())["job"]
            disk_full("*--pulled-*.jsonl")
            with caplog.at_level(logging.WARNING, logger="repro.utils.jsonl"):
                assert run_worker(service.url, tmp_path / "wcache") == 0
            assert client.wait(uid, timeout_s=60, poll_s=0.05)["state"] == "done"
            assert len([r for r in caplog.records if r.name == "repro.utils.jsonl"]) == 1
        finally:
            service.stop()


# ------------------------------------------------------------- cache exchange
class TestCacheExchange:
    def test_worker_push_then_fresh_worker_pull(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec())["job"]
            assert run_worker(service.url, tmp_path / "w1") == 0
            client.wait(uid, timeout_s=60)
            # The first worker pushed its estimator cache into the hub...
            hub = read_cache_records(service.cache_dir)
            assert hub, "completed cells must populate the shared cache"
            # ...and a fresh worker pulls it at registration.
            fresh_dir = tmp_path / "w2"
            assert run_worker(service.url, fresh_dir, idle_timeout_s=1.0) == 0
            pulled = read_cache_records(fresh_dir)
            assert {(r["namespace"], r["key"]) for r in hub} <= {
                (r["namespace"], r["key"]) for r in pulled}
        finally:
            service.stop()

    def test_fresh_worker_synthesises_nothing_the_hub_holds(self, tmp_path, monkeypatch):
        from repro.hw.hls.synthesis import HLSSynthesisSimulator

        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            first = client.submit(tiny_spec())["job"]
            assert run_worker(service.url, tmp_path / "w1") == 0
            assert client.wait(first, timeout_s=60)["state"] == "done"
            assert [r for r in read_cache_records(service.cache_dir)
                    if r["namespace"] == "PYNQ-Z1@100MHz|synth"]
            runs = []
            synthesise = HLSSynthesisSimulator.synthesise
            monkeypatch.setattr(HLSSynthesisSimulator, "synthesise",
                                lambda self, *a, **k: runs.append(1) or synthesise(self, *a, **k))
            second = client.submit(tiny_spec())["job"]
            assert run_worker(service.url, tmp_path / "w2") == 0
            assert client.wait(second, timeout_s=60)["state"] == "done"
        finally:
            service.stop()
        assert runs == [], "the fresh worker pulled every synthesis result"
        outcomes = load_checkpoint(tmp_path / "root" / "jobs" / second / CHECKPOINT_FILENAME)
        assert [o.estimator_calls for o in outcomes.outcomes.values()] == [0]

    def test_worker_push_parses_only_new_shard_bytes(self, tmp_path, monkeypatch):
        reads: list[tuple[str, int]] = []
        read = JsonlTail.read

        def counting_read(tail):
            restarted, lines = read(tail)
            if lines:
                reads.append((tail.path.name, len(lines)))
            return restarted, lines

        monkeypatch.setattr(JsonlTail, "read", counting_read)
        pushes: list[list[str]] = []
        refusals: list[str] = []

        def post(path, payload):
            if path == "/v1/register":
                return {"worker_id": "w1", "cache": True}
            if path == "/v1/cache/pull":
                return {"records": [cache_record(f"hub-{i}") for i in range(3)]}
            assert path == "/v1/report"
            if refusals:
                raise ShardProtocolError(refusals.pop())
            pushes.append([record["key"] for record in payload.get("cache_records", [])])
            return {"accepted": True, "reason": "settled", "done": False}

        cache_dir = tmp_path / "worker"
        worker = ShardWorker("127.0.0.1:9", cache_dir=str(cache_dir))
        monkeypatch.setattr(worker, "_post", post)
        worker._register()  # pulls the hub's three records into its cache

        def report():
            worker._report("l1", "u1", "error", "flaky", 0.0)

        append_shard(cache_dir, "cell-1", ["b", "a", "hub-0"])
        report()
        assert pushes[-1] == ["a", "b"]  # a pulled key is never sent back
        reads.clear()
        append_shard(cache_dir, "cell-2", ["b", "c", "d"])
        report()
        assert reads == [("ns--cell-2.jsonl", 3)]
        assert pushes[-1] == ["c", "d"]

        # A failed report keeps what it read for the next one.
        append_shard(cache_dir, "cell-3", ["e"])
        refusals.append("connection refused")
        with pytest.raises(ShardProtocolError):
            report()
        report()
        assert pushes[-1] == ["e"]
        report()  # nothing new: no records ride on it
        assert pushes[-1] == []

        # cache gc folds every shard into one rewritten file: it is re-read
        # from its start, and only the record appended meanwhile goes out.
        for fresh, total in (("f", 9), ("g", 10)):
            append_shard(cache_dir, f"late-{fresh}", [fresh])
            compact_cache_dir(cache_dir)
            reads.clear()
            report()
            assert pushes[-1] == [fresh]
            assert reads == [("ns--main.jsonl", total)]
        assert len(pushes) == 6

    def test_a_report_carries_at_most_the_record_bound(self, tmp_path, monkeypatch):
        import repro.shard.worker as shard_worker

        monkeypatch.setattr(shard_worker, "MAX_REPORT_RECORDS", 2)
        batches: list[list[str]] = []

        def post(path, payload):
            if path == "/v1/register":
                return {"worker_id": "w1", "cache": True}
            if path == "/v1/cache/pull":
                return {"records": []}
            batches.append([record["key"] for record in payload.get("cache_records", [])])
            return {"accepted": True, "reason": "settled", "done": False}

        cache_dir = tmp_path / "worker"
        worker = ShardWorker("127.0.0.1:9", cache_dir=str(cache_dir))
        monkeypatch.setattr(worker, "_post", post)
        worker._register()
        append_shard(cache_dir, "local", ["e", "d", "c", "b", "a"])
        for _ in range(4):
            worker._report("l1", "u1", "error", "flaky", 0.0)
        assert batches == [["a", "b"], ["c", "d"], ["e"], []]

    def test_concurrent_pushes_write_each_record_once(self, tmp_path):
        hub = tmp_path / "hub"
        merging = CacheIndex(hub)
        records = [cache_record(f"k{i}", namespace=f"ns{i % 2}") for i in range(3000)]
        start = threading.Barrier(8)
        accepted: list[int] = []

        def push():
            start.wait(timeout=30)
            accepted.append(merging.merge(records))

        threads = [threading.Thread(target=push) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        slots = shard_slots(hub)
        assert len(slots) == len(set(slots)) == len(records)
        assert len(accepted) == 8 and sum(accepted) == len(records)

    def test_hub_index_sees_other_writers_and_follows_gc(self, tmp_path):
        hub = tmp_path / "hub"
        push = CacheIndex(hub).merge
        assert push([cache_record("a"), cache_record("keep", ts=time.time())]) == 2
        append_shard(hub, "local", ["b"])  # another writer on the hub directory
        assert push([cache_record("a"), cache_record("b"), cache_record("c")]) == 1
        # gc evicts the old records and rewrites the survivor into a new
        # shard: evicted keys are accepted again, the survivor is not.
        compact_cache_dir(hub, max_age_days=1)
        assert shard_slots(hub) == [("ns", "keep")]
        assert push([cache_record("a"), cache_record("keep")]) == 1
        assert sorted(shard_slots(hub)) == [("ns", "a"), ("ns", "keep")]

    def test_malformed_push_records_are_dropped(self, tmp_path):
        bad_estimate = dict(cache_record("a"), estimate=[1.0])
        bad_resources = cache_record("b")
        bad_resources["estimate"] = dict(bad_resources["estimate"], resources=5)
        # Numbers past the float range, NaN and infinity are malformed too.
        odd_numbers = []
        for index, value in enumerate([10 ** 400, float("nan"), float("inf")]):
            latency, lut = cache_record(f"l{index}"), cache_record(f"r{index}")
            latency["estimate"] = dict(latency["estimate"], latency_ms=value)
            lut["estimate"] = dict(lut["estimate"], resources={"lut": value})
            odd_numbers += [latency, lut]
        accepted = CacheIndex(tmp_path / "hub").merge([
            bad_estimate, bad_resources, "not-a-record", *odd_numbers, cache_record("c"),
            # A timestamp that is not a finite number reads as a missing one.
            cache_record("t1", ts=10 ** 400), cache_record("t2", ts=float("nan"))])
        assert accepted == 3
        assert shard_slots(tmp_path / "hub") == [("ns", "c"), ("ns", "t1"), ("ns", "t2")]
        assert [record["ts"] for record in read_cache_records(tmp_path / "hub")] == \
            [1.0, 0.0, 0.0]

    def test_a_failing_merge_still_settles_the_report(self, tmp_path, monkeypatch, caplog):
        """A cache fault drops the report's records, never the report: the
        worker drains its job and exits 0."""
        from repro.sweep.disk_cache import CacheIndex

        def failing_merge(hub, records, **kwargs):
            raise RuntimeError("injected hub fault")

        monkeypatch.setattr(CacheIndex, "merge", failing_merge)
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec())["job"]
            with caplog.at_level(logging.ERROR, logger="repro.shard.coordinator"):
                assert run_worker(service.url, tmp_path / "wcache") == 0
            assert client.wait(uid, timeout_s=60, poll_s=0.05)["state"] == "done"
        finally:
            service.stop()
        assert any("injected hub fault" in str(record.exc_info[1])
                   for record in caplog.records if record.exc_info)
        assert read_cache_records(tmp_path / "root" / "cache") == []

    def test_a_hub_whose_directory_cannot_be_made_refuses_with_a_warning(self, tmp_path,
                                                                        caplog):
        hub = tmp_path / "hub"
        hub.write_text("a file where the directory should be", encoding="utf-8")
        coordinator = LeaseCoordinator(cache_dir=hub)
        coordinator.start()
        try:
            worker = post_json(coordinator.url, "/v1/register", {"name": "w"})["worker_id"]
            with caplog.at_level(logging.WARNING, logger="repro.utils.jsonl"):
                reply = post_json(coordinator.url, "/v1/report", {
                    "worker_id": worker, "lease_id": "l1", "uid": "u1", "status": "error",
                    "cache_records": [cache_record("a")]})
            assert reply["reason"] == "unknown-job"
            assert len([r for r in caplog.records if r.name == "repro.utils.jsonl"]) == 1
        finally:
            coordinator.close()
        assert hub.read_text(encoding="utf-8") == "a file where the directory should be"


    def test_hub_never_reads_its_own_lines_back(self, tmp_path, monkeypatch):
        import repro.sweep.disk_cache as disk_cache

        hub = tmp_path / "hub"
        merging = CacheIndex(hub)
        reads: list[tuple[str, int]] = []
        read = JsonlTail.read

        def counting_read(tail):
            restarted, lines = read(tail)
            if lines:
                reads.append((tail.path.name, len(lines)))
            return restarted, lines

        monkeypatch.setattr(JsonlTail, "read", counting_read)

        def push(*keys) -> int:
            return merging.merge([cache_record(k) for k in keys])

        assert push("a", "b") == 2
        assert push("a", "c") == 1 and reads == []
        # Other writers: one appends to the hub's own shard, one to another.
        append_shard(hub, "pushed", ["d"])
        append_shard(hub, "local", ["e"])
        assert push("d", "e", "f") == 1
        assert sorted(reads) == [("ns--local.jsonl", 1), ("ns--pushed.jsonl", 1)]
        # A writer that appends between the hub's refresh and its write
        # puts its line before the hub's: both are read on the next merge.
        reads.clear()
        real_log = disk_cache.JsonlLog

        class RacedLog(real_log):
            def write(self, lines):
                append_shard(hub, "pushed", ["g"])
                return super().write(lines)

        monkeypatch.setattr(disk_cache, "JsonlLog", RacedLog)
        assert push("h") == 1
        monkeypatch.setattr(disk_cache, "JsonlLog", real_log)
        assert push("g", "h") == 0
        assert reads == [("ns--pushed.jsonl", 2)]
        slots = shard_slots(hub)
        assert sorted(slots) == [("ns", k) for k in "abcdefgh"]


# ------------------------------------------------- one round trip per cell
def _counting_posts(monkeypatch) -> list[tuple[str, dict, dict]]:
    """Record every worker request as ``(path, payload, reply)``."""
    import repro.shard.worker as shard_worker

    calls: list[tuple[str, dict, dict]] = []  # list.append is atomic
    real_post = shard_worker.post_json

    def counting_post(base_url, path, payload, **kwargs):
        reply = real_post(base_url, path, payload, **kwargs)
        calls.append((path, payload, reply))
        return reply

    monkeypatch.setattr(shard_worker, "post_json", counting_post)
    return calls


class _BareWorker(ShardWorker):
    """A worker whose reports carry neither optional field."""

    def _post(self, path, payload):
        if path == "/v1/report":
            payload = {key: value for key, value in payload.items()
                       if key not in ("cache_records", "lease")}
        return super()._post(path, payload)


class _IgnoringService(ServiceCoordinator):
    """A coordinator that ignores a report's optional fields."""

    def handle_report(self, payload):
        return super().handle_report({key: value for key, value in payload.items()
                                      if key not in ("cache_records", "lease")})


class TestOneRoundTripPerCell:
    SPEC = dict(strategies="scd,random,annealing")

    def _drain(self, tmp_path, service_class=ServiceCoordinator,
               worker_class=ShardWorker):
        service = service_class(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(**self.SPEC))["job"]
            worker = worker_class(service.url, cache_dir=str(tmp_path / "wcache"),
                                  idle_timeout_s=1.5)
            assert worker.run() == 0
            assert client.wait(uid, timeout_s=60, poll_s=0.05)["state"] == "done"
        finally:
            service.stop()
        journals = journal_map(tmp_path / "root" / "jobs" / uid / CHECKPOINT_FILENAME)
        assert journals == local_journal_map(tiny_spec(**self.SPEC), tmp_path)
        return len(journals)

    def test_a_serial_worker_reports_each_cell_once_and_leases_once(self, tmp_path,
                                                                   monkeypatch):
        calls = _counting_posts(monkeypatch)
        cells = self._drain(tmp_path)
        paths = [path for path, _, _ in calls]
        assert cells == 3 and paths.count("/v1/report") == cells
        assert "/v1/cache/push" not in paths
        leases = [(payload, reply) for path, payload, reply in calls if path == "/v1/lease"]
        # The first cell comes from a lease; every other /v1/lease is an idle poll.
        assert [len(reply["cells"]) for _, reply in leases if reply["cells"]] == [1]
        assert all(payload.get("wait_s", 0) > 0 for payload, _ in leases)
        reports = [reply for path, _, reply in calls if path == "/v1/report"]
        assert [len(reply["lease"]["cells"]) for reply in reports] == [1] * (cells - 1) + [0]
        # The reports carried every record the cells appended, each held once.
        hub_slots = shard_slots(tmp_path / "root" / "cache")
        assert len(hub_slots) == len(set(hub_slots))
        assert set(hub_slots) == set(shard_slots(tmp_path / "wcache"))

    def test_reports_without_optional_fields_drain_the_job(self, tmp_path, monkeypatch):
        calls = _counting_posts(monkeypatch)
        cells = self._drain(tmp_path, worker_class=_BareWorker)
        paths = [path for path, _, _ in calls]
        assert paths.count("/v1/report") == cells
        assert all("lease" not in reply for path, _, reply in calls if path == "/v1/report")
        assert len([path for path, _, reply in calls
                    if path == "/v1/lease" and reply["cells"]]) == cells
        # The records stay on the worker; journals do not depend on them.
        assert read_cache_records(tmp_path / "root" / "cache") == []
        assert shard_slots(tmp_path / "wcache")

    def test_a_coordinator_that_ignores_both_fields_still_drains_the_job(
            self, tmp_path, monkeypatch):
        calls = _counting_posts(monkeypatch)
        cells = self._drain(tmp_path, service_class=_IgnoringService)
        assert len([path for path, _, reply in calls
                    if path == "/v1/lease" and reply["cells"]]) == cells
        # The records stay on the worker; journals do not depend on them.
        assert read_cache_records(tmp_path / "root" / "cache") == []
        assert shard_slots(tmp_path / "wcache")


# --------------------------------------------------------- status polling
class _CountingJson:
    """``json`` stand-in for :mod:`repro.utils.jsonl` that counts decodes."""

    def __init__(self) -> None:
        self.decoded = 0

    def loads(self, *args, **kwargs):
        self.decoded += 1
        return json.loads(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def _fail_random(task, cache_dir, prepared=None):
    if task.strategy == "random":
        raise RuntimeError("injected cell failure")
    return run_sweep_task(task, cache_dir, prepared)


class TestStatusPolling:
    def _poll_all(self, client: ServiceClient, uid: str) -> dict:
        """One poll of every route that summarises jobs; returns ``uid``'s view."""
        listed = {job["job"]: job for job in client.jobs()}[uid]
        get_json(client.base_url, "/v1/status", token=client.token)
        metered = {job["job"]: job for job in client.metrics()["jobs"]}[uid]
        detail = client.status(uid)
        assert listed["counts"] == metered["counts"] == detail["counts"]
        return detail

    def _assert_matches_checkpoint(self, detail: dict, path) -> None:
        status = load_checkpoint(path)
        assert detail["counts"]["settled"] == status.settled
        assert detail["counts"]["failed"] == len(status.failures)
        assert {uid: cell["status"] for uid, cell in detail["cells_detail"].items()} == {
            **{uid: "completed" for uid in status.outcomes},
            **{uid: "failed" for uid in status.failures}}
        assert detail["failures"] == [status.failures[uid].as_dict()
                                      for uid in sorted(status.failures)]

    def test_job_summaries_here_decode_no_checkpoint(self, tmp_path, monkeypatch):
        # The process that ran a job counts it from its board: listing jobs
        # or scraping metrics decodes no checkpoint line once it settles.
        counter = _CountingJson()
        monkeypatch.setattr(jsonl_module, "json", counter)
        root = tmp_path / "root"
        spec = tiny_spec(strategies="scd,random", retries=0, retry_backoff_s=0.0)
        service = ServiceCoordinator(root)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(spec)["job"]
            assert run_worker(service.url, tmp_path / "wcache",
                              task_fn=_fail_random) == 0
            counter.decoded = 0
            assert wait_for(lambda: {job["job"]: job for job in client.jobs()}[uid]
                            ["state"] == "failed")
            listed = {job["job"]: job for job in client.jobs()}[uid]
            metered = {job["job"]: job for job in client.metrics()["jobs"]}[uid]
            assert counter.decoded == 0
        finally:
            service.stop()
        status = load_checkpoint(root / "jobs" / uid / CHECKPOINT_FILENAME)
        assert listed["counts"] == metered["counts"]
        assert listed["counts"]["settled"] == status.settled == 2
        assert listed["counts"]["failed"] == len(status.failures) == 1

    def test_settled_checkpoints_are_decoded_once(self, tmp_path, monkeypatch):
        counter = _CountingJson()
        monkeypatch.setattr(jsonl_module, "json", counter)
        root = tmp_path / "root"
        spec = tiny_spec(strategies="scd,random", retries=0, retry_backoff_s=0.0)
        service = ServiceCoordinator(root)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(spec)["job"]
            assert run_worker(service.url, tmp_path / "wcache",
                              task_fn=_fail_random) == 0
            assert client.wait(uid, timeout_s=60, poll_s=0.05)["state"] == "failed"
            path = root / "jobs" / uid / CHECKPOINT_FILENAME
            first = self._poll_all(client, uid)
            counter.decoded = 0
            again = self._poll_all(client, uid)
            assert counter.decoded == 0
            assert again["counts"] == first["counts"]
            assert again["cells_detail"] == first["cells_detail"]
            assert first["counts"]["settled"] == 2 and first["counts"]["failed"] == 1
            self._assert_matches_checkpoint(first, path)
        finally:
            service.stop()

        revived = ServiceCoordinator(root)
        revived.start()
        try:
            client = ServiceClient(revived.url)
            lines = len(path.read_text(encoding="utf-8").splitlines())
            counter.decoded = 0
            detail = client.status(uid)
            assert counter.decoded == lines
            self._poll_all(client, uid)
            assert counter.decoded == lines
            for key in ("counts", "cells_detail", "failures"):
                assert detail[key] == first[key]

            # A torn final line waits until it is complete, then counts once.
            ok_uid, ok_outcome = next(iter(load_checkpoint(path).outcomes.items()))
            late = json.dumps({
                "kind": "failure", "uid": ok_uid, "ts": 0.0,
                "failure": SweepFailure(task=ok_outcome.task, kind="error", error="late",
                                        attempts=1).as_dict(),
            }, sort_keys=True) + "\n"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(late[:40])
            counter.decoded = 0
            assert self._poll_all(client, uid)["counts"] == first["counts"]
            assert counter.decoded == 0
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(late[40:])
            torn = self._poll_all(client, uid)
            assert counter.decoded == 1
            assert torn["counts"]["failed"] == 2
            counter.decoded = 0
            self._poll_all(client, uid)
            assert counter.decoded == 0
            self._assert_matches_checkpoint(torn, path)
        finally:
            revived.stop()


# ------------------------------------------------- interleaving (property)
class TestInterleavingDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(
        strategy_pair=st.sampled_from([("scd", "random"), ("random", "random"),
                                       ("scd", "scd")]),
        seed=st.sampled_from([1, 7]),
    )
    def test_interleaved_jobs_match_sequential_journals(
        self, tmp_path_factory, strategy_pair, seed
    ):
        """Two jobs interleaved over one fleet == each run alone, bytewise."""
        tmp_path = tmp_path_factory.mktemp("interleave")
        spec_a = tiny_spec(strategies=strategy_pair[0], seed=seed)
        spec_b = tiny_spec(strategies=strategy_pair[1], seed=seed + 10)
        service = ServiceCoordinator(tmp_path / "root", max_active=2)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid_a = client.submit(spec_a)["job"]
            uid_b = client.submit(spec_b)["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            assert client.wait(uid_a, timeout_s=90)["state"] == "done"
            assert client.wait(uid_b, timeout_s=90)["state"] == "done"
        finally:
            service.stop()
        # The hub holds every key the worker computed or pulled, once.
        hub_slots = shard_slots(tmp_path / "root" / "cache")
        assert len(hub_slots) == len(set(hub_slots))
        assert set(hub_slots) == set(shard_slots(tmp_path / "wcache"))
        for uid, spec in ((uid_a, spec_a), (uid_b, spec_b)):
            interleaved = journal_map(
                tmp_path / "root" / "jobs" / uid / CHECKPOINT_FILENAME)
            alone = local_journal_map(spec, tmp_path / f"solo-{uid}")
            assert interleaved == alone


# --------------------------------------------------------- lease board units
class TestLeaseBoardServiceHooks:
    def _board(self, **kwargs):
        from repro.shard import LeaseBoard, WorkerRegistry
        from repro.sweep import build_grid

        tasks = build_grid("pynq-z1", "scd", [10.0], **TINY)
        kwargs.setdefault("workers", WorkerRegistry())
        return LeaseBoard({0: tasks[0]}, [0], **kwargs)

    def test_lease_prefix_namespaces_lease_ids(self):
        board = self._board(job="j0001")
        cells = board.lease(board.workers.register("w"), 1)
        assert cells[0].lease_id.startswith("j0001:")
        assert cells[0].lease_id.rpartition(":")[0] == "j0001"

    def test_adopt_worker_is_idempotent_and_enables_leasing(self):
        from repro.shard import WorkerRegistry

        with pytest.raises(ShardProtocolError, match="unknown worker"):
            self._board().lease("ghost", 1)
        # A persistent service re-adopts ids issued before a restart.
        registry = WorkerRegistry(adopt_unknown=True)
        board = self._board(workers=registry)
        assert board.lease("ghost", 1)
        board.heartbeat("ghost", [])  # a second contact adds no second entry
        assert [(s["worker_id"], s["name"], s["leased"]) for s in registry.stats()] \
            == [("ghost", "reattached-ghost", 1)]
        assert registry.register("fresh") == "w1"
