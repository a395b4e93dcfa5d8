"""Tests for the observability layer (:mod:`repro.telemetry`).

Covers the metric primitives and snapshot merging, the global
enable/disable switch (zero-cost-when-disabled contract), the fsynced
``_telemetry.jsonl`` sidecar with its torn-tail-tolerant reader, the
sweep instrumentation (serial and pooled), the lease-lifecycle counters
on the shard coordinator with its ``/v1/metrics`` endpoint, the
aggregated ``telemetry report``, and the acceptance property that
telemetry never perturbs results: checkpoints, timing hints and journals
are byte-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.shard import (
    PROTOCOL_VERSION,
    LeaseBoard,
    LeaseCoordinator,
    WorkerRegistry,
    get_json,
    post_json,
)
from repro.sweep import SweepRunner, build_grid, prepare_device
from repro.sweep.checkpoint import (
    CHECKPOINT_FILENAME,
    CheckpointWriter,
    save_timings,
)
from repro.sweep.runner import TIMINGS_FILENAME, SweepOutcome
from repro.telemetry import (
    TELEMETRY_FILENAME,
    TELEMETRY_VERSION,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    TelemetrySink,
    build_report,
    read_telemetry,
    write_bench_json,
)

#: Shared tiny sweep budget: every cell completes in well under a second.
TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)


def journal_bytes(outcomes):
    """The canonical byte form of each outcome's journal, in order."""
    from repro.utils.serialization import to_jsonable

    return [json.dumps(to_jsonable(o.journal), sort_keys=True) for o in outcomes]


def make_board(tasks, **kwargs):
    order = list(range(len(tasks)))
    return LeaseBoard(dict(enumerate(tasks)), order, workers=WorkerRegistry(), **kwargs)


def fake_outcome(task):
    return SweepOutcome(
        task=task, journal={"records": [], "candidates": []}, selected_bundles=[13],
        num_candidates=1, best_latency_ms=10.0, best_gap_ms=0.5, evaluations=3,
        memory_hits=0, memory_misses=3, disk_hits=0, disk_misses=0,
        estimator_calls=3, duration_s=0.1,
    )


@pytest.fixture(autouse=True)
def _telemetry_stays_off():
    """Never leak an enabled registry (or the env flag) into other tests."""
    telemetry.disable()
    yield
    telemetry.disable()


# ------------------------------------------------------------------ primitives
class TestMetricsPrimitives:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.inc()
        counter.inc(2)
        assert reg.counter("c") is counter, "same name must return the same metric"
        assert reg.snapshot().counters["c"] == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(5.0)
        reg.gauge("g").add(-2.0)
        assert reg.snapshot().gauges["g"] == pytest.approx(3.0)

    def test_histogram_buckets_and_summary_stats(self):
        hist = Histogram("h", (0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.counts == (1, 1, 1), "one observation per bucket incl +inf"
        assert snap.total == 3
        assert snap.sum == pytest.approx(5.55)
        assert snap.min == pytest.approx(0.05)
        assert snap.max == pytest.approx(5.0)
        assert snap.mean == pytest.approx(5.55 / 3)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 0.1))

    def test_registry_rejects_name_kind_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_snapshot_survives_pickle_and_dict_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.25)
        snap = reg.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.as_dict() == snap.as_dict()
        # Through real JSON text, as the sidecar and /v1/metrics ship it
        # (the +inf bucket bound must survive as a string).
        wire = json.loads(json.dumps(snap.as_dict()))
        assert MetricsSnapshot.from_dict(wire).as_dict() == snap.as_dict()

    def test_merge_combines_counters_gauges_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        a.gauge("g").set(1.0)
        a.histogram("h", (10.0,)).observe(1.0)
        b.counter("c").inc(2)
        b.counter("d").inc(5)
        b.gauge("g").set(7.0)
        b.histogram("h", (10.0,)).observe(3.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap.counters == {"c": 3, "d": 5}
        assert snap.gauges["g"] == pytest.approx(7.0), "gauges are last-write-wins"
        assert snap.histograms["h"].total == 2
        assert snap.histograms["h"].sum == pytest.approx(4.0)
        assert snap.histograms["h"].min == pytest.approx(1.0)
        assert snap.histograms["h"].max == pytest.approx(3.0)

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", (1.0,)).observe(0.5)
        b.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())


# --------------------------------------------------------------- on/off switch
class TestEnableDisable:
    def test_disabled_is_inert(self):
        assert telemetry.registry() is None
        assert telemetry.snapshot() is None
        assert not telemetry.enabled()
        with telemetry.trace("op", uid="x") as span:
            span.annotate(extra=1)  # must be a no-op, not an error
        telemetry.event("thing", a=1)
        assert telemetry.registry() is None, "disabled tracing must record nothing"

    def test_enable_exports_env_flag_for_workers(self):
        reg = telemetry.enable()
        assert telemetry.enabled() and telemetry.registry() is reg
        assert os.environ[telemetry.ENV_FLAG] == "1"
        telemetry.disable()
        assert telemetry.ENV_FLAG not in os.environ

    def test_enable_fresh_discards_state_and_reset_is_worker_entry(self):
        telemetry.enable()
        telemetry.registry().counter("c").inc()
        telemetry.enable()  # idempotent: keeps the registry
        assert telemetry.snapshot().counters == {"c": 1}
        telemetry.enable(fresh=True)
        assert telemetry.snapshot().counters == {}
        telemetry.registry().counter("c").inc()
        telemetry.reset()  # worker entry: fresh registry, sink detached
        assert telemetry.enabled()
        assert telemetry.snapshot().counters == {}
        assert telemetry.sink() is None

    def test_trace_and_event_record_counters_and_latency(self):
        telemetry.enable(fresh=True)
        with telemetry.trace("op", uid="u1") as span:
            span.annotate(outcome="ok")
        telemetry.event("tick")
        telemetry.event("tick")
        snap = telemetry.snapshot()
        assert snap.counters["op.count"] == 1
        assert snap.counters["tick.count"] == 2
        assert snap.histograms["op.seconds"].total == 1

    def test_merge_folds_worker_snapshot_into_parent(self):
        worker = MetricsRegistry()
        worker.counter("c").inc(4)
        telemetry.merge(worker.snapshot())  # disabled: no-op
        telemetry.enable(fresh=True)
        telemetry.registry().counter("c").inc(1)
        telemetry.merge(worker.snapshot())
        telemetry.merge(None)  # crashed worker ships None
        assert telemetry.snapshot().counters["c"] == 5


# -------------------------------------------------------------------- sidecar
class TestTelemetrySidecar:
    def test_write_read_round_trip_with_injected_clock(self, tmp_path):
        path = str(tmp_path / TELEMETRY_FILENAME)
        sink = TelemetrySink(path, clock=lambda: 42.0)
        sink.write_span("op", 0.5, {"uid": "u"})
        sink.write_event("evt", {"k": 1})
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        sink.write_snapshot(reg.snapshot())
        log = read_telemetry(path)
        assert log.version == TELEMETRY_VERSION
        assert log.corrupt_lines == 0
        assert log.records == 4  # header + span + event + snapshot
        assert log.spans[0]["name"] == "op"
        assert log.spans[0]["attrs"] == {"uid": "u"}
        assert log.events[0] == {"kind": "event", "name": "evt",
                                 "attrs": {"k": 1}, "ts": 42.0}
        assert log.last_snapshot.counters == {"c": 3}

    def test_trace_with_attached_sink_writes_annotated_span(self, tmp_path):
        path = str(tmp_path / TELEMETRY_FILENAME)
        telemetry.enable(fresh=True)
        telemetry.set_sink(TelemetrySink(path, clock=lambda: 1.0))
        with telemetry.trace("op", uid="u9") as span:
            span.annotate(outcome="ok")
        telemetry.set_sink(None)
        log = read_telemetry(path)
        assert log.spans[0]["attrs"] == {"uid": "u9", "outcome": "ok"}

    def test_torn_tail_and_garbage_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / TELEMETRY_FILENAME)
        sink = TelemetrySink(path)
        sink.write_event("before")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")                      # wrong shape
            handle.write('{"kind":"event","name":"torn')  # kill point
        log = read_telemetry(path)
        assert log.corrupt_lines == 2
        assert [record["name"] for record in log.events] == ["before"]
        assert log.version == TELEMETRY_VERSION

    def test_missing_sidecar_reads_as_empty(self, tmp_path):
        log = read_telemetry(str(tmp_path / TELEMETRY_FILENAME))
        assert log.records == 0 and log.version is None
        assert log.last_snapshot is None

    def test_sink_disables_itself_after_write_failure(self, tmp_path):
        path = str(tmp_path / TELEMETRY_FILENAME)
        sink = TelemetrySink(path)
        os.remove(path)
        os.mkdir(path)  # every further append now fails with EISDIR
        sink.write_event("lost")
        sink.write_event("also-lost")  # must not raise
        assert sink.log.failed


# ------------------------------------------------------- sweep instrumentation
class TestSweepInstrumentation:
    def test_serial_sweep_populates_registry_and_sidecar(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        telemetry.enable(fresh=True)
        result = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        snap = telemetry.snapshot()
        assert len(result.outcomes) == 2
        assert snap.counters["sweep.cell.count"] == len(tasks)
        assert snap.counters["sweep.cell.completed.count"] == len(tasks)
        assert snap.counters["hw.estimate.count"] > 0
        assert snap.counters["core.bundle_evaluation.evaluations"] > 0
        assert snap.counters["search.cache.misses"] > 0
        assert snap.counters["sweep.disk_cache.misses"] > 0
        assert snap.histograms["sweep.cell.seconds"].total == len(tasks)

        log = read_telemetry(str(tmp_path / TELEMETRY_FILENAME))
        assert log.version == TELEMETRY_VERSION
        assert log.corrupt_lines == 0
        assert any(record["name"] == "sweep.cell" for record in log.spans)
        assert log.last_snapshot is not None, "run-end snapshot is appended"
        assert log.last_snapshot.counters["sweep.cell.count"] == len(tasks)

    def test_pooled_workers_ship_measurements_back(self, tmp_path):
        tasks = build_grid("pynq-z1,ultra96", "scd", [40.0], **TINY)
        telemetry.enable(fresh=True)
        result = SweepRunner(tasks, workers=2, cache_dir=tmp_path).run()
        snap = telemetry.snapshot()
        assert len(result.outcomes) == 2
        # These counters are only incremented inside the worker processes;
        # seeing them in the parent proves the snapshot merge channel works.
        assert snap.counters["hw.estimate.count"] > 0
        assert snap.counters["search.cache.misses"] > 0
        assert snap.counters["sweep.cell.count"] == len(tasks)

    def test_warm_cache_records_disk_hits(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        telemetry.enable(fresh=True)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        snap = telemetry.snapshot()
        assert snap.counters["sweep.disk_cache.hits"] > 0
        assert snap.counters.get("sweep.disk_cache.misses", 0) == 0

    def test_sweep_without_cache_dir_has_no_sidecar_but_counts(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        telemetry.enable(fresh=True)
        SweepRunner(tasks, workers=1).run()
        assert telemetry.sink() is None
        assert telemetry.snapshot().counters["sweep.cell.count"] == 1


# ---------------------------------------------------------- clocks and writers
class TestInjectedClocks:
    def test_checkpoint_writer_stamps_from_injected_clock(self, tmp_path):
        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        path = tmp_path / CHECKPOINT_FILENAME
        writer = CheckpointWriter(path, [task.uid], clock=lambda: 1234.5)
        writer.record_outcome(fake_outcome(task))
        stamps = [json.loads(line)["ts"]
                  for line in path.read_text().splitlines()]
        assert stamps == [1234.5, 1234.5]

    def test_save_timings_stamps_from_injected_now(self, tmp_path):
        path = tmp_path / TIMINGS_FILENAME
        save_timings(path, {"uid-a": 0.5}, now=1234.5)
        payload = json.loads(path.read_text())
        assert payload["uid-a"] == {"duration_s": 0.5, "ts": 1234.5}

    def test_runner_rejects_non_callable_clock(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        with pytest.raises(TypeError, match="clock"):
            SweepRunner(tasks, clock=42)


# ------------------------------------------------------- non-perturbation law
class TestNonPerturbation:
    @settings(max_examples=3, deadline=None)
    @given(strategy=st.sampled_from(["scd", "random"]),
           seed=st.sampled_from([1, 2]))
    def test_checkpoints_and_journals_identical_on_vs_off(self, strategy, seed):
        """Acceptance: with wall clocks frozen, a telemetry-on run leaves
        byte-identical ``_checkpoint.jsonl`` / ``_timings.json`` files and
        byte-identical journals to a telemetry-off run — observation must
        never perturb the observed sweep."""
        budget = dict(TINY, seed=seed)
        tasks = build_grid("pynq-z1", strategy, [40.0], **budget)
        frozen = lambda: 1234.5
        real_perf = time.perf_counter
        time.perf_counter = lambda: 0.0  # durations land in persisted records
        try:
            telemetry.disable()
            off = SweepRunner(tasks, workers=1, cache_dir=None, clock=frozen)
            with tempfile.TemporaryDirectory() as root:
                off_dir = os.path.join(root, "off")
                on_dir = os.path.join(root, "on")
                off_result = SweepRunner(
                    tasks, workers=1, cache_dir=off_dir, clock=frozen).run()
                telemetry.enable(fresh=True)
                on_result = SweepRunner(
                    tasks, workers=1, cache_dir=on_dir, clock=frozen).run()
                telemetry.disable()
                assert journal_bytes(off_result.outcomes) == \
                    journal_bytes(on_result.outcomes)
                for name in (CHECKPOINT_FILENAME, TIMINGS_FILENAME):
                    off_bytes = open(os.path.join(off_dir, name), "rb").read()
                    on_bytes = open(os.path.join(on_dir, name), "rb").read()
                    assert off_bytes == on_bytes, f"{name} differs with telemetry on"
                assert os.path.exists(os.path.join(on_dir, TELEMETRY_FILENAME))
                assert not os.path.exists(os.path.join(off_dir, TELEMETRY_FILENAME))
        finally:
            time.perf_counter = real_perf
            telemetry.disable()


# ------------------------------------------------------------- lease lifecycle
class TestLeaseMetrics:
    def tasks(self, n=2):
        return build_grid("pynq-z1", ["scd", "random", "annealing"][:n],
                          [40.0], **TINY)

    def test_counters_reconcile_over_a_full_lifecycle(self):
        tasks = self.tasks(2)
        board = make_board(tasks, retries=1)
        worker = board.workers.register("a")
        first, second = board.lease(worker, 2)  # cost-ordered, not grid-ordered
        first_lease, second_lease = first.lease_id, second.lease_id
        board.heartbeat(worker, [first_lease, second_lease])
        board.report(worker, first_lease, first.task.uid,
                     outcome=fake_outcome(first.task), duration_s=0.25)
        duplicate = board.report(worker, first_lease, first.task.uid,
                                 outcome=fake_outcome(first.task))
        assert duplicate == (False, "duplicate")
        board.report(worker, second_lease, second.task.uid, error="boom")
        retry = board.lease(worker, 1)[0]
        board.report(worker, retry.lease_id, retry.task.uid, error="boom again")
        assert board.metrics_counts() == {
            "granted": 3, "heartbeats": 1, "completed": 1, "failed": 1,
            "requeued": 1, "expired": 0, "revoked": 0, "duplicates": 1,
        }
        stats = board.workers.stats()
        assert len(stats) == 1
        assert stats[0]["name"] == "a"
        assert stats[0]["leased"] == 3
        assert stats[0]["completed"] == 1
        assert stats[0]["errors"] == 2
        assert stats[0]["busy_s"] == pytest.approx(0.25)

    def test_expired_lease_increments_expired_counter(self):
        tasks = self.tasks(1)
        board = make_board(tasks, retries=1, lease_ttl_s=0.05)
        worker = board.workers.register("dying")
        assert board.lease(worker, 1)
        time.sleep(0.1)
        assert board.expire_leases() == 1
        metrics = board.metrics_counts()
        assert metrics["expired"] == 1
        assert metrics["requeued"] == 1
        assert metrics["revoked"] == 0

    def test_lease_events_reach_the_telemetry_registry(self):
        tasks = self.tasks(1)
        telemetry.enable(fresh=True)
        board = make_board(tasks)
        worker = board.workers.register("a")
        cell = board.lease(worker, 1)[0]
        board.report(worker, cell.lease_id, tasks[0].uid,
                     outcome=fake_outcome(tasks[0]), duration_s=0.1)
        snap = telemetry.snapshot()
        assert snap.counters["shard.worker.registered.count"] == 1
        assert snap.counters["shard.lease.granted.count"] == 1
        assert snap.counters["shard.cell.completed.count"] == 1


# -------------------------------------------------------- coordinator metrics
class TestCoordinatorMetricsEndpoint:
    def test_v1_metrics_scrape_mid_run(self):
        tasks = build_grid("pynq-z1", "scd", [40.0], **TINY)
        prepared = prepare_device(tasks[0])
        coordinator = LeaseCoordinator()
        coordinator.attach(SweepRunner(tasks), [0], {tasks[0].prep_key: prepared})
        coordinator.start()
        try:
            url = coordinator.url
            registration = post_json(url, "/v1/register",
                                     {"name": "t", "version": PROTOCOL_VERSION})
            worker_id = registration["worker_id"]
            cell = post_json(url, "/v1/lease", {
                "worker_id": worker_id, "slots": 1, "known_preps": [],
            })["cells"][0]

            payload = get_json(url, "/v1/metrics")
            assert payload["lease_metrics"]["granted"] == 1
            assert payload["lease_metrics"]["completed"] == 0
            assert payload["counts"]["leased"] == 1
            assert payload["workers"][0]["name"] == "t"
            assert payload["workers"][0]["leased"] == 1
            assert payload["telemetry"] is None, "telemetry is off: counters only"

            from repro.sweep import run_sweep_task
            from repro.utils.serialization import to_jsonable

            outcome = run_sweep_task(tasks[0], prepared=prepared)
            post_json(url, "/v1/report", {
                "worker_id": worker_id, "lease_id": cell["lease_id"],
                "uid": cell["uid"], "status": "ok",
                "outcome": to_jsonable(outcome), "duration_s": 0.1,
            })
            payload = get_json(url, "/v1/metrics")
            assert payload["lease_metrics"]["completed"] == 1
            assert payload["workers"][0]["completed"] == 1
        finally:
            coordinator.close()

    def test_metrics_payload_embeds_snapshot_when_enabled(self):
        coordinator = LeaseCoordinator()
        try:
            telemetry.enable(fresh=True)
            telemetry.registry().counter("c").inc()
            payload = coordinator.metrics()
        finally:
            coordinator.close()
        assert payload["telemetry"]["counters"]["c"] == 1
        snap = MetricsSnapshot.from_dict(json.loads(json.dumps(payload["telemetry"])))
        assert snap.counters == {"c": 1}


# --------------------------------------------------------------------- report
class TestTelemetryReport:
    def test_build_report_from_instrumented_sweep(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        telemetry.enable(fresh=True)
        SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        telemetry.disable()
        report = build_report(str(tmp_path))
        assert report.cells_completed == 2 and report.cells_failed == 0
        assert report.evaluations > 0 and report.estimator_calls > 0
        assert len(report.timings) == 2
        assert report.snapshot is not None
        assert report.spans["sweep.cell"]["count"] == 2
        payload = report.as_dict()
        assert payload["cells"]["completed"] == 2
        assert payload["telemetry"]["snapshot"]["counters"]["sweep.cell.count"] == 2
        text = report.render()
        assert f"Telemetry report for {tmp_path}" in text
        assert "Cells: 2 completed, 0 failed" in text
        assert "slowest cells" in text
        assert "Spans (_telemetry.jsonl)" in text

    def test_report_aggregates_per_worker_throughput(self, tmp_path):
        sink = TelemetrySink(str(tmp_path / TELEMETRY_FILENAME))
        for worker, duration in (("w1", 1.0), ("w1", 2.0), ("w2", 0.5)):
            sink.write_event("shard.cell.completed",
                             {"uid": "u", "worker": worker, "duration_s": duration})
        report = build_report(str(tmp_path))
        assert report.per_worker == {
            "w1": {"cells": 2, "busy_s": 3.0},
            "w2": {"cells": 1, "busy_s": 0.5},
        }
        assert report.events["shard.cell.completed"] == 3
        assert "Per-worker throughput:" in report.render()
        assert "w1: 2 cell(s), 3.00s busy" in report.render()

    def test_empty_cache_dir_renders_without_crashing(self, tmp_path):
        report = build_report(str(tmp_path))
        assert report.checkpoint_records == report.telemetry_records == 0
        assert "Cells: 0 completed, 0 failed" in report.render()

    def test_write_bench_json_is_atomic_and_sorted(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        path = write_bench_json(
            str(tmp_path / "BENCH_sweep.json"), bench="sweep",
            metrics={"warm_wall_s": 0.5, "cells": 2},
            meta={"grid": "tiny"}, snapshot=reg.snapshot(),
        )
        assert not os.path.exists(path + ".tmp")
        payload = json.loads(open(path).read())
        assert payload["bench"] == "sweep" and payload["version"] == 1
        assert list(payload["metrics"]) == ["cells", "warm_wall_s"]
        assert payload["meta"] == {"grid": "tiny"}
        assert payload["telemetry"]["counters"]["c"] == 2
