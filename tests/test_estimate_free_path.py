"""The estimate-free part of a sweep cell keeps its bytes while doing less.

A warm cell makes no estimator call, so its cost is bookkeeping: cache keys,
shard loading, journals and checkpoint lines.  These tests pin the four
savings on that path to the results they must not change:

* a config's cache key is built once per object and always equals the key
  formula computed afresh;
* a process decodes each cache-shard line another writer appended once and
  none it appended itself, yet every open sees other writers' appends and
  never an evicted key, and two opens of one namespace append a key once;
* a journal is converted to JSON once, and every hop (checkpoint line,
  wire view, sweep report) carries exactly what ``to_jsonable`` gives;
* a full disk under the cache shards costs the cache, never the cell;
* a warm cell synthesises nothing: step 3 reads each final candidate's
  post-synthesis latency from the cache directory, and it equals the
  latency of a fresh synthesis report.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing
import os
import pickle
import sys
import threading
import time

import pytest

import repro.sweep.disk_cache as disk_cache
import repro.utils.jsonl as jsonl
from repro.core.auto_dnn import AutoDNN
from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import default_bundle_catalog, get_bundle
from repro.core.dnn_config import DNNConfig
from repro.detection.task import TINY_DETECTION_TASK
from repro.hw.device import PYNQ_Z1
from repro.hw.hls.synthesis import HLSSynthesisSimulator
from repro.search import CacheStats, EvaluationCache, SearchSession, config_cache_key
from repro.sweep import (
    DiskEvaluationCache,
    SweepResult,
    SweepRunner,
    build_grid,
    cache_dir_stats,
    compact_cache_dir,
    run_sweep_task,
)
from repro.sweep.checkpoint import CheckpointWriter
from repro.utils.serialization import dump_json, to_jsonable

#: A seed-2019 budget small enough for a cell to finish in well under a second.
SMALL = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=2019)


@pytest.fixture(scope="module")
def engine():
    return AutoHLS(PYNQ_Z1)


def _config(**updates) -> DNNConfig:
    config = DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK, num_repetitions=2,
                       channel_expansion=(1.5, 1.5), downsample=(1, 1),
                       stem_channels=16, parallel_factor=16, max_channels=128)
    return config.with_updates(**updates) if updates else config


def _fresh_key(config: DNNConfig) -> str:
    """The key formula on a field-for-field copy that has never been keyed."""
    copy = dataclasses.replace(config)
    assert "_cache_key" not in copy.__dict__
    return config_cache_key(copy)


class CountingJson:
    """Stands in for the ``json`` module of :mod:`repro.utils.jsonl`."""

    def __init__(self) -> None:
        self.decoded = 0

    def loads(self, *args, **kwargs):
        self.decoded += 1
        return json.loads(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


# ------------------------------------------------------------ memoized keys
class TestMemoizedKeys:
    def test_every_key_a_search_uses_equals_the_fresh_formula(self, monkeypatch):
        seen: list[DNNConfig] = []
        one, batch = EvaluationCache.evaluate_with_info, EvaluationCache.evaluate_batch

        def evaluate_with_info(self, config):
            seen.append(config)
            return one(self, config)

        def evaluate_batch(self, configs, with_info=False):
            seen.extend(configs)
            return batch(self, configs, with_info)

        monkeypatch.setattr(EvaluationCache, "evaluate_with_info", evaluate_with_info)
        monkeypatch.setattr(EvaluationCache, "evaluate_batch", evaluate_batch)
        outcomes = [run_sweep_task(task)
                    for task in build_grid("pynq-z1", "scd,evolutionary", [40.0], **SMALL)]
        assert len(seen) > 100
        for config in seen:
            assert config.__dict__["_cache_key"] == _fresh_key(config)
        keys = {config.__dict__["_cache_key"] for config in seen}
        journal_keys = {record["config"] for outcome in outcomes
                        for record in outcome.journal["records"]}
        assert journal_keys <= keys

    def test_with_updates_copy_never_carries_the_parent_key(self):
        parent = _config()
        key = config_cache_key(parent)
        for child in (parent.with_updates(parallel_factor=32),
                      parent.with_updates(channel_expansion=(2.0, 1.5)),
                      parent.with_updates()):
            # An interned child may already be keyed, but only by its own key.
            assert child.__dict__.get("_cache_key", _fresh_key(child)) == _fresh_key(child)
            assert config_cache_key(child) == _fresh_key(child)
        assert config_cache_key(parent.with_updates(parallel_factor=32)) != key
        assert config_cache_key(parent.with_updates()) == key

    def test_pickled_config_round_trips_with_the_same_key(self):
        keyed = _config(parallel_factor=8)
        key = config_cache_key(keyed)
        for config in (keyed, _config(parallel_factor=8)):
            clone = pickle.loads(pickle.dumps(config))
            assert clone == keyed
            assert config_cache_key(clone) == key == _fresh_key(clone)

    def test_bundle_catalogue_is_shared_but_lists_are_fresh(self):
        first, second = default_bundle_catalog(), default_bundle_catalog()
        assert first is not second and first == second
        for index, bundle in enumerate(first, start=1):
            assert get_bundle(index) is bundle is second[index - 1]
        first.pop()
        assert len(default_bundle_catalog()) == 18
        with pytest.raises(KeyError):
            get_bundle(19)


# --------------------------------------------------------- process cache index
def _seed_configs(count: int) -> list[DNNConfig]:
    return [_config(parallel_factor=pf) for pf in (4, 8, 16, 32)][:count]


def _seed_records(directory, engine, count: int, device: str = "PYNQ-Z1") -> list[DNNConfig]:
    configs = _seed_configs(count)
    writer = DiskEvaluationCache(engine.estimate, directory, device=device, shard="seed")
    for config in configs:
        writer.evaluate(config)
    return configs


def _open_in_child(engine, directory: str, configs) -> None:
    cache = DiskEvaluationCache(engine.estimate, directory, device="PYNQ-Z1")
    os._exit(0 if all(config in cache for config in configs) else 1)


def _seed_in_child(directory, engine, count: int, device: str = "PYNQ-Z1") -> list[DNNConfig]:
    """:func:`_seed_records` in a forked child: lines this process never wrote."""
    child = multiprocessing.get_context("fork").Process(
        target=_seed_records, args=(directory, engine, count, device))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    return _seed_configs(count)


class TestProcessStore:
    def test_each_shard_line_is_decoded_once_per_process(self, tmp_path, engine, monkeypatch):
        configs = _seed_in_child(tmp_path, engine, 3)
        _seed_in_child(tmp_path, engine, 4, device="Ultra96")
        counting = CountingJson()
        monkeypatch.setattr(jsonl, "json", counting)
        first = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert counting.decoded == 3, "another writer's three lines of its namespace, no other"
        second = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                     shard="second")
        assert counting.decoded == 3, "a second open decodes nothing new"
        assert all(config in first and config in second for config in configs)
        fresh = _config(stem_channels=24)
        second.evaluate(fresh)
        third = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert fresh in third and counting.decoded == 3, "a line it wrote is never decoded"

    def test_each_reader_decodes_a_record_once(self, tmp_path, engine, monkeypatch):
        configs = _seed_in_child(tmp_path, engine, 3)
        _seed_in_child(tmp_path, engine, 4, device="Ultra96")
        decoded = []
        decode = disk_cache._estimate_from_payload
        monkeypatch.setattr(disk_cache, "_estimate_from_payload",
                            lambda payload: decoded.append(payload) or decode(payload))
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert len(decoded) == 3, "the index validates and keeps one decode per line"
        keys = [config_cache_key(config) for config in configs]
        assert cache.get_many(keys) == [engine.estimate(config) for config in configs]
        records = disk_cache.read_cache_records(tmp_path)
        assert len(records) == 7 and len(decoded) == 10
        assert disk_cache.CacheIndex(tmp_path).merge([]) == 0 and len(decoded) == 10
        ultra96 = [record for record in records if record["namespace"].startswith("Ultra96")]
        assert disk_cache.CacheIndex(tmp_path).merge(ultra96[:1]) == 0
        assert len(decoded) == 15, "the record, then only the prefix it names"

    def test_sees_lines_appended_between_opens(self, tmp_path, engine):
        early, late = _config(parallel_factor=4), _config(parallel_factor=8)
        DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                            shard="a").evaluate(early)
        before = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert early in before and late not in before
        # Another writer: a raw line appended to a shard the store has read.
        record = json.loads(next(tmp_path.glob("*--a.jsonl")).read_text())
        record["key"] = config_cache_key(late)
        with next(tmp_path.glob("*--a.jsonl")).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        after = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert early in after and late in after
        assert late in before, "every open of the namespace reads one live view"

    def test_serves_no_evicted_key_after_compaction(self, tmp_path, engine):
        now = time.time()
        old, kept = _config(parallel_factor=4), _config(parallel_factor=8)
        DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1", shard="old",
                            clock=lambda: now - 20 * 86400.0).evaluate(old)
        DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                            shard="new").evaluate(kept)
        warm = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert old in warm and kept in warm
        report = compact_cache_dir(tmp_path, max_age_days=5.0, now=now)
        assert report.evicted_by_age == 1
        reopened = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert old not in reopened and kept in reopened
        assert old not in warm and kept in warm, "the live view was refilled in place"

    def test_holds_only_the_last_directory_opened(self, tmp_path, engine, monkeypatch):
        first, second = tmp_path / "first", tmp_path / "second"
        _seed_records(first, engine, 2)
        _seed_records(second, engine, 3)
        counting = CountingJson()
        monkeypatch.setattr(jsonl, "json", counting)
        for directory, decoded in ((first, 2), (first, 2), (second, 5), (first, 7)):
            DiskEvaluationCache(engine.estimate, directory, device="PYNQ-Z1")
            assert counting.decoded == decoded, f"after opening {directory.name}"

    def test_concurrent_writers_and_opens_lose_no_record(self, tmp_path, engine):
        # More threads than cores, switching often: an open must see every
        # record appended before it started, whatever the other threads do,
        # and a config every thread estimates is appended once.
        def worker(index: int, errors: list) -> None:
            try:
                for step in range(8):
                    config = _config(stem_channels=8 * (1 + index * 8 + step))
                    shared = _config(stem_channels=8 * (1 + step), parallel_factor=8)
                    DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                        shard=f"t{index}").evaluate_batch([config, shared])
                    for _ in range(4):
                        if config not in DiskEvaluationCache(engine.estimate, tmp_path,
                                                             device="PYNQ-Z1"):
                            errors.append((index, step))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        errors: list = []
        threads = [threading.Thread(target=worker, args=(i, errors)) for i in range(5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")) == 48
        assert cache_dir_stats(tmp_path).duplicates == 0

    def test_forked_child_never_inherits_a_held_store_lock(self, tmp_path, engine):
        configs = _seed_records(tmp_path, engine, 2)
        index = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")._index
        context = multiprocessing.get_context("fork")
        # Fork while the locks are held, as a thread mid-refresh would hold them.
        with disk_cache._process_slot_lock, index._lock:
            child = context.Process(target=_open_in_child,
                                    args=(engine, str(tmp_path), configs))
            child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_a_cold_serial_sweep_decodes_no_line_it_appended(self, tmp_path, monkeypatch):
        decoded = []
        decode = disk_cache._estimate_from_payload
        monkeypatch.setattr(disk_cache, "_estimate_from_payload",
                            lambda payload: decoded.append(payload) or decode(payload))
        tasks = build_grid("pynq-z1", "scd,random,evolutionary", [40.0], **SMALL)
        cold = SweepRunner(tasks, workers=1, cache_dir=str(tmp_path)).run()
        assert cold.ok and cold.estimator_calls > 0 and list(tmp_path.glob("PYNQ*.jsonl"))
        assert len(decoded) == 0, "later cells read earlier cells' lines from the index"

    def test_two_opens_of_one_namespace_append_a_key_once(self, tmp_path, engine):
        config = _config(parallel_factor=8)
        first, second = (DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                              shard=shard) for shard in ("a", "b"))
        assert first.evaluate(config) == second.evaluate(config)
        assert (first.disk_stats().misses, second.disk_stats().hits) == (1, 1)
        lines = [line for path in tmp_path.glob("*.jsonl")
                 for line in path.read_text().splitlines()]
        assert len(lines) == 1 and cache_dir_stats(tmp_path).duplicates == 0

    def test_warns_about_a_corrupt_line_once(self, tmp_path, engine, caplog):
        configs = _seed_records(tmp_path, engine, 1)
        with next(tmp_path.glob("*.jsonl")).open("a", encoding="utf-8") as handle:
            handle.write("{torn json\n")
        with caplog.at_level(logging.WARNING, logger="repro.sweep.disk_cache"):
            for _ in range(3):
                assert configs[0] in DiskEvaluationCache(engine.estimate, tmp_path,
                                                         device="PYNQ-Z1")
        warnings = [r for r in caplog.records if "corrupt line" in r.getMessage()]
        assert len(warnings) == 1


# ------------------------------------------------------------- one journal walk
@pytest.fixture(scope="module")
def outcome():
    return run_sweep_task(build_grid("pynq-z1", "evolutionary", [40.0], **SMALL)[0])


class TestOneJournalWalk:
    def test_session_as_dict_equals_to_jsonable_of_the_dataclass_view(self, outcome, tmp_path):
        session = SearchSession.load(dump_json(outcome.journal, tmp_path / "journal.json"))
        assert session.records and session.candidates
        session.attach_cache_stats(CacheStats(hits=3, misses=2, size=2))
        dataclass_view = {
            "name": session.name,
            "metadata": dict(session.metadata),
            "records": list(session.records),
            "candidates": list(session.candidates),
            "cache_stats": session.cache_stats,
        }
        plain = session.as_dict()
        assert plain == to_jsonable(dataclass_view)
        assert json.dumps(plain) == json.dumps(to_jsonable(dataclass_view))
        assert outcome.journal == to_jsonable(outcome.journal)

    def test_checkpoint_line_is_unchanged(self, outcome, tmp_path):
        path = tmp_path / "_checkpoint.jsonl"
        writer = CheckpointWriter(path, [outcome.task.uid], clock=lambda: 1700000000.0)
        writer.record_outcome(outcome)
        line = path.read_text(encoding="utf-8").splitlines()[-1]
        expected = {"kind": "outcome", "uid": outcome.task.uid,
                    "outcome": to_jsonable(outcome), "ts": 1700000000.0}
        assert line == json.dumps(expected, sort_keys=True)

    def test_wire_and_report_views_equal_to_jsonable(self, outcome):
        wire = outcome.as_dict()
        assert json.dumps(wire) == json.dumps(to_jsonable(outcome))
        result = SweepResult(outcomes=[outcome], workers=1)
        assert result.as_dict()["outcomes"] == [to_jsonable(outcome)]


# ------------------------------------------------------------------ full disk
class TestFullDiskUnderShards:
    def test_failed_shard_appends_never_fail_a_cell(self, tmp_path, disk_full, caplog):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **SMALL)
        clean = SweepRunner(tasks, workers=1, cache_dir=str(tmp_path / "clean")).run()
        disk_full("*--*.jsonl")
        with caplog.at_level(logging.WARNING, logger="repro.utils.jsonl"):
            full = SweepRunner(tasks, workers=1, cache_dir=str(tmp_path / "full")).run()
        assert full.ok and len(full.outcomes) == len(tasks)
        assert [o.journal for o in full.outcomes] == [o.journal for o in clean.outcomes]
        # Nothing reached the disk, so no cell reuses another's estimates.
        assert full.estimator_calls >= clean.estimator_calls > 0
        warnings = [r for r in caplog.records if "append failed" in r.getMessage()]
        # A cell has two cache instances: estimates and synthesis results.
        assert len(warnings) == 2 * len(tasks), "one warning per cache instance"
        assert not list((tmp_path / "full").glob("PYNQ*.jsonl"))


# ----------------------------------------------------------- synthesis tier
def count_synthesis(monkeypatch) -> list[int]:
    """Count every synthesis run from now on (``[runs]``, updated in place)."""
    runs = [0]
    synthesise = HLSSynthesisSimulator.synthesise

    def counted(self, *args, **kwargs):
        runs[0] += 1
        return synthesise(self, *args, **kwargs)

    monkeypatch.setattr(HLSSynthesisSimulator, "synthesise", counted)
    return runs


def synth_records(directory) -> list[dict]:
    return [json.loads(line) for path in sorted(directory.glob("*_synth--*.jsonl"))
            for line in path.read_text().splitlines()]


class TestSynthesisTier:
    #: ``TestPerCellCounters``' grid: 8 cells, 60 final candidates.
    GRID = dict(tolerance_ms=10, iterations=25, num_candidates=1, top_bundles=2, seed=2019)

    def test_synthesis_runs_are_pinned_cold_then_warm(self, tmp_path, monkeypatch):
        tasks = build_grid("pynq-z1,ultra96", "scd,random,evolutionary,annealing", [40.0],
                           **self.GRID)
        runs = count_synthesis(monkeypatch)
        cold = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        # 60 final candidates, 43 distinct per device: later cells of a
        # device read what earlier ones appended.
        assert runs[0] == 43
        records = synth_records(tmp_path)
        assert len(records) == 43
        assert {r["namespace"] for r in records} == {"PYNQ-Z1@100MHz|synth",
                                                     "Ultra96@150MHz|synth"}
        refined = []
        refine = AutoDNN.refine_with_hls

        def recording(self, candidates):
            result = refine(self, candidates)
            refined.extend(result)
            return result

        monkeypatch.setattr(AutoDNN, "refine_with_hls", recording)
        runs[0] = 0
        warm = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert runs[0] == 0
        assert [o.journal for o in warm.outcomes] == [o.journal for o in cold.outcomes]
        assert [o.best_latency_ms for o in warm.outcomes] == \
            [o.best_latency_ms for o in cold.outcomes]
        assert len(refined) == 60
        for candidate in refined:
            assert candidate.hls.synthesised_latency_ms is not None
            assert candidate.hls.latency_ms == candidate.hls.report.latency_ms
        assert runs[0] == 60, "the lazy reports synthesised on first access"

    def test_a_directory_of_estimates_only_gains_synthesis_records(self, tmp_path,
                                                                   monkeypatch):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **SMALL)
        cold = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        for path in tmp_path.glob("*_synth--*.jsonl"):
            path.unlink()
        runs = count_synthesis(monkeypatch)
        again = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert again.estimator_calls == 0
        distinct = {r["key"] for r in synth_records(tmp_path)}
        assert runs[0] == len(distinct) == len(synth_records(tmp_path)) > 0
        runs[0] = 0
        last = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert runs[0] == 0 and last.estimator_calls == 0
        assert [o.journal for o in last.outcomes] == [o.journal for o in cold.outcomes]

    def test_gpu_cells_write_no_synthesis_records(self, tmp_path):
        tasks = build_grid("gpu:jetson-tx2", "scd", [40.0], **SMALL)
        assert SweepRunner(tasks, workers=1, cache_dir=tmp_path).run().ok
        assert synth_records(tmp_path) == []
