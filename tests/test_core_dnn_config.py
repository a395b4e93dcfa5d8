"""Tests for the candidate DNN configuration and its builders."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.core.dnn_config as dnn_config
from repro.core.bundle_generation import get_bundle
from repro.core.dnn_config import CHANNEL_ROUND, DNNConfig, _round_channels
from repro.detection.task import DAC_SDC_TASK, TINY_DETECTION_TASK
from repro.search import config_cache_key
from repro.sweep import SweepRunner, build_grid

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestChannelRounding:
    def test_rounds_to_multiple(self):
        assert _round_channels(13) % CHANNEL_ROUND == 0
        assert _round_channels(100) == 104 or _round_channels(100) == 96

    def test_minimum(self):
        assert _round_channels(1) == CHANNEL_ROUND


class TestDNNConfigValidation:
    def test_defaults_fill_expansion_and_downsample(self, bundle13, tiny_task):
        config = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=3)
        assert len(config.channel_expansion) == 3
        assert len(config.downsample) == 3

    def test_length_mismatch_rejected(self, bundle13, tiny_task):
        with pytest.raises(ValueError):
            DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=3,
                      channel_expansion=(1.5, 1.5))

    def test_invalid_downsample_flag(self, bundle13, tiny_task):
        with pytest.raises(ValueError):
            DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=2,
                      channel_expansion=(1.5, 1.5), downsample=(1, 2))

    def test_invalid_repetitions(self, bundle13, tiny_task):
        with pytest.raises(ValueError):
            DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=0)

    def test_nan_expansion_factor_rejected(self, bundle13, tiny_task):
        with pytest.raises(ValueError, match="must be positive"):
            DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=2,
                      channel_expansion=(float("nan"), 1.5))

    def test_equal_configs_get_equal_keys(self, bundle13, tiny_task):
        flags = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=2,
                          channel_expansion=(2, 1.5), downsample=(True, False),
                          parallel_factor=np.int64(16))
        numbers = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=2,
                            channel_expansion=(2.0, 1.5), downsample=(1, 0), parallel_factor=16)
        assert flags == numbers and hash(flags) == hash(numbers)
        assert config_cache_key(flags) == config_cache_key(numbers)
        assert [type(flag) for flag in flags.downsample] == [int, int]
        assert [type(factor) for factor in flags.channel_expansion] == [float, float]
        assert type(flags.parallel_factor) is int

    def test_integer_fields_reject_floats(self, bundle13, tiny_task):
        with pytest.raises(TypeError):
            DNNConfig(bundle=bundle13, task=tiny_task, parallel_factor=16.0)

    def test_feature_bits_follow_activation(self, bundle13, tiny_task):
        relu4 = DNNConfig(bundle=bundle13, task=tiny_task, activation="relu4")
        relu = DNNConfig(bundle=bundle13, task=tiny_task, activation="relu")
        relu8 = DNNConfig(bundle=bundle13, task=tiny_task, activation="relu8")
        assert relu4.feature_bits == 8
        assert relu8.feature_bits == 10
        assert relu.feature_bits == 16

    def test_with_updates_returns_new_config(self, tiny_config):
        updated = tiny_config.with_updates(num_repetitions=3,
                                           channel_expansion=(1.5, 1.5, 1.5),
                                           downsample=(1, 1, 0))
        assert updated.num_repetitions == 3
        assert tiny_config.num_repetitions == 2  # original untouched


class TestChannelSchedule:
    def test_expansion_applied(self, bundle13, tiny_task):
        config = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=3,
                           channel_expansion=(2.0, 2.0, 2.0), downsample=(1, 1, 1),
                           stem_channels=16, max_channels=512)
        schedule = config.channel_schedule()
        assert schedule == [32, 64, 128]

    def test_max_channels_cap(self, bundle13, tiny_task):
        config = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=4,
                           channel_expansion=(2.0,) * 4, downsample=(1, 1, 1, 1),
                           stem_channels=64, max_channels=128)
        assert max(config.channel_schedule()) <= 128

    def test_spatial_schedule_halves_on_downsample(self, bundle13, tiny_task):
        config = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=2,
                           channel_expansion=(1.5, 1.5), downsample=(1, 0),
                           stem_channels=16)
        sizes = config.spatial_schedule()
        # Input 32x64 -> stem /2 = 16x32 -> rep0 downsample = 8x16 -> rep1 same.
        assert sizes == [(8, 16), (8, 16)]


class TestWorkloadBuilder:
    def test_workload_structure(self, tiny_config):
        wl = tiny_config.to_workload()
        assert wl.layers[0].kind == "conv" and wl.layers[0].stride == 2  # stem
        assert wl.layers[-1].kind == "head"
        assert wl.num_bundles == tiny_config.num_repetitions
        assert wl.feature_bits == tiny_config.feature_bits
        assert wl.bundle_signature == tiny_config.bundle.signature

    def test_bundle_layer_kinds_follow_bundle(self, tiny_config):
        wl = tiny_config.to_workload()
        rep0 = wl.layers_in_bundle(0)
        kinds = [l.kind for l in rep0]
        assert kinds == ["dwconv", "activation", "conv", "activation"]

    def test_downsample_realised_as_stride(self, tiny_config):
        wl = tiny_config.to_workload()
        rep0 = wl.layers_in_bundle(0)
        assert rep0[0].stride == 2  # first compute layer carries the downsample

    def test_channels_monotone_nondecreasing(self, tiny_config):
        wl = tiny_config.to_workload()
        compute = [l for l in wl.layers if l.is_compute]
        for earlier, later in zip(compute, compute[1:-1]):
            assert later.in_channels >= earlier.in_channels or later.kind == "head"

    def test_more_reps_more_macs(self, bundle13, tiny_task):
        small = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=1,
                          channel_expansion=(1.5,), downsample=(1,), stem_channels=16)
        large = DNNConfig(bundle=bundle13, task=tiny_task, num_repetitions=3,
                          channel_expansion=(1.5,) * 3, downsample=(1, 1, 0), stem_channels=16)
        assert large.to_workload().total_macs > small.to_workload().total_macs


class TestModelBuilder:
    def test_model_runs_forward_and_matches_workload(self, tiny_config, rng):
        model = tiny_config.to_model(rng=0)
        c, h, w = tiny_config.task.input_shape
        x = rng.normal(size=(2, c, h, w)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (2, 4)
        assert np.all((out >= 0) & (out <= 1))

    def test_model_params_close_to_workload_params(self, tiny_config):
        model = tiny_config.to_model(rng=0)
        wl = tiny_config.to_workload()
        # BatchNorm in the model adds a few parameters the workload does not
        # track, so allow a modest relative difference.
        assert model.num_params() == pytest.approx(wl.total_params, rel=0.25)

    def test_model_trainable(self, tiny_config, rng):
        model = tiny_config.to_model(rng=0)
        c, h, w = tiny_config.task.input_shape
        x = rng.normal(size=(2, c, h, w)).astype(np.float32)
        out = model.forward(x)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestFeaturesAndDescribe:
    def test_features_reflect_workload(self, tiny_config):
        features = tiny_config.features(epochs=20)
        wl = tiny_config.to_workload()
        assert features.macs == wl.total_macs
        assert features.depth == wl.compute_depth
        assert features.max_channels == wl.max_channels
        assert features.epochs == 20
        assert features.bundle_signature == "dwconv3x3+conv1x1"

    def test_describe_mentions_structure(self, tiny_config):
        text = tiny_config.describe()
        assert "Bundle 13" in text
        assert "2 bundle replications" in text
        assert "8-bit feature map" in text


# ------------------------------------------------------------------ interning
@pytest.fixture
def table(monkeypatch) -> dict:
    """The intern table, empty for this test and restored after it."""
    empty: dict = {}
    monkeypatch.setattr(dnn_config, "_interned", empty)
    return empty


def _fields(config: DNNConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


def _intern_in_child(config: DNNConfig) -> None:
    child = config.with_updates(parallel_factor=64)
    os._exit(0 if config.with_updates(parallel_factor=64) is child else 1)


class TestInterning:
    def test_a_grid_builds_each_distinct_config_about_once(self, table, monkeypatch):
        built: list[DNNConfig] = []
        validate = DNNConfig.__post_init__

        def counting(self):
            validate(self)
            built.append(self)

        monkeypatch.setattr(DNNConfig, "__post_init__", counting)
        grid = build_grid("pynq-z1,ultra96", "scd,random", [40.0], tolerance_ms=10.0,
                          iterations=25, num_candidates=1, top_bundles=2, seed=2019)
        assert SweepRunner(grid, workers=1).run().ok
        distinct = set(built)
        assert len(distinct) > 100
        assert len(built) <= 1.1 * len(distinct)

    def test_equal_updates_share_one_object_and_others_never(self, table, tiny_config):
        key = config_cache_key
        pf16 = tiny_config.with_updates(parallel_factor=16)
        configs = [
            tiny_config.with_updates(),
            pf16,
            tiny_config.with_updates(parallel_factor=16),
            pf16.with_updates(parallel_factor=8),
            DNNConfig.interned(**_fields(tiny_config)),
            tiny_config.with_updates(downsample=(True, False)),
            tiny_config.with_updates(downsample=(1, 0)),
            tiny_config.with_updates(channel_expansion=(2, 1.5)),
            tiny_config.with_updates(channel_expansion=(2.0, 1.5)),
            tiny_config.with_updates(channel_expansion=[2.0, 1.5]),
            tiny_config.with_updates(max_channels=128),
            tiny_config.with_updates(name=""),
            tiny_config.with_updates(task=DAC_SDC_TASK),
            tiny_config.with_updates(bundle=get_bundle(1)),
        ]
        assert configs[0] is configs[3] is configs[4] and configs[1] is configs[2]
        assert configs[5] is configs[6] and configs[7] is configs[8] is configs[9]
        for a in configs:
            assert a == tiny_config.with_updates(**_fields(a))
            assert key(a) == key(dataclasses.replace(a))
            for b in configs:
                assert (a is b) == (a == b)
                if key(a) != key(b):
                    assert a is not b
        # Equal keys, yet different configs: still two objects.
        assert key(configs[10]) == key(configs[0]) and configs[10] is not configs[0]

    def test_a_miss_still_validates(self, table, tiny_config):
        for updates in ({"channel_expansion": (1.5, float("nan"))}, {"downsample": (1, 2)},
                        {"num_repetitions": 3}, {"parallel_factor": 0}):
            with pytest.raises(ValueError):
                tiny_config.with_updates(**updates)
        with pytest.raises(TypeError):
            tiny_config.with_updates(no_such_field=1)
        assert not table

    def test_the_table_never_exceeds_its_bound(self, table, tiny_config, monkeypatch):
        monkeypatch.setattr(dnn_config, "INTERN_LIMIT", 5)
        for stem in range(8, 8 * 40, 8):
            config = tiny_config.with_updates(stem_channels=stem)
            assert len(table) <= 5
            assert tiny_config.with_updates(stem_channels=stem) is config

    def test_threads_get_one_object_per_config_within_the_bound(self, table, tiny_config,
                                                                  monkeypatch):
        # More threads than cores, switching often, first under the real bound
        # (one object per config), then under a tiny one (never exceeded).
        def worker(results: list, limit: int) -> None:
            try:
                for stem in range(8, 8 * 25, 8):
                    results.append(tiny_config.with_updates(stem_channels=stem))
                    if len(table) > limit:
                        results.append(f"{len(table)} entries")
            except Exception as exc:  # reported by the assertions below
                results.append(exc)

        for limit in (dnn_config.INTERN_LIMIT, 5):
            monkeypatch.setattr(dnn_config, "INTERN_LIMIT", limit)
            table.clear()
            results = [[] for _ in range(6)]
            threads = [threading.Thread(target=worker, args=(r, limit)) for r in results]
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
            assert all(isinstance(c, DNNConfig) for r in results for c in r), results
            assert len(table) <= limit
            if limit > 24:
                assert len({id(c) for r in results for c in r}) == 24

    def test_forked_child_never_inherits_a_held_lock(self, table, tiny_config):
        context = multiprocessing.get_context("fork")
        # Fork while the lock is held, as a thread mid-insert would hold it.
        with dnn_config._intern_lock:
            child = context.Process(target=_intern_in_child, args=(tiny_config,))
            child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_a_pickled_config_carries_no_salted_memo(self):
        # Built, keyed and hashed under two other hash salts, then loaded here.
        script = (
            "import pickle, sys\n"
            "from repro.core.bundle_generation import get_bundle\n"
            "from repro.core.dnn_config import DNNConfig\n"
            "from repro.detection.task import TINY_DETECTION_TASK\n"
            "from repro.search import config_cache_key\n"
            "base = DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK,\n"
            "                 num_repetitions=2, downsample=(1, 0))\n"
            "config = base.with_updates(parallel_factor=32)\n"
            "assert config is base.with_updates(parallel_factor=32)\n"
            "config_cache_key(config), hash(config), {config}\n"
            "sys.stdout.buffer.write(pickle.dumps(config))\n"
        )
        fresh = DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK, num_repetitions=2,
                          downsample=(1, 0), parallel_factor=32)
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 timeout=120.0)
            assert run.returncode == 0, run.stderr.decode()
            clone = pickle.loads(run.stdout)
            assert clone == fresh and hash(clone) == hash(fresh) and len({clone, fresh}) == 1
            assert set(clone.__dict__) <= set(_fields(fresh)) | {"_cache_key"}
            assert config_cache_key(clone) == config_cache_key(dataclasses.replace(fresh))
