"""Tests for the Tile-Arch accelerator builder and the tile-pipeline simulator."""

from __future__ import annotations

import pytest

from repro.hw.device import PYNQ_Z1, ZC706
from repro.hw.pipeline import TilePipelineSimulator
from repro.hw.tile_arch import CONTROL_OVERHEAD, BundleHardware, TileArchAccelerator
from repro.hw.tiling import TileConfig
from repro.hw.workload import LayerWorkload, NetworkWorkload


def make_workload(channels=32, feature_bits=8, reps=2, size=(32, 64)) -> NetworkWorkload:
    h, w = size
    layers = [LayerWorkload(kind="conv", kernel=3, in_channels=3, out_channels=channels,
                            in_height=h, in_width=w, stride=2, bundle_index=-1)]
    cur_h, cur_w = h // 2, w // 2
    for rep in range(reps):
        layers.append(LayerWorkload(kind="dwconv", kernel=3, in_channels=channels,
                                    out_channels=channels, in_height=cur_h, in_width=cur_w,
                                    bundle_index=rep))
        layers.append(LayerWorkload(kind="conv", kernel=1, in_channels=channels,
                                    out_channels=channels, in_height=cur_h, in_width=cur_w,
                                    bundle_index=rep))
        cur_h, cur_w = max(cur_h // 2, 1), max(cur_w // 2, 1)
    layers.append(LayerWorkload(kind="head", kernel=1, in_channels=channels, out_channels=4,
                                in_height=cur_h, in_width=cur_w, bundle_index=-1))
    return NetworkWorkload(layers=layers, input_shape=(3, h, w),
                           weight_bits=8, feature_bits=feature_bits, name="toy")


class TestTileArchBuild:
    def test_one_instance_per_template(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8)
        names = [i.template.name for i in acc.bundle_hw.instances]
        assert len(names) == len(set(names))
        assert "conv3x3" in names and "dwconv3x3" in names and "conv1x1" in names

    def test_shared_parallel_factor(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=16)
        assert all(i.parallel_factor == 16 for i in acc.bundle_hw.instances)

    def test_resources_include_control_overhead(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8)
        bare = acc.bundle_hw.resources(acc.tile.tile_width, 32, 32)
        assert acc.resources().lut > bare.lut
        assert acc.resources().bram >= CONTROL_OVERHEAD.bram

    def test_fits_small_network_on_pynq(self):
        acc = TileArchAccelerator.build(make_workload(channels=32), PYNQ_Z1, parallel_factor=8)
        assert acc.fits()

    def test_utilization_grows_with_pf(self):
        small = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8)
        large = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=64)
        assert large.utilization().dsp > small.utilization().dsp
        assert large.utilization().lut > small.utilization().lut

    def test_tiles_per_layer_and_reuse(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8,
                                        tile=TileConfig(8, 16))
        # Every layer reuses its IP instance at least once.
        assert all(acc.tiles_per_layer(layer) > 0 for layer in acc.workload.layers)

    def test_describe_mentions_device_and_tile(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8)
        text = acc.describe()
        assert "PYNQ-Z1" in text and str(acc.tile) in text

    def test_bundle_hardware_instance_lookup_error(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8)
        odd = LayerWorkload(kind="conv", kernel=5, in_channels=8, out_channels=8,
                            in_height=8, in_width=8)
        with pytest.raises(KeyError):
            acc.bundle_hw.instance_for(odd)

    def test_clock_defaults_to_device(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8)
        assert acc.clock_mhz == PYNQ_Z1.default_clock_mhz


class TestPipelineSimulator:
    def test_latency_positive_and_finite(self):
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8)
        trace = TilePipelineSimulator(acc).run()
        assert trace.total_cycles > 0
        assert trace.latency_ms > 0
        assert sum(t.compute_cycles for t in trace.bundle_traces) > 0

    def test_bundle_traces_cover_all_bundles(self):
        acc = TileArchAccelerator.build(make_workload(reps=3), PYNQ_Z1, parallel_factor=8)
        trace = TilePipelineSimulator(acc).run()
        indices = {t.bundle_index for t in trace.bundle_traces}
        assert {0, 1, 2}.issubset(indices)

    def test_higher_clock_lower_latency(self):
        wl = make_workload()
        slow = TileArchAccelerator.build(wl, PYNQ_Z1, parallel_factor=8, clock_mhz=100.0)
        fast = TileArchAccelerator.build(wl, PYNQ_Z1, parallel_factor=8, clock_mhz=150.0)
        assert TilePipelineSimulator(fast).latency_ms() < TilePipelineSimulator(slow).latency_ms()

    def test_more_compute_more_latency(self):
        small = TileArchAccelerator.build(make_workload(channels=16), PYNQ_Z1, parallel_factor=8)
        large = TileArchAccelerator.build(make_workload(channels=64), PYNQ_Z1, parallel_factor=8)
        assert (TilePipelineSimulator(large).latency_ms()
                > TilePipelineSimulator(small).latency_ms())

    def test_wider_features_more_latency(self):
        narrow = TileArchAccelerator.build(make_workload(feature_bits=8), PYNQ_Z1, parallel_factor=8)
        wide = TileArchAccelerator.build(make_workload(feature_bits=16), PYNQ_Z1, parallel_factor=8)
        assert (TilePipelineSimulator(wide).latency_ms()
                >= TilePipelineSimulator(narrow).latency_ms())

    def test_higher_pf_lower_latency(self):
        wl = make_workload(channels=64)
        small = TileArchAccelerator.build(wl, PYNQ_Z1, parallel_factor=4)
        large = TileArchAccelerator.build(wl, PYNQ_Z1, parallel_factor=64)
        assert TilePipelineSimulator(large).latency_ms() < TilePipelineSimulator(small).latency_ms()

    def test_pipelining_beats_sequential_sum(self):
        """The pipelined schedule is faster than executing stages back to back."""
        acc = TileArchAccelerator.build(make_workload(), PYNQ_Z1, parallel_factor=8,
                                        tile=TileConfig(8, 16))
        trace = TilePipelineSimulator(acc).run()
        for bundle_trace in trace.bundle_traces:
            if bundle_trace.num_tiles <= 1 or not bundle_trace.stages:
                continue
            sequential = bundle_trace.num_tiles * sum(
                s.cycles_per_tile for s in bundle_trace.stages
            )
            assert bundle_trace.total_cycles <= sequential + 1e-6

    def test_bigger_device_not_slower(self):
        wl = make_workload(channels=64)
        pynq = TileArchAccelerator.build(wl, PYNQ_Z1, parallel_factor=16)
        zc706 = TileArchAccelerator.build(wl, ZC706, parallel_factor=16)
        assert TilePipelineSimulator(zc706).latency_ms() <= TilePipelineSimulator(pynq).latency_ms() * 1.2
