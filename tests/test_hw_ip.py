"""Tests for IP templates, instances and the IP library."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.ip import IPConfig, IPTemplate
from repro.hw.ip_library import DEFAULT_PARALLEL_FACTORS, IPLibrary, default_ip_library
from repro.hw.workload import LayerWorkload
from repro.nn.quantization import W8A8, W16A16


@pytest.fixture(scope="module")
def library() -> IPLibrary:
    return default_ip_library()


def conv_layer(kernel=3, channels=32, size=16) -> LayerWorkload:
    return LayerWorkload(kind="conv", kernel=kernel, in_channels=channels,
                         out_channels=channels, in_height=size, in_width=size)


class TestIPLibrary:
    def test_contains_paper_ip_pool(self, library):
        for name in ("conv1x1", "conv3x3", "conv5x5", "dwconv3x3", "dwconv5x5",
                     "dwconv7x7", "pool", "norm", "activation"):
            assert name in library

    def test_template_lookup_for_layers(self, library):
        assert library.template_for_layer(conv_layer(3)).name == "conv3x3"
        assert library.template_for_layer(conv_layer(5)).name == "conv5x5"
        dw = LayerWorkload(kind="dwconv", kernel=7, in_channels=8, out_channels=8,
                           in_height=8, in_width=8)
        assert library.template_for_layer(dw).name == "dwconv7x7"

    def test_head_maps_to_conv1x1(self, library):
        head = LayerWorkload(kind="head", kernel=1, in_channels=8, out_channels=4,
                             in_height=4, in_width=4)
        assert library.template_for_layer(head).name == "conv1x1"

    def test_unknown_layer_raises(self, library):
        odd = LayerWorkload(kind="conv", kernel=9, in_channels=8, out_channels=8,
                            in_height=8, in_width=8)
        with pytest.raises(KeyError):
            library.template_for_layer(odd)

    def test_get_unknown_template(self, library):
        with pytest.raises(KeyError):
            library.get("conv9x9")

    def test_default_parallel_factors(self):
        assert DEFAULT_PARALLEL_FACTORS == (4, 8, 16)

    def test_register_replaces(self):
        lib = IPLibrary()
        lib.register(IPTemplate("custom", kind="conv", kernel=3))
        assert len(lib) == 1
        assert lib.get("custom").kernel == 3


class TestIPInstance:
    def test_dsp_packing_with_8bit_weights(self, library):
        template = library.get("conv3x3")
        packed = template.instantiate(IPConfig(parallel_factor=16, quantization=W8A8))
        wide = template.instantiate(IPConfig(parallel_factor=16, quantization=W16A16))
        assert packed.dsp_usage() == 8
        assert wide.dsp_usage() == 16

    def test_pool_uses_no_dsp(self, library):
        instance = library.get("pool").instantiate(IPConfig(parallel_factor=16))
        assert instance.dsp_usage() == 0.0

    def test_lut_grows_with_pf(self, library):
        template = library.get("conv3x3")
        small = template.instantiate(IPConfig(parallel_factor=4))
        large = template.instantiate(IPConfig(parallel_factor=64))
        assert large.lut_usage() > small.lut_usage()
        assert large.ff_usage() > small.ff_usage()

    def test_cycles_decrease_with_pf(self, library):
        template = library.get("conv3x3")
        small = template.instantiate(IPConfig(parallel_factor=4, quantization=W8A8))
        large = template.instantiate(IPConfig(parallel_factor=64, quantization=W8A8))
        assert large.cycles_for(1e6) < small.cycles_for(1e6)

    def test_cycles_for_negative_raises(self, library):
        instance = library.get("conv1x1").instantiate(IPConfig())
        with pytest.raises(ValueError):
            instance.cycles_for(-1.0)

    def test_cycles_for_layer_share_sums_to_total(self, library):
        layer = conv_layer(3, channels=16, size=16)
        instance = library.get("conv3x3").instantiate(IPConfig(parallel_factor=8, quantization=W8A8))
        num_tiles = 4
        per_tile = instance.cycles_for_layer_share(layer, num_tiles)
        total = num_tiles * per_tile
        direct = instance.cycles_for(layer.macs, pipelined_calls=num_tiles)
        assert total == pytest.approx(direct, rel=1e-6)

    def test_larger_kernels_use_more_resources(self, library):
        config = IPConfig(parallel_factor=16)
        conv3 = library.get("conv3x3").instantiate(config)
        conv5 = library.get("conv5x5").instantiate(config)
        assert conv5.lut_usage() > conv3.lut_usage()
        assert conv5.resources().bram >= conv3.resources().bram

    def test_line_buffer_zero_for_1x1(self, library):
        instance = library.get("conv1x1").instantiate(IPConfig(parallel_factor=8))
        assert instance.line_buffer_bram(32, 64) == 0.0

    def test_dwconv_private_weight_buffer(self, library):
        dw = library.get("dwconv3x3").instantiate(IPConfig(parallel_factor=8, quantization=W8A8))
        conv = library.get("conv3x3").instantiate(IPConfig(parallel_factor=8, quantization=W8A8))
        assert dw.weight_buffer_bram(256, 256) >= 1.0
        assert conv.weight_buffer_bram(256, 256) == 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            IPConfig(parallel_factor=0)

    def test_efficiency_derates_throughput(self, library):
        template = library.get("conv3x3")
        instance = template.instantiate(IPConfig(parallel_factor=8, quantization=W8A8))
        peak = 8 * 2
        assert instance.macs_per_cycle() == pytest.approx(peak * template.efficiency)

    @given(st.integers(1, 256), st.floats(0, 1e8))
    @settings(max_examples=40, deadline=None)
    def test_cycles_positive_and_monotone_in_macs(self, pf, macs):
        template = default_ip_library().get("conv3x3")
        instance = template.instantiate(IPConfig(parallel_factor=pf, quantization=W8A8))
        assert instance.cycles_for(macs) > 0
        assert instance.cycles_for(macs + 1000) >= instance.cycles_for(macs)
