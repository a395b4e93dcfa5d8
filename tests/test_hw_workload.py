"""Tests for layer / network workload descriptions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw.workload import LayerWorkload, NetworkWorkload


def conv(kernel=3, c_in=8, c_out=16, h=16, w=32, stride=1, bundle=-1) -> LayerWorkload:
    return LayerWorkload(kind="conv", kernel=kernel, in_channels=c_in, out_channels=c_out,
                         in_height=h, in_width=w, stride=stride, bundle_index=bundle)


class TestLayerWorkload:
    def test_conv_macs(self):
        layer = conv(kernel=3, c_in=8, c_out=16, h=16, w=32)
        assert layer.macs == 9 * 8 * 16 * 16 * 32

    def test_dwconv_macs(self):
        layer = LayerWorkload(kind="dwconv", kernel=3, in_channels=8, out_channels=8,
                              in_height=16, in_width=16)
        assert layer.macs == 9 * 8 * 16 * 16

    def test_stride_halves_output(self):
        layer = conv(stride=2, h=16, w=32)
        assert layer.output_shape == (16, 8, 16)

    def test_params(self):
        layer = conv(kernel=3, c_in=8, c_out=16)
        assert layer.params == 9 * 8 * 16 + 16
        norm = LayerWorkload(kind="norm", kernel=1, in_channels=8, out_channels=8,
                             in_height=4, in_width=4)
        assert norm.params == 16

    def test_is_compute(self):
        assert conv().is_compute
        act = LayerWorkload(kind="activation", kernel=1, in_channels=8, out_channels=8,
                            in_height=4, in_width=4)
        assert not act.is_compute

    def test_ip_key(self):
        assert conv(kernel=5).ip_key == "conv5x5"
        dw = LayerWorkload(kind="dwconv", kernel=7, in_channels=8, out_channels=8,
                           in_height=4, in_width=4)
        assert dw.ip_key == "dwconv7x7"
        head = LayerWorkload(kind="head", kernel=1, in_channels=8, out_channels=4,
                             in_height=4, in_width=4)
        assert head.ip_key == "conv1x1"

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerWorkload(kind="fft", kernel=3, in_channels=8, out_channels=8,
                          in_height=4, in_width=4)
        with pytest.raises(ValueError):
            conv(kernel=0)
        with pytest.raises(ValueError):
            conv(c_in=0)


class TestNetworkWorkload:
    def _workload(self) -> NetworkWorkload:
        layers = [
            conv(c_in=3, c_out=16, h=32, w=64, stride=2, bundle=-1),
            LayerWorkload(kind="dwconv", kernel=3, in_channels=16, out_channels=16,
                          in_height=16, in_width=32, bundle_index=0),
            conv(kernel=1, c_in=16, c_out=32, h=16, w=32, bundle=0),
            LayerWorkload(kind="dwconv", kernel=3, in_channels=32, out_channels=32,
                          in_height=8, in_width=16, stride=1, bundle_index=1),
            conv(kernel=1, c_in=32, c_out=64, h=8, w=16, bundle=1),
            LayerWorkload(kind="head", kernel=1, in_channels=64, out_channels=4,
                          in_height=8, in_width=16, bundle_index=-1),
        ]
        return NetworkWorkload(layers=layers, input_shape=(3, 32, 64),
                               weight_bits=8, feature_bits=8, name="test")

    def test_totals(self):
        wl = self._workload()
        assert wl.total_macs == sum(l.macs for l in wl.layers)
        assert wl.total_params == sum(l.params for l in wl.layers)
        assert wl.compute_depth == 6
        assert wl.max_channels == 64

    def test_bundle_grouping(self):
        wl = self._workload()
        assert wl.bundle_indices() == [0, 1]
        assert len(wl.layers_in_bundle(0)) == 2
        assert len(wl.layers_in_bundle(5)) == 0

    def test_byte_accounting(self):
        wl = self._workload()
        assert wl.weight_bytes() == pytest.approx(wl.total_params * 1.0)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            NetworkWorkload(layers=[], input_shape=(3, 8, 8))
