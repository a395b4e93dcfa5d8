"""Tests for resource vectors and the FPGA device catalogue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.device import PYNQ_Z1, ULTRA96, ZC706, FPGADevice, get_device, list_devices
from repro.hw.resource import ResourceUtilization, ResourceVector


class TestResourceVector:
    def test_addition(self):
        a = ResourceVector(lut=100, ff=200, dsp=3, bram=4)
        b = ResourceVector(lut=50, ff=25, dsp=1, bram=2)
        c = a + b
        assert (c.lut, c.ff, c.dsp, c.bram) == (150, 225, 4, 6)

    def test_subtraction_and_scale(self):
        a = ResourceVector(lut=100, ff=200, dsp=4, bram=8)
        assert (a - a).lut == 0
        half = a.scale(0.5)
        assert half.dsp == 2 and half.bram == 4

    def test_multiplication_operators(self):
        a = ResourceVector(lut=10)
        assert (2 * a).lut == 20
        assert (a * 3).lut == 30

    def test_fits_within(self):
        usage = ResourceVector(lut=100, ff=100, dsp=10, bram=10)
        budget = ResourceVector(lut=200, ff=200, dsp=20, bram=20)
        assert usage.fits_within(budget)
        assert not budget.fits_within(usage)

    def test_fits_within_boundary(self):
        usage = ResourceVector(lut=200, ff=200, dsp=20, bram=20)
        assert usage.fits_within(usage)

    def test_as_dict_and_weighted(self):
        a = ResourceVector(lut=53200, ff=106400, dsp=220, bram=280)
        assert set(a.as_dict()) == {"lut", "ff", "dsp", "bram"}

    def test_zero(self):
        z = ResourceVector.zero()
        assert z.lut == z.ff == z.dsp == z.bram == 0.0

    @given(st.floats(0, 1e5), st.floats(0, 1e5), st.floats(0, 500), st.floats(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_addition_commutative(self, lut, ff, dsp, bram):
        a = ResourceVector(lut=lut, ff=ff, dsp=dsp, bram=bram)
        b = ResourceVector(lut=ff, ff=lut, dsp=bram, bram=dsp)
        assert (a + b) == (b + a)


class TestResourceUtilization:
    def test_max_fraction(self):
        util = ResourceUtilization(lut=0.5, ff=0.2, dsp=0.9, bram=0.7)
        assert util.max_fraction == 0.9

    def test_percent_dict(self):
        util = ResourceUtilization(lut=0.5, ff=0.2, dsp=0.9, bram=0.7)
        assert util.as_percent_dict()["dsp"] == pytest.approx(90.0)


class TestDeviceCatalogue:
    def test_pynq_z1_resources_match_paper(self):
        assert PYNQ_Z1.resources.dsp == 220
        assert PYNQ_Z1.resources.lut == 53_200
        assert PYNQ_Z1.resources.ff == 106_400
        # 4.9 Mbit of BRAM = 280 blocks of 18 Kbit.
        assert PYNQ_Z1.resources.bram * 18 * 1024 == pytest.approx(4.9e6, rel=0.06)

    def test_device_ordering_by_size(self):
        assert PYNQ_Z1.resources.dsp < ULTRA96.resources.dsp < ZC706.resources.dsp

    def test_get_device_case_insensitive(self):
        assert get_device("PYNQ-Z1") is PYNQ_Z1
        assert get_device("zc706") is ZC706
        with pytest.raises(KeyError):
            get_device("virtex-7")

    def test_list_devices(self):
        names = list_devices()
        assert "PYNQ-Z1" in names and len(names) >= 3

    def test_utilization(self):
        usage = ResourceVector(lut=26_600, ff=53_200, dsp=110, bram=140)
        util = PYNQ_Z1.utilization(usage)
        assert util.lut == pytest.approx(0.5)
        assert util.dsp == pytest.approx(0.5)

    def test_fits_with_margin(self):
        usage = ResourceVector(lut=40_000, ff=50_000, dsp=200, bram=200)
        assert PYNQ_Z1.fits(usage)
        assert not PYNQ_Z1.fits(usage, margin=0.5)

    def test_cycle_time(self):
        assert PYNQ_Z1.cycle_time_ns(100.0) == pytest.approx(10.0)
        assert PYNQ_Z1.cycle_time_ns(150.0) == pytest.approx(6.667, rel=1e-3)
        with pytest.raises(ValueError):
            PYNQ_Z1.cycle_time_ns(0.0)

    def test_device_validation(self):
        with pytest.raises(ValueError):
            FPGADevice(name="bad", resources=ResourceVector(), default_clock_mhz=200, max_clock_mhz=100)
        with pytest.raises(ValueError):
            FPGADevice(name="bad", resources=ResourceVector(), dram_bandwidth_gbps=0.0)
