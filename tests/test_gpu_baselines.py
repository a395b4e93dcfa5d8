"""Tests for the GPU models, contest-entry baselines and the top-down flow."""

from __future__ import annotations

import pytest

from repro.baselines.entries import ContestEntry, fpga_contest_entries, gpu_contest_entries
from repro.baselines.topdown import TopDownFlow, _prune_channels
from repro.baselines.workloads import (
    heavy_fpga_workload,
    lightweight_fpga_workload,
    ssd_compressed_workload,
    tiny_yolo_workload,
    yolo_workload,
)
from repro.detection.accuracy_model import SurrogateAccuracyModel
from repro.gpu.device import JETSON_TX2, GPUDevice
from repro.gpu.latency import GPULatencyModel
from repro.gpu.power import GPUPowerModel
from repro.hw.device import PYNQ_Z1


class TestGPUDevice:
    def test_tx2_peak_throughput(self):
        # 256 cores at 854 MHz -> ~218 GMAC/s peak.
        assert JETSON_TX2.peak_macs_per_second == pytest.approx(256 * 854e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUDevice(name="bad", clock_mhz=0, cuda_cores=128,
                      memory_bandwidth_gbps=10, idle_power_w=2, max_power_w=10)
        with pytest.raises(ValueError):
            GPUDevice(name="bad", clock_mhz=100, cuda_cores=128,
                      memory_bandwidth_gbps=10, idle_power_w=10, max_power_w=5)


class TestGPULatency:
    def test_yolo_slower_than_tiny_yolo(self):
        model = GPULatencyModel(JETSON_TX2)
        assert model.latency_ms(yolo_workload()) > model.latency_ms(tiny_yolo_workload())

    def test_latency_in_embedded_gpu_range(self):
        model = GPULatencyModel(JETSON_TX2)
        latency = model.latency_ms(yolo_workload(), precision_bytes=2.0)
        # The contest GPU entries run full detectors in tens of milliseconds.
        assert 10.0 < latency < 300.0

    def test_fp16_faster_than_fp32_when_memory_bound(self):
        model = GPULatencyModel(JETSON_TX2, compute_efficiency=0.9)
        wl = tiny_yolo_workload()
        assert model.latency_ms(wl, precision_bytes=2.0) <= model.latency_ms(wl, precision_bytes=4.0)

    def test_fps_inverse_of_latency(self):
        model = GPULatencyModel(JETSON_TX2)
        wl = tiny_yolo_workload()
        assert model.fps(wl) == pytest.approx(1000.0 / model.latency_ms(wl))

    def test_validation(self):
        with pytest.raises(ValueError):
            GPULatencyModel(JETSON_TX2, compute_efficiency=0.0)
        with pytest.raises(ValueError):
            GPULatencyModel(JETSON_TX2, memory_efficiency=1.5)


class TestGPUPower:
    def test_power_between_idle_and_max(self):
        model = GPUPowerModel(JETSON_TX2)
        assert JETSON_TX2.idle_power_w < model.board_power_w() <= JETSON_TX2.max_power_w

    def test_gpu_power_far_above_fpga_power(self):
        gpu = GPUPowerModel(JETSON_TX2).board_power_w()
        assert gpu > 4 * PYNQ_Z1.static_power_w

    def test_energy_report(self):
        report = GPUPowerModel(JETSON_TX2).energy_report(latency_ms=40.0, num_frames=50_000)
        assert report.fps == pytest.approx(25.0)
        assert report.energy_per_frame_j == pytest.approx(report.power_w / report.fps, rel=1e-6)

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            GPUPowerModel(JETSON_TX2).energy_report(latency_ms=0.0)


class TestBaselineWorkloads:
    def test_ssd_is_conv_heavy(self):
        wl = ssd_compressed_workload()
        assert all(l.kind in ("conv", "pool", "head") for l in wl.layers)
        assert wl.total_macs > 1e8

    def test_ordering_of_fpga_workload_sizes(self):
        assert (lightweight_fpga_workload().total_macs
                < ssd_compressed_workload().total_macs
                < heavy_fpga_workload().total_macs)

    def test_yolo_much_bigger_than_edge_designs(self):
        assert yolo_workload().total_macs > 10 * ssd_compressed_workload().total_macs


class TestContestEntries:
    def test_table2_rows_present(self):
        fpga = fpga_contest_entries()
        gpu = gpu_contest_entries()
        assert len(fpga) == 3 and len(gpu) == 3
        assert fpga[0].model_name == "SSD"
        assert gpu[0].model_name == "Yolo"

    def test_reported_numbers_match_paper(self):
        fpga1 = fpga_contest_entries()[0]
        assert fpga1.reported_iou == pytest.approx(0.624)
        assert fpga1.reported_power_w == pytest.approx(4.2)
        gpu1 = gpu_contest_entries()[0]
        assert gpu1.reported_iou == pytest.approx(0.698)

    def test_every_entry_has_workload(self):
        for entry in fpga_contest_entries() + gpu_contest_entries():
            assert entry.workload is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            ContestEntry(name="x", category="tpu", model_name="m", reported_iou=0.5,
                         reported_latency_ms=1, reported_fps=1, reported_power_w=1,
                         reported_energy_kj=1, reported_j_per_pic=1, clock_mhz=100)
        with pytest.raises(ValueError):
            ContestEntry(name="x", category="fpga", model_name="m", reported_iou=1.5,
                         reported_latency_ms=1, reported_fps=1, reported_power_w=1,
                         reported_energy_kj=1, reported_j_per_pic=1, clock_mhz=100)


class TestTopDownFlow:
    def test_pruning_reduces_channels_and_macs(self):
        wl = ssd_compressed_workload()
        pruned = _prune_channels(wl, 0.5)
        assert pruned.total_macs < wl.total_macs
        assert pruned.max_channels < wl.max_channels

    def test_invalid_keep_ratio(self):
        with pytest.raises(ValueError):
            _prune_channels(ssd_compressed_workload(), 0.0)

    def test_flow_meets_budget(self):
        flow = TopDownFlow(PYNQ_Z1, accuracy_model=SurrogateAccuracyModel(noise=0.0))
        result = flow.run(ssd_compressed_workload(), latency_budget_ms=30.0)
        assert result.latency_ms <= 30.0 or result.compression_steps == flow.max_steps
        assert 0.0 < result.accuracy < 1.0
        assert result.fps == pytest.approx(1000.0 / result.latency_ms)

    def test_tighter_budget_more_compression(self):
        flow = TopDownFlow(PYNQ_Z1, accuracy_model=SurrogateAccuracyModel(noise=0.0))
        loose = flow.run(ssd_compressed_workload(), latency_budget_ms=80.0)
        tight = flow.run(ssd_compressed_workload(), latency_budget_ms=25.0)
        assert tight.pruning_ratio <= loose.pruning_ratio
        assert tight.accuracy <= loose.accuracy + 1e-9

    def test_invalid_budget(self):
        flow = TopDownFlow(PYNQ_Z1)
        with pytest.raises(ValueError):
            flow.run(ssd_compressed_workload(), latency_budget_ms=0.0)

    def test_codesign_beats_topdown_at_comparable_latency(self):
        """The methodological headline: bottom-up co-design yields higher IoU."""
        from repro.experiments.ablations import run_codesign_vs_topdown

        comparison = run_codesign_vs_topdown(latency_budget_ms=40.0)
        assert comparison.iou_gain > 0.0
