"""Table 2: board-level comparison against the contest's FPGA and GPU entries.

For every row the experiment produces the same columns as the paper: IoU,
latency (at the row's clock), FPS, power, total energy over the 50K-image
evaluation set, energy per frame, and (for FPGA rows) resource utilization.

Our DNN1-3 rows are fully model-derived (surrogate accuracy + simulated
synthesis + power model).  Baseline rows are re-derived through the same
latency / power models from their reconstructed workloads so that the
comparison is internally consistent; their contest-reported numbers are kept
alongside, and the accuracy of a baseline is always its reported IoU (their
training pipelines are outside the scope of this reproduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines.entries import ContestEntry, fpga_contest_entries, gpu_contest_entries
from repro.core.auto_hls import AutoHLS
from repro.core.dnn_config import DNNConfig
from repro.detection.accuracy_model import AccuracyModel, SurrogateAccuracyModel
from repro.detection.task import DAC_SDC_TASK, DetectionTask
from repro.experiments.reference_designs import reference_designs
from repro.experiments.reporting import ExperimentReport
from repro.gpu.device import JETSON_TX2
from repro.gpu.latency import GPULatencyModel
from repro.gpu.power import GPUPowerModel
from repro.hw.device import FPGADevice, PYNQ_Z1
from repro.hw.power import FPGAPowerModel
from repro.hw.tile_arch import TileArchAccelerator
from repro.hw.pipeline import TilePipelineSimulator

#: Per-frame host-side overhead (image loading and pre-processing on the PS),
#: included in the contest's FPS measurement.
HOST_OVERHEAD_MS = 1.5


@dataclass
class Table2Row:
    """One row of Table 2."""

    name: str
    category: str
    model_name: str
    iou: float
    latency_ms: float
    clock_mhz: float
    fps: float
    power_w: float
    energy_kj: float
    j_per_pic: float
    utilization: Optional[dict[str, float]] = None
    reported: Optional[ContestEntry] = None


@dataclass
class Table2Result:
    """All rows plus the derived headline claims."""

    our_rows: list[Table2Row]
    fpga_rows: list[Table2Row]
    gpu_rows: list[Table2Row]

    @property
    def all_rows(self) -> list[Table2Row]:
        return [*self.our_rows, *self.fpga_rows, *self.gpu_rows]

    def headline_claims(self) -> dict[str, float]:
        """The summary comparisons the paper reports in Sec. 6.

        Claims are computed against the 1st-place FPGA entry and the GPU
        entries using our DNN1 (accuracy flagship) and the same-clock rows.
        """
        dnn1_rows = [r for r in self.our_rows if r.name.startswith("DNN1")]
        dnn1 = max(dnn1_rows, key=lambda r: r.fps)
        fpga1 = self.fpga_rows[0]
        gpu1 = self.gpu_rows[0]
        gpu_effs = [r.j_per_pic / dnn1.j_per_pic for r in self.gpu_rows]
        claims = {
            "iou_gain_vs_fpga1": dnn1.iou - fpga1.iou,
            "fps_ratio_vs_fpga1": dnn1.fps / fpga1.fps,
            "power_reduction_vs_fpga1": 1.0 - dnn1.power_w / fpga1.power_w,
            "energy_eff_ratio_vs_fpga1": fpga1.j_per_pic / dnn1.j_per_pic,
            "iou_gap_vs_gpu1": dnn1.iou - gpu1.iou,
            "energy_eff_ratio_vs_gpu1": gpu1.j_per_pic / dnn1.j_per_pic,
            "energy_eff_ratio_vs_gpu_min": min(gpu_effs),
            "energy_eff_ratio_vs_gpu_max": max(gpu_effs),
        }
        # Variants computed against the contest-reported baseline figures
        # instead of our model-derived ones (the board the 1st-place FPGA
        # team measured drew 4.2 W, far above what a uniform PYNQ-Z1 power
        # model predicts, so the paper's "40% lower power" claim only
        # reproduces against the reported number).
        if fpga1.reported is not None:
            reported = fpga1.reported
            claims["fps_ratio_vs_fpga1_reported"] = dnn1.fps / reported.reported_fps
            claims["power_reduction_vs_fpga1_reported"] = 1.0 - dnn1.power_w / reported.reported_power_w
            claims["energy_eff_ratio_vs_fpga1_reported"] = reported.reported_j_per_pic / dnn1.j_per_pic
        return claims


def _our_rows(
    designs: Sequence[DNNConfig],
    device: FPGADevice,
    clocks: Sequence[float],
    accuracy_model: AccuracyModel,
    num_frames: int,
) -> list[Table2Row]:
    engine = AutoHLS(device)
    power_model = FPGAPowerModel(device)
    rows: list[Table2Row] = []
    for config in designs:
        iou = accuracy_model.predict(config.features(epochs=200))
        for clock in clocks:
            result = engine.generate(config, clock_mhz=clock)
            report = result.report
            energy = power_model.energy_report(
                report.resources, clock, report.latency_ms,
                num_frames=num_frames, overhead_ms_per_frame=HOST_OVERHEAD_MS,
            )
            rows.append(Table2Row(
                name=f"{config.name} ({clock:.0f} MHz)",
                category="ours",
                model_name=f"Bundle {config.bundle.bundle_id}",
                iou=iou,
                latency_ms=report.latency_ms,
                clock_mhz=clock,
                fps=energy.fps,
                power_w=energy.power_w,
                energy_kj=energy.total_energy_kj,
                j_per_pic=energy.energy_per_frame_j,
                utilization=report.utilization.as_percent_dict(),
            ))
    return rows


def _fpga_baseline_rows(
    entries: Sequence[ContestEntry],
    device: FPGADevice,
    num_frames: int,
) -> list[Table2Row]:
    power_model = FPGAPowerModel(device)
    rows: list[Table2Row] = []
    for entry in entries:
        if entry.workload is None:
            continue
        accelerator = TileArchAccelerator.build(
            entry.workload, device, parallel_factor=128, clock_mhz=entry.clock_mhz,
        )
        latency = TilePipelineSimulator(accelerator).latency_ms()
        resources = accelerator.resources()
        energy = power_model.energy_report(
            resources, entry.clock_mhz, latency,
            num_frames=num_frames, overhead_ms_per_frame=HOST_OVERHEAD_MS,
        )
        rows.append(Table2Row(
            name=entry.name,
            category="fpga",
            model_name=entry.model_name,
            iou=entry.reported_iou,
            latency_ms=latency,
            clock_mhz=entry.clock_mhz,
            fps=energy.fps,
            power_w=energy.power_w,
            energy_kj=energy.total_energy_kj,
            j_per_pic=energy.energy_per_frame_j,
            utilization=device.utilization(resources).as_percent_dict(),
            reported=entry,
        ))
    return rows


def _gpu_baseline_rows(entries: Sequence[ContestEntry], num_frames: int) -> list[Table2Row]:
    latency_model = GPULatencyModel(JETSON_TX2)
    power_model = GPUPowerModel(JETSON_TX2)
    rows: list[Table2Row] = []
    for entry in entries:
        if entry.workload is None:
            continue
        latency = latency_model.latency_ms(entry.workload, precision_bytes=2.0)
        energy = power_model.energy_report(
            latency, num_frames=num_frames, overhead_ms_per_frame=HOST_OVERHEAD_MS
        )
        rows.append(Table2Row(
            name=entry.name,
            category="gpu",
            model_name=entry.model_name,
            iou=entry.reported_iou,
            latency_ms=latency,
            clock_mhz=entry.clock_mhz,
            fps=energy.fps,
            power_w=energy.power_w,
            energy_kj=energy.total_energy_kj,
            j_per_pic=energy.energy_per_frame_j,
            reported=entry,
        ))
    return rows


def run_table2(
    task: DetectionTask = DAC_SDC_TASK,
    device: FPGADevice = PYNQ_Z1,
    designs: Optional[Sequence[DNNConfig]] = None,
    clocks: Sequence[float] = (100.0, 150.0),
    accuracy_model: Optional[AccuracyModel] = None,
    num_frames: Optional[int] = None,
) -> Table2Result:
    """Build every row of Table 2."""
    designs = list(designs) if designs is not None else reference_designs(task)
    accuracy_model = accuracy_model or SurrogateAccuracyModel()
    num_frames = num_frames or task.dataset_size
    return Table2Result(
        our_rows=_our_rows(designs, device, clocks, accuracy_model, num_frames),
        fpga_rows=_fpga_baseline_rows(fpga_contest_entries(), device, num_frames),
        gpu_rows=_gpu_baseline_rows(gpu_contest_entries(), num_frames),
    )


def report_table2(result: Table2Result) -> ExperimentReport:
    """Render Table 2 plus the headline claims."""
    report = ExperimentReport("Table 2 — performance comparison (model-derived)")
    rows = []
    for row in result.all_rows:
        util = row.utilization or {}
        rows.append([
            row.name,
            row.model_name,
            f"{row.iou * 100:.1f}%",
            f"{row.latency_ms:.1f} ms ({row.clock_mhz:.0f} MHz)",
            f"{row.fps:.1f}",
            f"{row.power_w:.1f} W",
            f"{row.energy_kj:.2f} KJ",
            f"{row.j_per_pic:.3f} J/pic",
            f"{util.get('lut', float('nan')):.1f}%" if util else "-",
            f"{util.get('dsp', float('nan')):.1f}%" if util else "-",
            f"{util.get('bram', float('nan')):.1f}%" if util else "-",
            f"{util.get('ff', float('nan')):.1f}%" if util else "-",
        ])
    report.add_table(
        ["design", "model", "IoU", "latency", "FPS", "power", "energy", "J/pic",
         "LUT", "DSP", "BRAM", "FF"],
        rows,
    )
    claims = result.headline_claims()
    report.add_kv("Headline claims (ours DNN1 vs. baselines, model-derived)", {
        "IoU gain vs 1st-place FPGA": f"{claims['iou_gain_vs_fpga1'] * 100:.1f}%",
        "FPS ratio vs 1st-place FPGA": f"{claims['fps_ratio_vs_fpga1']:.2f}x",
        "power reduction vs 1st-place FPGA": f"{claims['power_reduction_vs_fpga1'] * 100:.0f}%",
        "energy-efficiency ratio vs 1st-place FPGA": f"{claims['energy_eff_ratio_vs_fpga1']:.2f}x",
        "IoU gap vs 1st-place GPU": f"{claims['iou_gap_vs_gpu1'] * 100:.1f}%",
        "energy-efficiency ratio vs GPUs": (
            f"{claims['energy_eff_ratio_vs_gpu_min']:.1f}x - "
            f"{claims['energy_eff_ratio_vs_gpu_max']:.1f}x"
        ),
    })
    if "power_reduction_vs_fpga1_reported" in claims:
        report.add_kv("Headline claims vs contest-reported baseline figures", {
            "FPS ratio vs 1st-place FPGA (reported)": f"{claims['fps_ratio_vs_fpga1_reported']:.2f}x",
            "power reduction vs 1st-place FPGA (reported 4.2 W)":
                f"{claims['power_reduction_vs_fpga1_reported'] * 100:.0f}%",
            "energy-efficiency ratio vs 1st-place FPGA (reported)":
                f"{claims['energy_eff_ratio_vs_fpga1_reported']:.2f}x",
        })
    reported_rows = []
    for row in [*result.fpga_rows, *result.gpu_rows]:
        if row.reported is None:
            continue
        entry = row.reported
        reported_rows.append([
            row.name,
            f"{entry.reported_iou * 100:.1f}%",
            f"{entry.reported_latency_ms:.1f} ms",
            f"{entry.reported_fps:.2f}",
            f"{entry.reported_power_w:.1f} W",
            f"{entry.reported_j_per_pic:.2f} J/pic",
            f"{row.latency_ms:.1f} ms",
            f"{row.fps:.1f}",
            f"{row.power_w:.1f} W",
            f"{row.j_per_pic:.3f} J/pic",
        ])
    report.add_table(
        ["baseline", "IoU (reported)", "latency (reported)", "FPS (reported)",
         "power (reported)", "J/pic (reported)",
         "latency (model)", "FPS (model)", "power (model)", "J/pic (model)"],
        reported_rows,
        title="Baseline rows: contest-reported vs model-derived",
    )
    return report
