"""Ablation studies of the co-design choices.

DESIGN.md calls out several design decisions whose contribution is worth
quantifying beyond the paper's headline results:

* **SCD vs. random search** — does the gradient-guided coordinate descent
  find in-band designs faster than uniformly random sampling of the same
  space?
* **Tile-size sweep** — how does the common tile size trade BRAM for
  latency?
* **Quantization sweep** — latency / resource / accuracy across the
  activation-linked feature-map bit widths.
* **Co-design vs. top-down** — the methodological comparison of Sec. 6:
  bottom-up co-designed DNNs against a compressed accuracy-first detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines.topdown import TopDownFlow
from repro.baselines.workloads import ssd_compressed_workload
from repro.core.auto_dnn import AutoDNN
from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.detection.accuracy_model import AccuracyModel, SurrogateAccuracyModel
from repro.detection.task import DAC_SDC_TASK, DetectionTask
from repro.experiments.reference_designs import reference_dnn1, reference_dnn3
from repro.experiments.reporting import ExperimentReport
from repro.hw.device import FPGADevice, PYNQ_Z1
from repro.hw.tile_arch import TileArchAccelerator
from repro.hw.tiling import TileConfig
from repro.hw.pipeline import TilePipelineSimulator
from repro.search import create_explorer
from repro.utils.rng import RNGLike, ensure_rng


# --------------------------------------------------------------------------
# SCD vs random search
# --------------------------------------------------------------------------
@dataclass
class SearchComparison:
    """Iterations needed by SCD and by random search to find in-band designs."""

    scd_iterations: int
    scd_found: int
    random_iterations: int
    random_found: int
    target: LatencyTarget


def random_search(
    estimator,
    latency_target: LatencyTarget,
    resource_constraint: ResourceConstraint,
    initial: DNNConfig,
    num_candidates: int,
    max_iterations: int,
    rng: RNGLike = None,
) -> tuple[int, int]:
    """Uniformly random sampling baseline over the same coordinates as SCD."""
    generator = ensure_rng(rng)
    found = 0
    iterations = 0
    factors = (1.2, 1.3, 1.5, 1.75, 2.0)
    while found < num_candidates and iterations < max_iterations:
        iterations += 1
        reps = int(generator.integers(1, 9))
        expansion = tuple(float(factors[generator.integers(0, len(factors))]) for _ in range(reps))
        downsample = tuple(int(generator.integers(0, 2)) for _ in range(reps))
        if sum(downsample) == 0:
            downsample = (1,) + downsample[1:]
        candidate = initial.with_updates(
            num_repetitions=reps, channel_expansion=expansion, downsample=downsample
        )
        estimate = estimator(candidate)
        if latency_target.within_band(estimate.latency_ms) and resource_constraint.satisfied_by(
            estimate.resources
        ):
            found += 1
    return iterations, found


def run_scd_vs_random(
    task: DetectionTask = DAC_SDC_TASK,
    device: FPGADevice = PYNQ_Z1,
    board_fps: float = 20.0,
    num_candidates: int = 3,
    max_iterations: int = 200,
    rng: RNGLike = 11,
) -> SearchComparison:
    """Compare SCD against random search on one latency target."""
    from repro.experiments.fig6 import model_scale_target

    target = model_scale_target(board_fps)
    auto_hls = AutoHLS(device)
    constraint = ResourceConstraint.for_device(device)
    auto_dnn = AutoDNN(task, device, auto_hls=auto_hls, resource_constraint=constraint, rng=rng)
    initial = auto_dnn.initialize(get_bundle(13))

    scd = create_explorer("scd", estimator=auto_hls.estimate, latency_target=target,
                          resource_constraint=constraint, max_iterations=max_iterations,
                          rng=rng)
    scd_result = scd.explore(initial, num_candidates=num_candidates)

    random_iters, random_found = random_search(
        auto_hls.estimate, target, constraint, initial,
        num_candidates=num_candidates, max_iterations=max_iterations, rng=rng,
    )
    return SearchComparison(
        scd_iterations=scd_result.iterations,
        scd_found=len(scd_result.candidates),
        random_iterations=random_iters,
        random_found=random_found,
        target=target,
    )


# --------------------------------------------------------------------------
# Tile-size sweep
# --------------------------------------------------------------------------
@dataclass
class TileSweepPoint:
    tile: TileConfig
    latency_ms: float
    bram: float
    fits: bool


def run_tile_sweep(
    config: Optional[DNNConfig] = None,
    device: FPGADevice = PYNQ_Z1,
    tiles: Sequence[TileConfig] = (
        TileConfig(8, 16), TileConfig(10, 20), TileConfig(16, 16),
        TileConfig(16, 32), TileConfig(20, 40),
    ),
) -> list[TileSweepPoint]:
    """Latency / BRAM trade-off of the common tile size for one design."""
    config = config or reference_dnn3()
    workload = config.to_workload()
    points: list[TileSweepPoint] = []
    for tile in tiles:
        accelerator = TileArchAccelerator.build(
            workload, device, parallel_factor=config.parallel_factor, tile=tile,
        )
        latency = TilePipelineSimulator(accelerator).latency_ms()
        resources = accelerator.resources()
        points.append(TileSweepPoint(
            tile=tile,
            latency_ms=latency,
            bram=resources.bram,
            fits=device.fits(resources),
        ))
    return points


# --------------------------------------------------------------------------
# Quantization sweep
# --------------------------------------------------------------------------
@dataclass
class QuantSweepPoint:
    activation: str
    feature_bits: int
    latency_ms: float
    bram: float
    accuracy: float


def run_quantization_sweep(
    device: FPGADevice = PYNQ_Z1,
    accuracy_model: Optional[AccuracyModel] = None,
    activations: Sequence[str] = ("relu", "relu8", "relu4"),
) -> list[QuantSweepPoint]:
    """Sweep the activation-linked feature-map bit width on the DNN1 structure."""
    accuracy_model = accuracy_model or SurrogateAccuracyModel()
    engine = AutoHLS(device)
    points: list[QuantSweepPoint] = []
    for activation in activations:
        config = reference_dnn1().with_updates(activation=activation, name=f"DNN1-{activation}")
        result = engine.generate(config)
        accuracy = accuracy_model.predict(config.features(epochs=200))
        points.append(QuantSweepPoint(
            activation=activation,
            feature_bits=config.feature_bits,
            latency_ms=result.report.latency_ms,
            bram=result.report.resources.bram,
            accuracy=accuracy,
        ))
    return points


# --------------------------------------------------------------------------
# Co-design vs top-down
# --------------------------------------------------------------------------
@dataclass
class MethodologyComparison:
    codesign_iou: float
    codesign_latency_ms: float
    topdown_iou: float
    topdown_latency_ms: float

    @property
    def iou_gain(self) -> float:
        return self.codesign_iou - self.topdown_iou


def run_codesign_vs_topdown(
    device: FPGADevice = PYNQ_Z1,
    accuracy_model: Optional[AccuracyModel] = None,
    latency_budget_ms: float = 40.0,
) -> MethodologyComparison:
    """Compare a co-designed DNN against the compressed SSD at a latency budget."""
    accuracy_model = accuracy_model or SurrogateAccuracyModel()
    engine = AutoHLS(device)

    codesign = reference_dnn1()
    codesign_result = engine.generate(codesign)
    codesign_iou = accuracy_model.predict(codesign.features(epochs=200))

    topdown = TopDownFlow(device, accuracy_model=accuracy_model)
    topdown_result = topdown.run(ssd_compressed_workload(), latency_budget_ms=latency_budget_ms)

    return MethodologyComparison(
        codesign_iou=codesign_iou,
        codesign_latency_ms=codesign_result.report.latency_ms,
        topdown_iou=topdown_result.accuracy,
        topdown_latency_ms=topdown_result.latency_ms,
    )


def report_ablations(
    search: SearchComparison,
    tiles: list[TileSweepPoint],
    quant: list[QuantSweepPoint],
    methodology: MethodologyComparison,
) -> ExperimentReport:
    """Render all ablations in one report."""
    report = ExperimentReport("Ablations — co-design design choices")
    report.add_kv("SCD vs random search (same target, same budget)", {
        "SCD iterations": search.scd_iterations,
        "SCD designs found": search.scd_found,
        "random iterations": search.random_iterations,
        "random designs found": search.random_found,
    })
    report.add_table(
        ["tile", "latency_ms", "BRAM blocks", "fits device"],
        [[str(p.tile), f"{p.latency_ms:.1f}", f"{p.bram:.0f}", p.fits] for p in tiles],
        title="Tile-size sweep (DNN3 structure)",
    )
    report.add_table(
        ["activation", "feature bits", "latency_ms", "BRAM blocks", "IoU"],
        [[p.activation, p.feature_bits, f"{p.latency_ms:.1f}", f"{p.bram:.0f}", f"{p.accuracy:.3f}"]
         for p in quant],
        title="Quantization sweep (DNN1 structure)",
    )
    report.add_kv("Co-design vs top-down (compressed SSD)", {
        "co-design IoU": f"{methodology.codesign_iou:.3f}",
        "co-design latency": f"{methodology.codesign_latency_ms:.1f} ms",
        "top-down IoU": f"{methodology.topdown_iou:.3f}",
        "top-down latency": f"{methodology.topdown_latency_ms:.1f} ms",
        "IoU gain from co-design": f"{methodology.iou_gain * 100:.1f}%",
    })
    return report
