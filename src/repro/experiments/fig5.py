"""Fig. 5: fine-grained evaluation of the selected bundles.

The selected bundles are evaluated with different replication counts and
different activation functions (ReLU / ReLU8 / ReLU4, which tie to
feature-map quantization).  The paper's observation: bundles 1 and 3 are
favourable for high-accuracy DNNs at the cost of resources and latency,
while bundle 13 is favourable for real-time DNNs with fewer resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.bundle import Bundle
from repro.core.bundle_evaluation import BundleEvaluator, FineGrainedEvaluation
from repro.core.bundle_generation import get_bundle
from repro.detection.accuracy_model import AccuracyModel
from repro.detection.task import DAC_SDC_TASK, DetectionTask
from repro.experiments.reporting import ExperimentReport
from repro.hw.device import FPGADevice, PYNQ_Z1

#: The bundles highlighted in Fig. 5 (the coarse-evaluation Pareto set).
FIG5_BUNDLE_IDS = (1, 3, 13, 15, 17)


@dataclass
class Fig5Result:
    """Fine-grained evaluation records plus per-bundle summaries."""

    evaluations: list[FineGrainedEvaluation]

    def per_bundle_extremes(self) -> dict[int, dict[str, float]]:
        """Per-bundle best accuracy and best latency across the swept settings."""
        summary: dict[int, dict[str, float]] = {}
        for ev in self.evaluations:
            entry = summary.setdefault(ev.bundle_id, {
                "best_accuracy": 0.0, "best_latency_ms": float("inf"),
            })
            entry["best_accuracy"] = max(entry["best_accuracy"], ev.accuracy)
            entry["best_latency_ms"] = min(entry["best_latency_ms"], ev.latency_ms)
        return summary

    def accuracy_leader(self) -> int:
        """Bundle ID with the highest achievable accuracy."""
        extremes = self.per_bundle_extremes()
        return max(extremes, key=lambda b: extremes[b]["best_accuracy"])

    def latency_leader(self) -> int:
        """Bundle ID with the lowest achievable latency."""
        extremes = self.per_bundle_extremes()
        return min(extremes, key=lambda b: extremes[b]["best_latency_ms"])


def run_fig5(
    task: DetectionTask = DAC_SDC_TASK,
    device: FPGADevice = PYNQ_Z1,
    bundles: Optional[Sequence[Bundle]] = None,
    activations: Sequence[str] = ("relu", "relu8", "relu4"),
    repetition_counts: Sequence[int] = (2, 3, 4),
    accuracy_model: Optional[AccuracyModel] = None,
) -> Fig5Result:
    """Run the fine-grained evaluation on the selected bundles."""
    if bundles is None:
        bundles = [get_bundle(i) for i in FIG5_BUNDLE_IDS]
    evaluator = BundleEvaluator(task, device, accuracy_model=accuracy_model)
    evaluations = evaluator.fine_evaluate(
        bundles, activations=activations, repetition_counts=repetition_counts
    )
    return Fig5Result(evaluations=evaluations)


def report_fig5(result: Fig5Result) -> ExperimentReport:
    """Render the Fig. 5 scatter data and the per-bundle characterisation."""
    report = ExperimentReport("Fig. 5 — fine-grained evaluation of selected bundles")
    rows = []
    for ev in sorted(result.evaluations, key=lambda e: (e.bundle_id, e.num_repetitions, e.activation)):
        rows.append([
            ev.bundle_id,
            ev.bundle.signature,
            ev.num_repetitions,
            ev.activation,
            f"{ev.latency_ms:.1f}",
            f"{ev.accuracy:.3f}",
            f"{ev.resources.dsp:.0f}",
            f"{ev.resources.bram:.0f}",
        ])
    report.add_table(
        ["bundle", "composition", "reps", "activation", "latency_ms", "IoU", "DSP", "BRAM"],
        rows,
    )
    extremes = result.per_bundle_extremes()
    report.add_kv("Bundle characteristics", {
        f"bundle {bid}": (
            f"best IoU {vals['best_accuracy']:.3f}, "
            f"best latency {vals['best_latency_ms']:.1f} ms"
        )
        for bid, vals in sorted(extremes.items())
    })
    report.add_kv("Leaders", {
        "accuracy-favourable bundle": result.accuracy_leader(),
        "latency/resource-favourable bundle": result.latency_leader(),
    })
    return report
