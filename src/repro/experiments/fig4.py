"""Fig. 4: coarse-grained bundle evaluation.

Reproduces both panels of Fig. 4: for every bundle candidate, a DNN is built
with construction method #1 (fixed head/tail plus one bundle replication) and
method #2 (the bundle replicated n times), evaluated for latency / resource /
accuracy under parallel factors {4, 8, 16}, and the per-resource-group Pareto
bundles are identified.  The paper's observation — both construction methods
produce (nearly) the same Pareto set, so the evaluation is reliable for
bundle selection — is checked explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.bundle import Bundle
from repro.core.bundle_evaluation import BundleEvaluation, BundleEvaluator
from repro.core.bundle_generation import default_bundle_catalog
from repro.detection.accuracy_model import AccuracyModel
from repro.detection.task import DAC_SDC_TASK, DetectionTask
from repro.experiments.reporting import ExperimentReport
from repro.hw.device import FPGADevice, PYNQ_Z1


@dataclass
class Fig4Result:
    """All data needed to regenerate Fig. 4 (a) and (b)."""

    method1: list[BundleEvaluation]
    method2: list[BundleEvaluation]
    pareto_method1: list[int]
    pareto_method2: list[int]
    selected: list[int]

    @property
    def pareto_overlap(self) -> float:
        """Jaccard overlap between the two methods' Pareto sets."""
        set1, set2 = set(self.pareto_method1), set(self.pareto_method2)
        if not set1 and not set2:
            return 1.0
        return len(set1 & set2) / len(set1 | set2)


def run_fig4(
    task: DetectionTask = DAC_SDC_TASK,
    device: FPGADevice = PYNQ_Z1,
    bundles: Optional[Sequence[Bundle]] = None,
    parallel_factors: Sequence[int] = (4, 8, 16),
    accuracy_model: Optional[AccuracyModel] = None,
    top_n: int = 5,
) -> Fig4Result:
    """Run the coarse-grained bundle evaluation for both construction methods."""
    bundles = list(bundles) if bundles is not None else default_bundle_catalog()
    evaluator = BundleEvaluator(task, device, accuracy_model=accuracy_model)
    method1 = evaluator.coarse_evaluate(bundles, parallel_factors=parallel_factors, method=1)
    method2 = evaluator.coarse_evaluate(bundles, parallel_factors=parallel_factors, method=2)
    pareto1 = BundleEvaluator.pareto_bundles(method1)
    pareto2 = BundleEvaluator.pareto_bundles(method2)
    selected = [b.bundle_id for b in evaluator.select_top_bundles(method1, top_n=top_n)]
    return Fig4Result(
        method1=method1,
        method2=method2,
        pareto_method1=pareto1,
        pareto_method2=pareto2,
        selected=selected,
    )


def report_fig4(result: Fig4Result) -> ExperimentReport:
    """Render the Fig. 4 data as the bubble-plot source tables."""
    report = ExperimentReport("Fig. 4 — coarse-grained bundle evaluation")
    for title, records, pareto in (
        ("(a) DNNs built with method #1 (fixed head/tail + 1 bundle)", result.method1, result.pareto_method1),
        ("(b) DNNs built with method #2 (bundle replicated n times)", result.method2, result.pareto_method2),
    ):
        rows = []
        for ev in sorted(records, key=lambda e: (e.bundle_id, e.parallel_factor)):
            rows.append([
                ev.bundle_id,
                ev.bundle.signature,
                ev.parallel_factor,
                f"{ev.latency_ms:.1f}",
                f"{ev.accuracy:.3f}",
                f"{ev.dsp:.0f}",
                "yes" if ev.bundle_id in pareto else "",
            ])
        report.add_table(
            ["bundle", "composition", "PF", "latency_ms", "IoU", "DSP", "pareto"],
            rows,
            title=title,
        )
    report.add_kv("Pareto stability across construction methods", {
        "pareto (method #1)": result.pareto_method1,
        "pareto (method #2)": result.pareto_method2,
        "overlap (Jaccard)": f"{result.pareto_overlap:.2f}",
        "selected top bundles": result.selected,
    })
    return report
