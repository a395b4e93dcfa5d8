"""Bundle evaluation and selection (Co-Design Step 2, Sec. 5.1).

Coarse-grained evaluation captures a three-dimensional feature — latency,
resource and accuracy — for every bundle candidate, using two DNN
construction methods:

* **method #1**: a DNN template with a fixed head and tail and one bundle
  replication inserted in the middle,
* **method #2**: the bundle replicated ``n`` times.

Bundles with similar resource usage are grouped and a Pareto curve is
generated per group; bundles on the Pareto curves are selected.  A
fine-grained evaluation then varies the replication count and the activation
function (ReLU / ReLU4 / ReLU8, which ties to feature-map quantization) for
the selected bundles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import repro.telemetry as telemetry
from repro.core.bundle import Bundle
from repro.core.dnn_config import DNNConfig
from repro.core.pareto import group_by, pareto_front
from repro.detection.accuracy_model import AccuracyModel, SurrogateAccuracyModel
from repro.detection.task import DetectionTask
from repro.hw.analytical import AnalyticalModelCoefficients, DEFAULT_COEFFICIENTS
from repro.hw.device import FPGADevice
from repro.hw.evaluator import evaluator_for
from repro.hw.resource import ResourceVector
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Proxy-training length used for bundle evaluation (the paper uses 20).
PROXY_EPOCHS = 20


@dataclass
class BundleEvaluation:
    """Coarse-grained evaluation record of one bundle at one parallel factor."""

    bundle: Bundle
    parallel_factor: int
    latency_ms: float
    accuracy: float
    resources: ResourceVector
    dsp: float
    method: int
    config: DNNConfig

    @property
    def bundle_id(self) -> int:
        return self.bundle.bundle_id


@dataclass
class FineGrainedEvaluation:
    """Fine-grained evaluation record: bundle x replication count x activation."""

    bundle: Bundle
    num_repetitions: int
    activation: str
    latency_ms: float
    accuracy: float
    resources: ResourceVector
    config: DNNConfig

    @property
    def bundle_id(self) -> int:
        return self.bundle.bundle_id


def best_evaluation_per_bundle(
    evaluations: Sequence[BundleEvaluation],
) -> list[BundleEvaluation]:
    """Reduce evaluations to each bundle's lowest-latency record.

    Coarse evaluation scores every bundle at several parallel factors; both
    Pareto selection and top-N ranking want one representative per bundle —
    the fastest one.  Ties keep the first record seen, and the returned list
    preserves first-seen bundle order.
    """
    best: dict[int, BundleEvaluation] = {}
    for ev in evaluations:
        current = best.get(ev.bundle_id)
        if current is None or ev.latency_ms < current.latency_ms:
            best[ev.bundle_id] = ev
    return list(best.values())


class BundleEvaluator:
    """Coarse- and fine-grained bundle evaluation and Pareto selection.

    Both evaluation passes score every config of their bundle cross-product
    (bundle x parallel factor, or bundle x replication x activation) with
    the device's :class:`repro.hw.evaluator.FPGAEvaluator`.
    """

    def __init__(
        self,
        task: DetectionTask,
        device: FPGADevice,
        accuracy_model: Optional[AccuracyModel] = None,
        coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
        clock_mhz: Optional[float] = None,
        stem_channels: int = 48,
        method2_repetitions: int = 3,
    ) -> None:
        self.task = task
        self.device = device
        self.accuracy_model = accuracy_model or SurrogateAccuracyModel()
        self.coefficients = coefficients
        self.clock_mhz = clock_mhz or device.default_clock_mhz
        self.stem_channels = stem_channels
        self.method2_repetitions = method2_repetitions

    # ----------------------------------------------------------- construction
    def _config_for(
        self,
        bundle: Bundle,
        method: int,
        parallel_factor: int,
        activation: str = "relu4",
        num_repetitions: Optional[int] = None,
    ) -> DNNConfig:
        """Build the evaluation DNN for a bundle under one construction method."""
        if method == 1:
            reps = 1 if num_repetitions is None else num_repetitions
        elif method == 2:
            reps = self.method2_repetitions if num_repetitions is None else num_repetitions
        else:
            raise ValueError("method must be 1 or 2")
        expansion = tuple([1.5] * reps)
        downsample = tuple([1] * min(reps, 4) + [0] * max(reps - 4, 0))
        return DNNConfig.interned(
            bundle=bundle,
            task=self.task,
            num_repetitions=reps,
            channel_expansion=expansion,
            downsample=downsample,
            stem_channels=self.stem_channels,
            activation=activation,
            parallel_factor=parallel_factor,
            name=f"eval-m{method}-b{bundle.bundle_id}-pf{parallel_factor}",
        )

    def _accuracy(self, config: DNNConfig, epochs: int = PROXY_EPOCHS) -> float:
        """Accuracy of the evaluation DNN after proxy training."""
        return self.accuracy_model.predict(config.features(epochs=epochs))

    # --------------------------------------------------------- coarse-grained
    def coarse_evaluate(
        self,
        bundles: Sequence[Bundle],
        parallel_factors: Sequence[int] = (4, 8, 16),
        method: int = 1,
    ) -> list[BundleEvaluation]:
        """Coarse-grained evaluation of every bundle at every parallel factor.

        Accuracy does not depend on the parallel factor (it only changes the
        hardware implementation), so it is computed once per bundle.
        """
        if not parallel_factors:
            raise ValueError("parallel_factors must contain at least one parallel factor")
        evaluations: list[BundleEvaluation] = []
        evaluator = evaluator_for(self.device)
        with telemetry.trace("core.bundle_evaluation.coarse", method=method,
                             bundles=len(bundles)):
            for bundle in bundles:
                accuracy = self._accuracy(self._config_for(bundle, method, parallel_factors[0]))
                for pf in parallel_factors:
                    config = self._config_for(bundle, method, pf)
                    estimate = evaluator.estimate(config, self.coefficients, self.clock_mhz)
                    evaluations.append(BundleEvaluation(
                        bundle=bundle,
                        parallel_factor=pf,
                        latency_ms=estimate.latency_ms,
                        accuracy=accuracy,
                        resources=estimate.resources,
                        dsp=estimate.resources.dsp,
                        method=method,
                        config=config,
                    ))
        reg = telemetry.registry()
        if reg is not None:
            reg.counter("core.bundle_evaluation.evaluations").inc(len(evaluations))
        logger.info("Coarse evaluation (method #%d): %d records", method, len(evaluations))
        return evaluations

    # ---------------------------------------------------------- Pareto select
    @staticmethod
    def pareto_bundles(
        evaluations: Sequence[BundleEvaluation], num_resource_groups: int = 3
    ) -> list[int]:
        """Bundle IDs on the per-resource-group Pareto curves.

        Bundles are first grouped by their DSP usage (the binding resource on
        DSP-starved IoT devices), then a latency-vs-accuracy Pareto front is
        computed per group; the union of front members is returned.
        """
        records = best_evaluation_per_bundle(evaluations)
        groups = group_by(records, key=lambda e: e.dsp, num_groups=num_resource_groups)
        selected: set[int] = set()
        for members in groups.values():
            front = pareto_front(members, cost=lambda e: e.latency_ms, value=lambda e: e.accuracy)
            selected.update(e.bundle_id for e in front)
        return sorted(selected)

    def select_top_bundles(
        self,
        evaluations: Sequence[BundleEvaluation],
        top_n: int = 5,
        latency_weight: float = 0.15,
        min_accuracy_fraction: float = 0.72,
        num_resource_groups: int = 3,
    ) -> list[Bundle]:
        """Select the top-N promising bundles for DNN exploration.

        Selection keeps only Pareto members (per resource group), discards
        bundles whose accuracy potential is far below the best observed one
        (they cannot contribute competitive DNNs however cheap they are), and
        ranks the remainder by a score combining accuracy potential and
        hardware efficiency (normalised latency), as Sec. 4.2 prescribes
        ("the most promising ones will be selected ... based on their
        potential accuracy contributions and hardware characteristics").
        """
        if not evaluations:
            raise ValueError("No evaluations to select from")
        pareto_ids = set(self.pareto_bundles(evaluations, num_resource_groups))
        candidates = [
            ev for ev in best_evaluation_per_bundle(evaluations)
            if ev.bundle_id in pareto_ids
        ]
        max_latency = max(ev.latency_ms for ev in candidates)
        if max_latency <= 0:
            raise ValueError(
                "All candidate latencies are non-positive; cannot rank bundles "
                "by normalised latency (check the analytical model inputs)"
            )
        best_accuracy = max(ev.accuracy for ev in candidates)
        candidates = [
            ev for ev in candidates if ev.accuracy >= min_accuracy_fraction * best_accuracy
        ]

        def score(ev: BundleEvaluation) -> float:
            return ev.accuracy - latency_weight * (ev.latency_ms / max_latency)

        ranked = sorted(candidates, key=score, reverse=True)
        selected = [ev.bundle for ev in ranked[:top_n]]
        logger.info(
            "Selected bundles: %s", ", ".join(str(b.bundle_id) for b in selected)
        )
        return selected

    # ------------------------------------------------------------ fine-grained
    def fine_evaluate(
        self,
        bundles: Sequence[Bundle],
        activations: Sequence[str] = ("relu", "relu8", "relu4"),
        repetition_counts: Sequence[int] = (2, 3, 4),
        parallel_factor: int = 16,
    ) -> list[FineGrainedEvaluation]:
        """Fine-grained evaluation of the selected bundles (Fig. 5)."""
        results: list[FineGrainedEvaluation] = []
        evaluator = evaluator_for(self.device)
        with telemetry.trace("core.bundle_evaluation.fine", bundles=len(bundles)):
            for bundle in bundles:
                for reps in repetition_counts:
                    for activation in activations:
                        config = self._config_for(
                            bundle, method=2, parallel_factor=parallel_factor,
                            activation=activation, num_repetitions=reps,
                        )
                        estimate = evaluator.estimate(config, self.coefficients, self.clock_mhz)
                        results.append(FineGrainedEvaluation(
                            bundle=bundle,
                            num_repetitions=reps,
                            activation=activation,
                            latency_ms=estimate.latency_ms,
                            accuracy=self._accuracy(config),
                            resources=estimate.resources,
                            config=config,
                        ))
        reg = telemetry.registry()
        if reg is not None:
            reg.counter("core.bundle_evaluation.evaluations").inc(len(results))
        logger.info("Fine-grained evaluation: %d records", len(results))
        return results
