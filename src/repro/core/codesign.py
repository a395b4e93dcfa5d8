"""The overall co-design flow (Fig. 1 / Sec. 3.2).

The flow takes the target ML task, the FPGA device (resource budget) and the
performance targets, and runs the three co-design steps:

1. **Building block and DNN modelling** — analytical latency / resource
   models are constructed for the bundles and the DNNs built from them; the
   model coefficients are fitted via Auto-HLS sampling.
2. **Building block selection** — coarse- and fine-grained evaluation of the
   bundle candidates; the bundles on the (per-resource-group) Pareto curves
   are selected.
3. **Hardware-aware DNN search and update** — Auto-DNN explores DNNs with
   SCD under the resource and latency constraints; outputs are passed to
   Auto-HLS for precise performance / resource results; the DNNs meeting the
   requirements are output for training and fine-tuning.

The outputs are the software side (DNN models) and the hardware side (their
FPGA accelerators, i.e. generated HLS C code plus synthesis reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.backend import Backend, infer_backend
from repro.core.auto_dnn import AutoDNN, DNNCandidate
from repro.core.bundle import Bundle
from repro.core.bundle_evaluation import BundleEvaluation, FineGrainedEvaluation
from repro.core.bundle_generation import default_bundle_catalog
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.detection.accuracy_model import AccuracyModel, SurrogateAccuracyModel
from repro.detection.task import DAC_SDC_TASK, DetectionTask
from repro.hw.device import FPGADevice, PYNQ_Z1
from repro.hw.sampling import SamplingResult
from repro.search import EvaluationCache, SearchSession
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike

logger = get_logger(__name__)


@dataclass
class CoDesignInputs:
    """Inputs of the co-design flow (left-hand side of Fig. 1)."""

    task: DetectionTask = DAC_SDC_TASK
    device: FPGADevice = PYNQ_Z1
    latency_targets: tuple[LatencyTarget, ...] = (
        LatencyTarget(fps=10.0),
        LatencyTarget(fps=15.0),
        LatencyTarget(fps=20.0),
    )
    bundles: tuple[Bundle, ...] = ()
    utilization_limit: float = 1.0

    def __post_init__(self) -> None:
        if not self.latency_targets:
            raise ValueError("At least one latency target is required")
        if not self.bundles:
            self.bundles = tuple(default_bundle_catalog())

    @property
    def resource_constraint(self) -> ResourceConstraint:
        return ResourceConstraint.for_device(self.device, self.utilization_limit)


@dataclass
class CoDesignResult:
    """Outputs of the co-design flow (right-hand side of Fig. 1)."""

    inputs: CoDesignInputs
    sampling: Optional[SamplingResult]
    coarse_evaluations: list[BundleEvaluation]
    fine_evaluations: list[FineGrainedEvaluation]
    selected_bundles: list[Bundle]
    candidates: list[DNNCandidate]
    best_per_target: dict[LatencyTarget, Optional[DNNCandidate]]

    def summary(self) -> str:
        """Readable multi-line summary of the flow outcome."""
        lines = [
            f"Co-design flow on {self.inputs.device.name} for task '{self.inputs.task.name}'",
            f"  bundle candidates : {len(self.inputs.bundles)}",
            f"  selected bundles  : {[b.bundle_id for b in self.selected_bundles]}",
            f"  explored DNNs     : {len(self.candidates)}",
        ]
        for target, candidate in self.best_per_target.items():
            if candidate is None:
                lines.append(f"  {target}: no candidate met the target")
            else:
                lines.append(f"  {target}: {candidate.summary()}")
        return "\n".join(lines)


class CoDesignFlow:
    """End-to-end automatic hardware/DNN co-design.

    The hardware substrate is pluggable: ``backend`` (a
    :class:`repro.backend.Backend`) supplies target resolution, the
    estimation engine, the resource budget and the step-1/2 preparation
    shape.  When omitted it is inferred from ``inputs.device`` — an
    :class:`~repro.hw.device.FPGADevice` selects the FPGA backend (the
    paper's flow, unchanged), a :class:`~repro.gpu.device.GPUDevice` the
    fit-free GPU roofline backend.
    """

    def __init__(
        self,
        inputs: CoDesignInputs,
        accuracy_model: Optional[AccuracyModel] = None,
        candidates_per_bundle: int = 2,
        top_n_bundles: int = 5,
        scd_iterations: int = 120,
        rng: RNGLike = 2019,
        search_strategy: str = "scd",
        clock_mhz: Optional[float] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        self.inputs = inputs
        self.backend = backend if backend is not None else infer_backend(inputs.device)
        self.accuracy_model = accuracy_model or SurrogateAccuracyModel()
        self.candidates_per_bundle = candidates_per_bundle
        self.top_n_bundles = top_n_bundles
        self.scd_iterations = scd_iterations
        self.rng = rng
        self.search_strategy = search_strategy
        if clock_mhz is not None:
            clock_mhz = self.backend.validate_clock(inputs.device, clock_mhz)
        self.clock_mhz = clock_mhz or self.backend.default_clock_mhz(inputs.device)
        self.resource_constraint = self.backend.resource_constraint(
            inputs.device, inputs.utilization_limit
        )

        self.auto_hls = self.backend.create_engine(inputs.device, clock_mhz=self.clock_mhz)
        self.evaluator = self.backend.create_bundle_evaluator(
            inputs.task, inputs.device, self.accuracy_model
        )
        self.auto_dnn = AutoDNN(
            task=inputs.task,
            device=inputs.device,
            auto_hls=self.auto_hls,
            accuracy_model=self.accuracy_model,
            resource_constraint=self.resource_constraint,
            candidates_per_bundle=candidates_per_bundle,
            rng=rng,
            strategy=search_strategy,
        )

    def attach_evaluation_cache(
        self, cache: EvaluationCache, synthesis_cache: Optional[EvaluationCache] = None
    ) -> None:
        """Swap the search-side evaluation cache after construction.

        The sweep engine uses this to attach a
        :class:`~repro.sweep.disk_cache.DiskEvaluationCache`, an in-memory
        cache with a persistent tier, once step 1 has fitted the model
        coefficients (the disk namespace embeds their fingerprint, so the
        cache can only be built post-fit).  ``synthesis_cache`` memoizes
        step 3's post-synthesis results (see
        :meth:`~repro.core.auto_dnn.AutoDNN.refine_with_hls`).
        """
        self.auto_dnn.cache = cache
        self.auto_dnn.synthesis_cache = synthesis_cache

    # ------------------------------------------------------------------ steps
    def step1_modeling(
        self, sample_bundle_ids: Sequence[int] = (1, 7, 13)
    ) -> Optional[SamplingResult]:
        """Co-Design Step 1: fit the analytical models via Auto-HLS sampling.

        Each sample is a bundle's initial structure; the fit builds every
        sample accelerator at one fixed parallel factor, so sampling calls
        no estimator.  Fit-free backends (the GPU roofline) have nothing to
        fit; the step is a no-op returning ``None`` so ``run()`` stays
        backend-agnostic.
        """
        if not self.backend.requires_fit:
            return None
        sampled = [bundle for bundle in self.inputs.bundles
                   if bundle.bundle_id in sample_bundle_ids]
        samples = [self.auto_dnn.initial_config(bundle).to_workload()
                   for bundle in sampled or self.inputs.bundles[:1]]
        result = self.auto_hls.fit_models(samples)
        # Propagate the fitted coefficients to the evaluator as well.
        self.evaluator.coefficients = result.coefficients
        return result

    def step2_bundle_selection(
        self, parallel_factors: Sequence[int] = (4, 8, 16)
    ) -> tuple[list[BundleEvaluation], list[FineGrainedEvaluation], list[Bundle]]:
        """Co-Design Step 2: coarse / fine bundle evaluation and selection.

        Backends without a bundle evaluator (``evaluator is None``) select
        deterministically via :meth:`repro.backend.Backend.select_bundles`
        and report no coarse/fine evaluations.
        """
        if self.evaluator is None:
            selected = self.backend.select_bundles(
                self.inputs.bundles, self.top_n_bundles
            )
            return [], [], list(selected)
        coarse = self.evaluator.coarse_evaluate(
            self.inputs.bundles, parallel_factors=parallel_factors, method=1
        )
        selected = self.evaluator.select_top_bundles(coarse, top_n=self.top_n_bundles)
        fine = self.evaluator.fine_evaluate(selected)
        return coarse, fine, selected

    def step3_search(
        self,
        selected: Sequence[Bundle],
        strategy: Optional[str] = None,
        session: Optional[SearchSession] = None,
    ) -> list[DNNCandidate]:
        """Co-Design Step 3: hardware-aware DNN search and update.

        ``strategy`` selects a registered exploration strategy (``scd``,
        ``random``, ``evolutionary``, ``annealing``; defaults to the flow's
        ``search_strategy``) and ``session`` collects the evaluation journal.
        """
        candidates = self.auto_dnn.search(
            selected,
            self.inputs.latency_targets,
            num_candidates=self.candidates_per_bundle,
            max_iterations=self.scd_iterations,
            strategy=strategy or self.search_strategy,
            session=session,
        )
        return self.auto_dnn.refine_with_hls(candidates)

    # -------------------------------------------------------------------- run
    def run(self, fit_models: bool = True) -> CoDesignResult:
        """Run the full three-step co-design flow."""
        sampling = self.step1_modeling() if fit_models else None
        coarse, fine, selected = self.step2_bundle_selection()
        candidates = self.step3_search(selected)
        best = AutoDNN.best_per_target(candidates, self.inputs.latency_targets)
        result = CoDesignResult(
            inputs=self.inputs,
            sampling=sampling,
            coarse_evaluations=coarse,
            fine_evaluations=fine,
            selected_bundles=selected,
            candidates=candidates,
            best_per_target=best,
        )
        logger.info("Co-design flow finished:\n%s", result.summary())
        return result
