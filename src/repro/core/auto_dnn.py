"""Auto-DNN: the hardware-aware DNN model search engine.

Auto-DNN (Sec. 5.2) is the primary component of the co-design flow.  For
each selected bundle it

1. **initialises** a candidate DNN (``DNN_i^k0``): the bundle is replicated
   ``N_i`` times, initial down-sampling layers are inserted between
   replications, channel-expansion factors start at 1 or 2 depending on the
   layer type, and the hardware variables (PF, quantization) are set so that
   IP instances can be reused across layers — with PF maximised under the
   resource budget,
2. runs the **SCD unit** to find ``K`` DNNs whose estimated latency falls
   within the target band and whose resources fit the device,
3. hands the candidates to **Auto-HLS** for precise latency / resource
   feedback and to the accuracy model (proxy training or surrogate) for
   their achievable accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.auto_hls import AutoHLS, AutoHLSResult
from repro.core.bundle import Bundle
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.detection.accuracy_model import AccuracyModel, SurrogateAccuracyModel
from repro.detection.task import DetectionTask
from repro.hw.analytical import PerformanceEstimate
from repro.hw.device import FPGADevice
from repro.search import EvaluationCache, SearchSession, create_explorer
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike, ensure_rng

logger = get_logger(__name__)


@dataclass
class DNNCandidate:
    """A searched DNN candidate with its accuracy and hardware results."""

    config: DNNConfig
    accuracy: float
    estimate: PerformanceEstimate
    hls: Optional[AutoHLSResult] = None
    latency_target: Optional[LatencyTarget] = None

    @property
    def latency_ms(self) -> float:
        """Best available latency: post-synthesis when present, else analytical."""
        if self.hls is not None:
            return self.hls.latency_ms
        return self.estimate.latency_ms

    @property
    def fps(self) -> float:
        return 1000.0 / self.latency_ms if self.latency_ms > 0 else float("inf")

    def summary(self) -> str:
        return (
            f"{self.config.describe()} | IoU={self.accuracy:.3f} "
            f"| {self.latency_ms:.1f} ms ({self.fps:.1f} FPS)"
        )


class AutoDNN:
    """Hardware-aware DNN search and update (Co-Design Step 3)."""

    def __init__(
        self,
        task: DetectionTask,
        device: FPGADevice,
        auto_hls: Optional[AutoHLS] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        resource_constraint: Optional[ResourceConstraint] = None,
        stem_channels: int = 48,
        max_channels: int = 512,
        weight_bits: int = 8,
        candidates_per_bundle: int = 3,
        fine_tune_epochs: int = 200,
        rng: RNGLike = None,
        strategy: str = "scd",
        session: Optional[SearchSession] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.task = task
        self.device = device
        self.auto_hls = auto_hls or AutoHLS(device)
        self.accuracy_model = accuracy_model or SurrogateAccuracyModel()
        self.resource_constraint = resource_constraint or ResourceConstraint.for_device(device)
        self.stem_channels = stem_channels
        self.max_channels = max_channels
        self.weight_bits = weight_bits
        self.candidates_per_bundle = candidates_per_bundle
        self.fine_tune_epochs = fine_tune_epochs
        self.rng = ensure_rng(rng)
        self.strategy = strategy
        self.session = session
        #: Memoizes estimator calls across bundles, targets and activations.
        # Explicit None check: an empty EvaluationCache is falsy (__len__ == 0).
        self.cache = cache if cache is not None else EvaluationCache(self.auto_hls.estimate)
        #: Optional memo of post-synthesis results (see :meth:`refine_with_hls`).
        self.synthesis_cache: Optional[EvaluationCache] = None

    # ---------------------------------------------------------- initialization
    def initialize(
        self,
        bundle: Bundle,
        activation: str = "relu4",
        num_repetitions: int = 3,
    ) -> DNNConfig:
        """Build the initial candidate ``DNN_i^k0`` for a bundle: the
        :meth:`initial_config` structure with its parallel factor maximised
        under the resource constraint."""
        return self.maximize_parallel_factor(
            self.initial_config(bundle, activation, num_repetitions)
        )

    def initial_config(
        self,
        bundle: Bundle,
        activation: str = "relu4",
        num_repetitions: int = 3,
    ) -> DNNConfig:
        """The initial structure of a bundle's DNN, at parallel factor 4.

        Channel expansion starts at 2 for standard-convolution bundles (they
        can grow channels cheaply) and 1.5 for depth-wise bundles; initial
        down-sampling layers are inserted between the first replications.
        Nothing is estimated.
        """
        has_dw = any(l.kind == "dwconv" for l in bundle.compute_layers)
        init_factor = 1.5 if has_dw else 2.0
        expansion = tuple([init_factor] * num_repetitions)
        downsample = tuple(1 if i < min(num_repetitions, 4) else 0 for i in range(num_repetitions))
        return DNNConfig.interned(
            bundle=bundle,
            task=self.task,
            num_repetitions=num_repetitions,
            channel_expansion=expansion,
            downsample=downsample,
            stem_channels=self.stem_channels,
            activation=activation,
            weight_bits=self.weight_bits,
            parallel_factor=4,
            max_channels=self.max_channels,
        )

    def maximize_parallel_factor(
        self, config: DNNConfig, factors: Sequence[int] = (4, 8, 16, 32, 64, 128, 256)
    ) -> DNNConfig:
        """Set PF to the largest value whose accelerator still fits the device."""
        best = config
        for pf in sorted(factors):
            candidate = config.with_updates(parallel_factor=pf)
            estimate = self.cache.evaluate(candidate)
            if self.resource_constraint.satisfied_by(estimate.resources):
                best = candidate
            else:
                break
        return best

    # ----------------------------------------------------------------- search
    def search_bundle(
        self,
        bundle: Bundle,
        latency_target: LatencyTarget,
        activation: str = "relu4",
        num_candidates: Optional[int] = None,
        max_iterations: int = 200,
        strategy: Optional[str] = None,
        session: Optional[SearchSession] = None,
    ) -> list[DNNCandidate]:
        """Search K candidate DNNs for one bundle under one latency target."""
        num_candidates = num_candidates or self.candidates_per_bundle
        strategy = strategy or self.strategy
        initial = self.initialize(bundle, activation=activation)
        explorer = create_explorer(
            strategy,
            latency_target=latency_target,
            resource_constraint=self.resource_constraint,
            max_iterations=max_iterations,
            rng=self.rng,
            cache=self.cache,
            session=session if session is not None else self.session,
        )
        result = explorer.explore(initial, num_candidates=num_candidates)

        candidates: list[DNNCandidate] = []
        for config, estimate in zip(result.candidates, result.estimates):
            accuracy = self.accuracy_model.predict(config.features(epochs=self.fine_tune_epochs))
            candidates.append(DNNCandidate(
                config=config,
                accuracy=accuracy,
                estimate=estimate,
                latency_target=latency_target,
            ))
        logger.info(
            "Auto-DNN: bundle %d, target %s -> %d candidates "
            "(%s strategy, %d iterations, %d evaluations)",
            bundle.bundle_id, latency_target, len(candidates),
            result.strategy, result.iterations, result.evaluations,
        )
        return candidates

    def search(
        self,
        bundles: Sequence[Bundle],
        latency_targets: Sequence[LatencyTarget],
        activations: Sequence[str] = ("relu4", "relu"),
        num_candidates: Optional[int] = None,
        max_iterations: int = 200,
        strategy: Optional[str] = None,
        session: Optional[SearchSession] = None,
    ) -> list[DNNCandidate]:
        """Search candidates across bundles, latency targets and activations.

        The evaluation cache is cleared on entry (the Auto-HLS coefficients
        may have been refit since earlier estimates) and then shared across
        the whole bundle x target x activation sweep.
        """
        self.cache.clear()
        all_candidates: list[DNNCandidate] = []
        for target in latency_targets:
            for bundle in bundles:
                for activation in activations:
                    all_candidates.extend(self.search_bundle(
                        bundle, target, activation=activation,
                        num_candidates=num_candidates, max_iterations=max_iterations,
                        strategy=strategy, session=session,
                    ))
        if session is not None:
            session.attach_cache_stats(self.cache.stats())
        return all_candidates

    # ---------------------------------------------------------------- update
    def refine_with_hls(self, candidates: Sequence[DNNCandidate]) -> list[DNNCandidate]:
        """Run Auto-HLS on every candidate to attach precise hardware results.

        With a ``synthesis_cache`` (an :class:`EvaluationCache` over
        :func:`repro.core.auto_hls.synthesis_estimate`), all candidates'
        post-synthesis latencies come from one ``evaluate_batch`` call and
        are handed to ``generate``: a cache that already holds them makes
        the step simulate nothing.  Without one, each result synthesises
        when its latency is first read.  Estimation engines without a
        ``generate`` step (e.g. the GPU roofline engine — there is no HLS
        artifact to emit) pass candidates through unchanged.
        """
        if getattr(self.auto_hls, "generate", None) is None:
            return list(candidates)
        latencies: list[Optional[float]] = [None] * len(candidates)
        if self.synthesis_cache is not None:
            synthesised = self.synthesis_cache.evaluate_batch([c.config for c in candidates])
            latencies = [result.latency_ms for result in synthesised]
        refined: list[DNNCandidate] = []
        for candidate, latency_ms in zip(candidates, latencies):
            hls = self.auto_hls.generate(candidate.config, latency_ms=latency_ms)
            refined.append(DNNCandidate(
                config=candidate.config,
                accuracy=candidate.accuracy,
                estimate=candidate.estimate,
                hls=hls,
                latency_target=candidate.latency_target,
            ))
        return refined

    @staticmethod
    def best_per_target(
        candidates: Sequence[DNNCandidate],
        latency_targets: Sequence[LatencyTarget],
    ) -> dict[LatencyTarget, Optional[DNNCandidate]]:
        """Pick the highest-accuracy candidate inside each target's band."""
        best: dict[LatencyTarget, Optional[DNNCandidate]] = {}
        for target in latency_targets:
            in_band = [
                c for c in candidates
                if target.within_band(c.latency_ms)
            ]
            best[target] = max(in_band, key=lambda c: c.accuracy, default=None)
        return best
