"""Auto-HLS: accelerator generation and precise performance feedback.

Auto-HLS plays two roles in the co-design flow (Fig. 1):

* during modelling (Co-Design Step 1), it samples representative
  configurations to fit the analytical-model coefficients (alpha, beta,
  Gamma, phi, gamma),
* during search (Co-Design Step 3), it takes the DNNs produced by the SCD
  unit, generates their accelerators (synthesizable C code) and returns the
  more precise latency / resource results which are fed back to the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.core.dnn_config import DNNConfig
from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    DEFAULT_COEFFICIENTS,
    DNNPerformanceModel,
    PerformanceEstimate,
)
from repro.hw.device import FPGADevice
from repro.hw.evaluator import evaluator_for
from repro.hw.hls.codegen import GeneratedDesign, HLSCodeGenerator
from repro.hw.hls.report import HLSReport
from repro.hw.hls.synthesis import HLSSynthesisSimulator
from repro.hw.sampling import SamplingResult, fit_coefficients
from repro.hw.tile_arch import TileArchAccelerator
from repro.hw.workload import NetworkWorkload
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class AutoHLSResult:
    """Everything Auto-HLS produces for one candidate DNN.

    Only what rebuilds the rest is stored: ``accelerator``, ``report``,
    ``design`` and ``analytical`` are built on first access, at the clock
    :meth:`AutoHLS.generate` resolved.  A search reads only ``latency_ms``.
    When ``generate`` was handed the latency of an earlier synthesis of the
    same config (a sweep cell's synth tier), ``latency_ms`` returns it and
    nothing is simulated; it equals ``report.latency_ms``.
    """

    config: DNNConfig
    engine: "AutoHLS"
    clock_mhz: float
    coefficients: AnalyticalModelCoefficients
    include_support_files: bool
    synthesised_latency_ms: Optional[float] = None

    @cached_property
    def accelerator(self) -> TileArchAccelerator:
        """The Tile-Arch accelerator of the config."""
        return self.engine.build_accelerator(self.config, clock_mhz=self.clock_mhz)

    @cached_property
    def report(self) -> HLSReport:
        """The (simulated) synthesis report of the accelerator."""
        report = HLSSynthesisSimulator(self.accelerator).synthesise()
        logger.debug("Auto-HLS synthesised %s", report.design_name)
        return report

    @cached_property
    def design(self) -> GeneratedDesign:
        """The synthesizable C code (plus support files, when requested)."""
        design = HLSCodeGenerator(self.accelerator).generate()
        if self.include_support_files:
            from repro.hw.hls.testbench import generate_support_files

            design.extra_files.update(generate_support_files(design, self.accelerator))
        return design

    @cached_property
    def analytical(self) -> PerformanceEstimate:
        """The analytical model's estimate of the same accelerator."""
        return DNNPerformanceModel(self.accelerator, self.coefficients).estimate()

    @property
    def latency_ms(self) -> float:
        """Post-synthesis latency (the precise feedback value)."""
        if self.synthesised_latency_ms is not None:
            return self.synthesised_latency_ms
        return self.report.latency_ms

    @property
    def fps(self) -> float:
        latency = self.latency_ms
        return 1000.0 / latency if latency > 0 else float("inf")


def synthesis_estimate(engine: "AutoHLS", config: DNNConfig) -> PerformanceEstimate:
    """What the flow reads from ``engine``'s synthesis report of ``config``.

    The report's latency and resources, in the record shape the disk cache
    stores, so a sweep cell keeps them in a namespace of its own.
    """
    report = HLSSynthesisSimulator(engine.build_accelerator(config)).synthesise()
    return PerformanceEstimate(latency_ms=report.latency_ms, resources=report.resources)


class AutoHLS:
    """Automatic accelerator generation for searched DNNs."""

    def __init__(
        self,
        device: FPGADevice,
        clock_mhz: Optional[float] = None,
        coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
    ) -> None:
        self.device = device
        self.clock_mhz = clock_mhz or device.default_clock_mhz
        self.coefficients = coefficients

    # ----------------------------------------------------------- accelerator
    def build_accelerator(
        self, config: DNNConfig, clock_mhz: Optional[float] = None
    ) -> TileArchAccelerator:
        """Assemble the Tile-Arch accelerator for a candidate DNN."""
        workload = config.to_workload()
        return TileArchAccelerator.build(
            workload,
            self.device,
            parallel_factor=config.parallel_factor,
            clock_mhz=clock_mhz or self.clock_mhz,
        )

    def estimate(self, config: DNNConfig) -> PerformanceEstimate:
        """Fast analytical latency / resource estimate (used inside SCD).

        Runs through the device's shared :class:`repro.hw.evaluator.FPGAEvaluator`;
        the result equals the reference :class:`DNNPerformanceModel` on
        :meth:`build_accelerator` bit for bit.
        """
        return evaluator_for(self.device).estimate(config, self.coefficients, self.clock_mhz)

    # perfbench/tracer.py patches this name on this class; nothing else calls it.
    def estimate_batch(self, configs: Sequence[DNNConfig]) -> list[PerformanceEstimate]:
        return [self.estimate(c) for c in configs]

    # --------------------------------------------------------------- synthesis
    def generate(
        self,
        config: DNNConfig,
        clock_mhz: Optional[float] = None,
        include_support_files: bool = True,
        latency_ms: Optional[float] = None,
    ) -> AutoHLSResult:
        """Return the Auto-HLS result of ``config`` at ``clock_mhz``.

        The accelerator, its synthesis report and the C code are built when
        the result first reads them.  ``latency_ms`` is the post-synthesis
        latency of an earlier synthesis of the same config and clock (see
        :func:`synthesis_estimate`); the result reports it as is.  When
        ``include_support_files`` is true the code also contains a C
        testbench, the HLS synthesis Tcl script and a Makefile, so it can be
        handed to an HLS tool as-is.
        """
        return AutoHLSResult(
            config=config,
            engine=self,
            clock_mhz=clock_mhz or self.clock_mhz,
            coefficients=self.coefficients,
            include_support_files=include_support_files,
            synthesised_latency_ms=latency_ms,
        )

    # ---------------------------------------------------------------- fitting
    def fit_models(
        self, sample_workloads: list[NetworkWorkload], parallel_factor: int = 8
    ) -> SamplingResult:
        """Fit the analytical-model coefficients from sampled configurations.

        The fitted coefficients are stored on the engine and used by all
        subsequent :meth:`estimate` calls.
        """
        result = fit_coefficients(
            sample_workloads, self.device, parallel_factor=parallel_factor, base=self.coefficients
        )
        self.coefficients = result.coefficients
        logger.info(
            "Auto-HLS sampling fitted alpha=%.3f beta=%.3f (mean rel. err. %.1f%%)",
            result.coefficients.alpha,
            result.coefficients.beta,
            100.0 * result.mean_relative_error,
        )
        return result
