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

    ``design`` and ``analytical`` are built on first access: a search reads
    only the report.
    """

    config: DNNConfig
    accelerator: TileArchAccelerator
    report: HLSReport
    coefficients: AnalyticalModelCoefficients
    include_support_files: bool

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
        return self.report.latency_ms

    @property
    def fps(self) -> float:
        return self.report.fps


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

    def estimate_batch(self, configs: Sequence[DNNConfig]) -> list[PerformanceEstimate]:
        """:meth:`estimate` over many configs in one call.

        ``EvaluationCache.evaluate_batch`` discovers this method through
        :func:`repro.search.cache.resolve_batch_estimator` even when it was
        handed the bound ``estimate`` method.
        """
        return evaluator_for(self.device).estimate_batch(
            configs, self.coefficients, self.clock_mhz
        )

    # --------------------------------------------------------------- synthesis
    def generate(
        self,
        config: DNNConfig,
        clock_mhz: Optional[float] = None,
        include_support_files: bool = True,
    ) -> AutoHLSResult:
        """Build the accelerator, synthesise it and return the full result.

        The C code is generated when the result's ``design`` is first read.
        When ``include_support_files`` is true it also contains a C
        testbench, the HLS synthesis Tcl script and a Makefile, so it can be
        handed to an HLS tool as-is.
        """
        accelerator = self.build_accelerator(config, clock_mhz=clock_mhz)
        # Named as the code will be: the sanitised display name of the config.
        report = HLSSynthesisSimulator(accelerator).synthesise()
        logger.debug("Auto-HLS generated %s", report.design_name)
        return AutoHLSResult(
            config=config,
            accelerator=accelerator,
            report=report,
            coefficients=self.coefficients,
            include_support_files=include_support_files,
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
