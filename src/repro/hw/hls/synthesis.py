"""Simulated HLS synthesis.

The real flow would hand the generated C code to Vivado HLS and read back a
synthesis report.  This reproduction replaces that step with a deterministic
simulator-backed estimate:

* latency comes from the cycle-level tile-pipeline simulator,
* resource usage comes from the accelerator resource model,
* timing closure is modelled as a function of utilization pressure — a
  heavily packed device closes timing at a lower clock, mirroring the
  routing-congestion behaviour of real placement and routing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.hls.codegen import GeneratedDesign, HLSCodeGenerator
from repro.hw.hls.report import HLSReport
from repro.hw.pipeline import TilePipelineSimulator
from repro.hw.tile_arch import TileArchAccelerator


#: Utilization above which timing begins to degrade (routing congestion).
_TIMING_KNEE = 0.97
#: Relative clock degradation per unit of utilization above the knee.
_TIMING_SLOPE = 0.5


@dataclass
class HLSSynthesisSimulator:
    """Stand-in for the Vivado HLS + implementation flow.

    Parameters
    ----------
    accelerator:
        The accelerator to synthesise.
    pessimism:
        Multiplier (> 1.0) applied to the simulated latency to model the
        gap between C-simulation and on-board behaviour.
    """

    accelerator: TileArchAccelerator
    pessimism: float = 1.0

    def __post_init__(self) -> None:
        if self.pessimism <= 0:
            raise ValueError("pessimism must be positive")

    def synthesise(self, design: GeneratedDesign | None = None) -> HLSReport:
        """Produce an :class:`HLSReport` for the accelerator.

        ``design`` only names the report: the estimate is derived from the
        accelerator model.  Without a design, no code is generated and the
        report takes the name the code generator would give it.
        """
        acc = self.accelerator
        name = design.name if design is not None else HLSCodeGenerator(acc).design_name
        trace = TilePipelineSimulator(acc).run()
        latency_cycles = trace.total_cycles * self.pessimism
        resources = acc.resources()
        utilization = acc.device.utilization(resources)

        pressure = utilization.max_fraction
        if pressure <= _TIMING_KNEE:
            achieved = acc.clock_mhz
        else:
            degradation = 1.0 - _TIMING_SLOPE * (pressure - _TIMING_KNEE)
            achieved = max(acc.clock_mhz * degradation, acc.clock_mhz * 0.5)
        meets_timing = achieved >= acc.clock_mhz and pressure <= 1.0

        return HLSReport(
            design_name=name,
            latency_cycles=latency_cycles,
            clock_mhz=acc.clock_mhz,
            resources=resources,
            utilization=utilization,
            achieved_clock_mhz=min(achieved, acc.device.max_clock_mhz),
            meets_timing=meets_timing,
        )
