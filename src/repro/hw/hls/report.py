"""HLS synthesis report."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.resource import ResourceUtilization, ResourceVector


@dataclass(frozen=True)
class HLSReport:
    """Result of synthesising one accelerator design.

    Attributes
    ----------
    design_name:
        Name of the synthesised design.
    latency_cycles:
        Estimated end-to-end latency in clock cycles.
    clock_mhz:
        Target clock frequency.
    resources:
        Post-synthesis resource usage.
    utilization:
        Resource usage as fractions of the target device.
    achieved_clock_mhz:
        Clock the design closes timing at (may be below the target when the
        device is heavily utilised).
    meets_timing:
        Whether the requested clock is achievable.
    """

    design_name: str
    latency_cycles: float
    clock_mhz: float
    resources: ResourceVector
    utilization: ResourceUtilization
    achieved_clock_mhz: float
    meets_timing: bool

    @property
    def latency_ms(self) -> float:
        """Latency in milliseconds at the achieved clock."""
        clock = self.achieved_clock_mhz if self.achieved_clock_mhz > 0 else self.clock_mhz
        return self.latency_cycles / (clock * 1e3)

    @property
    def fps(self) -> float:
        """Frames per second implied by the latency."""
        latency = self.latency_ms
        return 1000.0 / latency if latency > 0 else float("inf")

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        util = self.utilization.as_percent_dict()
        return (
            f"HLS report for {self.design_name}: "
            f"{self.latency_ms:.2f} ms ({self.fps:.1f} FPS) @ {self.achieved_clock_mhz:.0f} MHz, "
            f"LUT {util['lut']:.1f}%, FF {util['ff']:.1f}%, "
            f"DSP {util['dsp']:.1f}%, BRAM {util['bram']:.1f}%, "
            f"timing {'met' if self.meets_timing else 'FAILED'}"
        )
