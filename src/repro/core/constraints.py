"""Search constraints: latency targets and resource budgets."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.hw.device import FPGADevice
from repro.hw.resource import ResourceVector


@dataclass(frozen=True)
class LatencyTarget:
    """A latency / throughput target for the DNN search.

    The paper expresses targets as frames per second at a clock frequency
    (10 / 15 / 20 FPS at 100 MHz); the SCD unit works with the equivalent
    single-frame latency target plus a tolerance band ``[target - eps,
    target + eps]``.
    """

    fps: float
    clock_mhz: float = 100.0
    tolerance_ms: float = 8.0

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.tolerance_ms <= 0:
            raise ValueError("tolerance_ms must be positive")

    @property
    def latency_ms(self) -> float:
        """Single-frame latency target in milliseconds."""
        return 1000.0 / self.fps

    def within_band(self, latency_ms: float) -> bool:
        """True when ``latency_ms`` is inside the tolerance band."""
        return abs(latency_ms - self.latency_ms) < self.tolerance_ms

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.fps:.0f} FPS @ {self.clock_mhz:.0f} MHz (±{self.tolerance_ms:.0f} ms)"


@dataclass(frozen=True)
class ResourceConstraint:
    """A resource budget, usually the full capacity of the target device."""

    budget: ResourceVector
    utilization_limit: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization_limit <= 1.0:
            raise ValueError("utilization_limit must be in (0, 1]")

    @classmethod
    def for_device(cls, device: FPGADevice, utilization_limit: float = 1.0) -> "ResourceConstraint":
        """Build the constraint corresponding to a device's full capacity."""
        return cls(budget=device.resources, utilization_limit=utilization_limit)

    @functools.cached_property
    def effective_budget(self) -> ResourceVector:
        """The budget scaled by the utilization limit, built once per constraint."""
        return self.budget.scale(self.utilization_limit)

    def satisfied_by(self, usage: ResourceVector) -> bool:
        """True when ``usage`` fits within the effective budget."""
        return usage.fits_within(self.effective_budget)
