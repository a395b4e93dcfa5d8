"""Embedded FPGA device catalogue.

The paper targets the PYNQ-Z1 board (Zynq XC7Z020): 4.9 Mbit on-chip BRAM,
220 DSP slices, 53,200 LUTs, 106,400 FFs.  Additional devices are included so
that the co-design flow can be exercised on larger parts, as the paper notes
the methodology "can be easily extended ... for devices with more resources".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hw.resource import ResourceUtilization, ResourceVector


@dataclass(frozen=True)
class FPGADevice:
    """An embedded FPGA device and its board-level characteristics.

    Attributes
    ----------
    name:
        Device / board name.
    resources:
        Available programmable-logic resources (BRAM in 18Kb blocks).
    default_clock_mhz:
        Default accelerator clock.
    max_clock_mhz:
        Maximum supported accelerator clock.
    dram_bandwidth_gbps:
        Effective off-chip memory bandwidth available to the accelerator, in
        gigabytes per second.
    static_power_w:
        Board-level static power (PS + board components) in watts.
    dynamic_power_scale_w:
        Dynamic power at 100% utilization of the programmable logic at
        100 MHz; scaled linearly with clock and utilization by the power
        model.
    """

    name: str
    resources: ResourceVector
    default_clock_mhz: float = 100.0
    max_clock_mhz: float = 150.0
    dram_bandwidth_gbps: float = 1.0
    static_power_w: float = 1.5
    dynamic_power_scale_w: float = 1.0

    def __post_init__(self) -> None:
        if self.default_clock_mhz <= 0 or self.max_clock_mhz <= 0:
            raise ValueError("Clock frequencies must be positive")
        if self.default_clock_mhz > self.max_clock_mhz:
            raise ValueError("default_clock_mhz cannot exceed max_clock_mhz")
        if self.dram_bandwidth_gbps <= 0:
            raise ValueError("dram_bandwidth_gbps must be positive")

    # --------------------------------------------------------------- helpers
    def utilization(self, usage: ResourceVector) -> ResourceUtilization:
        """Express ``usage`` as fractions of this device's capacity."""
        return ResourceUtilization(
            lut=usage.lut / self.resources.lut if self.resources.lut else 0.0,
            ff=usage.ff / self.resources.ff if self.resources.ff else 0.0,
            dsp=usage.dsp / self.resources.dsp if self.resources.dsp else 0.0,
            bram=usage.bram / self.resources.bram if self.resources.bram else 0.0,
        )

    def fits(self, usage: ResourceVector, margin: float = 1.0) -> bool:
        """True when ``usage`` fits within ``margin`` of the device capacity."""
        return usage.fits_within(self.resources.scale(margin))

    def validate_clock(self, clock_mhz: float) -> float:
        """Validate an accelerator clock against this device's range.

        Returns the clock as a float; raises :class:`ValueError` when it is
        non-positive or above :attr:`max_clock_mhz`.  Used by the sweep
        grid builder so an unsupported clock axis fails before any worker
        is spawned.
        """
        clock = float(clock_mhz)
        if clock <= 0:
            raise ValueError(f"clock must be positive, got {clock:g} MHz")
        if clock > self.max_clock_mhz:
            raise ValueError(
                f"{self.name} supports at most {self.max_clock_mhz:g} MHz, "
                f"got {clock:g} MHz"
            )
        return clock

    def cycle_time_ns(self, clock_mhz: float | None = None) -> float:
        """Clock period in nanoseconds."""
        clock = self.default_clock_mhz if clock_mhz is None else clock_mhz
        if clock <= 0:
            raise ValueError("clock must be positive")
        return 1000.0 / clock


#: PYNQ-Z1 (Zynq-7020): the paper's target board.
PYNQ_Z1 = FPGADevice(
    name="PYNQ-Z1",
    resources=ResourceVector(lut=53_200, ff=106_400, dsp=220, bram=280),
    default_clock_mhz=100.0,
    max_clock_mhz=150.0,
    dram_bandwidth_gbps=1.05,
    static_power_w=1.55,
    dynamic_power_scale_w=0.78,
)

#: Ultra96 (Zynq UltraScale+ ZU3EG).
ULTRA96 = FPGADevice(
    name="Ultra96",
    resources=ResourceVector(lut=70_560, ff=141_120, dsp=360, bram=432),
    default_clock_mhz=150.0,
    max_clock_mhz=300.0,
    dram_bandwidth_gbps=2.1,
    static_power_w=1.8,
    dynamic_power_scale_w=1.0,
)

#: ZC706 (Zynq-7045): a mid-range development board.
ZC706 = FPGADevice(
    name="ZC706",
    resources=ResourceVector(lut=218_600, ff=437_200, dsp=900, bram=1090),
    default_clock_mhz=150.0,
    max_clock_mhz=200.0,
    dram_bandwidth_gbps=3.2,
    static_power_w=3.0,
    dynamic_power_scale_w=2.4,
)

_DEVICES = {d.name.lower(): d for d in (PYNQ_Z1, ULTRA96, ZC706)}


def get_device(name: str) -> FPGADevice:
    """Look up a device from the catalogue by (case-insensitive) name."""
    key = name.lower()
    if key not in _DEVICES:
        raise KeyError(f"Unknown device '{name}'. Available: {sorted(_DEVICES)}")
    return _DEVICES[key]


def list_devices() -> list[str]:
    """Names of all devices in the catalogue."""
    return sorted(d.name for d in _DEVICES.values())


def resolve_devices(spec: str | Sequence[str]) -> list[FPGADevice]:
    """Resolve a multi-device spec to catalogue devices.

    ``spec`` is either a comma-separated string (``"pynq-z1,ultra96"``) or a
    sequence of names; the keyword ``all`` expands to the whole catalogue.
    Order is preserved, duplicates are dropped, and unknown names raise the
    same :class:`KeyError` as :func:`get_device`.
    """
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = [str(part).strip() for part in spec if str(part).strip()]
    if not names:
        raise ValueError("At least one device name is required")
    resolved: list[FPGADevice] = []
    for name in names:
        batch = (
            [_DEVICES[key] for key in sorted(_DEVICES)]
            if name.lower() == "all"
            else [get_device(name)]
        )
        for device in batch:
            if device not in resolved:
                resolved.append(device)
    return resolved
