"""Embedded GPU device descriptions."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUDevice:
    """An embedded GPU and its board-level characteristics.

    Attributes
    ----------
    name:
        Device name.
    clock_mhz:
        GPU core clock.
    cuda_cores:
        Number of CUDA cores (2 FLOPs per core per cycle for FMA).
    memory_bandwidth_gbps:
        DRAM bandwidth in GB/s.
    idle_power_w:
        Board idle power.
    max_power_w:
        Board power at full load.
    """

    name: str
    clock_mhz: float
    cuda_cores: int
    memory_bandwidth_gbps: float
    idle_power_w: float
    max_power_w: float

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0 or self.cuda_cores <= 0:
            raise ValueError("clock and core counts must be positive")
        if self.max_power_w <= self.idle_power_w:
            raise ValueError("max_power_w must exceed idle_power_w")

    @property
    def peak_macs_per_second(self) -> float:
        """Peak multiply-accumulate throughput (one MAC per core per cycle)."""
        return self.cuda_cores * self.clock_mhz * 1e6

    def validate_clock(self, clock_mhz: float) -> float:
        """GPU targets run at a fixed board clock; only that clock is valid.

        Mirrors :meth:`repro.hw.device.FPGADevice.validate_clock` so the
        sweep grid's ``--clocks`` axis fails loudly instead of silently
        mis-modelling a clock the roofline constants were not derived for.
        """
        if clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if float(clock_mhz) != self.clock_mhz:
            raise ValueError(
                f"{self.name} runs at a fixed {self.clock_mhz:g} MHz clock; "
                f"cannot sweep {clock_mhz:g} MHz"
            )
        return self.clock_mhz


#: Jetson-TX2-class embedded GPU at the contest clock of 854 MHz.
JETSON_TX2 = GPUDevice(
    name="Jetson TX2 (854 MHz)",
    clock_mhz=854.0,
    cuda_cores=256,
    memory_bandwidth_gbps=58.3,
    idle_power_w=4.5,
    max_power_w=15.0,
)

#: Slug-keyed catalogue of the known GPU targets (the slug is what target
#: specs such as ``gpu:jetson-tx2`` name; the display name stays human).
_DEVICES: dict[str, GPUDevice] = {
    "jetson-tx2": JETSON_TX2,
}


def get_gpu_device(name: str) -> GPUDevice:
    """Look up a GPU device by its slug (case-insensitive)."""
    try:
        return _DEVICES[name.lower()]
    except KeyError:
        raise KeyError(
            f"Unknown GPU device '{name}'. Available: {sorted(_DEVICES)}"
        ) from None


def list_gpu_devices() -> list[str]:
    """Slugs of all catalogued GPU devices, sorted."""
    return sorted(_DEVICES)


def gpu_device_slug(device: GPUDevice) -> str:
    """The catalogue slug of a device (inverse of :func:`get_gpu_device`)."""
    for slug, known in _DEVICES.items():
        if known == device:
            return slug
    raise KeyError(f"GPU device {device.name!r} is not in the catalogue")
