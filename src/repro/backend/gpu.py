"""The GPU backend: the Table 2 embedded-GPU baselines as a search target.

Lifts the roofline models of :mod:`repro.gpu` (device, latency, power) —
previously reachable only from ``experiments/table2.py`` — behind the
:class:`~repro.backend.base.Backend` protocol, so GPU targets flow through
the same search/sweep/shard/compare path as FPGAs:

* target specs are ``gpu:<slug>`` (``gpu:jetson-tx2``); the canonical device
  string keeps the prefix so GPU cells never collide with legacy FPGA
  namespaces,
* the estimation engine is :class:`repro.gpu.estimator.GPURooflineEngine`
  (scalar only),
* preparation is fit-free: no model sampling, no coefficients; bundle
  selection deterministically takes the first ``top_n`` catalogue bundles,
* the resource budget is unbounded — an embedded GPU has no LUT/FF/DSP/BRAM
  budget, so the search is constrained by the latency band alone,
* the clock is fixed at the board clock (``--clocks`` values other than the
  board clock are rejected).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.backend.base import Backend, backend_catalog
from repro.gpu.device import (
    GPUDevice,
    get_gpu_device,
    gpu_device_slug,
    list_gpu_devices,
)
from repro.gpu.estimator import GPURooflineEngine
from repro.gpu.power import GPUPowerModel


class GPUBackend(Backend):
    """Target resolution, estimation and fit-free prep for GPU devices."""

    name = "gpu"
    requires_fit = False

    # ------------------------------------------------------------ resolution
    def device_names(self) -> list[str]:
        return list_gpu_devices()

    def resolve_device(self, name: str) -> GPUDevice:
        try:
            return get_gpu_device(name)
        except KeyError:
            raise ValueError(
                f"Unknown gpu device '{name}'. {backend_catalog()}"
            ) from None

    def canonical_name(self, device: GPUDevice) -> str:
        return f"gpu:{gpu_device_slug(device)}"

    # ----------------------------------------------------------- clock/budget
    def default_clock_mhz(self, device: GPUDevice) -> float:
        return device.clock_mhz

    def validate_clock(self, device: GPUDevice, clock_mhz: float) -> float:
        return device.validate_clock(clock_mhz)

    def resource_constraint(self, device: GPUDevice, utilization_limit: float = 1.0):
        from repro.core.constraints import ResourceConstraint
        from repro.hw.resource import ResourceVector

        # No FPGA-style fabric budget: every config fits, and the roofline
        # estimates report zero resources, so the latency band is the only
        # active constraint.
        budget = ResourceVector(
            lut=math.inf, ff=math.inf, dsp=math.inf, bram=math.inf
        )
        return ResourceConstraint(budget=budget, utilization_limit=utilization_limit)

    # ------------------------------------------------------------- estimation
    def create_engine(self, device: GPUDevice, clock_mhz: Optional[float] = None):
        return GPURooflineEngine(device, clock_mhz=clock_mhz)

    def engine_fingerprint(self, engine) -> str:
        return engine.fingerprint()

    # ------------------------------------------------------------------ power
    def power_model(self, device: GPUDevice):
        return GPUPowerModel(device)
