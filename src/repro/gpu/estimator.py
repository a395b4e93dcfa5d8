"""AutoHLS-shaped estimation engine over the GPU roofline model.

:class:`GPURooflineEngine` gives the GPU backend the engine surface the
FPGA backend gets from :class:`repro.core.auto_hls.AutoHLS`: a scalar
``estimate(config)`` and the ``device`` / ``clock_mhz`` / ``coefficients``
attributes the sweep plumbing reads.  There is no ``fit_models`` and no
``generate``: the roofline model is fit-free and produces no HLS artifacts,
so ``coefficients`` stays ``None`` and
:meth:`repro.core.auto_dnn.AutoDNN.refine_with_hls` passes candidates
through untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import repro.telemetry as telemetry
from repro.gpu.device import GPUDevice
from repro.gpu.latency import GPULatencyModel
from repro.hw.analytical import PerformanceEstimate
from repro.hw.resource import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dnn_config import DNNConfig

#: Default inference precision: the Table 2 GPU baselines run FP16.
DEFAULT_PRECISION_BYTES = 2.0


class GPURooflineEngine:
    """DNN-config estimation on a GPU roofline model."""

    def __init__(
        self,
        device: GPUDevice,
        clock_mhz: Optional[float] = None,
        precision_bytes: float = DEFAULT_PRECISION_BYTES,
        latency_model: Optional[GPULatencyModel] = None,
    ) -> None:
        if clock_mhz is not None:
            clock_mhz = device.validate_clock(clock_mhz)
        self.device = device
        self.clock_mhz = device.clock_mhz
        if precision_bytes <= 0:
            raise ValueError("precision_bytes must be positive")
        self.precision_bytes = float(precision_bytes)
        self.latency_model = (
            latency_model if latency_model is not None else GPULatencyModel(device)
        )
        # Fit-free: kept for engine-interface parity with AutoHLS (the sweep
        # prep/apply path reads and writes this attribute).
        self.coefficients = None

    # -------------------------------------------------------------- fingerprint
    def fingerprint(self) -> str:
        """Stable fingerprint of the roofline constants and precision.

        Plays the role coefficient fingerprints play on the FPGA side:
        namespacing the persistent disk cache so estimates from different
        model parameterizations never share a slot.
        """
        model = self.latency_model
        return (
            f"gpu-roofline-ce{model.compute_efficiency:g}"
            f"-me{model.memory_efficiency:g}"
            f"-kl{model.kernel_launch_us:g}us"
            f"-pb{self.precision_bytes:g}"
        )

    # --------------------------------------------------------------- estimation
    def estimate(self, config: "DNNConfig") -> PerformanceEstimate:
        """Roofline latency of one config; FPGA resources are all zero."""
        workload = config.to_workload()
        latency_ms = self.latency_model.latency_ms(
            workload, precision_bytes=self.precision_bytes
        )
        reg = telemetry.registry()
        if reg is not None:
            reg.counter("gpu.estimate.count").inc()
        return PerformanceEstimate(latency_ms=latency_ms, resources=ResourceVector())
