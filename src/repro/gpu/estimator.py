"""AutoHLS-shaped estimation engine over the GPU roofline model.

:class:`GPURooflineEngine` gives the GPU backend the same engine surface the
FPGA backend gets from :class:`repro.core.auto_hls.AutoHLS`: a scalar
``estimate(config)``, a vectorized ``estimate_batch(configs)`` that an
:class:`~repro.search.cache.EvaluationCache` built on ``estimate`` uses, and the
``device`` / ``clock_mhz`` / ``coefficients`` attributes the sweep plumbing
reads.  There is no ``fit_models`` and no ``generate``: the roofline model is
fit-free and produces no HLS artifacts, so ``coefficients`` stays ``None``
and :meth:`repro.core.auto_dnn.AutoDNN.refine_with_hls` passes candidates
through untouched.

Bit-identity contract (as :meth:`repro.hw.evaluator.FPGAEvaluator.estimate_batch`):
``estimate_batch`` must return exactly what a scalar loop would.  The scalar
model accumulates per-layer latencies left to right, so the batch path adds
one *layer column* at a time across the whole batch — elementwise IEEE ops in
the scalar order — and pads shorter networks with exact ``+0.0`` terms.
Journals and disk caches therefore do not depend on which path ran.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

import repro.telemetry as telemetry
from repro.gpu.device import GPUDevice
from repro.gpu.latency import GPULatencyModel
from repro.hw.analytical import PerformanceEstimate
from repro.hw.resource import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dnn_config import DNNConfig

#: Layer kinds fused into the preceding kernel by GPU inference engines
#: (must match :meth:`GPULatencyModel.latency_ms`).
_FUSED_KINDS = ("activation", "norm")

#: Default inference precision: the Table 2 GPU baselines run FP16.
DEFAULT_PRECISION_BYTES = 2.0


class GPURooflineEngine:
    """Scalar + batch DNN-config estimation on a GPU roofline model."""

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

    def estimate_batch(self, configs: Sequence["DNNConfig"]) -> list[PerformanceEstimate]:
        """Vectorized estimation, bit-identical to the scalar loop."""
        configs = list(configs)
        if not configs:
            return []
        model = self.latency_model
        rows: list[list[tuple[int, float]]] = []
        for config in configs:
            workload = config.to_workload()
            row = []
            for layer in workload.layers:
                if layer.kind in _FUSED_KINDS:
                    continue
                traffic = (
                    layer.input_elements + layer.output_elements + layer.params
                ) * self.precision_bytes
                row.append((layer.macs, traffic))
            rows.append(row)
        count = len(configs)
        width = max(len(row) for row in rows)
        totals = np.zeros(count, dtype=np.float64)
        if width:
            macs = np.zeros((count, width), dtype=np.float64)
            traffic = np.zeros((count, width), dtype=np.float64)
            valid = np.zeros((count, width), dtype=bool)
            for i, row in enumerate(rows):
                for j, (layer_macs, layer_traffic) in enumerate(row):
                    macs[i, j] = layer_macs
                    traffic[i, j] = layer_traffic
                    valid[i, j] = True
            compute_denom = model.device.peak_macs_per_second * model.compute_efficiency
            memory_denom = model.device.memory_bandwidth_gbps * 1e9 * model.memory_efficiency
            launch_s = model.kernel_launch_us * 1e-6
            per_layer_ms = (
                np.maximum(macs / compute_denom, traffic / memory_denom) + launch_s
            ) * 1e3
            # Padding slots must contribute an exact +0.0 (the launch overhead
            # above made them non-zero), preserving each config's scalar
            # left-to-right accumulation bit for bit.
            per_layer_ms[~valid] = 0.0
            for j in range(width):
                totals = totals + per_layer_ms[:, j]
        reg = telemetry.registry()
        if reg is not None:
            reg.counter("gpu.estimate.count").inc(count)
        return [
            PerformanceEstimate(latency_ms=float(total), resources=ResourceVector())
            for total in totals
        ]
