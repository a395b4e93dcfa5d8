"""Auto-HLS sampling: fitting the analytical-model coefficients.

The paper determines the coefficients alpha, beta, Gamma (Eq. 2) and phi,
gamma (Eqs. 4-5) "through Auto-HLS sampling": a handful of representative
configurations are pushed through the HLS flow and the analytical model is
fitted to the measured results.  Here the reference comes from the
cycle-level tile-pipeline simulator; the fitting is a least-squares problem
in (alpha, beta) per bundle composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    DEFAULT_COEFFICIENTS,
    DNNPerformanceModel,
)
from repro.hw.device import FPGADevice
from repro.hw.pipeline import TilePipelineSimulator
from repro.hw.tile_arch import TileArchAccelerator
from repro.hw.workload import NetworkWorkload


@dataclass
class SamplePoint:
    """One sampled configuration and its simulated reference latency."""

    workload_name: str
    compute_ms: float
    transfer_ms: float
    simulated_ms: float


@dataclass
class SamplingResult:
    """Outcome of a coefficient-fitting run."""

    coefficients: AnalyticalModelCoefficients
    samples: list[SamplePoint]
    mean_relative_error: float


def _raw_terms(accelerator: TileArchAccelerator) -> tuple[float, float]:
    """Unscaled compute and transfer latency terms (alpha = beta = 1)."""
    unit = AnalyticalModelCoefficients(alpha=1.0, beta=1.0, phi=1.0)
    model = DNNPerformanceModel(accelerator, unit)
    est = model.estimate()
    return est.compute_ms, est.data_movement_ms


def fit_coefficients(
    workloads: list[NetworkWorkload],
    device: FPGADevice,
    parallel_factor: int = 8,
    base: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
) -> SamplingResult:
    """Fit (alpha, beta) so the analytical latency matches the simulator.

    Parameters
    ----------
    workloads:
        Representative sample workloads (the paper samples each bundle's
        configurations).
    device:
        Target FPGA.
    parallel_factor:
        PF used for the sampled accelerators.
    base:
        Starting coefficients; Gamma / phi / gamma are kept from it.

    Returns
    -------
    SamplingResult
        Fitted coefficients plus the per-sample reference data and the mean
        relative error of the fitted model on the samples.
    """
    if not workloads:
        raise ValueError("At least one sample workload is required")

    compute_terms = []
    transfer_terms = []
    references = []
    samples: list[SamplePoint] = []
    for workload in workloads:
        accelerator = TileArchAccelerator.build(
            workload, device, parallel_factor=parallel_factor
        )
        simulated = TilePipelineSimulator(accelerator).latency_ms()
        compute_ms, transfer_ms = _raw_terms(accelerator)
        compute_terms.append(compute_ms)
        transfer_terms.append(transfer_ms)
        references.append(simulated)
        samples.append(SamplePoint(workload.name, compute_ms, transfer_ms, simulated))

    design = np.column_stack([compute_terms, transfer_terms])
    target = np.asarray(references)
    # Non-negative least squares via clipping a plain least-squares solution;
    # the two regressors are positively correlated with the target by
    # construction so clipping is rarely triggered.
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    alpha = float(np.clip(solution[0], 0.05, 3.0))
    beta = float(np.clip(solution[1], 0.0, 3.0))

    fitted = base.with_updates(alpha=alpha, beta=beta)
    predictions = design @ np.array([alpha, beta])
    rel_err = float(np.mean(np.abs(predictions - target) / np.maximum(target, 1e-9)))
    return SamplingResult(coefficients=fitted, samples=samples, mean_relative_error=rel_err)
