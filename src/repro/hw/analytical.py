"""Analytical Bundle / DNN performance and resource models (Eqs. 1-5).

These models provide the fast latency / resource estimates used inside the
DNN search loop, where invoking the full tile-pipeline simulator for every
SCD move would be too slow.  Their coefficients (alpha, beta, Gamma, phi,
gamma) are fitted against the simulator by :mod:`repro.hw.sampling`, which
plays the role of the paper's "Auto-HLS sampling".

The equations implemented here:

* ``Res_bund_i  = sum_j Res_j + Gamma_i``                      (Eq. 1)
* ``Lat_bund_i  = alpha_i * sum_j Comp_j + beta_i * Theta(Data_i) / bw``  (Eq. 2)
* ``Comp_j      = sum reuse_j * lat_j``                        (Eq. 3)
* ``Lat_DNN     = sum_i Lat_bund_i + phi * Lat_DM``            (Eq. 4)
* ``Res_DNN     = Res_bund + gamma * Res_ctl``                 (Eq. 5)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import repro.telemetry as telemetry
from repro.hw.memory import DRAMTrafficModel
from repro.hw.resource import ResourceVector
from repro.hw.tile_arch import CONTROL_OVERHEAD, BundleHardware, TileArchAccelerator
from repro.hw.tiling import TileConfig
from repro.hw.workload import LayerWorkload, NetworkWorkload


@dataclass(frozen=True)
class AnalyticalModelCoefficients:
    """Fitted coefficients of the analytical models.

    Attributes
    ----------
    alpha:
        Compute-overlap factor of Eq. 2 (1.0 = no overlap between IPs;
        values below 1.0 mean tile-level pipelining hides part of the
        compute).
    beta:
        Data-transfer overlap factor of Eq. 2 (fraction of the on-/off-chip
        data movement that is *not* hidden behind computation).
    gamma_lut, gamma_ff, gamma_bram:
        Per-bundle glue-logic overhead (the Gamma term of Eq. 1).
    phi:
        Weight of the inter-bundle data-movement latency in Eq. 4.
    ctl_gamma:
        Weight of the control-logic overhead in Eq. 5.
    """

    alpha: float = 0.72
    beta: float = 0.38
    gamma_lut: float = 850.0
    gamma_ff: float = 1200.0
    gamma_bram: float = 2.0
    phi: float = 1.0
    ctl_gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError("alpha must be positive and beta non-negative")
        if self.phi < 0 or self.ctl_gamma < 0:
            raise ValueError("phi and ctl_gamma must be non-negative")

    def with_updates(self, **kwargs) -> "AnalyticalModelCoefficients":
        """Return a copy with selected coefficients replaced."""
        return replace(self, **kwargs)


#: Default coefficients; refined by Auto-HLS sampling for each bundle.
DEFAULT_COEFFICIENTS = AnalyticalModelCoefficients()


def bundle_layer_groups(workload: NetworkWorkload) -> list[list[LayerWorkload]]:
    """Partition a workload's layers into the per-bundle groups of Eq. 4.

    One group per bundle index (in ascending order), with the stray layers
    (stem / head, ``bundle_index < 0``) forming a trailing group.  A workload
    with no bundle structure is a single group.
    """
    indices = workload.bundle_indices()
    if not indices:
        return [list(workload.layers)]
    groups = [workload.layers_in_bundle(i) for i in indices]
    stray = [l for l in workload.layers if l.bundle_index < 0]
    if stray:
        groups.append(stray)
    return groups


@dataclass(frozen=True)
class PerformanceEstimate:
    """Latency and resource estimate of a design."""

    latency_ms: float
    resources: ResourceVector
    compute_ms: float = 0.0
    data_movement_ms: float = 0.0

    @property
    def fps(self) -> float:
        """Frames per second corresponding to the single-frame latency."""
        if self.latency_ms <= 0:
            return float("inf")
        return 1000.0 / self.latency_ms


def segment_cycles(bundle_hw: BundleHardware, tile: TileConfig, layers) -> float:
    """The ``sum_j Comp_j`` term of Eq. 2 for one layer group: IP compute,
    reuse-weighted (Eq. 3), accumulated in layer order."""
    total = 0.0
    for layer in layers:
        instance = bundle_hw.instance_for(layer)
        reuse = tile.num_tiles(layer.out_height, layer.out_width)
        total += reuse * instance.cycles_for_layer_share(layer, reuse)
    return total


def segment_transfer_ms(
    dram: DRAMTrafficModel, layers, feature_bits: int, weight_bits: int
) -> float:
    """DMA latency of ``Theta(Data_i)`` (Eq. 2): the bytes a layer group moves
    for its input, output and weights, one burst per layer."""
    data_bytes = 0.0
    if layers:
        input_bytes = layers[0].input_elements * feature_bits / 8.0
        output_bytes = layers[-1].output_elements * feature_bits / 8.0
        weight_bytes = sum(l.params for l in layers) * weight_bits / 8.0
        data_bytes = input_bytes + output_bytes + weight_bytes
    return dram.transfer_latency_ms(data_bytes, bursts=max(len(layers), 1))


def glue_overhead(
    coefficients: AnalyticalModelCoefficients, num_instances: int
) -> ResourceVector:
    """The ``Gamma_i`` term of Eq. 1: glue logic per stitched IP instance."""
    return ResourceVector(
        lut=coefficients.gamma_lut * num_instances,
        ff=coefficients.gamma_ff * num_instances,
        dsp=0.0,
        bram=coefficients.gamma_bram,
    )


def combine_segments(
    segments,
    lat_dm_ms: float,
    bundle_resources: ResourceVector,
    buffer_bram: float,
    coefficients: AnalyticalModelCoefficients,
    clock_mhz: float,
) -> PerformanceEstimate:
    """Eqs. 2, 4 and 5 from the coefficient-free pieces of one network.

    ``segments`` holds one ``(Eq. 3 cycles, Theta(Data) transfer ms)`` pair
    per Eq. 4 layer group, in :func:`bundle_layer_groups` order;
    ``bundle_resources`` is the Eq. 1 bundle total.  Every estimate —
    :class:`DNNPerformanceModel` and the FPGA evaluator alike — is folded
    here, so both perform the same float operations in the same order.
    """
    coeff = coefficients
    denom = clock_mhz * 1e3
    total_latency = 0.0
    compute_ms = 0.0
    transfer_ms = 0.0
    for cycles, seg_transfer_ms in segments:
        seg_compute = coeff.alpha * (cycles / denom)
        seg_transfer = coeff.beta * seg_transfer_ms
        total_latency += seg_compute + seg_transfer
        compute_ms += seg_compute
        transfer_ms += seg_transfer
    # phi * Lat_DM: inter-bundle data movement plus frame I/O.
    phi_dm = coeff.phi * lat_dm_ms
    total_latency += phi_dm
    transfer_ms += phi_dm
    # Eq. 5: the folded architecture shares one bundle's hardware across
    # repetitions, so the DNN resource is the bundle resource plus buffers
    # and control overhead.
    resources = (
        bundle_resources
        + ResourceVector(bram=buffer_bram)
        + CONTROL_OVERHEAD.scale(coeff.ctl_gamma)
    )
    return PerformanceEstimate(
        latency_ms=total_latency,
        resources=resources,
        compute_ms=compute_ms,
        data_movement_ms=transfer_ms,
    )


class BundlePerformanceModel:
    """Latency / resource model of one Bundle repetition (Eqs. 1-3)."""

    def __init__(
        self,
        accelerator: TileArchAccelerator,
        coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
    ) -> None:
        self.accelerator = accelerator
        self.coefficients = coefficients
        self.dram = DRAMTrafficModel(accelerator.device)

    # --------------------------------------------------------------- latency
    def compute_latency_cycles(self, layers: list[LayerWorkload]) -> float:
        """The ``sum_j Comp_j`` term of Eq. 2: IP compute, reuse-weighted (Eq. 3)."""
        return segment_cycles(self.accelerator.bundle_hw, self.accelerator.tile, layers)

    def transfer_ms(self, layers: list[LayerWorkload]) -> float:
        """DMA latency of ``Theta(Data_i)`` for one layer group."""
        workload = self.accelerator.workload
        return segment_transfer_ms(self.dram, layers, workload.feature_bits, workload.weight_bits)

    def latency_ms(
        self,
        layers: list[LayerWorkload],
        resources: ResourceVector | None = None,
    ) -> PerformanceEstimate:
        """Eq. 2 latency of one bundle repetition.

        ``resources`` accepts a precomputed :meth:`resources` vector so
        callers scoring many layer groups against the same bundle hardware
        pay for Eq. 1 once, not once per group.
        """
        coeff = self.coefficients
        compute_ms = self.compute_latency_cycles(layers) / (self.accelerator.clock_mhz * 1e3)
        transfer_ms = self.transfer_ms(layers)
        latency = coeff.alpha * compute_ms + coeff.beta * transfer_ms
        return PerformanceEstimate(
            latency_ms=latency,
            resources=self.resources() if resources is None else resources,
            compute_ms=coeff.alpha * compute_ms,
            data_movement_ms=coeff.beta * transfer_ms,
        )

    # -------------------------------------------------------------- resources
    def resources(self) -> ResourceVector:
        """Eq. 1 resource usage of the bundle hardware."""
        acc = self.accelerator
        _, max_in, max_out = acc.workload.compute_extents()
        total = acc.bundle_hw.instance_resources(acc.tile.tile_width, max_in, max_out)
        return total + glue_overhead(self.coefficients, len(acc.bundle_hw.instances))


class DNNPerformanceModel:
    """Whole-DNN latency / resource model (Eqs. 4-5).

    The reference implementation: it rebuilds everything from one
    :class:`TileArchAccelerator`.  Search traffic goes through
    :class:`repro.hw.evaluator.FPGAEvaluator`, which memoizes the same
    pieces and must equal this model bit for bit.
    """

    def __init__(
        self,
        accelerator: TileArchAccelerator,
        coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
    ) -> None:
        self.accelerator = accelerator
        self.coefficients = coefficients
        self.bundle_model = BundlePerformanceModel(accelerator, coefficients)
        self.dram = DRAMTrafficModel(accelerator.device)

    def estimate(self) -> PerformanceEstimate:
        """Eq. 4 latency and Eq. 5 resources of the full DNN."""
        reg = telemetry.registry()
        if reg is None:
            return self._estimate()
        start = time.perf_counter()
        value = self._estimate()
        reg.counter("hw.estimate.count").inc()
        reg.histogram("hw.estimate.seconds").observe(time.perf_counter() - start)
        return value

    def _estimate(self) -> PerformanceEstimate:
        workload = self.accelerator.workload
        # Eq. 1 depends only on the bundle hardware, not on the layer group
        # being scored — compute it once per estimate, not once per group.
        bundle_resources = self.bundle_model.resources()
        segments = [
            (self.bundle_model.compute_latency_cycles(layers), self.bundle_model.transfer_ms(layers))
            for layers in bundle_layer_groups(workload)
        ]
        lat_dm = (
            self.dram.inter_bundle_latency_ms(workload)
            + self.dram.input_output_latency_ms(workload)
        )
        return combine_segments(
            segments, lat_dm, bundle_resources, self.accelerator.buffers.total_bram,
            self.coefficients, self.accelerator.clock_mhz,
        )

    def latency_ms(self) -> float:
        return self.estimate().latency_ms

    def resources(self) -> ResourceVector:
        return self.estimate().resources
