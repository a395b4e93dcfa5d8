"""On-chip buffer sizing and off-chip memory traffic model.

Tile-Arch allocates on-chip (BRAM) buffers for intra-Bundle communication and
off-chip (DRAM) buffers for inter-Bundle communication (Fig. 3a).  This module
sizes those buffers and models the DMA latency of the off-chip transfers,
which feeds the ``beta * Theta(Data) / bw`` term of Eq. 2 and the
``phi * Lat_DM`` term of Eq. 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.device import FPGADevice
from repro.hw.resource import ResourceVector
from repro.hw.workload import LayerWorkload, NetworkWorkload

#: Fraction of the theoretical DRAM bandwidth an embedded DMA engine reaches.
DEFAULT_DMA_EFFICIENCY = 0.45
#: Fixed DMA setup cost per burst transfer, in microseconds.
DMA_SETUP_US = 3.0


@dataclass(frozen=True)
class OnChipBufferPlan:
    """Sizes (in 18Kb BRAM blocks) of the accelerator's on-chip buffers."""

    data_buffer_bram: float
    weight_buffer_bram: float
    output_buffer_bram: float

    @property
    def total_bram(self) -> float:
        return self.data_buffer_bram + self.weight_buffer_bram + self.output_buffer_bram

    def as_resource(self) -> ResourceVector:
        return ResourceVector(bram=self.total_bram)


def bram_blocks_for_bits(bits: float) -> float:
    """Number of 18Kb BRAM blocks needed to hold ``bits`` of data."""
    if bits <= 0:
        return 0.0
    return math.ceil(bits / (18 * 1024))


def plan_on_chip_buffers(
    tile_height: int,
    tile_width: int,
    max_channels: int,
    feature_bits: int,
    weight_bits: int,
    max_kernel: int,
    max_in_channels: int,
    max_out_channels: int,
    double_buffer: bool = True,
    weight_group: int = 12,
) -> OnChipBufferPlan:
    """Size the on-chip buffers of a Tile-Arch accelerator.

    The data buffers hold one tile (plus halo) of the widest intermediate
    feature map; the output buffer holds one tile of the widest output; and
    one shared weight buffer ("BRAM buffer reuse across IPs") holds the
    streaming weight working set — the filters of the ``weight_group``
    output channels currently being computed, double-buffered so the next
    group loads while the current one computes.  Double buffering also
    doubles the data/output buffers so tile ``t+1`` can be loaded while tile
    ``t`` computes.
    """
    if min(tile_height, tile_width, max_channels) <= 0:
        raise ValueError("tile dimensions and channel count must be positive")
    if weight_group <= 0:
        raise ValueError("weight_group must be positive")
    halo = max(max_kernel - 1, 0)
    tile_elems = (tile_height + halo) * (tile_width + halo) * max_channels
    data_bits = tile_elems * feature_bits
    out_bits = tile_height * tile_width * max_channels * feature_bits
    group = min(weight_group, max_out_channels)
    weight_bits_total = 2 * max_kernel * max_kernel * max_in_channels * group * weight_bits
    factor = 2.0 if double_buffer else 1.0
    return OnChipBufferPlan(
        data_buffer_bram=factor * bram_blocks_for_bits(data_bits),
        weight_buffer_bram=bram_blocks_for_bits(weight_bits_total),
        output_buffer_bram=factor * bram_blocks_for_bits(out_bits),
    )


class DRAMTrafficModel:
    """Off-chip transfer latency for inter-Bundle data movement and weights."""

    def __init__(
        self,
        device: FPGADevice,
        dma_efficiency: float = DEFAULT_DMA_EFFICIENCY,
        dma_setup_us: float = DMA_SETUP_US,
    ) -> None:
        if not 0.0 < dma_efficiency <= 1.0:
            raise ValueError("dma_efficiency must be in (0, 1]")
        self.device = device
        self.dma_efficiency = dma_efficiency
        self.dma_setup_us = dma_setup_us

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Sustained DMA bandwidth in bytes/second."""
        return self.device.dram_bandwidth_gbps * 1e9 * self.dma_efficiency

    def transfer_latency_ms(self, num_bytes: float, bursts: int = 1) -> float:
        """Latency (ms) to move ``num_bytes`` over ``bursts`` DMA transfers."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        transfer_s = num_bytes / self.effective_bandwidth_bytes_per_s
        setup_s = self.dma_setup_us * 1e-6 * max(bursts, 1)
        return (transfer_s + setup_s) * 1e3

    def boundary_latency_ms(self, layers: list[LayerWorkload], feature_bits: int) -> float:
        """DMA latency of one bundle repetition's output crossing DRAM.

        The output feature map of the repetition's last layer is written to
        DRAM and read back by the next bundle (inter-Bundle communication).
        """
        num_bytes = layers[-1].output_elements * feature_bits / 8.0 * 2.0 if layers else 0.0
        return self.transfer_latency_ms(num_bytes, bursts=2)

    def inter_bundle_latency_ms(self, workload: NetworkWorkload) -> float:
        """Total inter-Bundle data-movement latency (the ``Lat_DM`` of Eq. 4)."""
        total = 0.0
        indices = workload.bundle_indices()
        for idx in indices[:-1]:  # the final bundle's output stays tiny (head)
            total += self.boundary_latency_ms(
                workload.layers_in_bundle(idx), workload.feature_bits
            )
        return total

    def weight_streaming_latency_ms(self, workload: NetworkWorkload) -> float:
        """Latency to stream all layer weights from DRAM once per frame."""
        return self.transfer_latency_ms(workload.weight_bytes(), bursts=len(workload.layers))

    def input_output_latency_ms(self, workload: NetworkWorkload) -> float:
        """Latency to load the input image and store the final output."""
        return self.frame_io_latency_ms(workload.input_shape, workload.feature_bits)

    def frame_io_latency_ms(self, input_shape: tuple[int, int, int], feature_bits: int) -> float:
        """:meth:`input_output_latency_ms` from the two workload fields it reads."""
        c, h, w = input_shape
        input_bytes = c * h * w * feature_bits / 8.0
        output_bytes = 4 * 4.0
        return self.transfer_latency_ms(input_bytes + output_bytes, bursts=2)


def layer_tile_traffic_bytes(layer: LayerWorkload, tile_pixels: int, feature_bits: int) -> float:
    """Bytes moved through on-chip buffers for one tile of one layer."""
    out_pixels = layer.out_height * layer.out_width
    frac = min(tile_pixels / max(out_pixels, 1), 1.0)
    elems = (layer.input_elements + layer.output_elements) * frac
    return elems * feature_bits / 8.0
