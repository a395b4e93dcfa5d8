"""Tile-Arch: the low-latency tile-based pipeline accelerator template.

An accelerator built from this template (Sec. 4.3 of the paper) has:

* **layer-level IP reuse** — a folded structure where the DNN layers execute
  sequentially on a small set of IP instances shared across layers,
* **tile-level IP reuse** — intermediate feature maps are partitioned into
  tiles of a common size; an IP instance is reused across tiles, and tiles
  flow directly between the IP instances of subsequent layers through
  on-chip buffers,
* **tile-level pipelining** — tiles have no data dependencies within a
  layer, so computation on tile ``t`` of layer ``l+1`` overlaps with tile
  ``t+1`` of layer ``l``.

:class:`TileArchAccelerator` assembles the IP instances, the buffer plan and
the tiling for a given network workload on a given device.  The cycle-level
behaviour is simulated by :class:`repro.hw.pipeline.TilePipelineSimulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.hw.device import FPGADevice
from repro.hw.ip import IPConfig, IPInstance
from repro.hw.ip_library import IPLibrary, default_ip_library
from repro.hw.memory import OnChipBufferPlan, plan_on_chip_buffers
from repro.hw.resource import ResourceVector
from repro.hw.tiling import TileConfig, choose_tile_config
from repro.hw.workload import LayerWorkload, NetworkWorkload
from repro.nn.quantization import QuantizationScheme


#: LUT / FF overhead of the top-level control FSM, AXI interfaces and
#: multiplexers (the ``Res_ctl`` term of Eq. 5).
CONTROL_OVERHEAD = ResourceVector(lut=3600.0, ff=5200.0, dsp=0.0, bram=4.0)


@dataclass
class BundleHardware:
    """The hardware realisation of one Bundle: its IP instances in order."""

    instances: list[IPInstance]
    signature: str = ""

    def instance_resources(
        self, tile_width: int, max_in_channels: int, max_out_channels: int
    ) -> ResourceVector:
        """The ``sum_j Res_j`` term of Eq. 1, accumulated in instance order."""
        total = ResourceVector.zero()
        for instance in self.instances:
            total = total + instance.resources(tile_width, max_in_channels, max_out_channels)
        return total

    def resources(
        self, tile_width: int, max_in_channels: int, max_out_channels: int,
        overhead: ResourceVector | None = None,
    ) -> ResourceVector:
        """Bundle resource usage: sum of IP resources plus glue logic (Eq. 1)."""
        total = self.instance_resources(tile_width, max_in_channels, max_out_channels)
        # Gamma_i: multiplexing / control overhead that grows with the number
        # of IP instances stitched together.
        glue = overhead or ResourceVector(
            lut=420.0 * len(self.instances), ff=600.0 * len(self.instances), dsp=0.0, bram=0.0
        )
        return total + glue

    def instance_for(self, layer: LayerWorkload) -> IPInstance:
        """The IP instance that executes ``layer``; raises if none matches."""
        for instance in self.instances:
            if instance.template.supports(layer):
                return instance
        raise KeyError(f"No IP instance in the bundle supports layer {layer.kind} k={layer.kernel}")


def build_bundle_hardware(
    layers: Iterable[LayerWorkload],
    config: IPConfig,
    library: Optional[IPLibrary] = None,
) -> BundleHardware:
    """Instantiate one IP per distinct template the layers need.

    Shared by :meth:`TileArchAccelerator.build` and the FPGA evaluator
    (:mod:`repro.hw.evaluator`), which must agree exactly on the instance
    order — :meth:`BundleHardware.instance_for` resolves layers to the
    *first* supporting instance, so the order is semantically load-bearing.
    ``layers`` may be a :class:`NetworkWorkload` (it iterates its layers).
    """
    library = library or default_ip_library()
    instances: list[IPInstance] = []
    seen: set[str] = set()
    signature_parts: list[str] = []
    for layer in layers:
        template = library.template_for_layer(layer)
        if template.name in seen:
            continue
        seen.add(template.name)
        instances.append(
            template.instantiate(config, name=f"{template.name}_p{config.parallel_factor}")
        )
        if template.kind in ("conv", "dwconv"):
            signature_parts.append(template.name)
    return BundleHardware(instances=instances, signature="+".join(signature_parts))


def plan_buffers(
    tile: TileConfig,
    max_channels: int,
    feature_bits: int,
    weight_bits: int,
    extents: tuple[int, int, int],
    parallel_factor: int,
) -> OnChipBufferPlan:
    """The accelerator's on-chip buffer plan (``extents`` as
    :meth:`NetworkWorkload.compute_extents` returns them).  The shared weight
    buffer streams ``max(sqrt(PF), 4)`` output channels at a time."""
    max_kernel, max_in, max_out = extents
    return plan_on_chip_buffers(
        tile.tile_height, tile.tile_width, max_channels, feature_bits, weight_bits,
        max_kernel, max_in, max_out,
        weight_group=max(int(math.sqrt(parallel_factor)), 4),
    )


@dataclass
class TileArchAccelerator:
    """A Tile-Arch accelerator configured for one network workload.

    Attributes
    ----------
    workload:
        The DNN the accelerator executes.
    device:
        Target FPGA device.
    bundle_hw:
        IP instances shared by all Bundle repetitions (folded structure).
    tile:
        Common tile size used across layers.
    buffers:
        On-chip buffer plan.
    clock_mhz:
        Accelerator clock frequency.
    """

    workload: NetworkWorkload
    device: FPGADevice
    bundle_hw: BundleHardware
    tile: TileConfig
    buffers: OnChipBufferPlan
    clock_mhz: float

    # -------------------------------------------------------------- building
    @classmethod
    def build(
        cls,
        workload: NetworkWorkload,
        device: FPGADevice,
        parallel_factor: int = 8,
        quantization: Optional[QuantizationScheme] = None,
        library: Optional[IPLibrary] = None,
        tile: Optional[TileConfig] = None,
        clock_mhz: Optional[float] = None,
    ) -> "TileArchAccelerator":
        """Assemble an accelerator for ``workload`` on ``device``.

        One IP instance is created per distinct IP template required by the
        workload (layer-level IP reuse); all instances share the same
        parallel factor and quantization scheme so that BRAM buffers can be
        reused across IPs, as the paper's DNN initialization prescribes.
        """
        library = library or default_ip_library()
        quantization = quantization or QuantizationScheme(
            f"w{workload.weight_bits}a{workload.feature_bits}",
            workload.weight_bits,
            workload.feature_bits,
        )
        config = IPConfig(parallel_factor=parallel_factor, quantization=quantization)
        bundle_hw = build_bundle_hardware(workload, config, library)

        tile = tile or choose_tile_config(workload, device)
        buffers = plan_buffers(
            tile, workload.max_channels, workload.feature_bits, workload.weight_bits,
            workload.compute_extents(), parallel_factor,
        )
        return cls(
            workload=workload,
            device=device,
            bundle_hw=bundle_hw,
            tile=tile,
            buffers=buffers,
            clock_mhz=clock_mhz or device.default_clock_mhz,
        )

    # ------------------------------------------------------------- resources
    def resources(self) -> ResourceVector:
        """Total resource usage of the accelerator (Eq. 5)."""
        _, max_in, max_out = self.workload.compute_extents()
        bundle_res = self.bundle_hw.resources(self.tile.tile_width, max_in, max_out)
        return bundle_res + self.buffers.as_resource() + CONTROL_OVERHEAD

    def utilization(self):
        """Resource usage as a fraction of the device capacity."""
        return self.device.utilization(self.resources())

    def fits(self, margin: float = 1.0) -> bool:
        """True when the accelerator fits on the device."""
        return self.device.fits(self.resources(), margin=margin)

    # ----------------------------------------------------------------- stats
    def tiles_per_layer(self, layer: LayerWorkload) -> int:
        """Number of tiles processed for one layer (IP reuse count per layer)."""
        return self.tile.num_tiles(layer.out_height, layer.out_width)

    def describe(self) -> str:
        """Readable multi-line description of the accelerator configuration."""
        util = self.utilization()
        lines = [
            f"Tile-Arch accelerator for '{self.workload.name}' on {self.device.name}",
            f"  clock            : {self.clock_mhz:.0f} MHz",
            f"  tile size        : {self.tile}",
            f"  IP instances     : {', '.join(i.name for i in self.bundle_hw.instances)}",
            f"  quantization     : w{self.workload.weight_bits}/a{self.workload.feature_bits}",
            f"  LUT/FF/DSP/BRAM  : "
            f"{util.lut:.1%} / {util.ff:.1%} / {util.dsp:.1%} / {util.bram:.1%}",
        ]
        return "\n".join(lines)
