"""Configurable IP templates and instances.

The accelerator is built from a pool of configurable IP templates (Table 1:
``IP_1 .. IP_m``): each template supports one basic DNN layer type (conv,
depth-wise conv, pooling, ...).  When a DNN uses a layer type, the template
is instantiated into an IP instance ``p_j`` configured with a parallelism
factor ``PF_j`` and a quantization scheme ``Q_j``; the instance is then
reused across all layers of that type (layer-level IP reuse) and across data
tiles (tile-level IP reuse).

The latency and resource numbers produced here are what the analytical
models (Eqs. 1-5) and the tile pipeline simulator consume.  They model an
HLS-style line-buffered convolution engine:

* latency per tile = pipeline-fill depth + MACs / (PF * macs_per_dsp),
* DSP usage = PF (each lane packs two 8-bit MACs into one DSP when the
  quantization allows it),
* LUT / FF usage = a base control cost plus a per-lane cost,
* BRAM usage = weight buffer + line buffers + tile output buffer, all sized
  by the quantization scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.resource import ResourceVector
from repro.hw.workload import LayerWorkload
from repro.nn.quantization import QuantizationScheme, W16A16


@dataclass(frozen=True)
class IPConfig:
    """Configuration of an IP instance: parallelism factor and quantization."""

    parallel_factor: int = 8
    quantization: QuantizationScheme = W16A16

    def __post_init__(self) -> None:
        if self.parallel_factor <= 0:
            raise ValueError("parallel_factor must be positive")


@dataclass(frozen=True)
class IPTemplate:
    """A configurable IP template for one DNN layer type.

    Attributes
    ----------
    name:
        Template key, e.g. ``"conv3x3"`` or ``"pool"``.
    kind:
        Layer kind the template executes (``conv``, ``dwconv``, ``pool``,
        ``activation``, ``norm``).
    kernel:
        Kernel size baked into the template (0 = any).
    uses_dsp:
        Whether the multiply-accumulate datapath consumes DSP slices.
    base_lut, lut_per_lane:
        Control-logic LUT cost and per-parallel-lane LUT cost.
    base_ff, ff_per_lane:
        Flip-flop costs.
    pipeline_depth:
        Pipeline fill latency in cycles.
    efficiency:
        Fraction of the peak lane throughput the IP sustains in practice
        (initiation intervals above one, edge tiles that underfill the lanes,
        layers whose channel count is smaller than the parallel factor).
    """

    name: str
    kind: str
    kernel: int = 0
    uses_dsp: bool = True
    base_lut: float = 600.0
    lut_per_lane: float = 95.0
    base_ff: float = 900.0
    ff_per_lane: float = 140.0
    pipeline_depth: int = 24
    efficiency: float = 0.45

    def instantiate(self, config: IPConfig, name: str | None = None) -> "IPInstance":
        """Create a configured instance of this template."""
        return IPInstance(template=self, config=config, name=name or self.name)

    def supports(self, layer: LayerWorkload) -> bool:
        """True when the template can execute ``layer``."""
        if layer.kind == "head":
            return self.kind == "conv" and self.kernel in (0, 1)
        if layer.kind != self.kind:
            return False
        return self.kernel == 0 or self.kernel == layer.kernel


@dataclass(frozen=True)
class IPInstance:
    """A configured IP instance ``p_j`` with latency / resource models."""

    template: IPTemplate
    config: IPConfig
    name: str

    # ------------------------------------------------------------- shortcuts
    @property
    def parallel_factor(self) -> int:
        return self.config.parallel_factor

    @property
    def quantization(self) -> QuantizationScheme:
        return self.config.quantization

    @property
    def kind(self) -> str:
        return self.template.kind

    # --------------------------------------------------------------- latency
    def macs_per_cycle(self) -> float:
        """Effective (sustained) multiply-accumulates per clock cycle."""
        if not self.template.uses_dsp:
            # Pooling / activation / norm lanes are LUT-based comparators or
            # adders; one lane handles one element per cycle.
            return float(self.parallel_factor) * self.template.efficiency
        peak = float(self.parallel_factor * self.quantization.macs_per_dsp)
        return peak * self.template.efficiency

    def cycles_for(self, macs: float, pipelined_calls: int = 1) -> float:
        """Cycles to execute ``macs`` multiply-accumulates on this instance.

        ``pipelined_calls`` is the number of times the IP is invoked for the
        work (each invocation pays the pipeline-fill latency once).
        """
        if macs < 0:
            raise ValueError("macs must be non-negative")
        compute = macs / self.macs_per_cycle()
        fill = self.template.pipeline_depth * max(pipelined_calls, 1)
        return compute + fill

    def cycles_for_layer_share(self, layer: LayerWorkload, num_tiles: int) -> float:
        """Cycles for one of ``num_tiles`` equal shares of a layer's work.

        The per-tile work is the layer's total MACs divided by the tile
        count, so summing over all tiles reproduces the layer's exact MAC
        count even when the tile grid does not divide the feature map
        evenly.
        """
        share = layer.macs / max(num_tiles, 1)
        return self.cycles_for(share, pipelined_calls=1)

    # -------------------------------------------------------------- resource
    def dsp_usage(self) -> float:
        """DSP slices consumed by the multiply-accumulate lanes."""
        if not self.template.uses_dsp:
            return 0.0
        # Two 8-bit MACs can share one DSP48 slice.
        return math.ceil(self.parallel_factor / self.quantization.macs_per_dsp)

    def lut_usage(self) -> float:
        lanes = self.parallel_factor
        width_scale = max(self.quantization.weight_bits, self.quantization.feature_bits) / 16.0
        return self.template.base_lut + self.template.lut_per_lane * lanes * (0.6 + 0.4 * width_scale)

    def ff_usage(self) -> float:
        lanes = self.parallel_factor
        width_scale = max(self.quantization.weight_bits, self.quantization.feature_bits) / 16.0
        return self.template.base_ff + self.template.ff_per_lane * lanes * (0.6 + 0.4 * width_scale)

    def weight_buffer_bram(self, max_in_channels: int, max_out_channels: int) -> float:
        """BRAM (18Kb blocks) for this IP's private weight working set.

        The shared streaming weight buffer is owned by the accelerator-level
        buffer plan (the paper's "BRAM buffer reuse across IPs"); only the
        depth-wise IPs keep a small private filter store because their whole
        filter bank (``kernel^2 * C``) is tiny and reloading it per tile
        would waste bandwidth.
        """
        if self.kind != "dwconv":
            return 0.0
        kernel = self.template.kernel or 3
        weights = kernel * kernel * max_in_channels
        bits = weights * self.quantization.weight_bits
        del max_out_channels
        return math.ceil(bits / (18 * 1024))

    def line_buffer_bram(self, tile_width: int, max_channels: int) -> float:
        """BRAM for the (kernel-1) line buffers of a tiled convolution."""
        kernel = self.template.kernel or 1
        if kernel <= 1 or self.kind not in ("conv", "dwconv"):
            return 0.0
        bits = (kernel - 1) * tile_width * max_channels * self.quantization.feature_bits
        return math.ceil(bits / (18 * 1024))

    def resources(
        self,
        tile_width: int = 40,
        max_in_channels: int = 256,
        max_out_channels: int = 256,
    ) -> ResourceVector:
        """Total resource usage of this instance (Eq. 1 ``Res_j`` term)."""
        return ResourceVector(
            lut=self.lut_usage(),
            ff=self.ff_usage(),
            dsp=self.dsp_usage(),
            bram=self.weight_buffer_bram(max_in_channels, max_out_channels)
            + self.line_buffer_bram(tile_width, max_in_channels),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IPInstance({self.name}, PF={self.parallel_factor}, "
            f"Q={self.quantization.name})"
        )
