"""Layer and network workload descriptions.

The hardware models do not operate on trained numpy models directly; they
consume lightweight *workload* descriptions of the computation: for every
layer, its type, kernel size, channel counts, spatial dimensions and stride.
The co-design engine builds them from a DNN configuration
(:meth:`repro.core.dnn_config.DNNConfig.to_workload`) without ever
instantiating weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

#: Computational layer kinds known to the IP library.
COMPUTE_KINDS = ("conv", "dwconv")
#: Auxiliary layer kinds (cheap on the accelerator but still scheduled).
AUX_KINDS = ("pool", "activation", "norm", "head")


@dataclass(frozen=True)
class LayerWorkload:
    """One layer's workload.

    Attributes
    ----------
    kind:
        One of ``conv``, ``dwconv``, ``pool``, ``activation``, ``norm``,
        ``head``.
    kernel:
        Square kernel size (1 for activations / norm).
    in_channels, out_channels:
        Channel counts.
    in_height, in_width:
        Input spatial dimensions.
    stride:
        Spatial stride (2 for down-sampling layers).
    bundle_index:
        Index of the Bundle repetition this layer belongs to (used for
        inter-bundle data-movement accounting); ``-1`` for head/tail layers.
    """

    kind: str
    kernel: int
    in_channels: int
    out_channels: int
    in_height: int
    in_width: int
    stride: int = 1
    bundle_index: int = -1

    def __post_init__(self) -> None:
        if self.kind not in COMPUTE_KINDS + AUX_KINDS:
            raise ValueError(f"Unknown layer kind '{self.kind}'")
        if self.kernel <= 0 or self.stride <= 0:
            raise ValueError("kernel and stride must be positive")
        if min(self.in_channels, self.out_channels, self.in_height, self.in_width) <= 0:
            raise ValueError("Channel counts and spatial dimensions must be positive")

    # ------------------------------------------------------------ geometry
    @property
    def out_height(self) -> int:
        return max(self.in_height // self.stride, 1)

    @property
    def out_width(self) -> int:
        return max(self.in_width // self.stride, 1)

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return (self.out_channels, self.out_height, self.out_width)

    # ------------------------------------------------------------- workload
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for this layer."""
        out_pixels = self.out_height * self.out_width
        if self.kind == "conv":
            return self.kernel**2 * self.in_channels * self.out_channels * out_pixels
        if self.kind == "dwconv":
            return self.kernel**2 * self.in_channels * out_pixels
        if self.kind == "pool":
            return self.kernel**2 * self.in_channels * out_pixels
        if self.kind in ("activation", "norm"):
            return self.in_channels * self.in_height * self.in_width
        if self.kind == "head":
            return self.in_channels * self.out_channels * out_pixels
        return 0

    @property
    def params(self) -> int:
        """Trainable parameter count of this layer."""
        if self.kind == "conv" or self.kind == "head":
            return self.kernel**2 * self.in_channels * self.out_channels + self.out_channels
        if self.kind == "dwconv":
            return self.kernel**2 * self.in_channels + self.in_channels
        if self.kind == "norm":
            return 2 * self.in_channels
        return 0

    @property
    def input_elements(self) -> int:
        return self.in_channels * self.in_height * self.in_width

    @property
    def output_elements(self) -> int:
        c, h, w = self.output_shape
        return c * h * w

    @property
    def is_compute(self) -> bool:
        """True for layers that map to a multiply-accumulate IP."""
        return self.kind in COMPUTE_KINDS or self.kind == "head"

    @property
    def ip_key(self) -> str:
        """Key of the IP template that executes this layer."""
        if self.kind == "conv" or self.kind == "head":
            return f"conv{self.kernel}x{self.kernel}" if self.kind == "conv" else "conv1x1"
        if self.kind == "dwconv":
            return f"dwconv{self.kernel}x{self.kernel}"
        if self.kind == "pool":
            return "pool"
        if self.kind == "norm":
            return "norm"
        return "activation"


@dataclass
class NetworkWorkload:
    """Workload of an entire DNN plus quantization metadata.

    Attributes
    ----------
    layers:
        Ordered layer workloads.
    input_shape:
        Network input ``(C, H, W)``.
    weight_bits, feature_bits:
        Quantization bit widths used on the accelerator.
    name:
        Identifier used in reports and generated code.
    bundle_signature:
        Composition string of the building block (empty for hand-built nets).
    """

    layers: list[LayerWorkload]
    input_shape: tuple[int, int, int]
    weight_bits: int = 16
    feature_bits: int = 16
    name: str = "dnn"
    bundle_signature: str = ""

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("A workload needs at least one layer")

    # ------------------------------------------------------------ aggregate
    def __iter__(self) -> Iterator[LayerWorkload]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def compute_depth(self) -> int:
        """Number of compute (conv-like) layers."""
        return sum(1 for layer in self.layers if layer.is_compute)

    @property
    def max_channels(self) -> int:
        return max(max(l.in_channels, l.out_channels) for l in self.layers)

    def compute_extents(self) -> tuple[int, int, int]:
        """``(max kernel, max in-channels, max out-channels)`` of the compute
        layers, the aggregates that size tiles and buffers.  A workload
        without compute layers falls back to ``(3, max_channels,
        max_channels)``."""
        compute = [l for l in self.layers if l.is_compute]
        if not compute:
            return 3, self.max_channels, self.max_channels
        return (
            max(l.kernel for l in compute),
            max(l.in_channels for l in compute),
            max(l.out_channels for l in compute),
        )

    @property
    def num_downsamples(self) -> int:
        return sum(1 for layer in self.layers if layer.stride > 1)

    def layers_in_bundle(self, bundle_index: int) -> list[LayerWorkload]:
        """Layers belonging to one Bundle repetition."""
        return [l for l in self.layers if l.bundle_index == bundle_index]

    def bundle_indices(self) -> list[int]:
        """Sorted list of bundle repetition indices present in the workload."""
        return sorted({l.bundle_index for l in self.layers if l.bundle_index >= 0})

    def weight_bytes(self) -> float:
        """Total weight storage in bytes after quantization."""
        return self.total_params * self.weight_bits / 8.0
