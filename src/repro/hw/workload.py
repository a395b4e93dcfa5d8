"""Layer and network workload descriptions.

The hardware models do not operate on trained numpy models directly; they
consume lightweight *workload* descriptions of the computation: for every
layer, its type, kernel size, channel counts, spatial dimensions and stride.
Workloads can be built either from a :class:`repro.nn.model.Sequential`
instance (:func:`workload_from_model`) or directly by the co-design engine
from a design-point description without ever instantiating weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

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

    @property
    def num_bundles(self) -> int:
        """Number of Bundle repetitions present in the workload."""
        indices = {l.bundle_index for l in self.layers if l.bundle_index >= 0}
        return len(indices)

    def layers_in_bundle(self, bundle_index: int) -> list[LayerWorkload]:
        """Layers belonging to one Bundle repetition."""
        return [l for l in self.layers if l.bundle_index == bundle_index]

    def bundle_indices(self) -> list[int]:
        """Sorted list of bundle repetition indices present in the workload."""
        return sorted({l.bundle_index for l in self.layers if l.bundle_index >= 0})

    def ip_keys(self) -> list[str]:
        """Distinct IP template keys required to execute this workload."""
        seen: list[str] = []
        for layer in self.layers:
            key = layer.ip_key
            if key not in seen:
                seen.append(key)
        return seen

    def weight_bytes(self) -> float:
        """Total weight storage in bytes after quantization."""
        return self.total_params * self.weight_bits / 8.0

    def feature_bytes(self) -> float:
        """Total feature-map traffic (inputs + outputs of every layer) in bytes."""
        elements = sum(l.input_elements + l.output_elements for l in self.layers)
        return elements * self.feature_bits / 8.0


def workload_from_model(
    model,
    input_shape: tuple[int, int, int],
    weight_bits: int = 16,
    feature_bits: int = 16,
    name: Optional[str] = None,
) -> NetworkWorkload:
    """Build a :class:`NetworkWorkload` from a ``repro.nn`` Sequential model.

    Only layer types known to the IP library are mapped; reshape-style layers
    are skipped because they are free on the accelerator.
    """
    layers: list[LayerWorkload] = []
    shape = input_shape
    for layer in model:
        c, h, w = shape
        layer_type = getattr(layer, "layer_type", "generic")
        if layer_type == "conv":
            layers.append(LayerWorkload(
                kind="conv", kernel=layer.kernel_size, in_channels=layer.in_channels,
                out_channels=layer.out_channels, in_height=h, in_width=w, stride=layer.stride,
            ))
        elif layer_type == "dwconv":
            layers.append(LayerWorkload(
                kind="dwconv", kernel=layer.kernel_size, in_channels=c,
                out_channels=c, in_height=h, in_width=w, stride=layer.stride,
            ))
        elif layer_type == "pool":
            kernel = getattr(layer, "kernel_size", max(h, w))
            stride = getattr(layer, "stride", kernel)
            layers.append(LayerWorkload(
                kind="pool", kernel=kernel, in_channels=c, out_channels=c,
                in_height=h, in_width=w, stride=stride,
            ))
        elif layer_type == "norm":
            layers.append(LayerWorkload(
                kind="norm", kernel=1, in_channels=c, out_channels=c,
                in_height=h, in_width=w,
            ))
        elif layer_type == "activation":
            layers.append(LayerWorkload(
                kind="activation", kernel=1, in_channels=c, out_channels=c,
                in_height=h, in_width=w,
            ))
        elif layer_type == "head":
            layers.append(LayerWorkload(
                kind="head", kernel=1, in_channels=c, out_channels=4,
                in_height=h, in_width=w,
            ))
        # dense / flatten / dropout are either absent from searched DNNs or
        # negligible on the accelerator; they are intentionally not mapped.
        shape = layer.output_shape(shape)
    return NetworkWorkload(
        layers=layers,
        input_shape=input_shape,
        weight_bits=weight_bits,
        feature_bits=feature_bits,
        name=name or getattr(model, "name", "dnn"),
    )
