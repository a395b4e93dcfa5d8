"""The co-design space (Table 1 of the paper).

A :class:`DesignPoint` captures every variable of Table 1 — the DNN-side
structure (number of layers, channel expansions, down-sampling layers) and
the FPGA-side configuration (IP instances, parallelism factors, quantization
schemes, layer-to-IP mapping) — so that one object fully specifies both the
DNN model and its accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.bundle import Bundle
from repro.nn.quantization import QuantizationScheme


@dataclass(frozen=True)
class IPInstanceSpec:
    """Configuration ``<PF_j, Q_j>`` of one IP instance ``p_j`` (Table 1)."""

    ip_template: str
    parallel_factor: int
    quantization: QuantizationScheme
    layers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.parallel_factor <= 0:
            raise ValueError("parallel_factor must be positive")


@dataclass(frozen=True)
class DesignPoint:
    """A fully specified point in the FPGA/DNN co-design space.

    Attributes
    ----------
    num_layers:
        ``L`` — total number of DNN layers.
    ip_templates:
        ``IP_1 .. IP_m`` — available IP template keys.
    ip_instances:
        ``p_1 .. p_n`` — configured IP instances with their ``<PF_j, Q_j>``
        and the layer indices they serve.
    channel_expansion:
        ``<f_ch1, ..., f_chL>`` — channel-expansion factor per bundle
        repetition.
    downsample_layers:
        ``ds_1 .. ds_k`` — indices of the bundle boundaries where a
        down-sampling layer is inserted.
    downsample_factor:
        ``f_ds`` — the spatial reduction factor of each down-sampling layer.
    bundle:
        The Bundle the DNN is built from (the paper's DNN template).
    """

    num_layers: int
    ip_templates: tuple[str, ...]
    ip_instances: tuple[IPInstanceSpec, ...]
    channel_expansion: tuple[float, ...]
    downsample_layers: tuple[int, ...]
    downsample_factor: int = 2
    bundle: Bundle | None = None

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if self.downsample_factor <= 1:
            raise ValueError("downsample_factor must be at least 2")
        if any(f <= 0 for f in self.channel_expansion):
            raise ValueError("channel expansion factors must be positive")
        for ds in self.downsample_layers:
            if ds < 0:
                raise ValueError("downsample layer indices must be non-negative")

    # ------------------------------------------------------------ properties
    @property
    def affects(self) -> Mapping[str, tuple[str, ...]]:
        """Which objectives each variable group affects (the A/P/R column)."""
        return {
            "num_layers": ("accuracy", "performance", "resource"),
            "ip_templates": ("accuracy", "performance", "resource"),
            "ip_instances": ("performance", "resource"),
            "ip_configurations": ("accuracy", "performance", "resource"),
            "layer_mapping": ("accuracy", "performance"),
            "channel_expansion": ("accuracy", "performance", "resource"),
            "downsample_layers": ("accuracy", "performance", "resource"),
            "downsample_factor": ("accuracy", "performance", "resource"),
        }

    def describe(self) -> str:
        """Readable multi-line description of the design point."""
        lines = [
            f"Design point: L={self.num_layers} layers",
            f"  IP templates     : {', '.join(self.ip_templates)}",
            f"  IP instances     : "
            + "; ".join(
                f"{s.ip_template}(PF={s.parallel_factor}, Q={s.quantization.name})"
                for s in self.ip_instances
            ),
            f"  channel expansion: {list(self.channel_expansion)}",
            f"  downsampling     : at {list(self.downsample_layers)} (factor {self.downsample_factor})",
        ]
        if self.bundle is not None:
            lines.insert(1, f"  bundle           : {self.bundle.display_name}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CoDesignSpace:
    """Bounds of the co-design space explored by Auto-DNN.

    Attributes
    ----------
    bundles:
        Candidate bundles (after selection).
    parallel_factors:
        PF values available to IP instances.
    quantizations:
        Quantization schemes available to IP instances.
    channel_expansion_factors:
        The discrete channel-expansion factors the SCD unit may use
        (Sec. 5.2.2: {1.2, 1.3, 1.5, 1.75, 2}).
    max_repetitions:
        Upper bound on bundle replications.
    max_downsamples:
        Upper bound on the number of down-sampling layers.
    """

    bundles: tuple[Bundle, ...]
    parallel_factors: tuple[int, ...] = (4, 8, 16, 32)
    quantizations: tuple[QuantizationScheme, ...] = ()
    channel_expansion_factors: tuple[float, ...] = (1.2, 1.3, 1.5, 1.75, 2.0)
    max_repetitions: int = 8
    max_downsamples: int = 6

    def __post_init__(self) -> None:
        if not self.bundles:
            raise ValueError("The co-design space needs at least one bundle")
        if self.max_repetitions <= 0 or self.max_downsamples < 0:
            raise ValueError("Invalid repetition / downsample bounds")

    @property
    def approximate_size(self) -> float:
        """Order-of-magnitude estimate of the number of distinct design points.

        Illustrates the observation that the joint space is exponentially
        larger than either the DNN-only or accelerator-only spaces.
        """
        per_bundle = (
            self.max_repetitions
            * (len(self.channel_expansion_factors) ** self.max_repetitions)
            * (2 ** self.max_downsamples)
            * len(self.parallel_factors)
            * max(len(self.quantizations), 1)
        )
        return float(len(self.bundles) * per_bundle)
