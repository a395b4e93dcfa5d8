"""The configurable IP pool.

The default library mirrors the paper's IP selection (Sec. 4.2): convolution
1x1 / 3x3 / 5x5, depth-wise convolution 3x3 / 5x5 / 7x7, max / average
pooling, normalisation and activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.hw.ip import IPTemplate
from repro.hw.workload import LayerWorkload


@dataclass
class IPLibrary:
    """A registry of IP templates keyed by name."""

    templates: dict[str, IPTemplate] = field(default_factory=dict)

    def register(self, template: IPTemplate) -> None:
        """Add or replace a template."""
        self.templates[template.name] = template

    def get(self, name: str) -> IPTemplate:
        if name not in self.templates:
            raise KeyError(f"Unknown IP template '{name}'. Available: {sorted(self.templates)}")
        return self.templates[name]

    def __contains__(self, name: str) -> bool:
        return name in self.templates

    def __iter__(self) -> Iterator[IPTemplate]:
        return iter(self.templates.values())

    def __len__(self) -> int:
        return len(self.templates)

    def names(self) -> list[str]:
        return sorted(self.templates)

    def template_for_layer(self, layer: LayerWorkload) -> IPTemplate:
        """Find the template that executes ``layer``; raises if none exists."""
        for template in self.templates.values():
            if template.supports(layer):
                return template
        raise KeyError(f"No IP template supports layer kind={layer.kind} kernel={layer.kernel}")


def default_ip_library() -> IPLibrary:
    """Build the default IP pool used in the paper's experiments."""
    library = IPLibrary()
    # Standard convolutions: larger kernels need deeper pipelines and more
    # control logic for the wider line buffers.
    library.register(IPTemplate("conv1x1", kind="conv", kernel=1, base_lut=520, lut_per_lane=78,
                                base_ff=760, ff_per_lane=115, pipeline_depth=18, efficiency=0.16))
    library.register(IPTemplate("conv3x3", kind="conv", kernel=3, base_lut=980, lut_per_lane=108,
                                base_ff=1450, ff_per_lane=155, pipeline_depth=30, efficiency=0.14))
    library.register(IPTemplate("conv5x5", kind="conv", kernel=5, base_lut=1650, lut_per_lane=132,
                                base_ff=2300, ff_per_lane=185, pipeline_depth=42, efficiency=0.13))
    # Depth-wise convolutions: cheaper datapaths (no channel reduction tree)
    # but harder to keep busy — their only parallelism axis is the channel
    # dimension, so sustained efficiency is lower.
    library.register(IPTemplate("dwconv3x3", kind="dwconv", kernel=3, base_lut=640, lut_per_lane=64,
                                base_ff=930, ff_per_lane=92, pipeline_depth=22, efficiency=0.10))
    library.register(IPTemplate("dwconv5x5", kind="dwconv", kernel=5, base_lut=930, lut_per_lane=78,
                                base_ff=1300, ff_per_lane=110, pipeline_depth=30, efficiency=0.10))
    library.register(IPTemplate("dwconv7x7", kind="dwconv", kernel=7, base_lut=1300, lut_per_lane=92,
                                base_ff=1750, ff_per_lane=128, pipeline_depth=40, efficiency=0.10))
    # Pooling / normalisation / activation do not consume DSPs.
    library.register(IPTemplate("pool", kind="pool", kernel=0, uses_dsp=False, base_lut=380,
                                lut_per_lane=26, base_ff=420, ff_per_lane=30, pipeline_depth=8))
    library.register(IPTemplate("norm", kind="norm", kernel=0, uses_dsp=False, base_lut=460,
                                lut_per_lane=34, base_ff=520, ff_per_lane=40, pipeline_depth=10))
    library.register(IPTemplate("activation", kind="activation", kernel=0, uses_dsp=False,
                                base_lut=220, lut_per_lane=14, base_ff=240, ff_per_lane=16,
                                pipeline_depth=4))
    return library


#: Parallel factors explored by the paper's coarse bundle evaluation (Fig. 4).
DEFAULT_PARALLEL_FACTORS = (4, 8, 16)
