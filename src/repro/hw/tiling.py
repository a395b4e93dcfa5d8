"""Feature-map tiling for the Tile-Arch accelerator.

Intermediate data between layers is partitioned into tiles of a common size
across all layers (tile-level IP reuse) so that an IP instance can be reused
for multiple tiles and data can flow between IP instances of subsequent
layers without off-chip round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.device import FPGADevice
from repro.hw.memory import plan_on_chip_buffers
from repro.hw.workload import NetworkWorkload


@dataclass(frozen=True)
class TileConfig:
    """A tiling of the feature maps into ``tile_height x tile_width`` tiles."""

    tile_height: int
    tile_width: int

    def __post_init__(self) -> None:
        if self.tile_height <= 0 or self.tile_width <= 0:
            raise ValueError("tile dimensions must be positive")

    @property
    def pixels(self) -> int:
        return self.tile_height * self.tile_width

    def num_tiles(self, height: int, width: int) -> int:
        """Number of tiles covering a ``height x width`` feature map."""
        if height <= 0 or width <= 0:
            raise ValueError("feature map dimensions must be positive")
        return math.ceil(height / self.tile_height) * math.ceil(width / self.tile_width)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.tile_height}x{self.tile_width}"


#: Candidate tile sizes considered by the tiling heuristic (height, width).
CANDIDATE_TILES = (
    TileConfig(8, 16),
    TileConfig(10, 20),
    TileConfig(16, 16),
    TileConfig(16, 32),
    TileConfig(20, 40),
    TileConfig(32, 32),
    TileConfig(40, 40),
    TileConfig(40, 80),
)


def choose_tile_config(
    workload: NetworkWorkload,
    device: FPGADevice,
    bram_budget_fraction: float = 0.55,
    candidates: tuple[TileConfig, ...] = CANDIDATE_TILES,
) -> TileConfig:
    """Pick the largest common tile size whose buffers fit on chip.

    Larger tiles amortise pipeline-fill and DMA-setup overheads, so the
    heuristic picks the largest candidate whose double-buffered data buffers
    stay within ``bram_budget_fraction`` of the device BRAM (the remainder is
    reserved for weight buffers and control).
    """
    return choose_tile(
        workload.input_shape, workload.max_channels, workload.compute_extents(),
        workload.feature_bits, workload.weight_bits, device,
        bram_budget_fraction, candidates,
    )


def choose_tile(
    input_shape: tuple[int, int, int],
    max_channels: int,
    extents: tuple[int, int, int],
    feature_bits: int,
    weight_bits: int,
    device: FPGADevice,
    bram_budget_fraction: float = 0.55,
    candidates: tuple[TileConfig, ...] = CANDIDATE_TILES,
) -> TileConfig:
    """:func:`choose_tile_config` from the workload aggregates it reads
    (``extents`` as :meth:`NetworkWorkload.compute_extents` returns them)."""
    if not 0.0 < bram_budget_fraction <= 1.0:
        raise ValueError("bram_budget_fraction must be in (0, 1]")
    _, in_h, in_w = input_shape
    max_kernel, max_in, max_out = extents
    budget = device.resources.bram * bram_budget_fraction

    viable: list[TileConfig] = []
    for tile in candidates:
        if tile.tile_height > in_h or tile.tile_width > in_w:
            continue
        plan = plan_on_chip_buffers(
            tile.tile_height, tile.tile_width, max_channels, feature_bits, weight_bits,
            max_kernel, max_in, max_out,
        )
        if plan.data_buffer_bram + plan.output_buffer_bram <= budget:
            viable.append(tile)
    if not viable:
        # Even the smallest candidate does not fit: fall back to the smallest
        # candidate anyway; resource checking downstream will flag the design.
        return min(candidates, key=lambda t: t.pixels)
    return max(viable, key=lambda t: t.pixels)
