"""Cycle-level simulator of the Tile-Arch tile pipeline.

The simulator plays the role Vivado HLS co-simulation plays in the paper: it
produces reference latencies used to fit the coefficients of the analytical
models (Auto-HLS "sampling") and to validate searched designs.

The schedule follows Fig. 3(b): within a Bundle, tile ``t`` moves through the
stages ``load -> IP_1 -> IP_2 -> ... -> write`` while tile ``t+1`` occupies
the previous stage; between Bundle repetitions the intermediate feature map
crosses the DRAM boundary.  Each stage is modelled as a non-preemptive unit
that can hold one tile at a time, so the start time of tile ``t`` on stage
``s`` is ``max(finish(t, s-1), finish(t-1, s))`` — the classic pipelined
schedule recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import DRAMTrafficModel, layer_tile_traffic_bytes
from repro.hw.tile_arch import TileArchAccelerator
from repro.hw.workload import LayerWorkload


@dataclass
class StageTiming:
    """Timing of one pipeline stage for one bundle repetition."""

    name: str
    cycles_per_tile: float


@dataclass
class BundleTrace:
    """Simulated timing of one bundle repetition."""

    bundle_index: int
    num_tiles: int
    stages: list[StageTiming]
    total_cycles: float
    compute_cycles: float
    transfer_cycles: float


@dataclass
class PipelineTrace:
    """Full simulation result for a network."""

    bundle_traces: list[BundleTrace]
    inter_bundle_cycles: float
    io_cycles: float
    total_cycles: float
    clock_mhz: float

    @property
    def latency_ms(self) -> float:
        """End-to-end single-frame latency in milliseconds."""
        return self.total_cycles / (self.clock_mhz * 1e3)


class TilePipelineSimulator:
    """Simulate the tile-level pipeline of a Tile-Arch accelerator."""

    def __init__(self, accelerator: TileArchAccelerator) -> None:
        self.accelerator = accelerator
        self.dram = DRAMTrafficModel(accelerator.device)

    # ----------------------------------------------------------------- cycles
    def _cycles_per_ms(self) -> float:
        return self.accelerator.clock_mhz * 1e3

    def _transfer_cycles(self, num_bytes: float, bursts: int = 1) -> float:
        ms = self.dram.transfer_latency_ms(num_bytes, bursts=bursts)
        return ms * self._cycles_per_ms()

    def _tile_stages(self, layers: list[LayerWorkload], num_tiles: int) -> list[StageTiming]:
        """Per-tile cycle counts for the load / compute / write stages of a bundle."""
        acc = self.accelerator
        tile_pixels = acc.tile.pixels
        feature_bits = acc.workload.feature_bits

        stages: list[StageTiming] = []
        if layers:
            first = layers[0]
            load_bytes = layer_tile_traffic_bytes(first, tile_pixels, feature_bits) / 2.0
            stages.append(StageTiming("load", self._transfer_cycles(load_bytes, bursts=1)))
        for layer in layers:
            instance = acc.bundle_hw.instance_for(layer)
            cycles = instance.cycles_for_layer_share(layer, num_tiles)
            stages.append(StageTiming(f"{instance.name}:{layer.kind}{layer.kernel}", cycles))
        if layers:
            last = layers[-1]
            store_bytes = layer_tile_traffic_bytes(last, tile_pixels, feature_bits) / 2.0
            stages.append(StageTiming("write", self._transfer_cycles(store_bytes, bursts=1)))
        return stages

    def _simulate_bundle(self, bundle_index: int, layers: list[LayerWorkload]) -> BundleTrace:
        """Pipelined schedule of all tiles of one bundle repetition."""
        acc = self.accelerator
        if not layers:
            return BundleTrace(bundle_index, 0, [], 0.0, 0.0, 0.0)
        # The number of tiles is set by the layer with the largest output map
        # inside this repetition (all layers share the common tile size).
        num_tiles = max(acc.tiles_per_layer(layer) for layer in layers)
        stages = self._tile_stages(layers, num_tiles)

        # finish[s] holds the finish time of the previous tile on stage s.
        finish = [0.0] * len(stages)
        for _tile in range(num_tiles):
            prev_stage_finish = 0.0
            for s, stage in enumerate(stages):
                start = max(prev_stage_finish, finish[s])
                finish[s] = start + stage.cycles_per_tile
                prev_stage_finish = finish[s]
        total = finish[-1] if stages else 0.0
        compute = sum(
            st.cycles_per_tile for st in stages if st.name not in ("load", "write")
        ) * num_tiles
        transfer = sum(
            st.cycles_per_tile for st in stages if st.name in ("load", "write")
        ) * num_tiles
        return BundleTrace(
            bundle_index=bundle_index,
            num_tiles=num_tiles,
            stages=stages,
            total_cycles=total,
            compute_cycles=compute,
            transfer_cycles=transfer,
        )

    # ------------------------------------------------------------------- run
    def run(self) -> PipelineTrace:
        """Simulate the full network and return the trace."""
        acc = self.accelerator
        workload = acc.workload

        bundle_traces: list[BundleTrace] = []
        indices = workload.bundle_indices()
        if indices:
            for idx in indices:
                bundle_traces.append(self._simulate_bundle(idx, workload.layers_in_bundle(idx)))
            # Head / tail layers outside any bundle run sequentially.
            stray = [l for l in workload.layers if l.bundle_index < 0]
            if stray:
                bundle_traces.append(self._simulate_bundle(-1, stray))
        else:
            bundle_traces.append(self._simulate_bundle(0, list(workload.layers)))

        inter_bundle_ms = self.dram.inter_bundle_latency_ms(workload)
        weight_ms = self.dram.weight_streaming_latency_ms(workload)
        io_ms = self.dram.input_output_latency_ms(workload)
        cycles_per_ms = self._cycles_per_ms()
        # Weight streaming is double-buffered: roughly half of it overlaps
        # with computation on the previous layer's tiles.
        hidden_weight_fraction = 0.5
        inter_bundle_cycles = (inter_bundle_ms + (1 - hidden_weight_fraction) * weight_ms) * cycles_per_ms
        io_cycles = io_ms * cycles_per_ms

        total = sum(t.total_cycles for t in bundle_traces) + inter_bundle_cycles + io_cycles
        return PipelineTrace(
            bundle_traces=bundle_traces,
            inter_bundle_cycles=inter_bundle_cycles,
            io_cycles=io_cycles,
            total_cycles=total,
            clock_mhz=acc.clock_mhz,
        )

    def latency_ms(self) -> float:
        """Convenience wrapper returning only the end-to-end latency."""
        return self.run().latency_ms
