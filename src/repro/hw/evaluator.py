"""The FPGA evaluator: Eqs. 1-5 for search traffic, memoized per segment.

The reference :class:`repro.hw.analytical.DNNPerformanceModel` rebuilds the
workload, the Tile-Arch accelerator and every model term for each config.
Search traffic does not need that: an SCD move changes one coordinate (N, one
entry of Pi or X, PF), so consecutive configs share most of their bundle
repetitions.  :class:`FPGAEvaluator` splits a :class:`DNNConfig` into its
repetitions plus the stem/head group — the layer groups of Eq. 4 — and
memoizes every coefficient-free piece on small integer tuples:

* each repetition's layers (built by :meth:`DNNConfig.repetition_layers`),
  its ``Theta(Data)`` transfer ms, inter-bundle boundary ms and max
  aggregates; the stem/head group likewise, with the frame I/O ms,
* the tile choice, keyed on the network aggregates,
* the bundle hardware, keyed on (bundle, PF, bits),
* each segment's Eq. 3 cycle sum, keyed on (tile, PF) inside the segment,
* the Eq. 1 instance sum and the on-chip buffer BRAM.

Coefficients and the clock are per-call inputs, folded in by
:func:`repro.hw.analytical.combine_segments` — the same function the
reference model ends in — so ``estimate(config)`` equals the reference
estimate bit for bit, and a coefficient refit never invalidates the memo.

One evaluator lives per device per process (:func:`evaluator_for`); each of
its tables holds at most :data:`MEMO_LIMIT` entries.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Optional, Sequence

import repro.telemetry as telemetry
from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    DEFAULT_COEFFICIENTS,
    PerformanceEstimate,
    combine_segments,
    glue_overhead,
    segment_cycles,
    segment_transfer_ms,
)
from repro.hw.device import FPGADevice
from repro.hw.ip import IPConfig
from repro.hw.ip_library import default_ip_library
from repro.hw.memory import DRAMTrafficModel
from repro.hw.tile_arch import build_bundle_hardware, plan_buffers
from repro.hw.tiling import choose_tile
from repro.nn.quantization import QuantizationScheme

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.dnn_config import DNNConfig

#: Entry cap of each memo table of one evaluator.  A full table is cleared
#: before its next insert, which bounds a long-lived process's memory.
MEMO_LIMIT = 4096


class _Segment:
    """The PF- and coefficient-free part of one Eq. 4 layer group."""

    __slots__ = ("layers", "out_channels", "transfer_ms", "dm_ms", "aggregates", "cycles")

    def __init__(self, layers: list, out_channels: int, transfer_ms: float, dm_ms: float) -> None:
        self.layers = layers
        self.out_channels = out_channels
        self.transfer_ms = transfer_ms
        # A repetition's boundary ms, or the stem/head group's frame I/O ms.
        self.dm_ms = dm_ms
        # (max channels, max kernel, max in, max out); the last three over
        # compute layers only, as NetworkWorkload.compute_extents reads them.
        compute = [l for l in layers if l.is_compute]
        self.aggregates = (
            max(max(l.in_channels, l.out_channels) for l in layers),
            max((l.kernel for l in compute), default=0),
            max((l.in_channels for l in compute), default=0),
            max((l.out_channels for l in compute), default=0),
        )
        # (tile id, PF) -> Eq. 3 cycles; lives and dies with the segment.
        self.cycles: dict = {}


def _store(table: dict, key, value):
    if len(table) >= MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


class FPGAEvaluator:
    """Eqs. 1-5 for one FPGA device, memoized per segment (see module doc).

    Safe to share between threads: each table write stores a deterministic
    value, so a race only computes an entry twice.
    """

    def __init__(self, device: FPGADevice) -> None:
        self.device = device
        self._library = default_ip_library()
        self._dram = DRAMTrafficModel(device)
        # Bundle ids are never reused, so clearing the id table cannot make
        # a new bundle alias the memo entries of an old one.
        self._bundle_ids = itertools.count()
        self._bundles: dict = {}    # bundle layer specs -> bundle id
        self._reps: dict = {}       # (bundle, in, out, size, X, bits) -> _Segment
        self._ends: dict = {}       # (input shape, stem, in, size, bits) -> _Segment
        self._tiles: dict = {}      # network aggregates -> (TileConfig, tile id)
        self._hardware: dict = {}   # (bundle, PF, bits) -> BundleHardware
        self._instances: dict = {}  # (bundle, PF, bits, tile width, max in/out) -> (sum Res_j, count)
        self._buffers: dict = {}    # (tile id, aggregates, bits, PF) -> buffer BRAM

    # -------------------------------------------------------------- estimates
    def estimate(
        self,
        config: "DNNConfig",
        coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
        clock_mhz: Optional[float] = None,
    ) -> PerformanceEstimate:
        """Eq. 4 latency and Eq. 5 resources of ``config`` (device clock by default)."""
        clock = clock_mhz or self.device.default_clock_mhz
        reg = telemetry.registry()
        if reg is None:
            return self._estimate(config, coefficients, clock)
        start = time.perf_counter()
        value = self._estimate(config, coefficients, clock)
        reg.counter("hw.estimate.count").inc()
        reg.histogram("hw.estimate.seconds").observe(time.perf_counter() - start)
        return value

    def estimate_batch(
        self,
        configs: Sequence["DNNConfig"],
        coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
        clock_mhz: Optional[float] = None,
    ) -> list[PerformanceEstimate]:
        """:meth:`estimate` of every config, in input order."""
        clock = clock_mhz or self.device.default_clock_mhz
        reg = telemetry.registry()
        if reg is None:
            return [self._estimate(config, coefficients, clock) for config in configs]
        start = time.perf_counter()
        values = [self._estimate(config, coefficients, clock) for config in configs]
        reg.counter("hw.estimate.count").inc(len(configs))
        reg.counter("hw.estimate.batch.calls").inc()
        reg.histogram("hw.estimate.batch.seconds").observe(time.perf_counter() - start)
        return values

    def _estimate(
        self, config: "DNNConfig", coefficients: AnalyticalModelCoefficients, clock_mhz: float
    ) -> PerformanceEstimate:
        fb, wb = config.feature_bits, config.weight_bits
        specs = config.bundle.layers
        bundle = self._bundles.get(specs)
        if bundle is None:
            bundle = _store(self._bundles, specs, next(self._bundle_ids))

        # Eq. 4 groups: the repetitions in order, then the stem/head group.
        segments = []
        in_channels = config.stem_channels
        sizes = config.spatial_schedule()
        for size, out_channels, flag in zip(sizes, config.channel_schedule(), config.downsample):
            key = (bundle, in_channels, out_channels, size, flag, fb, wb)
            segment = self._reps.get(key)
            if segment is None:
                # The memo is position-free: no Eq. 1-5 term reads the
                # repetition index the layers carry.
                layers, emitted = config.repetition_layers(
                    specs, 0, in_channels, out_channels, size, flag
                )
                segment = _store(self._reps, key, _Segment(
                    layers, emitted,
                    segment_transfer_ms(self._dram, layers, fb, wb),
                    self._dram.boundary_latency_ms(layers, fb),
                ))
            segments.append(segment)
            in_channels = segment.out_channels
        input_shape = config.task.input_shape
        key = (input_shape, config.stem_channels, in_channels, sizes[-1], fb, wb)
        ends = self._ends.get(key)
        if ends is None:
            layers = [config.stem_layer(), config.head_layer(in_channels, sizes[-1])]
            ends = _store(self._ends, key, _Segment(
                layers, 4,
                segment_transfer_ms(self._dram, layers, fb, wb),
                self._dram.frame_io_latency_ms(input_shape, fb),
            ))
        segments.append(ends)

        max_channels, *rest = map(max, *(segment.aggregates for segment in segments))
        extents = tuple(rest)
        key = (input_shape, max_channels, extents, fb, wb)
        tiled = self._tiles.get(key)
        if tiled is None:
            tile = choose_tile(input_shape, max_channels, extents, fb, wb, self.device)
            tiled = _store(self._tiles, key, (tile, (tile.tile_height, tile.tile_width)))
        tile, tile_id = tiled

        pf = config.parallel_factor
        key = (bundle, pf, fb, wb)
        hardware = self._hardware.get(key)
        if hardware is None:
            # Instance order follows first use: stem, the bundle's layers
            # (every repetition has the same kinds), then the head.
            first_use = [ends.layers[0], *segments[0].layers, ends.layers[1]]
            quantization = QuantizationScheme(f"w{wb}a{fb}", wb, fb)
            hardware = _store(self._hardware, key, build_bundle_hardware(
                first_use, IPConfig(parallel_factor=pf, quantization=quantization),
                self._library,
            ))

        pairs = []
        key = (tile_id, pf)
        for segment in segments:
            cycles = segment.cycles.get(key)
            if cycles is None:
                cycles = segment.cycles[key] = segment_cycles(hardware, tile, segment.layers)
            pairs.append((cycles, segment.transfer_ms))

        _, max_in, max_out = extents
        key = (bundle, pf, fb, wb, tile.tile_width, max_in, max_out)
        instances = self._instances.get(key)
        if instances is None:
            instances = _store(self._instances, key, (
                hardware.instance_resources(tile.tile_width, max_in, max_out),
                len(hardware.instances),
            ))
        instance_sum, count = instances

        key = (tile_id, max_channels, extents, fb, wb, pf)
        buffer_bram = self._buffers.get(key)
        if buffer_bram is None:
            buffer_bram = _store(self._buffers, key, plan_buffers(
                tile, max_channels, fb, wb, extents, pf
            ).total_bram)

        # Lat_DM of Eq. 4: the boundaries between repetitions (the last
        # repetition feeds the head on chip), then the frame I/O.
        inter_bundle_ms = 0.0
        for segment in segments[:-2]:
            inter_bundle_ms += segment.dm_ms
        lat_dm = inter_bundle_ms + ends.dm_ms
        return combine_segments(
            pairs, lat_dm, instance_sum + glue_overhead(coefficients, count),
            buffer_bram, coefficients, clock_mhz,
        )


_EVALUATORS: dict[FPGADevice, FPGAEvaluator] = {}


def evaluator_for(device: FPGADevice) -> FPGAEvaluator:
    """The process-wide evaluator of ``device``, created on first use."""
    evaluator = _EVALUATORS.get(device)
    if evaluator is None:
        evaluator = _EVALUATORS.setdefault(device, FPGAEvaluator(device))
    return evaluator
