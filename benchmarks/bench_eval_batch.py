"""FPGA evaluator vs the reference model on recorded sweep traffic (BENCH_eval.json).

The stream is what a real sweep sends the estimator: every config that
reaches ``AutoHLS.estimate`` / ``AutoHLS.estimate_batch`` (that is, after
the memory cache) while one SCD cell and one random cell of the paper grid
run, in call order, with the fitted coefficients and clock of each call.
Each stream is replayed through a *fresh* :class:`FPGAEvaluator` — so its
segment memo starts empty, as in a new process — and through the reference
``DNNPerformanceModel`` rebuilt per config.  The results must be
bit-identical, so the speedup is a pure execution-mode change.

The perf-trajectory test writes ``BENCH_eval.json`` (to ``$REPRO_BENCH_DIR``
or the working directory).  Only the machine-independent *ratios* are
gated: against hard floors, and with slack against the committed baseline
at the repository root.  Raw seconds are archived, never gated.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.auto_hls import AutoHLS
from repro.hw.analytical import DNNPerformanceModel
from repro.hw.device import PYNQ_Z1
from repro.hw.evaluator import FPGAEvaluator
from repro.hw.tile_arch import TileArchAccelerator
from repro.sweep import SweepRunner, build_grid

#: Committed first trajectory point (repo root), used as the regression
#: baseline for the ratio metrics.
BASELINE_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_eval.json"

#: The recorded cells: PYNQ-Z1 at 15 fps, paper-grid budget and seed.
STRATEGIES = ("scd", "random")
FPS = 15.0
SEED = 2019

#: Hard machine-independent floor for every stream speedup ratio.  A fresh
#: evaluator measured 2.2-3.4x on a shared 2-vCPU x86 container.
SPEEDUP_FLOOR = 1.5
#: A run must stay within this factor of the committed baseline's ratios.
BASELINE_SLACK = 0.5
#: Replays per side, interleaved so machine drift hits both sides alike;
#: the fastest one of each side counts.
ROUNDS = 5

_STREAMS: dict = {}


def _record_streams() -> dict[str, list[tuple]]:
    """strategy -> recorded estimator calls ``(configs, coefficients, clock)``."""
    if _STREAMS:
        return _STREAMS
    estimate, estimate_batch = AutoHLS.estimate, AutoHLS.estimate_batch
    calls: list[tuple] = []

    def recording_estimate(self, config):
        calls.append(([config], self.coefficients, self.clock_mhz))
        return estimate(self, config)

    def recording_batch(self, configs):
        calls.append((list(configs), self.coefficients, self.clock_mhz))
        return estimate_batch(self, configs)

    AutoHLS.estimate, AutoHLS.estimate_batch = recording_estimate, recording_batch
    try:
        for task in build_grid("pynq-z1", list(STRATEGIES), [FPS], seed=SEED):
            calls.clear()
            assert SweepRunner([task], workers=1).run().ok
            _STREAMS[task.strategy] = list(calls)
    finally:
        AutoHLS.estimate, AutoHLS.estimate_batch = estimate, estimate_batch
    return _STREAMS


def _reference(configs, coefficients, clock_mhz):
    return [
        DNNPerformanceModel(
            TileArchAccelerator.build(
                config.to_workload(), PYNQ_Z1,
                parallel_factor=config.parallel_factor, clock_mhz=clock_mhz,
            ),
            coefficients,
        ).estimate()
        for config in configs
    ]


def _replay(calls, score):
    """(seconds, estimates) of one pass of ``score`` over the recorded calls."""
    start = time.perf_counter()
    estimates = [est for call in calls for est in score(*call)]
    return time.perf_counter() - start, estimates


def _fresh_replay(calls):
    return _replay(calls, FPGAEvaluator(PYNQ_Z1).estimate_batch)


def _measure(calls) -> tuple[float, float, int]:
    """(reference_s, evaluator_s, configs): best of :data:`ROUNDS` each."""
    reference_s = evaluator_s = float("inf")
    for _ in range(ROUNDS):
        seconds, expected = _replay(calls, _reference)
        reference_s = min(reference_s, seconds)
        seconds, got = _fresh_replay(calls)
        evaluator_s = min(evaluator_s, seconds)
        assert got == expected  # bit-identical, field for field
    return reference_s, evaluator_s, len(expected)


def test_fresh_evaluator_stream(benchmark):
    """Replay the SCD cell's stream through a fresh evaluator."""
    calls = _record_streams()["scd"]
    reference_s, _, configs = _measure(calls)
    benchmark.pedantic(lambda: _fresh_replay(calls), rounds=5, iterations=1, warmup_rounds=1)
    speedup = reference_s / benchmark.stats.stats.min
    print(f"\n[evaluator stream] scd cell, {configs} configs: reference "
          f"{reference_s * 1e3:.1f} ms, fresh evaluator "
          f"{benchmark.stats.stats.min * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR


def test_perf_trajectory_bench_json():
    """Archive the stream speedups as BENCH_eval.json and gate the ratios."""
    from repro.telemetry import write_bench_json

    # Read the committed baseline before writing: when CI runs from the
    # repository root the fresh artifact lands on the same path.
    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text()).get("metrics")

    metrics: dict = {}
    totals = [0.0, 0.0, 0]
    for strategy, calls in _record_streams().items():
        reference_s, evaluator_s, configs = _measure(calls)
        metrics[f"{strategy}_configs"] = configs
        metrics[f"{strategy}_reference_s"] = round(reference_s, 6)
        metrics[f"{strategy}_evaluator_s"] = round(evaluator_s, 6)
        metrics[f"{strategy}_speedup"] = round(reference_s / evaluator_s, 2)
        totals = [totals[0] + reference_s, totals[1] + evaluator_s, totals[2] + configs]
    metrics["stream_configs"] = totals[2]
    metrics["stream_speedup"] = round(totals[0] / totals[1], 2)
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    path = write_bench_json(
        os.path.join(out_dir, "BENCH_eval.json"),
        bench="eval_batch",
        metrics=metrics,
        meta={"device": "pynq-z1", "strategies": list(STRATEGIES), "fps": FPS,
              "seed": SEED, "rounds": ROUNDS},
    )
    print(f"\n[eval perf trajectory] {metrics['stream_configs']} configs, "
          f"stream speedup {metrics['stream_speedup']:.1f}x -> {path}")
    ratios = [f"{strategy}_speedup" for strategy in STRATEGIES] + ["stream_speedup"]
    for ratio in ratios:
        assert metrics[ratio] >= SPEEDUP_FLOOR, f"{ratio} {metrics[ratio]}x"
        if baseline and ratio in baseline:
            assert metrics[ratio] >= BASELINE_SLACK * baseline[ratio], (
                f"{ratio} regressed: {metrics[ratio]:.1f}x vs baseline {baseline[ratio]:.1f}x"
            )
