"""FPGA accelerator substrate.

This package implements everything the co-design flow needs on the hardware
side of the paper:

* :mod:`repro.hw.resource` / :mod:`repro.hw.device` — resource vectors and
  the embedded FPGA device catalogue (PYNQ-Z1 and friends),
* :mod:`repro.hw.ip` / :mod:`repro.hw.ip_library` — the configurable IP
  templates (conv 1x1/3x3/5x5, depth-wise conv 3x3/5x5/7x7, pooling,
  normalisation, activation) with per-instance latency / resource models,
* :mod:`repro.hw.workload` — layer / network workload descriptions,
* :mod:`repro.hw.tiling` / :mod:`repro.hw.tile_arch` /
  :mod:`repro.hw.pipeline` — the Tile-Arch accelerator template and its
  cycle-level tile-pipeline simulator,
* :mod:`repro.hw.analytical` — the paper's analytical Bundle / DNN latency
  and resource models (Eqs. 1-5) with coefficients fitted by sampling,
* :mod:`repro.hw.evaluator` — the segment-memoized evaluator of those
  models that search traffic runs through (bit-identical to the reference),
* :mod:`repro.hw.power` — board-level power / energy model,
* :mod:`repro.hw.hls` — Auto-HLS: C code generation and simulated synthesis.
"""

from repro.hw.resource import ResourceVector, ResourceUtilization
from repro.hw.device import FPGADevice, PYNQ_Z1, ULTRA96, ZC706, get_device
from repro.hw.ip import IPConfig, IPInstance, IPTemplate
from repro.hw.ip_library import IPLibrary, default_ip_library
from repro.hw.workload import LayerWorkload, NetworkWorkload
from repro.hw.tiling import TileConfig, choose_tile_config
from repro.hw.tile_arch import TileArchAccelerator, BundleHardware
from repro.hw.pipeline import TilePipelineSimulator, PipelineTrace
from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    BundlePerformanceModel,
    DNNPerformanceModel,
    PerformanceEstimate,
)
from repro.hw.evaluator import FPGAEvaluator, evaluator_for
from repro.hw.power import FPGAPowerModel, EnergyReport

__all__ = [
    "ResourceVector",
    "ResourceUtilization",
    "FPGADevice",
    "PYNQ_Z1",
    "ULTRA96",
    "ZC706",
    "get_device",
    "IPTemplate",
    "IPConfig",
    "IPInstance",
    "IPLibrary",
    "default_ip_library",
    "LayerWorkload",
    "NetworkWorkload",
    "TileConfig",
    "choose_tile_config",
    "TileArchAccelerator",
    "BundleHardware",
    "TilePipelineSimulator",
    "PipelineTrace",
    "AnalyticalModelCoefficients",
    "BundlePerformanceModel",
    "DNNPerformanceModel",
    "PerformanceEstimate",
    "FPGAEvaluator",
    "evaluator_for",
    "FPGAPowerModel",
    "EnergyReport",
]
