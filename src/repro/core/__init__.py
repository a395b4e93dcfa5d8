"""The FPGA/DNN co-design methodology (the paper's primary contribution).

Components (Sec. 3.2 of the paper):

* **Bundle-Arch** (:mod:`repro.core.bundle`, :mod:`repro.core.bundle_generation`)
  — the hardware-aware DNN building-block template and the automatic bundle
  generation from the IP pool,
* **Auto-DNN** (:mod:`repro.core.bundle_evaluation`, :mod:`repro.core.scd`,
  :mod:`repro.core.auto_dnn`) — bundle evaluation / selection, the N / Pi /
  X move set of the stochastic coordinate descent (SCD) search, and the
  hardware-aware DNN search, which runs a :mod:`repro.search` strategy
  (``scd``, Algorithm 1, by default),
* **Tile-Arch** lives in :mod:`repro.hw.tile_arch`,
* **Auto-HLS** (:mod:`repro.core.auto_hls`) — accelerator generation and
  latency / resource feedback,
* the overall three-step co-design flow (:mod:`repro.core.codesign`).
"""

from repro.core.bundle import Bundle, LayerSpec
from repro.core.bundle_generation import default_bundle_catalog, generate_bundles
from repro.core.dnn_config import DNNConfig
from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.pareto import pareto_front
from repro.core.bundle_evaluation import (
    BundleEvaluation,
    BundleEvaluator,
    FineGrainedEvaluation,
)
from repro.core.auto_hls import AutoHLS, AutoHLSResult
from repro.core.auto_dnn import AutoDNN, DNNCandidate
from repro.core.codesign import CoDesignFlow, CoDesignInputs, CoDesignResult

__all__ = [
    "Bundle",
    "LayerSpec",
    "default_bundle_catalog",
    "generate_bundles",
    "DNNConfig",
    "LatencyTarget",
    "ResourceConstraint",
    "pareto_front",
    "BundleEvaluation",
    "BundleEvaluator",
    "FineGrainedEvaluation",
    "AutoHLS",
    "AutoHLSResult",
    "AutoDNN",
    "DNNCandidate",
    "CoDesignFlow",
    "CoDesignInputs",
    "CoDesignResult",
]
