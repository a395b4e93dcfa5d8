"""Reproduction of "FPGA/DNN Co-Design: An Efficient Design Methodology for
IoT Intelligence on the Edge" (Hao, Zhang et al., DAC 2019).

The package is organised bottom-up:

* :mod:`repro.nn` — pure-numpy DNN framework (layers, training, quantization),
* :mod:`repro.detection` — DAC-SDC-style object-detection task substrate,
* :mod:`repro.hw` — FPGA accelerator substrate: IP library, Tile-Arch
  template, tile-pipeline simulator, analytical models, Auto-HLS code
  generation, power model,
* :mod:`repro.gpu` — embedded-GPU baseline models,
* :mod:`repro.core` — the co-design methodology: Bundle-Arch, Auto-DNN
  (bundle evaluation + the SCD move set), Auto-HLS engine, and the
  three-step co-design flow,
* :mod:`repro.search` — the DNN search: Algorithm 1 (the ``scd``
  explorer) and alternative strategies over the same moves, the evaluation
  cache and the search journal,
* :mod:`repro.baselines` — contest-entry baselines and the top-down flow,
* :mod:`repro.experiments` — drivers regenerating every table and figure.

Quickstart::

    from repro import CoDesignFlow, CoDesignInputs, LatencyTarget, PYNQ_Z1

    inputs = CoDesignInputs(latency_targets=(LatencyTarget(fps=30.0),))
    result = CoDesignFlow(inputs).run()
    print(result.summary())
"""

from repro.core import (
    AutoDNN,
    AutoHLS,
    Bundle,
    BundleEvaluator,
    CoDesignFlow,
    CoDesignInputs,
    CoDesignResult,
    DNNConfig,
    LatencyTarget,
    ResourceConstraint,
    default_bundle_catalog,
)
from repro.detection import DAC_SDC_TASK, DetectionTask, SyntheticDetectionDataset
from repro.detection.accuracy_model import SurrogateAccuracyModel
from repro.hw import PYNQ_Z1, FPGADevice, TileArchAccelerator, get_device

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CoDesignFlow",
    "CoDesignInputs",
    "CoDesignResult",
    "AutoDNN",
    "AutoHLS",
    "Bundle",
    "BundleEvaluator",
    "DNNConfig",
    "LatencyTarget",
    "ResourceConstraint",
    "default_bundle_catalog",
    "DetectionTask",
    "DAC_SDC_TASK",
    "SyntheticDetectionDataset",
    "SurrogateAccuracyModel",
    "FPGADevice",
    "PYNQ_Z1",
    "get_device",
    "TileArchAccelerator",
]
