"""Shared fixtures for the test suite.

Most fixtures are deliberately small (tiny input resolutions, few samples,
small parallel factors) so the full suite stays fast while still exercising
the real code paths.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

import repro.utils.jsonl as jsonl
from fault_cli import full_disk
from repro.core.bundle_generation import default_bundle_catalog, get_bundle
from repro.core.dnn_config import DNNConfig
from repro.detection.task import DAC_SDC_TASK, DetectionTask, TINY_DETECTION_TASK
from repro.hw.device import PYNQ_Z1
from repro.hw.tile_arch import TileArchAccelerator

# Keep the logs quiet during tests.
logging.getLogger("repro").setLevel(logging.ERROR)


@pytest.fixture
def disk_full(monkeypatch):
    """``disk_full(glob)``: appends to files named like ``glob`` fail with ENOSPC.

    Patches the ``open`` of :mod:`repro.utils.jsonl`, the one module that
    appends to files; ``monkeypatch.undo()`` clears the fault.
    """
    return lambda pattern: monkeypatch.setattr(jsonl, "open", full_disk(pattern),
                                               raising=False)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_task() -> DetectionTask:
    """A reduced-resolution detection task used by most hardware/core tests."""
    return TINY_DETECTION_TASK


@pytest.fixture(scope="session")
def full_task() -> DetectionTask:
    """The full DAC-SDC task (used sparingly)."""
    return DAC_SDC_TASK


@pytest.fixture(scope="session")
def device():
    return PYNQ_Z1


@pytest.fixture(scope="session")
def bundle13():
    """The dw-conv3x3 + conv1x1 bundle used by the paper's final designs."""
    return get_bundle(13)


@pytest.fixture(scope="session")
def bundle1():
    return get_bundle(1)


@pytest.fixture(scope="session")
def catalog():
    return default_bundle_catalog()


@pytest.fixture
def tiny_config(bundle13, tiny_task) -> DNNConfig:
    """A small candidate DNN on the tiny task."""
    return DNNConfig(
        bundle=bundle13,
        task=tiny_task,
        num_repetitions=2,
        channel_expansion=(1.5, 1.5),
        downsample=(1, 1),
        stem_channels=16,
        activation="relu4",
        parallel_factor=8,
        max_channels=64,
        name="tiny-dnn",
    )


@pytest.fixture
def tiny_accelerator(tiny_config, device) -> TileArchAccelerator:
    """A Tile-Arch accelerator built for the tiny candidate."""
    return TileArchAccelerator.build(
        tiny_config.to_workload(), device, parallel_factor=tiny_config.parallel_factor
    )
