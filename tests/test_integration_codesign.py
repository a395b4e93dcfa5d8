"""Integration tests: the three-step co-design flow end to end.

The flow is exercised on the full DAC-SDC task with a reduced bundle set and
iteration budget so the test stays fast, and on the tiny task with real
training to show the trained-accuracy path works end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.codesign import CoDesignFlow, CoDesignInputs, CoDesignResult
from repro.core.constraints import LatencyTarget
from repro.detection.accuracy_model import SurrogateAccuracyModel
from repro.detection.dataset import SyntheticDetectionDataset
from repro.detection.metrics import mean_iou
from repro.detection.task import DAC_SDC_TASK, TINY_DETECTION_TASK
from repro.hw.device import PYNQ_Z1
from repro.nn.quantization import quantize_model_weights, scheme_for_activation
from repro.nn.training import Trainer


@pytest.fixture(scope="module")
def flow_result() -> CoDesignResult:
    inputs = CoDesignInputs(
        task=DAC_SDC_TASK,
        device=PYNQ_Z1,
        latency_targets=(LatencyTarget(fps=40.0, tolerance_ms=6.0),),
        bundles=tuple(get_bundle(i) for i in (1, 3, 13, 15)),
    )
    flow = CoDesignFlow(
        inputs,
        accuracy_model=SurrogateAccuracyModel(noise=0.0),
        candidates_per_bundle=1,
        top_n_bundles=2,
        scd_iterations=60,
        rng=7,
    )
    return flow.run()


class TestCoDesignFlow:
    def test_step1_fits_models(self, flow_result):
        assert flow_result.sampling is not None
        assert flow_result.sampling.coefficients.alpha > 0

    def test_step2_selects_subset(self, flow_result):
        assert 1 <= len(flow_result.selected_bundles) <= 2
        selected_ids = {b.bundle_id for b in flow_result.selected_bundles}
        assert selected_ids.issubset({1, 3, 13, 15})

    def test_step3_produces_candidates_with_hardware(self, flow_result):
        assert flow_result.candidates
        for candidate in flow_result.candidates:
            assert candidate.hls is not None
            assert candidate.hls.design.total_lines > 50
            assert candidate.hls.report.resources.dsp > 0

    def test_final_designs_meet_constraints(self, flow_result):
        constraint = flow_result.inputs.resource_constraint
        final_designs = [c for c in flow_result.best_per_target.values() if c is not None]
        for candidate in final_designs:
            assert constraint.satisfied_by(candidate.estimate.resources)
            assert 0.0 < candidate.accuracy < 1.0

    def test_summary_renders(self, flow_result):
        text = flow_result.summary()
        assert "selected bundles" in text
        assert "explored DNNs" in text

    def test_coarse_and_fine_evaluations_recorded(self, flow_result):
        assert len(flow_result.coarse_evaluations) == 4 * 3  # 4 bundles x 3 PFs
        assert flow_result.fine_evaluations


class TestTrainedPathIntegration:
    def test_searched_design_trains_and_deploys(self):
        """A searched configuration can be trained, quantized and synthesised."""
        bundle = get_bundle(13)
        from repro.core.dnn_config import DNNConfig

        config = DNNConfig(
            bundle=bundle, task=TINY_DETECTION_TASK, num_repetitions=2,
            channel_expansion=(1.5, 1.5), downsample=(1, 1), stem_channels=16,
            activation="relu4", parallel_factor=16, max_channels=64,
        )

        # Software side: train the numpy model for a few epochs, as
        # examples/train_and_deploy.py does.
        dataset = SyntheticDetectionDataset(
            image_shape=TINY_DETECTION_TASK.input_shape, num_samples=64, seed=1)
        (x_train, y_train), (x_val, y_val) = dataset.train_val_split()
        model = config.to_model(rng=0)
        trainer = Trainer(model, loss="smooth_l1", lr=2e-3, batch_size=8,
                          metric_fn=mean_iou, rng=1)
        history = trainer.fit(x_train, y_train, x_val, y_val, epochs=6)
        assert history.epochs == 6
        assert 0.0 <= history.val_metric[-1] <= 1.0

        # Quantize the trained weights with the scheme implied by the config.
        scheme = scheme_for_activation(config.activation, config.weight_bits)
        scales = quantize_model_weights(model, scheme)
        assert scales

        # The quantized model still produces valid boxes.
        model.eval()
        images, boxes = dataset.as_arrays(range(8))
        pred = model.forward(images)
        assert np.all((pred >= 0.0) & (pred <= 1.0))
        assert 0.0 <= mean_iou(pred, boxes) <= 1.0

        # Hardware side: generate and synthesise the accelerator.
        engine = AutoHLS(PYNQ_Z1)
        hls = engine.generate(config)
        assert hls.report.meets_timing
        assert hls.accelerator.fits()

    def test_flow_defaults_use_full_catalog(self):
        inputs = CoDesignInputs()
        assert len(inputs.bundles) == 18
        assert inputs.task is DAC_SDC_TASK
        assert len(inputs.latency_targets) == 3
