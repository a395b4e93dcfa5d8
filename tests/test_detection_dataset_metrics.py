"""Tests for the synthetic dataset, IoU metrics and task descriptions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.dataset import DetectionSample, SyntheticDetectionDataset
from repro.detection.metrics import box_iou, mean_iou
from repro.detection.task import DAC_SDC_TASK, TINY_DETECTION_TASK, DetectionTask


class TestSyntheticDataset:
    def test_deterministic_given_seed(self):
        a = SyntheticDetectionDataset(num_samples=4, seed=7)
        b = SyntheticDetectionDataset(num_samples=4, seed=7)
        sa, sb = a[2], b[2]
        np.testing.assert_array_equal(sa.image, sb.image)
        np.testing.assert_array_equal(sa.box, sb.box)

    def test_different_seed_differs(self):
        a = SyntheticDetectionDataset(num_samples=2, seed=1)[0]
        b = SyntheticDetectionDataset(num_samples=2, seed=2)[0]
        assert not np.allclose(a.image, b.image)

    def test_image_range_and_shape(self):
        ds = SyntheticDetectionDataset(image_shape=(3, 16, 32), num_samples=3)
        sample = ds[0]
        assert sample.image.shape == (3, 16, 32)
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0

    def test_box_normalised_and_inside_image(self):
        ds = SyntheticDetectionDataset(num_samples=20, seed=3)
        for sample in ds:
            cx, cy, w, h = sample.box
            assert 0.0 < w <= 1.0 and 0.0 < h <= 1.0
            assert 0.0 <= cx - w / 2 + 1e-6 and cx + w / 2 <= 1.0 + 1e-6
            assert 0.0 <= cy - h / 2 + 1e-6 and cy + h / 2 <= 1.0 + 1e-6

    def test_object_brighter_than_background(self):
        ds = SyntheticDetectionDataset(image_shape=(1, 32, 32), num_samples=5, seed=0)
        sample = ds[0]
        _, h, w = sample.image.shape
        cx, cy, bw, bh = sample.box
        x0, x1 = int((cx - bw / 2) * w), int((cx + bw / 2) * w)
        y0, y1 = int((cy - bh / 2) * h), int((cy + bh / 2) * h)
        inside = sample.image[0, y0:y1, x0:x1].mean()
        outside = sample.image[0].mean()
        assert inside > outside

    def test_len_iter_getitem(self):
        ds = SyntheticDetectionDataset(num_samples=5)
        assert len(ds) == 5
        assert len(list(ds)) == 5
        with pytest.raises(IndexError):
            ds[5]

    def test_as_arrays_shapes(self):
        ds = SyntheticDetectionDataset(image_shape=(3, 8, 16), num_samples=6)
        x, y = ds.as_arrays()
        assert x.shape == (6, 3, 8, 16)
        assert y.shape == (6, 4)

    def test_train_val_split(self):
        ds = SyntheticDetectionDataset(num_samples=8)
        (xt, yt), (xv, yv) = ds.train_val_split(val_fraction=0.25)
        assert len(xt) == 6 and len(xv) == 2
        assert len(yt) == 6 and len(yv) == 2
        with pytest.raises(ValueError):
            ds.train_val_split(val_fraction=1.5)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            SyntheticDetectionDataset(num_samples=0)
        with pytest.raises(ValueError):
            SyntheticDetectionDataset(min_object_frac=0.5, max_object_frac=0.2)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            DetectionSample(image=np.zeros((3, 4)), box=np.zeros(4), shape="rectangle")


class TestIoU:
    def test_identical_boxes(self):
        box = np.array([[0.5, 0.5, 0.4, 0.2]])
        np.testing.assert_allclose(box_iou(box, box), [1.0])

    def test_disjoint_boxes(self):
        a = np.array([[0.2, 0.2, 0.1, 0.1]])
        b = np.array([[0.8, 0.8, 0.1, 0.1]])
        np.testing.assert_allclose(box_iou(a, b), [0.0])

    def test_half_overlap(self):
        a = np.array([[0.25, 0.5, 0.5, 1.0]])
        b = np.array([[0.5, 0.5, 0.5, 1.0]])
        # Intersection 0.25 wide, union 0.75 wide -> IoU = 1/3.
        np.testing.assert_allclose(box_iou(a, b), [1.0 / 3.0], rtol=1e-6)

    def test_single_box_shape(self):
        iou = box_iou(np.array([0.5, 0.5, 0.2, 0.2]), np.array([0.5, 0.5, 0.2, 0.2]))
        assert iou.shape == (1,)

    def test_mean_iou(self):
        a = np.array([[0.5, 0.5, 0.2, 0.2], [0.2, 0.2, 0.1, 0.1]])
        b = np.array([[0.5, 0.5, 0.2, 0.2], [0.8, 0.8, 0.1, 0.1]])
        assert mean_iou(a, b) == pytest.approx(0.5)

    def test_mismatched_counts_raise(self):
        with pytest.raises(ValueError):
            box_iou(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_degenerate_boxes_zero(self):
        a = np.array([[0.5, 0.5, 0.0, 0.0]])
        b = np.array([[0.5, 0.5, 0.2, 0.2]])
        np.testing.assert_allclose(box_iou(a, b), [0.0])


_box = st.tuples(
    st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.05, 0.5), st.floats(0.05, 0.5)
).map(lambda t: np.array([t], dtype=np.float64))


class TestIoUProperties:
    @given(_box, _box)
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, a, b):
        assert box_iou(a, b)[0] == pytest.approx(box_iou(b, a)[0], rel=1e-9)

    @given(_box, _box)
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, a, b):
        value = box_iou(a, b)[0]
        assert 0.0 <= value <= 1.0 + 1e-9

    @given(_box)
    @settings(max_examples=30, deadline=None)
    def test_self_iou_is_one(self, a):
        assert box_iou(a, a)[0] == pytest.approx(1.0, rel=1e-9)


class TestDetectionTask:
    def test_dac_sdc_defaults(self):
        assert DAC_SDC_TASK.input_shape == (3, 160, 320)
        assert DAC_SDC_TASK.dataset_size == 50_000
        assert DAC_SDC_TASK.input_pixels == 160 * 320

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionTask(name="bad", input_shape=(3, 0, 10))
        with pytest.raises(ValueError):
            DetectionTask(name="bad", input_shape=(3, 10, 10), num_outputs=0)

    def test_tiny_task_is_small(self):
        assert TINY_DETECTION_TASK.input_pixels < DAC_SDC_TASK.input_pixels
