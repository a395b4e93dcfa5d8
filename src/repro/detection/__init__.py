"""Object-detection task substrate (DAC-SDC-style single-object detection).

The paper evaluates on the 2018 DAC System Design Contest dataset: ~50K
images, each containing a single object of interest, scored by mean
Intersection-over-Union (IoU) of the predicted bounding box.  The official
dataset is not redistributable, so this package provides:

* :mod:`repro.detection.dataset` — a synthetic single-object dataset
  generator exercising the same input/label format and metric,
* :mod:`repro.detection.metrics` — IoU computation,
* :mod:`repro.detection.accuracy_model` — a calibrated surrogate accuracy
  predictor used for full-scale searches where training every candidate
  end-to-end would be prohibitively slow.
"""

from repro.detection.dataset import DetectionSample, SyntheticDetectionDataset
from repro.detection.metrics import box_iou, mean_iou
from repro.detection.task import DetectionTask, DAC_SDC_TASK
from repro.detection.accuracy_model import AccuracyModel, SurrogateAccuracyModel

__all__ = [
    "DetectionSample",
    "SyntheticDetectionDataset",
    "box_iou",
    "mean_iou",
    "DetectionTask",
    "DAC_SDC_TASK",
    "AccuracyModel",
    "SurrogateAccuracyModel",
]
