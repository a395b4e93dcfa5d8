"""Machine-learning task descriptions consumed by the co-design flow.

The co-design flow (Fig. 1) takes the target ML task as an input; the task
object carries the information the flow needs: input resolution, number of
output values, the dataset size used for throughput accounting (the contest
measures FPS over 50K images), and the metric name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DetectionTask:
    """Single-object detection task description.

    Attributes
    ----------
    name:
        Human-readable identifier.
    input_shape:
        Network input as ``(channels, height, width)``.
    num_outputs:
        Number of regression outputs (4 box coordinates).
    dataset_size:
        Number of evaluation images used for end-to-end FPS / energy
        accounting (50 000 for DAC-SDC).
    metric:
        Accuracy metric name (``"iou"``).
    """

    name: str
    input_shape: tuple[int, int, int]
    num_outputs: int = 4
    dataset_size: int = 50_000
    metric: str = "iou"

    def __post_init__(self) -> None:
        if len(self.input_shape) != 3:
            raise ValueError("input_shape must be (channels, height, width)")
        if any(d <= 0 for d in self.input_shape):
            raise ValueError("input_shape entries must be positive")
        if self.num_outputs <= 0:
            raise ValueError("num_outputs must be positive")
        if self.dataset_size <= 0:
            raise ValueError("dataset_size must be positive")

    @property
    def input_pixels(self) -> int:
        """Number of pixels in one input frame."""
        _, h, w = self.input_shape
        return h * w


#: The DAC-SDC 2018 object-detection task used throughout the paper.
#: Input frames are resized to 160x320 (the aspect ratio of the 360x640
#: contest images) before inference, matching edge-scale deployments.
DAC_SDC_TASK = DetectionTask(
    name="dac-sdc-2018-object-detection",
    input_shape=(3, 160, 320),
    num_outputs=4,
    dataset_size=50_000,
    metric="iou",
)

#: A reduced-resolution variant used by tests and quick examples.
TINY_DETECTION_TASK = DetectionTask(
    name="tiny-object-detection",
    input_shape=(3, 32, 64),
    num_outputs=4,
    dataset_size=1_000,
    metric="iou",
)
