"""Synthetic single-object detection dataset.

The DAC-SDC dataset (50K UAV images, one labelled object per image) is not
redistributable and far too large for a self-contained reproduction, so this
module generates synthetic images that exercise the same pipeline: an image
with textured background, one salient object (rectangle, ellipse or cross
shape with a distinct intensity), and a normalised ``(cx, cy, w, h)`` box
label.  The generator is deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.utils.rng import ensure_rng

_SHAPES = ("rectangle", "ellipse", "cross")


@dataclass(frozen=True)
class DetectionSample:
    """One synthetic sample: an image and its ground-truth box."""

    image: np.ndarray  # (C, H, W) float32 in [0, 1]
    box: np.ndarray    # (4,) normalised (cx, cy, w, h)
    shape: str         # which object shape was drawn

    def __post_init__(self) -> None:
        if self.image.ndim != 3:
            raise ValueError("image must be (C, H, W)")
        if self.box.shape != (4,):
            raise ValueError("box must have 4 entries")


class SyntheticDetectionDataset:
    """Deterministic generator of single-object detection samples.

    Parameters
    ----------
    image_shape:
        ``(channels, height, width)`` of generated images.
    num_samples:
        Number of samples the dataset exposes.
    min_object_frac, max_object_frac:
        Bounds on object width/height as a fraction of image size; the
        DAC-SDC objects are small (UAV footage), hence the small defaults.
    noise_level:
        Standard deviation of the additive background noise.
    seed:
        RNG seed; the same seed always yields the same dataset.
    """

    def __init__(
        self,
        image_shape: tuple[int, int, int] = (3, 32, 64),
        num_samples: int = 256,
        min_object_frac: float = 0.15,
        max_object_frac: float = 0.45,
        noise_level: float = 0.05,
        seed: int = 0,
    ) -> None:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not 0.0 < min_object_frac < max_object_frac <= 1.0:
            raise ValueError("object fraction bounds must satisfy 0 < min < max <= 1")
        if len(image_shape) != 3 or any(d <= 0 for d in image_shape):
            raise ValueError("image_shape must be a positive (C, H, W) triple")
        self.image_shape = image_shape
        self.num_samples = num_samples
        self.min_object_frac = min_object_frac
        self.max_object_frac = max_object_frac
        self.noise_level = noise_level
        self.seed = seed

    # ------------------------------------------------------------ generation
    def _draw_object(
        self, image: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, str]:
        """Draw one object into ``image`` (in place); returns (box, shape)."""
        c, h, w = image.shape
        obj_w = int(round(rng.uniform(self.min_object_frac, self.max_object_frac) * w))
        obj_h = int(round(rng.uniform(self.min_object_frac, self.max_object_frac) * h))
        obj_w = max(obj_w, 2)
        obj_h = max(obj_h, 2)
        x0 = int(rng.integers(0, max(w - obj_w, 1)))
        y0 = int(rng.integers(0, max(h - obj_h, 1)))
        shape = _SHAPES[int(rng.integers(0, len(_SHAPES)))]
        color = rng.uniform(0.6, 1.0, size=(c, 1)).astype(np.float32)

        yy, xx = np.mgrid[0:obj_h, 0:obj_w]
        if shape == "rectangle":
            mask = np.ones((obj_h, obj_w), dtype=bool)
        elif shape == "ellipse":
            cy_o, cx_o = (obj_h - 1) / 2.0, (obj_w - 1) / 2.0
            mask = ((yy - cy_o) / max(cy_o, 1)) ** 2 + ((xx - cx_o) / max(cx_o, 1)) ** 2 <= 1.0
        else:  # cross
            band_h = max(obj_h // 3, 1)
            band_w = max(obj_w // 3, 1)
            mask = (np.abs(yy - obj_h // 2) <= band_h // 2 + 1) | (
                np.abs(xx - obj_w // 2) <= band_w // 2 + 1
            )

        region = image[:, y0:y0 + obj_h, x0:x0 + obj_w]
        region[:, mask] = color

        box = np.array(
            [
                (x0 + obj_w / 2.0) / w,
                (y0 + obj_h / 2.0) / h,
                obj_w / w,
                obj_h / h,
            ],
            dtype=np.float32,
        )
        return box, shape

    def generate_sample(self, index: int) -> DetectionSample:
        """Generate the ``index``-th sample deterministically."""
        if not 0 <= index < self.num_samples:
            raise IndexError(f"index {index} out of range [0, {self.num_samples})")
        rng = ensure_rng(self.seed * 1_000_003 + index)
        c, h, w = self.image_shape
        # Textured background: low-frequency gradient plus noise.
        gy = np.linspace(0.0, 1.0, h)[None, :, None]
        gx = np.linspace(0.0, 1.0, w)[None, None, :]
        base = 0.25 * gy + 0.25 * gx
        image = np.broadcast_to(base, (c, h, w)).astype(np.float32).copy()
        image += rng.normal(0.0, self.noise_level, size=(c, h, w)).astype(np.float32)
        image = np.clip(image, 0.0, 1.0)
        box, shape = self._draw_object(image, rng)
        return DetectionSample(image=image, box=box, shape=shape)

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return self.num_samples

    def __getitem__(self, index: int) -> DetectionSample:
        return self.generate_sample(index)

    def __iter__(self) -> Iterator[DetectionSample]:
        for i in range(self.num_samples):
            yield self.generate_sample(i)

    def as_arrays(self, indices: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(images, boxes)`` numpy arrays for training."""
        if indices is None:
            indices = range(self.num_samples)
        samples = [self.generate_sample(i) for i in indices]
        images = np.stack([s.image for s in samples])
        boxes = np.stack([s.box for s in samples])
        return images, boxes

    def train_val_split(
        self, val_fraction: float = 0.25
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Split into train / validation arrays.

        The split is deterministic: the last ``val_fraction`` of samples form
        the validation set.
        """
        if not 0.0 < val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        n_val = max(int(round(self.num_samples * val_fraction)), 1)
        n_train = self.num_samples - n_val
        if n_train <= 0:
            raise ValueError("val_fraction leaves no training samples")
        train = self.as_arrays(range(n_train))
        val = self.as_arrays(range(n_train, self.num_samples))
        return train, val
