"""Pure-numpy DNN framework used as the training/inference substrate.

The framework provides exactly the layer types that the paper's IP pool
supports (convolutions, depth-wise convolutions, pooling, normalisation,
ReLU-family activations) plus the bounding-box head needed for the DAC-SDC
object-detection task, with both forward and backward passes so candidate
DNNs can be trained end to end.
"""

from repro.nn.layers import (
    BatchNorm2D,
    BBoxHead,
    ClippedReLU,
    Conv2D,
    DepthwiseConv2D,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    Parameter,
    ReLU,
    ReLU4,
    ReLU8,
    Sigmoid,
)
from repro.nn.layers.activation import make_activation
from repro.nn.losses import IoULoss, L1Loss, MSELoss, SmoothL1Loss, make_loss
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.quantization import (
    FLOAT32,
    W8A8,
    W8A10,
    W8A16,
    W16A16,
    FixedPointQuantizer,
    QuantizationScheme,
    quantize_model_weights,
    scheme_for_activation,
)
from repro.nn.training import Trainer, TrainingHistory, iterate_minibatches

__all__ = [
    "Layer",
    "Parameter",
    "Sequential",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "BatchNorm2D",
    "ReLU",
    "ReLU4",
    "ReLU8",
    "ClippedReLU",
    "Sigmoid",
    "BBoxHead",
    "make_activation",
    "MSELoss",
    "L1Loss",
    "SmoothL1Loss",
    "IoULoss",
    "make_loss",
    "Adam",
    "Trainer",
    "TrainingHistory",
    "iterate_minibatches",
    "QuantizationScheme",
    "FixedPointQuantizer",
    "quantize_model_weights",
    "scheme_for_activation",
    "W8A8",
    "W8A10",
    "W8A16",
    "W16A16",
    "FLOAT32",
]
