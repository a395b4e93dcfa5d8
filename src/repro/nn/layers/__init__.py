"""Layer zoo for the numpy DNN framework.

The layer types mirror the IP templates available to the FPGA accelerator:
standard convolutions (1x1 / 3x3 / 5x5), depth-wise convolutions
(3x3 / 5x5 / 7x7), max pooling, global average pooling, batch
normalisation, and the ReLU-family activations (ReLU, ReLU4, ReLU8) that
the paper ties to quantization bit widths.
"""

from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.conv import Conv2D, DepthwiseConv2D
from repro.nn.layers.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.activation import ReLU, ReLU4, ReLU8, ClippedReLU, Sigmoid
from repro.nn.layers.norm import BatchNorm2D
from repro.nn.layers.head import BBoxHead

__all__ = [
    "Layer",
    "Parameter",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "ReLU",
    "ReLU4",
    "ReLU8",
    "ClippedReLU",
    "Sigmoid",
    "BatchNorm2D",
    "BBoxHead",
]
