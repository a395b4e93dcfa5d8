"""Sequential model container with shape inference and workload accounting."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.nn.layers.base import Layer, Parameter


class Sequential(Layer):
    """A linear stack of layers executed in order.

    The container also provides static analyses used by the co-design flow:
    per-layer output shapes, parameter counts and MAC counts, and a textual
    summary similar to Keras' ``model.summary()``.
    """

    layer_type = "model"

    def __init__(self, layers: Optional[Sequence[Layer]] = None, name: str = "model") -> None:
        super().__init__(name=name)
        self.layers: list[Layer] = list(layers) if layers else []

    # ------------------------------------------------------------- container
    def add(self, layer: Layer) -> "Sequential":
        """Append a layer; returns ``self`` for chaining."""
        if not isinstance(layer, Layer):
            raise TypeError(f"Expected a Layer, got {type(layer).__name__}")
        self.layers.append(layer)
        return self

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]

    # ----------------------------------------------------------------- graph
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> Iterable[Parameter]:
        for layer in self.layers:
            yield from layer.parameters()

    def train(self) -> None:
        super().train()
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        super().eval()
        for layer in self.layers:
            layer.eval()

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # -------------------------------------------------------------- analysis
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def num_ops(self, input_shape: tuple[int, ...]) -> int:
        """Total multiply-accumulate count for one input sample."""
        total = 0
        shape = input_shape
        for layer in self.layers:
            total += layer.num_ops(shape)
            shape = layer.output_shape(shape)
        return total

    def summary(self, input_shape: tuple[int, ...]) -> str:
        """Human-readable per-layer summary table."""
        lines = [f"Model: {self.name}"]
        header = f"{'#':>3}  {'layer':<24} {'output shape':<18} {'params':>10} {'MACs':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        shape = input_shape
        total_params = 0
        total_ops = 0
        for i, layer in enumerate(self.layers):
            ops = layer.num_ops(shape)
            shape = layer.output_shape(shape)
            params = layer.num_params()
            total_params += params
            total_ops += ops
            lines.append(
                f"{i:>3}  {layer.name:<24} {str(shape):<18} {params:>10,} {ops:>14,}"
            )
        lines.append("-" * len(header))
        lines.append(f"Total params: {total_params:,}   Total MACs: {total_ops:,}")
        return "\n".join(lines)
