"""Gradient-descent optimizers for the numpy DNN framework."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.layers.base import Parameter


class Optimizer:
    """Base optimizer holding a list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("Learning rate must be positive")
        self.parameters: Sequence[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("Optimizer received no parameters")
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()


class Adam(Optimizer):
    """Adam optimizer."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        beta1, beta2 = self.betas
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad**2
            m_hat = m / (1 - beta1**self._t)
            v_hat = v / (1 - beta2**self._t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
