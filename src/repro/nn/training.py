"""Training loop for the numpy DNN framework.

The trainer is deliberately simple: the co-design flow only needs short
"proxy" training runs (the paper trains candidate DNNs for 20 epochs during
bundle evaluation) to rank candidates, plus longer fine-tuning for the final
designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from repro.nn.losses import Loss, make_loss
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike, ensure_rng

logger = get_logger(__name__)


@dataclass
class TrainingHistory:
    """Per-epoch record of losses and validation metrics."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def best_metric(self) -> float:
        """Best (maximum) validation metric seen, or ``nan`` when unavailable."""
        return max(self.val_metric) if self.val_metric else float("nan")


def iterate_minibatches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: RNGLike = None,
    shuffle: bool = True,
) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """Yield mini-batches from ``(x, y)``, optionally shuffling each epoch."""
    if len(x) != len(y):
        raise ValueError("x and y must have the same leading dimension")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    indices = np.arange(len(x))
    if shuffle:
        ensure_rng(rng).shuffle(indices)
    for start in range(0, len(x), batch_size):
        batch = indices[start:start + batch_size]
        yield x[batch], y[batch]


class Trainer:
    """Mini-batch Adam trainer for :class:`Sequential` models."""

    def __init__(
        self,
        model: Sequential,
        loss: Loss | str = "smooth_l1",
        lr: float = 1e-3,
        batch_size: int = 16,
        metric_fn: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
        rng: RNGLike = None,
    ) -> None:
        self.model = model
        self.loss = make_loss(loss) if isinstance(loss, str) else loss
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.batch_size = batch_size
        self.metric_fn = metric_fn
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------------ train
    def train_epoch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One pass over the training data; returns the mean batch loss."""
        self.model.train()
        losses = []
        for xb, yb in iterate_minibatches(x, y, self.batch_size, rng=self.rng):
            self.optimizer.zero_grad()
            pred = self.model.forward(xb)
            loss_value, grad = self.loss(pred, yb)
            self.model.backward(grad)
            self.optimizer.step()
            losses.append(loss_value)
        return float(np.mean(losses)) if losses else 0.0

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """Return ``(loss, metric)`` on held-out data (metric ``nan`` if unset)."""
        self.model.eval()
        pred = self.model.forward(x)
        loss_value, _ = self.loss(pred, y)
        metric = self.metric_fn(pred, y) if self.metric_fn else float("nan")
        return loss_value, metric

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        epochs: int = 20,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` epochs and return the history."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        history = TrainingHistory()
        for epoch in range(epochs):
            train_loss = self.train_epoch(x_train, y_train)
            history.train_loss.append(train_loss)
            if x_val is not None and y_val is not None:
                val_loss, val_metric = self.evaluate(x_val, y_val)
                history.val_loss.append(val_loss)
                history.val_metric.append(val_metric)
                if verbose:
                    logger.info(
                        "epoch %d: train_loss=%.4f val_loss=%.4f val_metric=%.4f",
                        epoch, train_loss, val_loss, val_metric,
                    )
            elif verbose:
                logger.info("epoch %d: train_loss=%.4f", epoch, train_loss)
        return history
