"""Tests for the trainer and initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Conv2D, ReLU, Sequential, Trainer
from repro.nn.initializers import get_initializer, he_normal, ones, xavier_uniform, zeros
from repro.nn.training import iterate_minibatches


class TestInitializers:
    def test_he_normal_scale(self):
        w = he_normal((64, 32, 3, 3), rng=0)
        expected_std = np.sqrt(2.0 / (32 * 9))
        assert np.std(w) == pytest.approx(expected_std, rel=0.1)

    def test_xavier_uniform_bounds(self):
        w = xavier_uniform((100, 100), rng=0)
        limit = np.sqrt(6.0 / 200)
        assert np.max(np.abs(w)) <= limit + 1e-6

    def test_zeros_ones(self):
        assert np.all(zeros((3, 3)) == 0.0)
        assert np.all(ones((3,)) == 1.0)

    def test_registry(self):
        assert get_initializer("he_normal") is he_normal
        with pytest.raises(KeyError):
            get_initializer("orthogonal")


class TestMinibatches:
    def test_covers_all_samples(self, rng):
        x = np.arange(10)[:, None].astype(np.float32)
        y = np.arange(10)[:, None].astype(np.float32)
        seen = []
        for xb, yb in iterate_minibatches(x, y, batch_size=3, rng=0):
            assert len(xb) == len(yb)
            seen.extend(xb[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_no_shuffle_preserves_order(self):
        x = np.arange(6)[:, None].astype(np.float32)
        batches = list(iterate_minibatches(x, x, batch_size=2, shuffle=False))
        np.testing.assert_array_equal(batches[0][0][:, 0], [0, 1])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.zeros(4), np.zeros(5), batch_size=2))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.zeros(4), np.zeros(4), batch_size=0))


class TestTrainer:
    def _toy_regression(self, rng):
        """y = mean of the inputs, learnable by a linear model.

        Inputs are 8-channel 1x1 images, so a 1x1 convolution is the
        linear model.
        """
        x = rng.normal(size=(64, 8, 1, 1)).astype(np.float32)
        y = x.mean(axis=1, keepdims=True).repeat(4, axis=1).astype(np.float32)
        return x, y

    def test_loss_decreases_on_toy_problem(self, rng):
        x, y = self._toy_regression(rng)
        model = Sequential([Conv2D(8, 16, 1, rng=0), ReLU(), Conv2D(16, 4, 1, rng=1)])
        trainer = Trainer(model, loss="mse", lr=0.01, batch_size=16, rng=0)
        history = trainer.fit(x, y, epochs=15)
        assert history.train_loss[-1] < history.train_loss[0] * 0.5

    def test_validation_metric_recorded(self, rng):
        x, y = self._toy_regression(rng)
        model = Sequential([Conv2D(8, 4, 1, rng=0)])
        trainer = Trainer(
            model, loss="mse", lr=0.01, batch_size=16,
            metric_fn=lambda p, t: float(-np.mean((p - t) ** 2)), rng=0,
        )
        history = trainer.fit(x[:48], y[:48], x[48:], y[48:], epochs=5)
        assert history.epochs == 5
        assert len(history.val_metric) == 5
        assert np.isfinite(history.best_metric())

    def test_invalid_epochs(self, rng):
        x, y = self._toy_regression(rng)
        model = Sequential([Conv2D(8, 4, 1, rng=0)])
        trainer = Trainer(model, loss="mse")
        with pytest.raises(ValueError):
            trainer.fit(x, y, epochs=0)

    def test_conv_model_trains_on_images(self, rng):
        """End-to-end gradient flow through a small convolutional model."""
        x = rng.normal(size=(32, 1, 8, 8)).astype(np.float32)
        y = x.mean(axis=(1, 2, 3), keepdims=True).repeat(4, axis=1).astype(np.float32)
        # The 4x4 convolution spans the whole 4x4 map: a fully connected output.
        model = Sequential([
            Conv2D(1, 4, 3, stride=2, rng=0), ReLU(), Conv2D(4, 4, 4, padding=0, rng=1),
        ])
        trainer = Trainer(model, loss="mse", lr=5e-3, batch_size=8, rng=0)
        history = trainer.fit(x, y, epochs=10)
        assert history.train_loss[-1] < history.train_loss[0]
