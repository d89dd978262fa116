"""Local learners: L2-regularized softmax regression, plus a small MLP.

The softmax learner is convex, Lipschitz and smooth on the bounded iterate
region, so the convergence diagnostics apply to it. Parameters travel as flat
vectors; each learner knows how to reshape them. Every kernel steps all
devices at once with stacked ``@``, taking either per-device parameters
``(D, P)`` or one shared model ``(P,)``; the shared softmax model runs as a
single GEMM over the pooled samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module to size the model
    from .config import DataConfig, TrainingConfig


def augment(features: np.ndarray) -> np.ndarray:
    """Append the constant bias feature."""
    ones = np.ones(features.shape[:-1] + (1,))
    return np.concatenate([features, ones], axis=-1)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Indicator rows along a new last axis, for labels of any shape."""
    return (labels[..., None] == np.arange(n_classes)).astype(float)


@dataclass(frozen=True)
class Samples:
    """Every device's samples in the layout the kernels read.

    Column j of device i is its sample j: ``x`` is ``(d+1, D, n)`` augmented
    features, ``y`` is ``(C, D, n)`` one-hot targets. Device i's matrices are
    ``x[:, i]`` and ``y[:, i]``, and reshaping to ``(., D*n)`` pools all
    samples without a copy, so the class axis is made of whole rows.
    """

    x: np.ndarray
    y: np.ndarray

    @cached_property
    def labels(self) -> np.ndarray:
        """Class indices ``(D, n)`` of the one-hot targets."""
        return self.y.argmax(axis=0)

    @cached_property
    def class_counts(self) -> np.ndarray:
        """Samples of each class per device, ``(D, C)``."""
        return self.y.sum(axis=2).T

    @classmethod
    def stack(cls, features: np.ndarray, labels: np.ndarray,
              n_classes: int) -> "Samples":
        """From ``(D, n, d)`` features and ``(D, n)`` labels."""
        x = augment(features).transpose(2, 0, 1)
        y = one_hot(labels, n_classes).transpose(2, 0, 1)
        return cls(x=np.ascontiguousarray(x), y=np.ascontiguousarray(y))

    @cached_property
    def rows(self) -> np.ndarray:
        """Sample-major features ``(D, n, d+1)``, contiguous: device i's
        samples are the rows of ``rows[i]``."""
        return np.ascontiguousarray(self.x.transpose(1, 2, 0))

    @cached_property
    def target_moments(self) -> np.ndarray:
        """``Y_i X_i^T / n`` per device, class-major ``(D, C, d+1)``: the
        part of the softmax gradient that no model changes."""
        moments = self.y.transpose(1, 0, 2) @ self.rows
        moments /= self.x.shape[2]
        return moments

    @property
    def n_devices(self) -> int:
        return self.x.shape[1]

    def astype(self, dtype) -> "Samples":
        """A copy of the samples in ``dtype``."""
        return Samples(x=self.x.astype(dtype), y=self.y.astype(dtype))

    def select(self, idx: np.ndarray) -> "Samples":
        """Per-device sample subsets; ``idx`` is ``(D, b)`` column indices."""
        return Samples(x=np.take_along_axis(self.x, idx[None], axis=2),
                       y=np.take_along_axis(self.y, idx[None], axis=2))


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Softmax over the class axis, in place."""
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def _nll(z: np.ndarray, labels: np.ndarray, axis: int) -> np.ndarray:
    """Per-sample cross-entropy of logits ``z`` (overwritten) against class
    indices ``labels``, which have ``z``'s shape without ``axis``."""
    z -= z.max(axis=axis, keepdims=True)
    target_logit = np.take_along_axis(
        z, np.expand_dims(labels, axis), axis=axis).squeeze(axis)
    np.exp(z, out=z)
    return np.log(z.sum(axis=axis)) - target_logit


def _l2_mask(weights: np.ndarray) -> np.ndarray:
    """Regularize everything except the bias row."""
    mask = np.ones_like(weights)
    mask[..., -1, :] = 0.0
    return mask * weights


def _l2_penalty(weights: np.ndarray) -> np.ndarray:
    """(1/2)*||W||^2 over the non-bias rows, per leading index."""
    return 0.5 * np.sum(weights[..., :-1, :] ** 2, axis=(-2, -1))


class SoftmaxLearner:
    """Softmax regression on flat ``(d+1)*C`` vectors, bias row last."""

    name = "softmax"
    convex = True

    def __init__(self, d: int, n_classes: int, l2: float, init_scale: float):
        self.d = d
        self.n_classes = n_classes
        self.l2 = l2
        self.init_scale = init_scale
        self.n_params = (d + 1) * n_classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        if self.init_scale == 0.0:
            return np.zeros(self.n_params)
        return rng.standard_normal(self.n_params) * self.init_scale

    def _shape(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(flat.shape[:-1] + (self.d + 1, self.n_classes))

    def _logits(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Class-major logits ``(C, D, n)``.

        Per-device weights write each device's block straight into the
        pooled layout, so the softmax reduces over whole class rows either
        way.
        """
        f, n_dev, n = x.shape
        if weights.ndim == 2:
            return (weights.T @ x.reshape(f, -1)).reshape(-1, n_dev, n)
        z = np.empty((self.n_classes, n_dev, n), dtype=x.dtype)
        np.matmul(weights.transpose(0, 2, 1), x.transpose(1, 0, 2),
                  out=z.transpose(1, 0, 2))
        return z

    def _probabilities(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Class-major softmax probabilities ``(C, D, n)``."""
        return _softmax(self._logits(weights, x), axis=0)

    def grad(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device gradients ``(D, P)`` of the mean loss plus L2, in the
        dtype of ``flat`` and ``samples``."""
        weights = self._shape(flat)
        x = samples.x
        resid = self._probabilities(weights, x)
        resid -= samples.y
        grads = x.transpose(1, 0, 2) @ resid.transpose(1, 2, 0)
        grads /= x.shape[2]
        # regularize everything except the bias row
        grads[..., :-1, :] += self.l2 * weights[..., :-1, :]
        return grads.reshape(samples.n_devices, -1)

    def probe_grad(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Every device's gradient of the mean loss at one shared model
        ``(P,)``, without the L2 term and in class-major ``(C, d+1)`` order:
        ``(D, P)`` in the dtype of ``flat`` and ``samples``.

        At a shared model the L2 term is the same for every device, so it
        cancels in every difference ``measure_divergence`` takes, and the
        order of coordinates changes no norm or average. The samples'
        cached ``rows`` and ``target_moments`` make the pass one softmax and
        one reduction.
        """
        probs = self._probabilities(self._shape(flat), samples.x)
        grads = probs.transpose(1, 0, 2) @ samples.rows
        grads /= samples.x.shape[2]
        grads -= samples.target_moments
        return grads.reshape(samples.n_devices, -1)

    def loss(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device mean cross-entropy plus (l2/2)*||W||^2, shape ``(D,)``."""
        weights = self._shape(flat)
        nll = _nll(self._logits(weights, samples.x), samples.labels, axis=0)
        return nll.mean(axis=1) + self.l2 * _l2_penalty(weights)

    def accuracy(self, flat: np.ndarray, features: np.ndarray,
                 labels: np.ndarray) -> float:
        pred = np.argmax(augment(features) @ self._shape(flat), axis=-1)
        return float(np.mean(pred == labels))


class MlpLearner:
    """One-hidden-layer tanh network; nonconvex, diagnostics are skipped."""

    name = "mlp"
    convex = False

    def __init__(self, d: int, n_classes: int, l2: float, hidden: int,
                 init_scale: float):
        self.d = d
        self.n_classes = n_classes
        self.l2 = l2
        self.hidden = hidden
        self.init_scale = init_scale
        self.n_w1 = (d + 1) * hidden
        self.n_params = self.n_w1 + (hidden + 1) * n_classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """``1/sqrt(fan_in)``-scaled normal draws times ``init_scale``."""
        w1 = rng.standard_normal((self.d + 1, self.hidden)) / np.sqrt(self.d + 1)
        w2 = rng.standard_normal((self.hidden + 1, self.n_classes)) / np.sqrt(self.hidden + 1)
        return np.concatenate([w1.ravel(), w2.ravel()]) * self.init_scale

    def _split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lead = flat.shape[:-1]
        w1 = flat[..., :self.n_w1].reshape(lead + (self.d + 1, self.hidden))
        w2 = flat[..., self.n_w1:].reshape(lead + (self.hidden + 1, self.n_classes))
        return w1, w2

    def _forward(self, flat, x):
        """Per-device activations ``(D, hidden, n)`` and logits ``(D, C, n)``."""
        w1, w2 = self._split(flat)
        h = np.tanh(np.swapaxes(w1, -1, -2) @ x.transpose(1, 0, 2))
        h_aug = np.concatenate([h, np.ones((h.shape[0], 1, h.shape[2]))], axis=1)
        logits = np.swapaxes(w2, -1, -2) @ h_aug
        return w1, w2, h, h_aug, logits

    def grad(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device gradients ``(D, P)`` of the mean loss plus L2."""
        w1, w2, h, h_aug, logits = self._forward(flat, samples.x)
        n = samples.x.shape[2]
        diff = _softmax(logits, axis=1)
        diff -= samples.y.transpose(1, 0, 2)
        g2 = h_aug @ diff.transpose(0, 2, 1) / n
        back = (w2[..., :-1, :] @ diff) * (1 - h ** 2)
        g1 = samples.x.transpose(1, 0, 2) @ back.transpose(0, 2, 1) / n
        g1 += self.l2 * _l2_mask(w1)
        g2 += self.l2 * _l2_mask(w2)
        n_dev = samples.n_devices
        return np.concatenate([g1.reshape(n_dev, -1), g2.reshape(n_dev, -1)],
                              axis=1)

    def loss(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device mean cross-entropy plus L2, shape ``(D,)``."""
        w1, w2, _, _, logits = self._forward(flat, samples.x)
        nll = _nll(logits, samples.labels, axis=1)
        return nll.mean(axis=1) + self.l2 * (_l2_penalty(w1) + _l2_penalty(w2))

    def accuracy(self, flat: np.ndarray, features: np.ndarray,
                 labels: np.ndarray) -> float:
        x = augment(features).T[:, None, :]
        _, _, _, _, logits = self._forward(flat, x)
        pred = np.argmax(logits[0], axis=0)
        return float(np.mean(pred == labels))


def make_learner(training: TrainingConfig, data: DataConfig):
    if training.learner == "softmax":
        return SoftmaxLearner(data.feature_dim, data.n_classes, training.l2,
                              training.init_scale)
    return MlpLearner(data.feature_dim, data.n_classes, training.l2,
                      training.hidden_dim, training.init_scale)
