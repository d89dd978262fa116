"""Local learners: L2-regularized softmax regression, plus a small MLP.

The softmax learner is convex, Lipschitz and smooth on the bounded iterate
region, so the convergence diagnostics apply to it. Parameters travel as flat
vectors; each learner knows how to reshape them. Every kernel steps all
devices at once with stacked ``@``, taking either per-device parameters
``(D, P)`` or one shared model ``(P,)``; the shared softmax model runs as a
single GEMM over the pooled samples. The samples carry class labels, not
one-hot targets: a gradient subtracts 1 from each sample's probability at
its label, which gives ``probs - Y`` bit for bit. The softmax learner's
``grad`` and ``loss`` share one softmax, and ``loss_and_grad`` gives both
from one pass, equal to theirs bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module to size the model
    from .config import DataConfig, TrainingConfig


@dataclass(frozen=True)
class Samples:
    """Every device's samples in the layout the kernels read.

    Column j of device i is its sample j: ``x`` is ``(d+1, D, n)`` augmented
    features and ``labels`` ``(D, n)`` their class indices, out of
    ``n_classes``. Device i's samples are ``x[:, i]`` and ``labels[i]``, and
    reshaping ``x`` to ``(d+1, D*n)`` pools all samples without a copy, so
    the class-major ``(C, D, n)`` logits are made of whole rows. No one-hot
    targets are kept: the gradient subtracts 1 at each sample's label.
    """

    x: np.ndarray
    labels: np.ndarray
    n_classes: int

    @cached_property
    def class_counts(self) -> np.ndarray:
        """Samples of each class per device, ``(D, C)``, as floats."""
        n_dev, n_classes = self.n_devices, self.n_classes
        keys = self.labels + n_classes * np.arange(n_dev)[:, None]
        counts = np.bincount(keys.ravel(), minlength=n_dev * n_classes)
        return counts.reshape(n_dev, n_classes).astype(float)

    @cached_property
    def target_index(self) -> np.ndarray:
        """Flat indices ``(D, n)`` of each sample's label entry in a
        contiguous class-major ``(C, D, n)`` array."""
        n_dev, n = self.labels.shape
        return (self.labels * (n_dev * n)
                + np.arange(n_dev * n).reshape(n_dev, n))

    @classmethod
    def stack(cls, features: np.ndarray, labels: np.ndarray,
              n_classes: int) -> "Samples":
        """From ``(D, n, d)`` features and ``(D, n)`` labels."""
        n_dev, n, d = features.shape
        x = np.empty((d + 1, n_dev, n))
        x[:-1] = features.transpose(2, 0, 1)
        x[-1] = 1.0
        return cls(x=x, labels=labels, n_classes=n_classes)

    @property
    def n_devices(self) -> int:
        return self.x.shape[1]

    def select(self, idx: np.ndarray) -> "Samples":
        """Per-device sample subsets; ``idx`` is ``(D, b)`` column indices."""
        return Samples(x=np.take_along_axis(self.x, idx[None], axis=2),
                       labels=np.take_along_axis(self.labels, idx, axis=1),
                       n_classes=self.n_classes)


@dataclass(frozen=True)
class ProbeSamples:
    """What ``SoftmaxLearner.probe_grad`` reads of the samples, all in one
    dtype: the features ``x`` ``(d+1, D, n)``, the same features
    sample-major and contiguous in ``rows`` ``(D, n, d+1)``, and
    ``target_moments``, ``Y_i X_i^T / n`` per device, class-major
    ``(D, C, d+1)``: the part of the softmax gradient that no model
    changes."""

    x: np.ndarray
    rows: np.ndarray
    target_moments: np.ndarray

    @classmethod
    def of(cls, samples: Samples, dtype) -> "ProbeSamples":
        """``samples`` cast to ``dtype``; the moments are taken from
        transient class-major one-hot targets in ``dtype``."""
        x = samples.x.astype(dtype)
        rows = np.ascontiguousarray(x.transpose(1, 2, 0))
        classes = np.arange(samples.n_classes)[:, None, None]
        targets = (samples.labels == classes).astype(dtype)
        moments = targets.transpose(1, 0, 2) @ rows
        moments /= x.shape[2]
        return cls(x=x, rows=rows, target_moments=moments)


def _softmax(z: np.ndarray, axis: int, labels: np.ndarray | None = None):
    """Softmax of logits ``z`` over the class axis, in place.

    Given class indices ``labels`` (``z``'s shape without ``axis``), returns
    the probabilities and each sample's cross-entropy, taken from the same
    shifted logits and exponential sums; otherwise the probabilities alone.
    """
    z -= z.max(axis=axis, keepdims=True)
    if labels is not None:
        target_logit = np.take_along_axis(
            z, np.expand_dims(labels, axis), axis=axis).squeeze(axis)
    np.exp(z, out=z)
    total = z.sum(axis=axis, keepdims=True)
    z /= total
    if labels is None:
        return z
    return z, np.log(total.squeeze(axis)) - target_logit


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

    def _residual_grad(self, weights: np.ndarray, samples: Samples,
                       probs: np.ndarray) -> np.ndarray:
        """Per-device gradients ``(D, P)`` of the mean loss plus L2 from the
        class-major probabilities, which become the residuals."""
        x = samples.x
        # probs - Y, Y the one-hot targets: only the label entries move
        probs.reshape(-1, copy=False)[samples.target_index] -= 1.0
        grads = x.transpose(1, 0, 2) @ probs.transpose(1, 2, 0)
        grads /= x.shape[2]
        # regularize everything except the bias row
        grads[..., :-1, :] += self.l2 * weights[..., :-1, :]
        return grads.reshape(samples.n_devices, -1)

    def grad(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device gradients ``(D, P)`` of the mean loss plus L2, in the
        dtype of ``flat`` and ``samples``."""
        weights = self._shape(flat)
        return self._residual_grad(weights, samples,
                                   self._probabilities(weights, samples.x))

    def probe_grad(self, flat: np.ndarray,
                   samples: ProbeSamples) -> np.ndarray:
        """Every device's gradient of the mean loss at one shared model
        ``(P,)``, without the L2 term and in class-major ``(C, d+1)`` order:
        ``(D, P)`` in the dtype of ``samples``, to which ``flat`` is cast.

        At a shared model the L2 term is the same for every device, so it
        cancels in every difference ``measure_divergence`` takes, and the
        order of coordinates changes no norm or average. The samples'
        ``rows`` and ``target_moments`` make the pass one softmax and one
        reduction.
        """
        weights = self._shape(flat.astype(samples.x.dtype, copy=False))
        probs = self._probabilities(weights, samples.x)
        grads = probs.transpose(1, 0, 2) @ samples.rows
        grads /= samples.x.shape[2]
        grads -= samples.target_moments
        return grads.reshape(samples.x.shape[1], -1)

    def loss(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device mean cross-entropy plus (l2/2)*||W||^2, shape ``(D,)``."""
        weights = self._shape(flat)
        _, nll = _softmax(self._logits(weights, samples.x), 0, samples.labels)
        return nll.mean(axis=1) + self.l2 * _l2_penalty(weights)

    def loss_and_grad(self, flat: np.ndarray, samples: Samples,
                      ) -> tuple[np.ndarray, np.ndarray]:
        """``loss`` and ``grad`` from one pass, equal to theirs bit for bit:
        both read the same logits and the same softmax."""
        weights = self._shape(flat)
        probs, nll = _softmax(self._logits(weights, samples.x), 0,
                              samples.labels)
        return (nll.mean(axis=1) + self.l2 * _l2_penalty(weights),
                self._residual_grad(weights, samples, probs))

    def accuracy(self, flat: np.ndarray, samples: Samples) -> float:
        """The share of ``samples`` whose largest logit is at their label."""
        pred = np.argmax(self._logits(self._shape(flat), samples.x), axis=0)
        return float(np.mean(pred == samples.labels))


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
        ones = np.ones((h.shape[0], 1, h.shape[2]), dtype=h.dtype)
        h_aug = np.concatenate([h, ones], axis=1)
        logits = np.swapaxes(w2, -1, -2) @ h_aug
        return w1, w2, h, h_aug, logits

    def grad(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device gradients ``(D, P)`` of the mean loss plus L2."""
        w1, w2, h, h_aug, logits = self._forward(flat, samples.x)
        n = samples.x.shape[2]
        diff = _softmax(logits, axis=1)
        diff[np.arange(samples.n_devices)[:, None], samples.labels,
             np.arange(n)] -= 1.0
        g2 = h_aug @ diff.transpose(0, 2, 1) / n
        back = (w2[..., :-1, :] @ diff) * (1 - h ** 2)
        g1 = samples.x.transpose(1, 0, 2) @ back.transpose(0, 2, 1) / n
        g1[..., :-1, :] += self.l2 * w1[..., :-1, :]
        g2[..., :-1, :] += self.l2 * w2[..., :-1, :]
        n_dev = samples.n_devices
        return np.concatenate([g1.reshape(n_dev, -1), g2.reshape(n_dev, -1)],
                              axis=1)

    def loss(self, flat: np.ndarray, samples: Samples) -> np.ndarray:
        """Per-device mean cross-entropy plus L2, shape ``(D,)``."""
        w1, w2, _, _, logits = self._forward(flat, samples.x)
        _, nll = _softmax(logits, 1, samples.labels)
        return nll.mean(axis=1) + self.l2 * (_l2_penalty(w1) + _l2_penalty(w2))

    def accuracy(self, flat: np.ndarray, samples: Samples) -> float:
        _, _, _, _, logits = self._forward(flat, samples.x)
        return float(np.mean(np.argmax(logits, axis=1) == samples.labels))


def make_learner(training: TrainingConfig, data: DataConfig):
    if training.learner == "softmax":
        return SoftmaxLearner(data.feature_dim, data.n_classes, training.l2,
                              training.init_scale)
    return MlpLearner(data.feature_dim, data.n_classes, training.l2,
                      training.hidden_dim, training.init_scale)
