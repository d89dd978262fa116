"""Synthetic non-IID device datasets.

Feature vectors are drawn from Gaussian blobs, one per class, with means on a
scaled coordinate simplex. Per-class standard deviations ramp linearly across
classes; the variance spread makes the local curvature of devices holding
different class windows genuinely different, which is what lets assignment
policies separate on this convex task. Each device holds samples from a small
window of classes indexed by its longitude, so geographically close devices
share classes. A held-out IID test set is drawn from the same blobs.
"""
from __future__ import annotations

import numpy as np


def _blob_means(n_classes: int, d: int, scale: float) -> np.ndarray:
    means = np.zeros((n_classes, d))
    means[np.arange(n_classes), np.arange(n_classes)] = scale
    return means


def class_scales(n_classes: int, scale_min: float, scale_max: float) -> np.ndarray:
    """Per-class feature standard deviations, ramped linearly."""
    if n_classes == 1:
        return np.array([scale_min])
    return scale_min + (scale_max - scale_min) * np.arange(n_classes) / (n_classes - 1)


def _sample_blob(means: np.ndarray, scales: np.ndarray, labels: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    out = rng.standard_normal(labels.shape + means.shape[1:])
    out *= scales[labels][..., None]
    out += means[labels]
    return out


def generate_data(classes_per_device: int,
                  samples_per_device: int, d: int, n_classes: int,
                  longitudes: np.ndarray, bin_deg: float,
                  rng: np.random.Generator,
                  test_samples: int = 1000, blob_scale: float = 2.5,
                  class_scale_min: float = 0.5, class_scale_max: float = 2.5,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Device features ``(D, n, d)`` and labels ``(D, n)``, plus one shared
    IID test set.

    ``longitudes`` holds each device's longitude in degrees. A device's
    classes are a window of ``classes_per_device`` consecutive classes
    anchored at its longitude bin; ``bin_deg`` sets the geographic
    correlation length, so devices within one bin share a window
    and adjacent bins overlap in all but one class. Sample counts are equal
    across devices and split evenly over the device's classes (remainder to
    the first ones).
    """
    means = _blob_means(n_classes, d, blob_scale)
    scales = class_scales(n_classes, class_scale_min, class_scale_max)
    base = (longitudes % 360.0 // bin_deg).astype(int) % n_classes
    windows = (base[:, None] + np.arange(classes_per_device)) % n_classes
    per, rem = divmod(samples_per_device, classes_per_device)
    labels = np.repeat(windows, per + (np.arange(classes_per_device) < rem),
                       axis=1)
    features = _sample_blob(means, scales, labels, rng)

    per, rem = divmod(test_samples, n_classes)
    test_labels = np.repeat(np.arange(n_classes),
                            per + (np.arange(n_classes) < rem))
    test_features = _sample_blob(means, scales, test_labels, rng)
    return features, labels, test_features, test_labels
