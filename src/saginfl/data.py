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

from dataclasses import dataclass

import numpy as np

from .assignment import ClassDistribution


@dataclass(frozen=True)
class DeviceDataset:
    features: np.ndarray       # (n, d)
    labels: np.ndarray         # (n,) ints in [0, C)
    class_dist: ClassDistribution


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
    noise = rng.standard_normal((labels.shape[0], means.shape[1]))
    return means[labels] + scales[labels][:, None] * noise


def device_classes(longitude_deg: float, n_classes: int,
                   classes_per_device: int,
                   bin_deg: float | None = None) -> list[int]:
    """Window of classes anchored at the device's longitude bin.

    ``bin_deg`` sets the geographic correlation length: devices within one
    bin share the same window, adjacent bins overlap in all but one class.
    """
    if bin_deg is None:
        bin_deg = 360.0 / n_classes
    base = int(longitude_deg % 360.0 // bin_deg) % n_classes
    return [(base + j) % n_classes for j in range(classes_per_device)]


def generate_data(classes_per_device: int,
                  samples_per_device: int, d: int, n_classes: int,
                  geo_positions: list[float], rng: np.random.Generator,
                  test_samples: int = 1000, blob_scale: float = 2.5,
                  bin_deg: float | None = None,
                  class_scale_min: float = 0.5, class_scale_max: float = 2.5,
                  ) -> tuple[list[DeviceDataset], np.ndarray, np.ndarray]:
    """Build per-device datasets plus one shared IID test set.

    ``geo_positions`` holds each device's longitude in degrees; neighbours
    get overlapping class windows. Sample counts are equal across devices and
    split evenly over the device's classes (remainder to the first ones).
    """
    means = _blob_means(n_classes, d, blob_scale)
    scales = class_scales(n_classes, class_scale_min, class_scale_max)
    datasets: list[DeviceDataset] = []
    for lon in geo_positions:
        classes = device_classes(lon, n_classes,
                                 classes_per_device, bin_deg)
        per = samples_per_device // classes_per_device
        rem = samples_per_device % classes_per_device
        labels = np.concatenate([
            np.full(per + (1 if j < rem else 0), c, dtype=int)
            for j, c in enumerate(classes)
        ])
        features = _sample_blob(means, scales, labels, rng)
        hist = np.bincount(labels, minlength=n_classes).astype(float)
        datasets.append(DeviceDataset(
            features=features, labels=labels,
            class_dist=ClassDistribution(probs=hist / labels.shape[0],
                                         sample_count=int(labels.shape[0])),
        ))

    per = test_samples // n_classes
    rem = test_samples % n_classes
    test_labels = np.concatenate([
        np.full(per + (1 if c < rem else 0), c, dtype=int)
        for c in range(n_classes)
    ])
    test_features = _sample_blob(means, scales, test_labels, rng)
    return datasets, test_features, test_labels
