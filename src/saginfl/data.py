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

from .config import DataConfig
from .topology import NetworkTopology


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


def generate_data(data: DataConfig, topology: NetworkTopology,
                  rng: np.random.Generator,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Device features ``(D, n, d)`` and labels ``(D, n)``, plus one shared
    IID test set.

    A device's classes are a window of ``classes_per_device`` consecutive
    classes anchored at the longitude bin of its air node: bin
    ``lon // bin_deg``, modulo ``n_classes``. The bin width sets the
    geographic correlation length, so devices within one bin share a window
    and adjacent bins overlap in all but one class. A positive
    ``geo_bin_deg`` is the bin width; 0 picks one satellite slot of
    longitude (360 / n_sats) on a single orbit and 360 / n_classes on a
    Walker constellation. Sample counts are equal across devices and split
    evenly over the device's classes (remainder to the first ones).
    """
    if data.geo_bin_deg > 0:
        bin_deg = data.geo_bin_deg
    elif topology.kind == "single":
        bin_deg = 360.0 / topology.n_satellites
    else:
        bin_deg = 360.0 / data.n_classes
    n_classes, per_device = data.n_classes, data.classes_per_device
    means = _blob_means(n_classes, data.feature_dim, data.blob_scale)
    scales = class_scales(n_classes, data.class_scale_min, data.class_scale_max)
    longitudes = topology.air_lon[topology.air_of_device]
    base = (longitudes % 360.0 // bin_deg % n_classes).astype(int)
    windows = (base[:, None] + np.arange(per_device)) % n_classes
    per, rem = divmod(data.samples_per_device, per_device)
    labels = np.repeat(windows, per + (np.arange(per_device) < rem), axis=1)
    features = _sample_blob(means, scales, labels, rng)

    per, rem = divmod(data.test_samples, n_classes)
    test_y = np.repeat(np.arange(n_classes), per + (np.arange(n_classes) < rem))
    test_x = _sample_blob(means, scales, test_y, rng)
    return features, labels, test_x, test_y
