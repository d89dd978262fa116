"""Synthetic data generation and the local learners."""
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from oracles import (
    OneHotSamples,
    augment,
    one_hot_grad,
    one_hot_softmax,
    sparse_average_operator,
)

from saginfl import learner as learner_module
from saginfl.config import (
    DataConfig,
    ExperimentConfig,
    RunConfig,
    TrainingConfig,
    validate_config,
)
from saginfl.data import class_scales, generate_data
from saginfl.learner import (
    MlpLearner,
    ProbeSamples,
    Samples,
    SoftmaxLearner,
    make_learner,
)
from saginfl.simulation import AggregationWeights
from saginfl.topology import build_single_orbit, build_walker


# Naive single-device softmax regression, sample-major, as a reference for
# the stacked kernels.

@dataclass(frozen=True)
class LearnerState:
    weights: np.ndarray        # (d+1, C), bias row last
    eta: float
    l2: float


def softmax_loss(weights, features_aug, labels, l2):
    """Mean cross-entropy plus (l2/2)*||W||^2 over the non-bias rows."""
    logits = features_aug @ weights
    z = logits - logits.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    nll = -log_probs[np.arange(labels.shape[0]), labels].mean()
    return float(nll) + 0.5 * l2 * float(np.sum(weights[:-1] ** 2))


def softmax_grad(weights, features_aug, labels, l2):
    logits = features_aug @ weights
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = z / z.sum(axis=-1, keepdims=True)
    probs[np.arange(labels.shape[0]), labels] -= 1.0
    reg = weights.copy()
    reg[-1] = 0.0
    return features_aug.T @ probs / labels.shape[0] + l2 * reg


def local_step(state, features, labels):
    """One full-batch gradient step on one device's data."""
    grad = softmax_grad(state.weights, augment(features), labels, state.l2)
    return LearnerState(weights=state.weights - state.eta * grad,
                        eta=state.eta, l2=state.l2)


def finite_difference_grad(weights, features_aug, labels, l2, eps=1e-6):
    grad = np.zeros_like(weights)
    for idx in np.ndindex(weights.shape):
        up = weights.copy()
        up[idx] += eps
        down = weights.copy()
        down[idx] -= eps
        grad[idx] = (softmax_loss(up, features_aug, labels, l2)
                     - softmax_loss(down, features_aug, labels, l2)) / (2 * eps)
    return grad


def windows_anchored_at(labels, lons, bin_deg, cpd, C):
    """Whether each device's classes are the ``cpd`` classes from
    ``lon // bin_deg`` on, modulo ``C``."""
    return all(
        set(row.tolist()) == {(int(lon // bin_deg) + j) % C for j in range(cpd)}
        for row, lon in zip(labels, lons))


class TestGenerateData:
    def _gen(self, cpd, n_devices=6, C=5):
        # one device per air node, air node i at longitude i*360/n_devices
        topology = build_single_orbit(4, 330.0, n_devices, 1)
        data = DataConfig(n_classes=C, classes_per_device=cpd,
                          samples_per_device=20, feature_dim=5,
                          test_samples=1000, geo_bin_deg=360.0 / C)
        return generate_data(data, topology, np.random.default_rng(0))

    def test_positive_bin_width_anchors_windows(self):
        topology = build_single_orbit(4, 330.0, 12, 2)
        data = DataConfig(n_classes=5, classes_per_device=2,
                          samples_per_device=10, geo_bin_deg=45.0)
        _, labels, _, _ = generate_data(data, topology,
                                        np.random.default_rng(0))
        lons = topology.air_lon[topology.air_of_device]
        assert windows_anchored_at(labels, lons, 45.0, 2, 5)
        # the auto width on this orbit, 90 degrees, gives other windows
        assert not windows_anchored_at(labels, lons, 90.0, 2, 5)

    def test_auto_bin_width_by_topology_kind(self):
        # 0 picks one satellite slot (360 / n_sats) on a single orbit and
        # 360 / n_classes on a Walker constellation, not the other rule
        data = DataConfig(n_classes=6, classes_per_device=2,
                          samples_per_device=10)
        for topology, bin_deg, other in (
                (build_single_orbit(4, 330.0, 12, 2), 90.0, 60.0),
                (build_walker(3, 4, 85.0, 330.0, 2, 1), 60.0, 30.0)):
            _, labels, _, _ = generate_data(data, topology,
                                            np.random.default_rng(0))
            lons = topology.air_lon[topology.air_of_device]
            assert windows_anchored_at(labels, lons, bin_deg, 2, 6)
            assert not windows_anchored_at(labels, lons, other, 2, 6)

    def test_full_support_iid(self):
        features, labels, _, _ = self._gen(cpd=5)
        assert features.shape == (6, 20, 5) and labels.shape == (6, 20)
        for row in labels:
            assert set(np.unique(row)) == set(range(5))

    def test_one_class_one_hot(self):
        features, labels, _, _ = self._gen(cpd=1)
        samples = Samples.stack(features, labels, 5)
        for row, counts in zip(labels, samples.class_counts):
            assert len(np.unique(row)) == 1
            assert counts.max() == counts.sum() == 20

    def test_adjacent_devices_share_classes(self):
        _, labels, _, _ = self._gen(cpd=2, n_devices=10, C=5)
        for i in range(9):
            shared = set(labels[i].tolist()) & set(labels[i + 1].tolist())
            assert len(shared) >= 1

    def test_class_dist_is_empirical_histogram(self):
        features, labels, _, _ = self._gen(cpd=3)
        samples = Samples.stack(features, labels, 5)
        for row, counts in zip(labels, samples.class_counts):
            assert counts.tolist() == np.bincount(row, minlength=5).tolist()
            # 20 samples over 3 classes: the remainder goes to the first
            assert sorted(counts[counts > 0].tolist()) == [6, 7, 7]

    def test_one_draw_equals_per_device_draws(self):
        # the device data is one (D, n, d) draw; it takes the generator's
        # numbers in the order D draws of (n, d) would, test set last
        features, labels, test_x, test_y = self._gen(cpd=2)
        rng = np.random.default_rng(0)
        means = np.eye(5) * 2.5
        scales = class_scales(5, 0.5, 2.5)
        for dev in range(6):
            noise = rng.standard_normal((20, 5))
            assert np.array_equal(
                features[dev],
                means[labels[dev]] + scales[labels[dev]][:, None] * noise)
        noise = rng.standard_normal(test_x.shape)
        assert np.array_equal(
            test_x, means[test_y] + scales[test_y][:, None] * noise)

    def test_test_set_covers_all_classes(self):
        _, _, test_x, test_y = self._gen(cpd=2)
        assert set(np.unique(test_y)) == set(range(5))
        assert test_x.shape[0] == test_y.shape[0]

    def test_class_scales_ramp(self):
        s = class_scales(5, 0.5, 2.5)
        assert s[0] == 0.5 and s[-1] == 2.5
        assert (np.diff(s) > 0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_bin_width_keeps_labels_in_range(self):
        # lon // 1e-300 is about 1e302, far beyond int64; 2.1e-306 is about
        # the narrowest width validate_config accepts
        topology = build_single_orbit(4, 330.0, 8, 2)
        for width in (1e-300, 2.1e-306):
            data = DataConfig(n_classes=8, classes_per_device=2,
                              samples_per_device=10, feature_dim=8,
                              geo_bin_deg=width)
            validate_config(ExperimentConfig(data=data,
                                             run=RunConfig(seed=0)))
            _, labels, _, _ = generate_data(data, topology,
                                            np.random.default_rng(0))
            assert labels.min() >= 0 and labels.max() < 8


class TestSoftmaxLearner:
    def test_zero_eta_no_change(self):
        rng = np.random.default_rng(1)
        learner = SoftmaxLearner(d=3, n_classes=3, l2=0.01, init_scale=1.0)
        flat = rng.standard_normal(learner.n_params)
        X = rng.standard_normal((5, 3))
        y = np.array([0, 1, 2, 1, 0])
        samples = Samples.stack(X[None], y[None], 3)
        out = flat - 0.0 * learner.grad(flat[None], samples)[0]
        assert (out == flat).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        learner = SoftmaxLearner(d=2, n_classes=3, l2=0.05, init_scale=1.0)
        X = rng.standard_normal((3, 2))
        y = np.array([0, 2, 1])
        W = rng.standard_normal((3, 3)) * 0.5
        samples = Samples.stack(X[None], y[None], 3)
        analytic = learner.grad(W.ravel()[None], samples)[0].reshape(3, 3)
        numeric = finite_difference_grad(W, augment(X), y, l2=0.05)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-5

    def test_loss_non_increasing_small_eta(self):
        rng = np.random.default_rng(3)
        learner = SoftmaxLearner(d=4, n_classes=3, l2=0.01, init_scale=1.0)
        X = rng.standard_normal((20, 4))
        y = rng.integers(0, 3, size=20)
        samples = Samples.stack(X[None], y[None], 3)
        state = LearnerState(weights=np.zeros((5, 3)), eta=0.05, l2=0.01)
        flat = np.zeros(learner.n_params)
        losses = []
        for _ in range(30):
            losses.append(softmax_loss(state.weights, augment(X), y, 0.01))
            assert abs(learner.loss(flat[None], samples)[0] - losses[-1]) < 1e-12
            state = local_step(state, X, y)
            flat = flat - 0.05 * learner.grad(flat[None], samples)[0]
            assert np.abs(flat - state.weights.ravel()).max() < 1e-12
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        learner = SoftmaxLearner(d=4, n_classes=3, l2=0.02, init_scale=1.0)
        X = rng.standard_normal((2, 6, 4))
        y = rng.integers(0, 3, size=(2, 6))
        flat = rng.standard_normal((2, learner.n_params))
        samples = Samples.stack(X, y, 3)
        grads = learner.grad(flat, samples)
        losses = learner.loss(flat, samples)
        for i in range(2):
            W = flat[i].reshape(5, 3)
            single = softmax_grad(W, augment(X[i]), y[i], 0.02)
            assert np.allclose(grads[i].reshape(5, 3), single)
            assert np.isclose(losses[i], softmax_loss(W, augment(X[i]), y[i], 0.02))

    @pytest.mark.parametrize("shared", [True, False],
                             ids=["shared", "per_device"])
    def test_float32_grad_matches_float64(self, shared):
        # the gradient follows the dtype of its inputs
        rng = np.random.default_rng(12)
        learner = SoftmaxLearner(d=10, n_classes=10, l2=1e-3, init_scale=1.0)
        samples = Samples.stack(rng.standard_normal((48, 30, 10)),
                                rng.integers(0, 10, size=(48, 30)), 10)
        samples32 = replace(samples, x=samples.x.astype(np.float32))
        flat = learner.init_params(rng)
        if not shared:
            flat = flat + 0.1 * rng.standard_normal((48, learner.n_params))
        want = learner.grad(flat, samples)
        got = learner.grad(flat.astype(np.float32), samples32)
        assert want.dtype == np.float64
        assert got.dtype == np.float32
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_probe_grad_is_grad_without_l2_class_major(self, dtype):
        # the convergence check's satellite probes: the gradient at one
        # shared model without its L2 term, each device's (d+1, C) block
        # stored transposed, the devices in the samples' order
        rng = np.random.default_rng(13)
        learner = SoftmaxLearner(d=10, n_classes=10, l2=1e-3, init_scale=1.0)
        unregularized = SoftmaxLearner(d=10, n_classes=10, l2=0.0,
                                       init_scale=1.0)
        samples = Samples.stack(rng.standard_normal((48, 30, 10)),
                                rng.integers(0, 10, size=(48, 30)), 10)
        flat = learner.init_params(rng)
        order = rng.permutation(48)
        want = (unregularized.grad(flat, samples).reshape(48, 11, 10)
                .transpose(0, 2, 1).reshape(48, -1))[order]
        [got] = learner.probe_grad(flat[None].astype(dtype),
                                   ProbeSamples.of(samples, dtype, order))
        assert got.dtype == dtype
        assert got.shape == want.shape
        rel = 1e-12 if dtype == np.float64 else 1e-5
        assert np.abs(got - want).max() <= rel * np.abs(want).max()

    def test_accuracy_on_separable_toy(self):
        rng = np.random.default_rng(5)
        learner = SoftmaxLearner(d=2, n_classes=2, l2=0.0, init_scale=1.0)
        X = np.vstack([rng.standard_normal((30, 2)) + [4, 0],
                       rng.standard_normal((30, 2)) - [4, 0]])
        y = np.array([0] * 30 + [1] * 30)
        flat = learner.init_params(rng)
        samples = Samples.stack(X[None], y[None], 2)
        for _ in range(50):
            flat = flat - 0.5 * learner.grad(flat[None], samples)[0]
        assert learner.accuracy(flat, samples) > 0.95


@pytest.mark.parametrize("learner", [
    SoftmaxLearner(d=5, n_classes=4, l2=0.03, init_scale=1.0),
    MlpLearner(d=5, n_classes=4, l2=0.03, hidden=6, init_scale=1.0),
], ids=["softmax", "mlp"])
def test_shared_model_equals_broadcast_stack(learner):
    rng = np.random.default_rng(10)
    X = rng.standard_normal((7, 9, 5))
    y = rng.integers(0, 4, size=(7, 9))
    samples = Samples.stack(X, y, 4)
    flat = learner.init_params(rng)
    stack = np.broadcast_to(flat, (7, learner.n_params))
    assert np.abs(learner.grad(flat, samples)
                  - learner.grad(stack, samples)).max() < 1e-12
    assert np.abs(learner.loss(flat, samples)
                  - learner.loss(stack, samples)).max() < 1e-12


@pytest.mark.parametrize("learner", [
    SoftmaxLearner(d=5, n_classes=4, l2=0.03, init_scale=1.0),
    MlpLearner(d=5, n_classes=4, l2=0.03, hidden=6, init_scale=1.0),
], ids=["softmax", "mlp"])
def test_accuracy_equals_row_major_argmax(learner):
    # the run stacks its test set once as one device's samples; the
    # accuracy reads it class-major and must equal the row-major argmax
    rng = np.random.default_rng(12)
    X = rng.standard_normal((500, 5))
    y = rng.integers(0, 4, size=500)
    test = Samples.stack(X[None], y[None], 4)
    flat = learner.init_params(rng)
    for w in (flat, np.zeros_like(flat), 5.0 * flat):
        if isinstance(learner, SoftmaxLearner):
            logits = augment(X) @ learner._shape(w)
        else:
            w1, w2 = learner._split(w)
            logits = augment(np.tanh(augment(X) @ w1)) @ w2
        want = float(np.mean(np.argmax(logits, axis=1) == y))
        assert learner.accuracy(w, test) == want


@pytest.mark.parametrize("learner", [
    SoftmaxLearner(d=10, n_classes=10, l2=1e-3, init_scale=1.0),
    MlpLearner(d=10, n_classes=10, l2=1e-3, hidden=8, init_scale=1.0),
], ids=["softmax", "mlp"])
def test_loss_equals_one_hot_formula(learner, monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((48, 30, 10))
    y = rng.integers(0, 10, size=(48, 30))
    samples = Samples.stack(X, y, 10)
    flat = learner.init_params(rng)
    models = (flat, flat + 0.1 * rng.standard_normal((48, learner.n_params)))
    got = [learner.loss(w, samples) for w in models]
    monkeypatch.setattr(learner_module, "_softmax", one_hot_softmax)
    want = [learner.loss(w, samples) for w in models]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("learner", [
    SoftmaxLearner(d=10, n_classes=10, l2=1e-3, init_scale=1.0),
], ids=["softmax"])
def test_loss_and_grad_equal_loss_and_grad(learner, dtype):
    # the one pass the convergence check makes at each float64 model gives
    # the standalone passes' values bit for bit, at shared models far apart
    # and at per-device models
    rng = np.random.default_rng(14)
    samples = Samples.stack(rng.standard_normal((48, 30, 10)),
                            rng.integers(0, 10, size=(48, 30)), 10)
    samples = replace(samples, x=samples.x.astype(dtype))
    flat = learner.init_params(rng)
    models = [flat, np.zeros_like(flat), 30.0 * flat,
              flat + 0.1 * rng.standard_normal(learner.n_params),
              flat + 0.1 * rng.standard_normal((48, learner.n_params))]
    for w in models:
        w = w.astype(dtype)
        losses, grads = learner.loss_and_grad(w, samples)
        want_losses = learner.loss(w, samples)
        want_grads = learner.grad(w, samples)
        assert losses.dtype == want_losses.dtype == dtype
        assert grads.dtype == want_grads.dtype == dtype
        assert (losses == want_losses).all()
        assert (grads == want_grads).all()


def one_hot_cases(samples):
    """``(labelled, one-hot, devices)`` triples of the same samples, with
    the device rows they hold: all samples, a mini-batch drawn as
    ``run_obl`` draws one, and ``run_obl``'s device block views."""
    dense = OneHotSamples.of(samples)
    yield samples, dense, slice(None)
    n_dev, n = samples.labels.shape
    rng = np.random.default_rng(15)
    idx = np.argsort(rng.random((n_dev, n)), axis=1)[:, :7]
    yield samples.select(idx), dense.select(idx), slice(None)
    cut = n_dev // 3
    for block in (slice(0, cut), slice(cut, n_dev)):
        yield (Samples(x=samples.x[:, block], labels=samples.labels[block],
                       n_classes=samples.n_classes),
               OneHotSamples(x=dense.x[:, block], y=dense.y[:, block]),
               block)


def oracle_samples(dtype):
    """48 devices of 30 samples; some devices miss some classes."""
    rng = np.random.default_rng(16)
    labels = rng.integers(0, 10, size=(48, 30))
    labels[:6] %= 3
    samples = Samples.stack(rng.standard_normal((48, 30, 10)), labels, 10)
    return replace(samples, x=samples.x.astype(dtype))


def oracle_models(learner, dtype):
    """Shared models near, at and far from the start, and per-device
    models ``(48, P)``."""
    rng = np.random.default_rng(17)
    flat = learner.init_params(rng)
    models = [flat, np.zeros_like(flat), 30.0 * flat,
              flat + 0.1 * rng.standard_normal((48, learner.n_params))]
    return [w.astype(dtype) for w in models]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestAgainstOneHotTargets:
    """Labels in place of one-hot targets change no bit: each pass equals
    the dense formulation's, on full batches, mini-batches and the
    training loop's device blocks."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("learner", [
        SoftmaxLearner(d=10, n_classes=10, l2=1e-3, init_scale=1.0),
        MlpLearner(d=10, n_classes=10, l2=1e-3, hidden=8, init_scale=1.0),
    ], ids=["softmax", "mlp"])
    def test_grad(self, learner, dtype):
        samples = oracle_samples(dtype)
        for w in oracle_models(learner, dtype):
            for labelled, dense, devices in one_hot_cases(samples):
                model = w if w.ndim == 1 else w[devices]
                want = one_hot_grad(learner, model, dense)
                assert want.dtype == dtype
                assert_same_bits(learner.grad(model, labelled), want)
                if isinstance(learner, MlpLearner):
                    continue  # the check's fused pass is softmax only
                losses, grads = learner.loss_and_grad(model, labelled)
                assert_same_bits(grads, want)
                assert_same_bits(losses, learner.loss(model, labelled))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_probe_samples(self, dtype):
        samples = oracle_samples(np.float64)
        order = np.random.default_rng(18).permutation(samples.n_devices)
        got = ProbeSamples.of(samples, dtype, order)
        want = OneHotSamples.of(samples).probe_samples(dtype, order)
        for name in ("x", "rows", "target_moments"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        # the features are held once: x is a transposed view of rows
        assert got.rows.flags.c_contiguous
        assert np.shares_memory(got.x, got.rows)

    def test_class_counts(self):
        for labelled, dense, _ in one_hot_cases(oracle_samples(np.float64)):
            assert_same_bits(labelled.class_counts, dense.class_counts)

    def test_samples_hold_no_one_hot_targets(self):
        assert [f.name for f in fields(Samples)] == ["x", "labels",
                                                      "n_classes"]


class TestMlpLearner:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        learner = MlpLearner(d=3, n_classes=3, l2=0.01, hidden=4,
                             init_scale=1.0)
        X = rng.standard_normal((4, 3))
        y = np.array([0, 1, 2, 1])
        samples = Samples.stack(X[None], y[None], 3)
        flat = learner.init_params(rng) * 0.7
        analytic = learner.grad(flat[None], samples)[0]
        eps = 1e-6
        for idx in range(0, learner.n_params, 7):
            up = flat.copy(); up[idx] += eps
            down = flat.copy(); down[idx] -= eps
            num = (learner.loss(up[None], samples)[0]
                   - learner.loss(down[None], samples)[0]) / (2 * eps)
            assert abs(analytic[idx] - num) < 1e-5

    def test_make_learner_dispatch(self):
        data = DataConfig(n_classes=3, feature_dim=4)
        softmax = make_learner(TrainingConfig(learner="softmax", l2=0.0), data)
        mlp = make_learner(TrainingConfig(learner="mlp", hidden_dim=5), data)
        assert softmax.convex and softmax.n_params == 5 * 3
        assert not mlp.convex and mlp.n_params == 5 * 5 + 6 * 3

    def test_init_scale_scales_the_fan_in_draws(self):
        data = DataConfig(n_classes=3, feature_dim=4)
        rng = np.random.default_rng(8)
        w1 = rng.standard_normal((5, 6)) / np.sqrt(5)
        w2 = rng.standard_normal((7, 3)) / np.sqrt(7)
        draw = np.concatenate([w1.ravel(), w2.ravel()])
        models = {}
        for scale in (1.0, 2.0):
            learner = make_learner(TrainingConfig(
                learner="mlp", hidden_dim=6, init_scale=scale), data)
            models[scale] = learner.init_params(np.random.default_rng(8))
        assert models[1.0].tobytes() == draw.tobytes()
        assert models[2.0].tobytes() == (2 * draw).tobytes()


def satellite_average(models, sat_of_device=None, n_sats=1):
    """The run's aggregation operator applied to ``[(params, size), ...]``."""
    params = np.stack([m for m, _ in models])
    sizes = np.array([size for _, size in models], dtype=float)
    if sat_of_device is None:
        sat_of_device = np.zeros(len(models), dtype=int)
    weights = AggregationWeights.build(np.asarray(sat_of_device), sizes, n_sats)
    return weights.satellite_average(params)


def air_first_average(models, air_groups, sat_of_air, n_sats):
    """Two-level average: within each air node, then across a satellite's
    air nodes, each level weighted by data size."""
    sat_size = np.zeros(n_sats)
    for air, group in enumerate(air_groups):
        sat_size[sat_of_air[air]] += sum(models[i][1] for i in group)
    out = np.zeros((n_sats, models[0][0].shape[0]))
    for air, group in enumerate(air_groups):
        air_size = sum(models[i][1] for i in group)
        air_model = sum((models[i][1] / air_size) * models[i][0] for i in group)
        out[sat_of_air[air]] += (air_size / sat_size[sat_of_air[air]]) * air_model
    return out


class TestSatelliteAggregate:
    def test_equal_sizes_plain_mean(self):
        rng = np.random.default_rng(7)
        models = [(rng.standard_normal(6), 10) for _ in range(4)]
        out = satellite_average(models)[0]
        expected = np.mean([m for m, _ in models], axis=0)
        assert np.allclose(out, expected)

    def test_air_first_equals_flat(self):
        rng = np.random.default_rng(8)
        models = [(rng.standard_normal(9), int(rng.integers(1, 30)))
                  for _ in range(6)]
        air_groups = [[0, 1], [2, 3, 4], [5]]
        sat_of_air = [1, 0, 1]
        sat_of_device = [sat_of_air[air] for air, group in enumerate(air_groups)
                         for _ in group]
        flat = satellite_average(models, sat_of_device, n_sats=2)
        via_air = air_first_average(models, air_groups, sat_of_air, n_sats=2)
        assert np.abs(flat - via_air).max() < 1e-12

    def test_single_model_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert (satellite_average([(v, 5)])[0] == v).all()

    def test_weighted_by_sizes(self):
        a = (np.array([1.0]), 3)
        b = (np.array([5.0]), 1)
        assert np.isclose(satellite_average([a, b])[0, 0], 2.0)


def assignments(rng):
    """``(sat_of_device, n_satellites)`` cases for the aggregation operator."""
    for n_sats, n_devices in ((9, 20), (5, 5), (30, 40), (3, 60)):
        # random: unequal counts, and empty satellites where n_sats > 7
        yield rng.integers(0, min(n_sats, 7), n_devices), n_sats
    yield rng.permutation(np.repeat([0, 2, 3], [5, 1, 3])), 5
    yield rng.permutation(12), 12                   # one device per satellite
    yield np.full(10, 2), 4                         # all on one satellite
    yield np.zeros(6, dtype=int), 1


def signed_rows(rng, n_devices, dtype):
    """Normal rows with scattered +0.0 and -0.0 and one row of -0.0."""
    rows = rng.standard_normal((n_devices, 13))
    rows[rng.random(rows.shape) < 0.15] = 0.0
    rows[rng.random(rows.shape) < 0.15] = -0.0
    rows[rng.integers(n_devices)] = -0.0
    return rows.astype(dtype)


def assert_same_values(got, want):
    """Equal with ``==`` and in sign, nan where ``want`` is nan."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert (got[~nan] == want[~nan]).all()
    assert (np.signbit(got[~nan]) == np.signbit(want[~nan])).all()


class TestAgainstSparseOperator:
    """The grouped numpy operator reproduces the CSR product bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_csr_product(self, dtype):
        rng = np.random.default_rng(21)
        for sat_of_device, n_sats in assignments(rng):
            sizes = rng.integers(1, 50, len(sat_of_device)).astype(float)
            weights = AggregationWeights.build(sat_of_device, sizes, n_sats)
            operator = sparse_average_operator(sat_of_device, sizes, n_sats,
                                               dtype)
            rows = signed_rows(rng, len(sat_of_device), dtype)
            got = weights.satellite_average(rows)
            assert_same_values(got, operator @ rows)
            empty = got[~weights.nonempty]
            assert not empty.any() and not np.signbit(empty).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_reaches_only_its_satellite(self, dtype, bad):
        rng = np.random.default_rng(22)
        for sat_of_device, n_sats in assignments(rng):
            sizes = rng.integers(1, 50, len(sat_of_device)).astype(float)
            weights = AggregationWeights.build(sat_of_device, sizes, n_sats)
            operator = sparse_average_operator(sat_of_device, sizes, n_sats,
                                               dtype)
            rows = signed_rows(rng, len(sat_of_device), dtype)
            clean = weights.satellite_average(rows)
            device = rng.integers(len(sat_of_device))
            rows[device] = bad
            got = weights.satellite_average(rows)
            assert_same_values(got, operator @ rows)
            hit = sat_of_device[device]
            assert (np.isnan(got[hit]) if np.isnan(bad)
                    else got[hit] == bad).all()
            others = np.arange(n_sats) != hit
            assert_same_values(got[others], clean[others])
            empty = got[~weights.nonempty]
            assert not empty.any() and not np.signbit(empty).any()
