"""Divergence estimation, virtual trajectories, and the convergence bound."""

import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    augment,
    divergence_at_global_models,
    global_loss,
    sparse_average_operator,
    sparse_divergence,
)

from saginfl import diagnostics, simulation
from saginfl.config import (
    DataConfig,
    ExperimentConfig,
    PolicyConfig,
    RunConfig,
    TopologyConfig,
    TrainingConfig,
    load_config,
)
from saginfl.diagnostics import (
    BOUND_TOLERANCE,
    SAFETY_MARGIN,
    BoundReport,
    DivergenceEstimate,
    GradContext,
    IntervalCheck,
    bound_inapplicable,
    check_convergence_bound,
    estimate_rho_beta,
    measure_divergence,
    theorem_bound,
    virtual_trajectories,
)
from saginfl.errors import InputError
from saginfl.learner import ProbeSamples, Samples, SoftmaxLearner
from saginfl.simulation import AggregationWeights, run_obl

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def naive_softmax_grad(weights, features_aug, labels, l2):
    """One device's softmax-regression gradient, sample-major."""
    logits = features_aug @ weights
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = z / z.sum(axis=-1, keepdims=True)
    probs[np.arange(labels.shape[0]), labels] -= 1.0
    reg = weights.copy()
    reg[-1] = 0.0
    return features_aug.T @ probs / labels.shape[0] + l2 * reg


def device_data(samples):
    """Each device's raw features ``(n, d)`` and labels ``(n,)``, in id order."""
    for i in range(samples.n_devices):
        yield samples.x[:-1, i].T, samples.labels[i]


def small_config(policy="gdo", n_geo=1, seed=0, cpd=2, tau1=2, tau2=2,
                 rounds=4, eta=0.1):
    return ExperimentConfig(
        topology=TopologyConfig(n_sats=4, n_air=8, devices_per_air=2),
        data=DataConfig(n_classes=8, feature_dim=8, classes_per_device=cpd,
                        samples_per_device=20, test_samples=400),
        training=TrainingConfig(tau1=tau1, tau2=tau2, global_rounds=rounds,
                                learning_rate=eta),
        policy=PolicyConfig(name=policy, n_geo=n_geo),
        run=RunConfig(seed=seed),
    )


def count_passes(monkeypatch, names):
    """Count the calls of each named ``SoftmaxLearner`` method, from any
    thread, into the returned dict."""
    calls = dict.fromkeys(names, 0)
    lock = threading.Lock()

    def counted(name):
        method = getattr(SoftmaxLearner, name)

        def wrapper(self, *args):
            with lock:
                calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in names:
        monkeypatch.setattr(SoftmaxLearner, name, counted(name))
    return calls


def grouped(weights, *probes):
    """Device-order ``(D, P)`` probes as one ``measure_divergence`` input:
    a ``(K, D, P)`` copy with the rows in ``weights.order``."""
    return np.stack(probes)[:, weights.order]


def serial_bound_check(trace, satellite_dtype=np.float32):
    """The bound check composed serially from the public pieces.

    In float32 the satellite-aggregate probes go through the probe kernel
    one model at a time and are folded in float32, as the check does in
    pairs; in float64 they are taken with ``learner.grad`` and folded with
    the other probes, all in float64.
    """
    ctx = GradContext.from_trace(trace)
    training = trace.config.training
    sat_models = dict(trace.satellite_models)
    nonempty = np.flatnonzero(ctx.weights.nonempty)
    samples32 = ProbeSamples.of(trace.samples, np.float32, ctx.weights.order)
    virt = virtual_trajectories(trace, ctx)
    checks, rho_all, beta_all = [], 0.0, 0.0
    for (g, _, path), (t_end, w_end) in zip(virt, trace.global_models[1:]):
        w_start, v_end = path[0], path[-1]
        grads = [ctx.device_grads(w) for w in (w_start, w_end, v_end)]
        satellites = [sat_models[t_end][k] for k in nonempty]
        if satellite_dtype == np.float64:
            div = measure_divergence(
                ctx.weights, [grouped(ctx.weights, g) for g in grads
                              + [ctx.device_grads(w) for w in satellites]])
        else:
            exact = measure_divergence(
                ctx.weights, [grouped(ctx.weights, g) for g in grads])
            probes = measure_divergence(ctx.weights, [
                ctx.learner.probe_grad(w[None].astype(np.float32), samples32)
                for w in satellites])
            delta = np.maximum(exact.delta_per_device,
                               probes.delta_per_device)
            Delta = np.maximum(exact.Delta_per_satellite,
                               probes.Delta_per_satellite)
            div = DivergenceEstimate(
                delta_hat=float(ctx.weights.device_frac @ delta),
                Delta_hat=float(ctx.weights.sat_frac @ Delta),
                delta_per_device=delta, Delta_per_satellite=Delta)
        pair_models = [w_start, w_end, v_end, path[len(path) // 2]]
        rho, beta = estimate_rho_beta(
            pair_models, [ctx.global_grad(w) for w in pair_models],
            [global_loss(ctx, w) for w in pair_models])
        rho_all, beta_all = max(rho_all, rho), max(beta_all, beta)
        bound = theorem_bound(div.delta_hat, div.Delta_hat,
                              SAFETY_MARGIN * rho, SAFETY_MARGIN * beta,
                              training.learning_rate, training.tau1,
                              training.tau2)
        gap = abs(global_loss(ctx, w_end) - global_loss(ctx, v_end))
        if bound > 0:
            margin = gap / bound
        else:
            margin = 0.0 if gap <= 1e-12 else float("inf")
        checks.append(IntervalCheck(interval=g, t_end=t_end, gap=gap,
                                    bound=bound, margin=margin,
                                    holds=margin <= BOUND_TOLERANCE))
    overall = divergence_at_global_models(trace)
    return BoundReport(intervals=checks, delta_hat=overall.delta_hat,
                       Delta_hat=overall.Delta_hat, rho_hat=rho_all,
                       beta_hat=beta_all)


class TestTheoremBound:
    def test_zero_divergence_zero_bound(self):
        assert theorem_bound(0.0, 0.0, 2.0, 1.0, 0.01, 5, 2) == 0.0

    def test_growth_factor_arithmetic(self):
        # (1 + 0.01)^5 - 1 with rho = beta = 1, delta = 1, Delta = 0
        value = theorem_bound(1.0, 0.0, 1.0, 1.0, 0.01, 5, 1)
        assert abs(value - (1.01 ** 5 - 1.0)) < 1e-12
        assert abs(value - 0.0510100501) < 1e-9

    def test_global_factor_exceeds_satellite_factor(self):
        for tau2 in (2, 3, 5):
            only_delta = theorem_bound(1.0, 0.0, 1.0, 1.0, 0.05, 4, tau2)
            only_Delta = theorem_bound(0.0, 1.0, 1.0, 1.0, 0.05, 4, tau2)
            assert only_Delta > only_delta

    def test_beta_must_be_positive(self):
        with pytest.raises(InputError):
            theorem_bound(1.0, 1.0, 1.0, 0.0, 0.1, 2, 2)

    def test_extreme_growth_saturates_to_infinity(self):
        value = theorem_bound(1.0, 1.0, 1.0, 50.0, 1.0, 1000, 10)
        assert value == float("inf")

    def test_zero_divergence_adds_zero_where_growth_overflows(self):
        # h(1100) = 2^1100 - 1 overflows; a zero divergence times it is 0,
        # not nan
        assert theorem_bound(0.0, 1.0, 1.0, 1.0, 1.0, 1100, 1) == float("inf")
        assert theorem_bound(1.0, 0.0, 1.0, 1.0, 1.0, 1, 1100) == 1.0
        assert theorem_bound(0.0, 0.0, 1.0, 1.0, 1.0, 1100, 1) == 0.0


class TestMeasureDivergence:
    def test_iid_identical_datasets_zero(self):
        # classes_per_device = n_classes on one shared longitude bin makes
        # every device's distribution identical; gradients still differ by
        # sampling, so build truly identical data by hand
        cfg = small_config(cpd=8)
        trace = run_obl(cfg)
        features, labels = next(device_data(trace.samples))
        n_devices = trace.samples.n_devices
        trace.samples = Samples.stack(np.stack([features] * n_devices),
                                      np.stack([labels] * n_devices),
                                      cfg.data.n_classes)
        div = divergence_at_global_models(trace)
        assert div.delta_hat < 1e-12
        assert div.Delta_hat < 1e-12

    def test_two_device_toy_hand_computed(self):
        cfg = ExperimentConfig(
            topology=TopologyConfig(n_sats=1, n_air=2, devices_per_air=1),
            data=DataConfig(n_classes=4, feature_dim=4, classes_per_device=1,
                            samples_per_device=10, test_samples=100),
            training=TrainingConfig(tau1=1, tau2=1, global_rounds=1),
            policy=PolicyConfig(name="gdo", n_geo=1),
            run=RunConfig(seed=0),
        )
        trace = run_obl(cfg)
        w_flat = trace.global_models[0][1]
        W = w_flat.reshape(5, 4)
        l2 = cfg.training.l2
        grads = []
        for features, labels in device_data(trace.samples):
            grads.append(naive_softmax_grad(W, augment(features), labels, l2))
        sat = 0.5 * grads[0] + 0.5 * grads[1]
        expect_dev0 = np.linalg.norm(grads[0] - sat)
        ctx = GradContext.from_trace(trace)
        div = measure_divergence(
            ctx.weights, [grouped(ctx.weights, ctx.device_grads(w_flat))])
        assert abs(div.delta_per_device[0] - expect_dev0) < 1e-12
        # single satellite: its gradient is the global gradient
        assert div.Delta_hat < 1e-12

    def test_weighted_sums_match_manual(self):
        trace = run_obl(small_config(seed=2))
        ctx = GradContext.from_trace(trace)
        div = divergence_at_global_models(trace)
        manual_delta = float(ctx.weights.device_frac @ div.delta_per_device)
        assert abs(div.delta_hat - manual_delta) < 1e-15

    def test_permuted_coordinates_same_estimate(self):
        # the probe kernel stores each device's gradient (C, d+1), the
        # learner (d+1, C); norms and averages do not see the order. Small
        # integers and power-of-two weights make every sum exact, so the
        # estimates are identical
        rng = np.random.default_rng(7)
        weights = AggregationWeights.build(np.repeat(np.arange(4), 2),
                                           np.ones(8), 4)
        grads = [rng.integers(-8, 9, size=(8, 15)).astype(float)
                 for _ in range(3)]
        permuted = [g.reshape(8, 5, 3).transpose(0, 2, 1).reshape(8, -1)
                    for g in grads]
        want = measure_divergence(weights, [grouped(weights, *grads)])
        got = measure_divergence(weights, [grouped(weights, *permuted)])
        assert want.Delta_hat > 0
        assert got.delta_hat == want.delta_hat
        assert got.Delta_hat == want.Delta_hat
        assert (got.delta_per_device == want.delta_per_device).all()
        assert (got.Delta_per_satellite == want.Delta_per_satellite).all()

    def test_float32_fold_returns_float64_maxima(self):
        trace = run_obl(small_config(policy="cnasa", n_geo=2, seed=3))
        weights = trace.aggregation
        samples32 = ProbeSamples.of(trace.samples, np.float32, weights.order)
        models = np.stack([w for _, w in trace.global_models])
        probes = trace.learner.probe_grad(models, samples32)
        assert probes.dtype == np.float32
        # both averaging steps keep the fold in float32
        assert weights.satellite_average(probes[0]).dtype == np.float32
        assert all(gap.dtype == np.float32
                   for gap in weights.squared_gaps(probes[:1].copy()))
        got = measure_divergence(weights, [probes])
        want = divergence_at_global_models(trace)
        for name in ("delta_per_device", "Delta_per_satellite"):
            assert getattr(got, name).dtype == np.float64
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name), rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_sparse_fold(self, dtype):
        # random assignments with empty satellites and unequal counts, and
        # the probes of a run; every output equal to the CSR-based fold
        rng = np.random.default_rng(23)
        cases = []
        for n_sats, n_devices in ((9, 20), (4, 4), (3, 30)):
            sat_of_device = rng.integers(0, min(n_sats, 6), n_devices)
            sizes = rng.integers(1, 40, n_devices).astype(float)
            grads = [rng.standard_normal((n_devices, 11)).astype(dtype)
                     for _ in range(3)]
            cases.append((sat_of_device, sizes, n_sats, grads))
        trace = run_obl(small_config(policy="cnasa", n_geo=2, seed=3))
        samples = ProbeSamples.of(trace.samples, dtype,
                                  np.arange(trace.samples.n_devices))
        models = np.stack([w for _, w in trace.global_models])
        cases.append((trace.sat_of_device, trace.device_sizes,
                      trace.topology.n_satellites,
                      list(trace.learner.probe_grad(models, samples))))
        for sat_of_device, sizes, n_sats, grads in cases:
            weights = AggregationWeights.build(sat_of_device, sizes, n_sats)
            operator = sparse_average_operator(sat_of_device, sizes, n_sats,
                                               dtype)
            got = measure_divergence(weights, [grouped(weights, *grads)])
            want = sparse_divergence(weights, operator, grads)
            assert got.delta_hat == want.delta_hat
            assert got.Delta_hat == want.Delta_hat
            for name in ("delta_per_device", "Delta_per_satellite"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert (getattr(got, name) == getattr(want, name)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_union_of_single_probe_folds_is_the_joint_fold(self, dtype):
        # satellite 2 has no devices; probe b ties a on devices 0, 1 and 5,
        # and the all-zero probe ties nothing but the zero start
        weights = AggregationWeights.build(np.array([0, 0, 1, 1, 1, 3]),
                                           np.array([3.0, 1, 2, 2, 5, 4]), 4)
        rng = np.random.default_rng(29)
        a = rng.standard_normal((6, 7)).astype(dtype)
        b = rng.standard_normal((6, 7)).astype(dtype)
        b[[0, 1, 5]] = a[[0, 1, 5]]
        zero = np.zeros_like(a)
        for first, second in ((a, b), (a, a), (zero, a), (b, zero),
                              (zero, zero)):
            got = diagnostics._union_divergence(
                [measure_divergence(weights, (grouped(weights, first),)),
                 measure_divergence(weights, (grouped(weights, second),))],
                weights)
            want = measure_divergence(weights,
                                      (grouped(weights, first, second),))
            assert got.delta_hat == want.delta_hat
            assert got.Delta_hat == want.Delta_hat
            for name in ("delta_per_device", "Delta_per_satellite"):
                assert (getattr(got, name) == getattr(want, name)).all()
        assert want.Delta_per_satellite[2] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_pairs_equal_device_order_fold(self, dtype):
        # satellite 2 has no devices and satellite 4 one; b ties a on
        # devices 0, 3 and 6. Folded in pairs, with a one-probe tail, every
        # output equals the device-order fold that takes each probe's
        # distances and zeroes satellites without devices before its
        # running maxima. An inf or nan row reaches only its own
        # satellite's average, so the other satellites' devices stay finite
        sat_of_device = np.array([0, 3, 0, 1, 1, 4, 1, 3, 0])
        sizes = np.array([3.0, 1, 2, 2, 5, 4, 1, 6, 2])
        weights = AggregationWeights.build(sat_of_device, sizes, 5)
        operator = sparse_average_operator(sat_of_device, sizes, 5, dtype)
        rng = np.random.default_rng(31)
        a = rng.standard_normal((9, 7)).astype(dtype)
        b = rng.standard_normal((9, 7)).astype(dtype)
        b[[0, 3, 6]] = a[[0, 3, 6]]
        zero = np.zeros_like(a)
        inf_row, nan_row = a.copy(), b.copy()
        inf_row[5] = np.inf
        nan_row[3, 2] = np.nan
        cases = [[a, b, zero], [a, a], [zero], [zero, zero, zero],
                 [b, zero, a, b, a], [a, b, inf_row], [nan_row, a, b]]
        for probes in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                got = measure_divergence(weights, [
                    grouped(weights, *probes[k:k + 2])
                    for k in range(0, len(probes), 2)])
                want = sparse_divergence(weights, operator, probes)
            for name in ("delta_hat", "Delta_hat", "delta_per_device",
                         "Delta_per_satellite"):
                assert (np.asarray(getattr(got, name)).dtype
                        == np.asarray(getattr(want, name)).dtype)
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
            assert got.Delta_per_satellite[2] == 0.0
        poisoned = [inf_row, nan_row]
        for probe, sat in zip(poisoned, (4, 1)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = measure_divergence(weights, [grouped(weights, probe)])
            assert not np.isfinite(got.delta_per_device[sat_of_device == sat]
                                   ).all()
            assert np.isfinite(got.delta_per_device[sat_of_device != sat]
                               ).all()

    def test_no_probes_rejected(self):
        trace = run_obl(small_config(rounds=1))
        with pytest.raises(InputError, match="probe"):
            measure_divergence(trace.aggregation, [])


class TestGradContext:
    def test_global_grad_is_data_weighted_device_sum(self):
        trace = run_obl(small_config(seed=4))
        ctx = GradContext.from_trace(trace)
        n_classes = trace.config.data.n_classes
        l2 = trace.config.training.l2
        for _, w in trace.global_models[::2]:
            W = w.reshape(-1, n_classes)
            device_grads = np.stack([
                naive_softmax_grad(W, augment(features), labels, l2).ravel()
                for features, labels in device_data(trace.samples)])
            expected = ctx.weights.device_frac @ device_grads
            assert np.abs(ctx.global_grad(w) - expected).max() < 1e-12
            assert np.abs(ctx.device_grads(w) - device_grads).max() < 1e-12

    def test_probe_samples_cast_only_where_probes_run(self, monkeypatch):
        trace = run_obl(small_config(rounds=2))
        of = ProbeSamples.of
        casts = []

        def counted(samples, dtype, order):
            casts.append(dtype)
            return of(samples, dtype, order)

        monkeypatch.setattr(ProbeSamples, "of", counted)
        virtual_trajectories(trace)
        divergence_at_global_models(trace)
        assert casts == []
        check_convergence_bound(trace)
        assert casts == [np.float32]

    def test_one_pass_equals_standalone_loss_and_grads(self):
        # the check's passes give the losses and device gradients of the
        # standalone passes, bit for bit
        trace = run_obl(small_config(seed=4))
        ctx = GradContext.from_trace(trace)
        for _, w in trace.global_models:
            loss, grads = ctx.loss_and_grads(w)
            assert loss == global_loss(ctx, w)
            assert (grads == ctx.device_grads(w)).all()


def reference_trace(ini):
    """A one-round run of a reference configuration."""
    cfg = load_config(CONFIGS / ini)
    return run_obl(replace(cfg, training=replace(cfg.training,
                                                 global_rounds=1)))


def odd_shape_trace():
    """A run whose data sits on 5 satellites, with 21 devices of 13
    samples: D * n = 273 is not a multiple of 16."""
    return run_obl(ExperimentConfig(
        topology=TopologyConfig(n_sats=5, n_air=7, devices_per_air=3),
        data=DataConfig(n_classes=8, feature_dim=8, classes_per_device=2,
                        samples_per_device=13, test_samples=100),
        training=TrainingConfig(tau1=2, tau2=2, global_rounds=1),
        policy=PolicyConfig(name="gdo", n_geo=1),
        run=RunConfig(seed=0)))


class TestProbePairs:
    @pytest.mark.parametrize("ini", ["single_orbit.ini", "walker.ini", None],
                             ids=["single_orbit", "walker", "odd_shape"])
    def test_pair_pass_equals_one_model_passes(self, ini):
        # each model of a pair pass has the gradients of its pass alone,
        # bit for bit, and samples laid out in the grouped order give the
        # device-order rows permuted by that order
        trace = reference_trace(ini) if ini else odd_shape_trace()
        weights = trace.aggregation
        sats = trace.satellite_models[-1][1][weights.nonempty]
        if ini is None:
            assert len(sats) % 2 == 1
            assert trace.samples.x[0].size % 16 != 0
        in_order = ProbeSamples.of(trace.samples, np.float32, weights.order)
        by_id = ProbeSamples.of(trace.samples, np.float32,
                                np.arange(trace.samples.n_devices))
        for k in range(0, len(sats), 2):
            pair = trace.learner.probe_grad(sats[k:k + 2], in_order)
            assert pair.shape[0] == min(2, len(sats) - k)
            for probe, w in zip(pair, sats[k:k + 2], strict=True):
                [alone] = trace.learner.probe_grad(w[None], by_id)
                assert probe.dtype == alone.dtype == np.float32
                assert probe.tobytes() == alone[weights.order].tobytes()

    @pytest.mark.parametrize("ini", ["single_orbit.ini", "walker.ini"],
                             ids=["single_orbit", "walker"])
    def test_pair_pass_peaks_no_higher_than_a_float64_pass(self, ini):
        # a pair's float32 logits and gradients take the bytes of one
        # float64 pass's, so the check's probes raise no peak that its
        # float64 passes do not
        trace = reference_trace(ini)
        ctx = GradContext.from_trace(trace)
        w = trace.global_models[-1][1]
        pair = trace.satellite_models[-1][1][ctx.weights.nonempty][:2]
        # the cached arrays are built before the measurements
        ctx.probe_samples, ctx.samples.target_index

        def peak(pass_at, model):
            tracemalloc.start()
            try:
                pass_at(model)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pair_peak = peak(ctx.probe_grads, pair)
        float64_peak = peak(ctx.loss_and_grads, w)
        logits_bytes = trace.samples.labels.size * trace.learner.n_classes * 8
        assert logits_bytes <= pair_peak <= float64_peak


class TestVirtualTrajectories:
    def test_paths_start_at_sync_models(self):
        trace = run_obl(small_config(seed=1))
        virt = virtual_trajectories(trace)
        for (g, t0, path), (t_rec, w_rec) in zip(
                virt, trace.global_models[:-1]):
            assert t0 == t_rec
            assert (path[0] == w_rec).all()

    def test_single_device_virtual_equals_actual(self):
        cfg = ExperimentConfig(
            topology=TopologyConfig(n_sats=1, n_air=1, devices_per_air=1),
            data=DataConfig(n_classes=4, feature_dim=4, classes_per_device=4,
                            samples_per_device=25, test_samples=100),
            training=TrainingConfig(tau1=2, tau2=2, global_rounds=3,
                                    learning_rate=0.1),
            policy=PolicyConfig(name="gdo", n_geo=1),
            run=RunConfig(seed=4),
        )
        trace = run_obl(cfg)
        virt = virtual_trajectories(trace)
        for (g, t0, path), (t_end, w_end) in zip(
                virt, trace.global_models[1:]):
            assert np.abs(path[-1] - w_end).max() < 1e-10

    def test_two_satellite_toy_matches_hand_rolled_descent(self):
        cfg = ExperimentConfig(
            topology=TopologyConfig(n_sats=2, n_air=4, devices_per_air=1),
            data=DataConfig(n_classes=4, feature_dim=4, classes_per_device=2,
                            samples_per_device=10, test_samples=100),
            training=TrainingConfig(tau1=2, tau2=1, global_rounds=2,
                                    learning_rate=0.2),
            policy=PolicyConfig(name="gdo", n_geo=1),
            run=RunConfig(seed=6),
        )
        trace = run_obl(cfg)
        ctx = GradContext.from_trace(trace)
        g, t0, path = virtual_trajectories(trace)[0]
        v = trace.global_models[0][1].copy()
        for _ in range(2):
            v = v - 0.2 * ctx.global_grad(v)
        assert np.abs(path[-1] - v).max() < 1e-12


class TestRhoBetaEstimation:
    def test_positive_on_generic_trajectory(self):
        trace = run_obl(small_config(seed=3))
        ctx = GradContext.from_trace(trace)
        models = [gm for _, gm in trace.global_models]
        rho, beta = estimate_rho_beta(
            models, [ctx.global_grad(w) for w in models],
            [global_loss(ctx, w) for w in models])
        assert rho > 0
        assert beta > 0

    def test_ratios_are_lower_bounds(self):
        trace = run_obl(small_config(seed=5))
        ctx = GradContext.from_trace(trace)
        models = [gm for _, gm in trace.global_models]
        rho, beta = estimate_rho_beta(
            models, [ctx.global_grad(w) for w in models],
            [global_loss(ctx, w) for w in models])
        a, b = models[0], models[-1]
        dist = np.linalg.norm(a - b)
        assert abs(global_loss(ctx, a) - global_loss(ctx, b)) <= rho * dist + 1e-12
        assert np.linalg.norm(ctx.global_grad(a) - ctx.global_grad(b)) <= \
            beta * dist + 1e-12


class TestBoundCheck:
    @pytest.mark.parametrize("policy,n_geo", [("gdo", 1), ("cnasa", 2)])
    def test_bound_holds_on_convex_runs(self, policy, n_geo):
        cfg = small_config(policy=policy, n_geo=n_geo, rounds=6, eta=0.1)
        report = check_convergence_bound(run_obl(cfg))
        assert all(c.holds for c in report.intervals)
        assert all(c.bound >= 0 for c in report.intervals)
        assert len(report.intervals) == 6

    @pytest.mark.parametrize("topology", [
        TopologyConfig(n_sats=4, n_air=8, devices_per_air=2),
        TopologyConfig(kind="walker", n_planes=3, sats_per_plane=4,
                       air_per_cell=1, devices_per_air=2),
    ], ids=["single", "walker"])
    def test_equals_serial_composition(self, topology):
        # at this seed the virtual endpoint sets one interval's maximum
        cfg = small_config(policy="cnasa", n_geo=2, rounds=5, seed=1, cpd=1)
        trace = run_obl(replace(cfg, topology=topology))
        report = check_convergence_bound(trace)
        expected = serial_bound_check(trace)
        assert len(report.intervals) == 5
        for got, want in zip(report.intervals, expected.intervals):
            for name in ("interval", "t_end", "gap", "bound", "margin",
                         "holds"):
                assert getattr(got, name) == getattr(want, name), name
        for name in ("delta_hat", "Delta_hat", "rho_hat", "beta_hat"):
            assert getattr(report, name) == getattr(expected, name), name

    @pytest.mark.parametrize("topology", [
        TopologyConfig(n_sats=4, n_air=8, devices_per_air=2),
        TopologyConfig(kind="walker", n_planes=3, sats_per_plane=4,
                       air_per_cell=1, devices_per_air=2),
    ], ids=["single", "walker"])
    def test_float32_probes_within_margin_tolerance(self, topology):
        # the benchmark's tolerance on the bound margin
        rel = 1e-6
        cfg = small_config(policy="cnasa", n_geo=2, rounds=5, seed=1, cpd=1)
        trace = run_obl(replace(cfg, topology=topology))
        report = check_convergence_bound(trace)
        all64 = serial_bound_check(trace, satellite_dtype=np.float64)
        for got, want in zip(report.intervals, all64.intervals, strict=True):
            for name in ("gap", "bound", "margin"):
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=rel, abs=0.0), name
        for name in ("rho_hat", "beta_hat"):
            assert getattr(report, name) == pytest.approx(
                getattr(all64, name), rel=rel, abs=0.0), name
        assert report.delta_hat == all64.delta_hat
        assert report.Delta_hat == all64.Delta_hat

    def test_more_workers_than_cores_same_report(self, monkeypatch):
        trace = run_obl(small_config(policy="cnasa", n_geo=2, rounds=6))
        expected = check_convergence_bound(trace)
        monkeypatch.setattr(simulation, "_available_cpus", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = check_convergence_bound(trace)
        finally:
            sys.setswitchinterval(interval)
        assert report == expected

    @pytest.mark.parametrize("tau1,tau2,fused,plain", [
        (2, 2, 4, 2), (3, 1, 4, 1), (1, 1, 3, 0)])
    def test_losses_come_from_the_gradient_passes(self, monkeypatch, tau1,
                                                  tau2, fused, plain):
        # the rho estimate and the gap read the losses of the float64
        # gradient passes at the pair models: the interval's start, the
        # virtual path's midpoint, the end and the virtual end, where the
        # midpoint is the virtual end when tau1 * tau2 = 1. No standalone
        # loss pass is left, and the other steps of the virtual path take
        # plain gradient passes
        cfg = small_config(policy="cnasa", n_geo=2, rounds=3, tau1=tau1,
                           tau2=tau2)
        trace = run_obl(cfg)
        calls = count_passes(monkeypatch, ("loss", "grad", "loss_and_grad"))
        report = check_convergence_bound(trace)
        assert len(report.intervals) == 3
        assert calls == {"loss": 0, "grad": plain * 3,
                         "loss_and_grad": fused * 3}
        assert report == serial_bound_check(trace)

    @pytest.mark.parametrize("ini,passes,probe_models", [
        ("single_orbit.ini",
         {"grad": 540, "loss_and_grad": 120, "probe_grad": 300, "loss": 0},
         600),
        ("walker.ini",
         {"grad": 80, "loss_and_grad": 40, "probe_grad": 1200, "loss": 0},
         2400),
    ], ids=["single_orbit", "walker"])
    def test_reference_pass_counts(self, monkeypatch, ini, passes,
                                   probe_models):
        # the check's gradient passes on the reference configs: per
        # interval, tau1 * tau2 - 2 plain float64 passes along the virtual
        # path, 4 with their losses (start, midpoint, end and virtual end),
        # and one float32 probe per satellite holding data, two models to a
        # pass; both configs hold data on an even number of satellites
        trace = run_obl(load_config(CONFIGS / ini))
        calls = count_passes(monkeypatch, passes)
        probe_grad = SoftmaxLearner.probe_grad
        sizes = []

        def sized(self, flat, samples):
            sizes.append(len(flat))
            return probe_grad(self, flat, samples)

        monkeypatch.setattr(SoftmaxLearner, "probe_grad", sized)
        check_convergence_bound(trace)
        assert calls == passes
        assert sum(sizes) == probe_models
        assert set(sizes) == {2}

    def test_zero_satellite_divergence_where_growth_overflows(self):
        # one satellite, so Delta_hat = 0, and h(tau1 * tau2) = h(4000)
        # overflows: the bound is the delta term alone, and it holds
        cfg = ExperimentConfig(
            topology=TopologyConfig(n_sats=1, n_air=2, devices_per_air=2),
            data=DataConfig(n_classes=4, feature_dim=4, samples_per_device=20,
                            test_samples=100),
            training=TrainingConfig(tau1=100, tau2=40, global_rounds=1),
            policy=PolicyConfig(name="gdo", n_geo=1),
            run=RunConfig(seed=0))
        report = check_convergence_bound(run_obl(cfg))
        [check] = report.intervals
        assert report.Delta_hat == 0.0 < report.delta_hat
        assert 0 < check.bound < np.inf
        assert check.margin == check.gap / check.bound
        assert check.holds

    @pytest.mark.parametrize("init_scale", [1e38, 1e39])
    def test_probes_past_float32_range_take_float64(self, init_scale,
                                                    monkeypatch):
        # at 1e39 the aggregates do not fit float32; at 1e38 they do, but
        # their float32 logits would overflow. Either way the interval's
        # satellite probes go through the float64 pass instead of dropping
        # out as nan
        cfg = small_config(policy="cnasa", n_geo=2, rounds=2)
        trace = run_obl(replace(cfg, training=replace(
            cfg.training, init_scale=init_scale)))
        # one worker checks the intervals in order
        monkeypatch.setattr(simulation, "_available_cpus", lambda: 1)
        unions = []
        union = diagnostics._union_divergence

        def recorded(estimates, weights):
            out = union(estimates, weights)
            unions.append((len(estimates), out))
            return out

        monkeypatch.setattr(diagnostics, "_union_divergence", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_convergence_bound(trace)
        per_interval = [out for n, out in unions if n == 3]
        ctx = GradContext.from_trace(trace)
        sat_models = dict(trace.satellite_models)
        for (t_end, _), div in zip(trace.global_models[1:], per_interval,
                                   strict=True):
            fold = measure_divergence(ctx.weights, [
                grouped(ctx.weights, ctx.device_grads(w))
                for w in sat_models[t_end][ctx.weights.nonempty]])
            assert div.delta_hat >= fold.delta_hat > 0
            assert div.Delta_hat >= fold.Delta_hat > 0
        all64 = serial_bound_check(trace, satellite_dtype=np.float64)
        assert report == all64
        assert all(0 < c.bound < np.inf for c in report.intervals)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_probe_fold_takes_float64(self, bad, monkeypatch):
        # a non-finite float32 probe gradient of one model of a pair leaves
        # a non-finite maximum in the fold, without a warning, and all of
        # the interval's satellite probes, the pair's other model included,
        # are taken again in float64
        trace = run_obl(small_config(policy="cnasa", n_geo=2, rounds=3))
        probe_grad = SoftmaxLearner.probe_grad
        poisoned_pairs = [0]

        def poisoned(self, flat, samples):
            grads = probe_grad(self, flat, samples)
            if len(flat) == 2:
                poisoned_pairs[0] += 1
                grads[1, 0, 0] = bad
            return grads

        monkeypatch.setattr(SoftmaxLearner, "probe_grad", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_convergence_bound(trace)
        assert poisoned_pairs[0] >= 3
        assert report == serial_bound_check(trace, satellite_dtype=np.float64)

    @pytest.mark.parametrize("fallback", [False, True],
                             ids=["float32_probes", "float64_fallback"])
    def test_one_device_gradient_array_at_a_time(self, fallback,
                                                 monkeypatch):
        # with one worker, at most one float64 (D, P) device-gradient array
        # from the check's passes is alive at any time, also where the
        # satellite probes fall back to float64, and at most one float32
        # (K, D, P) array of a pair's probes
        trace = run_obl(small_config(policy="cnasa", n_geo=2, rounds=3))
        monkeypatch.setattr(simulation, "_available_cpus", lambda: 1)
        shape = (trace.samples.n_devices, trace.global_models[0][1].size)
        probe_grad = SoftmaxLearner.probe_grad
        probes_live, probes_peak, pairs = [0], [0], [0]

        def probes_released():
            probes_live[0] -= 1

        def tracked_probes(self, flat, samples):
            grads = probe_grad(self, flat, samples)
            assert grads.dtype == np.float32
            assert grads.shape == (len(flat),) + shape
            probes_live[0] += 1
            probes_peak[0] = max(probes_peak[0], probes_live[0])
            pairs[0] += len(flat) == 2
            weakref.finalize(grads, probes_released)
            if fallback:
                grads[0, 0, 0] = np.inf
            return grads

        monkeypatch.setattr(SoftmaxLearner, "probe_grad", tracked_probes)
        live, peak, seen = [0], [0], [0]
        lock = threading.Lock()

        def released():
            with lock:
                live[0] -= 1

        def tracked(name, pick):
            method = getattr(GradContext, name)

            def wrapper(self, w):
                out = method(self, w)
                grads = pick(out)
                assert grads.dtype == np.float64 and grads.shape == shape
                with lock:
                    live[0] += 1
                    seen[0] += 1
                    peak[0] = max(peak[0], live[0])
                weakref.finalize(grads, released)
                return out
            return wrapper

        monkeypatch.setattr(GradContext, "device_grads",
                            tracked("device_grads", lambda out: out))
        monkeypatch.setattr(GradContext, "loss_and_grads",
                            tracked("loss_and_grads", lambda out: out[1]))
        check_convergence_bound(trace)
        # 3 intervals of 4 path passes, 2 endpoint passes, and the 4
        # satellite aggregates' passes when they fall back
        assert seen[0] == 3 * (6 + (4 if fallback else 0))
        assert peak[0] == 1 and live[0] == 0
        # the 4 aggregates of each interval in two pairs
        assert pairs[0] == 3 * 2
        assert probes_peak[0] == 1 and probes_live[0] == 0

    def test_mini_batch_run_rejected(self):
        # one device, so the divergence estimates are 0 and the bound is 0,
        # while mini-batch noise keeps the gap positive: the bound does not
        # cover this run, and the check says so instead of reporting a
        # violation with an infinite margin
        cfg = ExperimentConfig(
            topology=TopologyConfig(n_sats=2, n_air=1, devices_per_air=1),
            data=DataConfig(n_classes=3, feature_dim=3, classes_per_device=1,
                            samples_per_device=3, test_samples=30),
            training=TrainingConfig(tau1=2, tau2=2, global_rounds=3,
                                    batch_size=2),
            policy=PolicyConfig(name="gdo", n_geo=1),
            run=RunConfig(seed=5))
        trace = run_obl(cfg)
        assert "batch_size" in bound_inapplicable(trace)
        with pytest.raises(InputError, match="batch_size"):
            check_convergence_bound(trace)

    def test_mlp_run_rejected(self):
        cfg = small_config(rounds=2)
        trace = run_obl(replace(cfg, training=replace(
            cfg.training, learner="mlp", hidden_dim=4)))
        with pytest.raises(InputError, match="learner"):
            check_convergence_bound(trace)

    def test_batch_of_the_whole_dataset_is_full_batch(self):
        cfg = small_config(rounds=2)
        full = replace(cfg, training=replace(cfg.training, batch_size=20))
        assert bound_inapplicable(run_obl(full)) is None
        assert (check_convergence_bound(run_obl(full))
                == check_convergence_bound(run_obl(cfg)))

    def test_cnasa_reduces_satellite_divergence(self):
        gaps = []
        for seed in range(6):
            g = run_obl(small_config("gdo", 1, seed=seed))
            c = run_obl(small_config("cnasa", 2, seed=seed))
            gaps.append(divergence_at_global_models(g).Delta_hat
                        - divergence_at_global_models(c).Delta_hat)
        assert np.mean(gaps) > 0
