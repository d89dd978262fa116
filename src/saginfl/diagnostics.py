"""Convergence diagnostics: gradient divergence, virtual centralized
trajectories, and the closed-form bound linking them.

The divergence suprema are uncomputable over all models, so they are
approximated by maxima over probe models taken from the recorded trajectory;
results are estimates, never asserted as true suprema. Loss-Lipschitz and
gradient-smoothness constants are estimated from ratios over sampled model
pairs and inflated by a safety margin before entering the bound.

``check_convergence_bound`` checks each global interval as one task that
reads only models already recorded in the trace. The tasks run concurrently
on a thread pool of up to the CPUs available to the process (numpy and BLAS
release the GIL). Results are collected and folded in interval order, and
the only cross-interval steps are maxima, so every output is bit-identical
whatever the worker count. The check computes only what it reports, and
each loss it reads comes out of the float64 gradient pass it makes at the
same model (``SoftmaxLearner.loss_and_grad``).

The satellite-aggregate probes are 2,400 of the 2,520 gradient passes on
the Walker reference run, so they take a cheaper pass than the others:
``SoftmaxLearner.probe_grad`` in float32, folded in float32 with float32
averaging weights, and only the per-device and per-satellite maxima are
upcast. That kernel leaves out the L2 term, which cancels in every
difference the fold takes, subtracts the samples' model-independent
``target_moments``, and keeps each device's gradient class-major, since no
norm or average depends on the order of coordinates. On the Walker
reference run (seed 1, one BLAS thread, two workers on a 2-core x86-64
box) this took the check from 1.62 s to 0.98 s. Every other pass (the
endpoints and the virtual path, with their losses) is float64, and so is
the satellite-probe pass of an interval whose float32 pass could overflow
(``_probes_fit_float32``).
"""
from __future__ import annotations

from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError
from .learner import ProbeSamples, Samples
from .simulation import AggregationWeights, TrainingTrace, _available_cpus

SAFETY_MARGIN = 1.5
BOUND_TOLERANCE = 1.05
_MIN_PAIR_DIST = 1e-12
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class GradContext:
    """Loss/gradient evaluation over the run's device samples."""

    learner: object
    samples: Samples
    weights: AggregationWeights

    @classmethod
    def from_trace(cls, trace: TrainingTrace) -> "GradContext":
        return cls(learner=trace.learner, samples=trace.samples,
                   weights=trace.aggregation)

    def device_grads(self, w: np.ndarray) -> np.ndarray:
        """Every device's gradient at one shared model, ``(D, P)``."""
        return self.learner.grad(w, self.samples)

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        return self.weights.device_frac @ self.device_grads(w)

    def loss_and_grads(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """The global loss and every device's gradient ``(D, P)`` at one
        shared model, from one pass."""
        losses, grads = self.learner.loss_and_grad(w, self.samples)
        return float(self.weights.device_frac @ losses), grads


@dataclass(frozen=True)
class DivergenceEstimate:
    delta_hat: float             # device-vs-satellite, data-weighted
    Delta_hat: float             # satellite-vs-global, data-weighted
    delta_per_device: np.ndarray
    Delta_per_satellite: np.ndarray


def measure_divergence(weights: AggregationWeights,
                       device_grads: Iterable[np.ndarray]) -> DivergenceEstimate:
    """Gradient divergence maxima over probe models, folded from each
    probe's ``(D, P)`` device gradients.

    ``device_grads`` is read once, one probe at a time, so a generator keeps
    only the probe being folded. The averages, differences and norms are
    taken in the dtype of the gradients and of ``weights`` (see
    ``AggregationWeights.astype``); the maxima are float64. Satellites
    without devices carry zero divergence (their data weight is zero
    anyway). Raises InputError when given no probes.
    """
    # device maxima are kept in the weights' grouped order until the end
    delta_grouped = np.zeros(len(weights.device_frac))
    delta_sat = np.zeros(len(weights.sat_frac))
    probes = 0
    for dev_g in device_grads:
        grouped = dev_g.take(weights.order, axis=0)
        sat_g = weights.grouped_average(grouped)
        glob_g = weights.sat_frac @ sat_g
        grouped = grouped.astype(sat_g.dtype, copy=False)
        for sats, rows in weights.slots:
            grouped[rows] -= sat_g[sats]
        sat_gap = _row_norms(sat_g - glob_g)
        sat_gap[~weights.nonempty] = 0.0
        delta_grouped = np.maximum(delta_grouped, _row_norms(grouped))
        delta_sat = np.maximum(delta_sat, sat_gap)
        probes += 1
    if not probes:
        raise InputError("need at least one probe's device gradients")
    delta_dev = np.empty_like(delta_grouped)
    delta_dev[weights.order] = delta_grouped
    return _weighted_divergence(delta_dev, delta_sat, weights)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _weighted_divergence(delta_dev: np.ndarray, delta_sat: np.ndarray,
                         weights: AggregationWeights) -> DivergenceEstimate:
    return DivergenceEstimate(
        delta_hat=float(weights.device_frac @ delta_dev),
        Delta_hat=float(weights.sat_frac @ delta_sat),
        delta_per_device=delta_dev,
        Delta_per_satellite=delta_sat,
    )


def _union_divergence(estimates: Iterable[DivergenceEstimate],
                      weights: AggregationWeights) -> DivergenceEstimate:
    """The estimate over the union of the estimates' probe models."""
    return _weighted_divergence(
        np.maximum.reduce([e.delta_per_device for e in estimates]),
        np.maximum.reduce([e.Delta_per_satellite for e in estimates]),
        weights)


def _global_path(ctx: GradContext, w0: np.ndarray, steps: int, eta: float,
                 loss_at: int = 0,
                 ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray,
                            dict[int, float]]:
    """Centralized gradient descent from ``w0``.

    Returns the ``steps + 1`` models, the global gradient at each model but
    the last, the device gradients at ``w0``, and the global losses at
    ``w0`` and at model ``loss_at`` when it is below ``steps``, keyed by
    model index. Each loss comes from its model's gradient pass, and the
    other passes take no loss.
    """
    start_loss, start_grads = ctx.loss_and_grads(w0)
    losses = {0: start_loss}
    grads = [ctx.weights.device_frac @ start_grads]
    path = [w0.copy(), w0 - eta * grads[0]]
    for i in range(1, steps):
        if i == loss_at:
            losses[i], dev_g = ctx.loss_and_grads(path[i])
            grads.append(ctx.weights.device_frac @ dev_g)
            del dev_g
        else:
            grads.append(ctx.global_grad(path[i]))
        path.append(path[i] - eta * grads[i])
    return np.stack(path), grads, start_grads, losses


def virtual_trajectories(trace: TrainingTrace, ctx: GradContext | None = None,
                         ) -> list[tuple[int, int, np.ndarray]]:
    """The centralized path of every global interval, re-synchronized at its
    start: ``(interval g, start t, path of tau1*tau2+1 models)``."""
    ctx = ctx or GradContext.from_trace(trace)
    training = trace.config.training
    return [(g, t0, _global_path(ctx, w0, training.tau1 * training.tau2,
                                 training.learning_rate)[0])
            for g, (t0, w0) in enumerate(trace.global_models[:-1], start=1)]


def theorem_bound(delta: float, Delta: float, rho: float, beta: float,
                  eta: float, tau1: int, tau2: int) -> float:
    """(rho/beta) * (delta*h(tau1) + Delta*h(tau1*tau2)), h(t)=(eta*beta+1)^t - 1."""
    if beta <= 0:
        raise InputError(f"beta must be positive, got {beta}")

    def h(t: int) -> float:
        try:
            return (eta * beta + 1.0) ** t - 1.0
        except OverflowError:
            return float("inf")

    return (rho / beta) * (delta * h(tau1) + Delta * h(tau1 * tau2))


def estimate_rho_beta(models: list[np.ndarray], grads: list[np.ndarray],
                      losses: list[float]) -> tuple[float, float]:
    """Max loss-difference and gradient-difference ratios over model pairs,
    given the models' global gradients and losses."""
    rho = 0.0
    beta = 0.0
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            dist = float(np.linalg.norm(models[i] - models[j]))
            if dist < _MIN_PAIR_DIST:
                continue
            rho = max(rho, abs(losses[i] - losses[j]) / dist)
            beta = max(beta, float(np.linalg.norm(grads[i] - grads[j])) / dist)
    if rho == 0.0 or beta == 0.0:
        # degenerate trajectory (e.g. zero gradients everywhere)
        return max(rho, 1.0), max(beta, 1.0)
    return rho, beta


@dataclass(frozen=True)
class IntervalCheck:
    interval: int
    t_end: int
    gap: float
    bound: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class BoundReport:
    intervals: list[IntervalCheck]
    delta_hat: float
    Delta_hat: float
    rho_hat: float
    beta_hat: float

    @property
    def max_margin(self) -> float:
        return max((c.margin for c in self.intervals), default=0.0)


def _magnitude(a: np.ndarray) -> float:
    """The largest absolute entry of ``a`` (nan if it holds a nan), without
    an absolute-value copy."""
    return float(max(a.max(), -a.min()))


def _probes_fit_float32(model_scale: float, x_scale: float,
                        samples: Samples) -> bool:
    """Whether the float32 probe pass stays finite at models and features
    of at most these magnitudes.

    The bounds cover its largest intermediates: the models and features
    themselves; the logits shifted by their class maximum, at most
    2(d+1) times model times feature; a device's sums over its n samples
    before the mean; and the squares a norm adds in the fold, where a
    gradient, an average or a difference of two stays within 4 times the
    largest feature.
    """
    f, _, n = samples.x.shape
    n_params = f * samples.n_classes
    bounds = (model_scale, x_scale, 2.0 * f * model_scale * x_scale,
              n * x_scale, n_params * (4.0 * x_scale) * (4.0 * x_scale))
    return all(b <= _FLOAT32_MAX for b in bounds)


def _check_interval(trace: TrainingTrace, ctx: GradContext,
                    weights32: AggregationWeights,
                    samples32: ProbeSamples | None, x_scale: float,
                    sat_models: dict[int, np.ndarray], g: int,
                    ) -> tuple[IntervalCheck, float, float, DivergenceEstimate]:
    """Global interval ``g``'s check, its rho and beta, and the divergence
    at its two recorded global models.

    The satellite-aggregate probes, most of the check's gradient passes,
    run through ``SoftmaxLearner.probe_grad`` on ``samples32`` and are
    folded with ``weights32``, all in float32, unless that pass could
    overflow at the interval's aggregates (``_probes_fit_float32``); then
    they take the float64 ``learner.grad`` and weights. Every other pass
    stays float64, since the gap and beta's gradient differences are prone
    to cancellation. The four pair models' passes (start, end, virtual end
    and the virtual path's midpoint) yield their losses as well.
    """
    training = trace.config.training
    tau1, tau2 = training.tau1, training.tau2
    eta = training.learning_rate
    weights = ctx.weights
    t_end, w_end = trace.global_models[g]
    # the virtual path's midpoint is a pair model; it is v_end itself when
    # tau1 * tau2 = 1, whose loss comes from v_end's own pass below
    mid = (tau1 * tau2 + 1) // 2
    path, path_grads, start_grads, losses = _global_path(
        ctx, trace.global_models[g - 1][1], tau1 * tau2, eta, loss_at=mid)
    w_start, v_end = path[0], path[-1]

    # Each probe's device gradients are folded into the estimates as soon as
    # they exist and then dropped: concurrent tasks keep little memory.
    end_loss, end_grads = ctx.loss_and_grads(w_end)
    endpoints = measure_divergence(weights, (start_grads, end_grads))
    end_grad = weights.device_frac @ end_grads
    del start_grads, end_grads
    v_end_loss, v_end_grads = ctx.loss_and_grads(v_end)
    losses[len(path) - 1] = v_end_loss
    path_grads.append(weights.device_frac @ v_end_grads)
    virtual_end = measure_divergence(weights, (v_end_grads,))
    del v_end_grads
    sats = sat_models[t_end][weights.nonempty]
    if _probes_fit_float32(_magnitude(sats), x_scale, ctx.samples):
        satellites = measure_divergence(weights32, (
            ctx.learner.probe_grad(w, samples32)
            for w in sats.astype(np.float32)))
    else:
        satellites = measure_divergence(weights, (
            ctx.learner.grad(w, ctx.samples) for w in sats))
    div = _union_divergence([endpoints, virtual_end, satellites], weights)

    rho, beta = estimate_rho_beta(
        [w_start, w_end, v_end, path[mid]],
        [path_grads[0], end_grad, path_grads[-1], path_grads[mid]],
        [losses[0], end_loss, v_end_loss, losses[mid]])
    bound = theorem_bound(div.delta_hat, div.Delta_hat,
                          SAFETY_MARGIN * rho, SAFETY_MARGIN * beta,
                          eta, tau1, tau2)
    gap = abs(end_loss - v_end_loss)
    if bound > 0:
        margin = gap / bound
    else:
        margin = 0.0 if gap <= 1e-12 else float("inf")
    check = IntervalCheck(interval=g, t_end=t_end, gap=gap, bound=bound,
                          margin=margin, holds=margin <= BOUND_TOLERANCE)
    return check, rho, beta, endpoints


def bound_inapplicable(trace: TrainingTrace) -> str | None:
    """Why the convergence bound does not cover the run, or None if it does.

    The bound, in the ``(eta*beta+1)^t - 1`` form of Wang et al. (JSAC
    2019), holds for a convex loss and full-batch local steps only.
    """
    if not trace.learner.convex:
        return (f"[training] learner = {trace.learner.name!r} is not convex; "
                f"the bound needs a convex loss")
    batch = trace.config.training.batch_size
    if trace.config.mini_batch:
        return (f"[training] batch_size = {batch} takes mini-batch steps; "
                f"the bound covers full-batch local steps only")
    return None


def check_convergence_bound(trace: TrainingTrace) -> BoundReport:
    """Per-global-interval check of the convergence bound.

    Estimates are taken over each interval's own models (its endpoints, the
    virtual endpoint, and the nonempty satellites' aggregates recorded at
    the interval's end, the only ones the trace keeps), then
    the Lipschitz/smoothness constants are inflated by the safety margin.
    A margin of at most 1.05 counts as holding; beyond that the interval is
    flagged as a violation. Intervals are checked concurrently and folded in
    interval order; the overall divergence is over the recorded global
    models. Raises InputError, naming the setting, for a run outside the
    bound's scope (``bound_inapplicable``).
    """
    reason = bound_inapplicable(trace)
    if reason is not None:
        raise InputError(reason)
    ctx = GradContext.from_trace(trace)
    x_scale = _magnitude(ctx.samples.x)
    samples32 = (ProbeSamples.of(ctx.samples, np.float32)
                 if _probes_fit_float32(0.0, x_scale, ctx.samples) else None)
    task = partial(_check_interval, trace, ctx,
                   ctx.weights.astype(np.float32), samples32, x_scale,
                   dict(trace.satellite_models))
    intervals = range(1, len(trace.global_models))
    workers = min(_available_cpus(), len(intervals))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        checks, rhos, betas, endpoints = zip(*pool.map(task, intervals))
    overall = _union_divergence(endpoints, ctx.weights)
    return BoundReport(intervals=list(checks), delta_hat=overall.delta_hat,
                       Delta_hat=overall.Delta_hat, rho_hat=max(0.0, *rhos),
                       beta_hat=max(0.0, *betas))
