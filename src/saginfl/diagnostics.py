"""Convergence diagnostics: gradient divergence, virtual centralized
trajectories, and the closed-form bound linking them.

The divergence suprema are uncomputable over all models, so they are
approximated by maxima over probe models taken from the recorded trajectory;
results are estimates, never asserted as true suprema. Loss-Lipschitz and
gradient-smoothness constants are estimated from ratios over sampled model
pairs and inflated by a safety margin before entering the bound.

``check_convergence_bound`` checks each global interval as one task that
reads only models already recorded in the trace. The tasks run concurrently
on up to one worker per CPU available to the process, the calling thread
and one thread fewer started for the call (``simulation.parallel_map``,
which also runs training's device blocks; numpy and BLAS release the GIL).
Results are collected and folded in interval order, and the only
cross-interval steps are maxima, so every output is bit-identical whatever
the worker count. The check computes only what it reports, and each loss it
reads comes out of the float64 gradient pass it makes at the same model
(``SoftmaxLearner.loss_and_grad``).

Every computation takes the dtype of its data. The satellite-aggregate
probes are 2,400 of the 2,520 models the check takes gradients at on the
Walker reference run, so they take a cheaper pass:
``GradContext.probe_grads`` runs ``SoftmaxLearner.probe_grad`` on float32
samples in the fold's grouped order, two models a pass, whose logits and
gradients take the bytes of one float64 pass's. The probes and their fold are
float32, and only the per-device and per-satellite maxima are float64.
That kernel leaves out the L2 term, which cancels in every difference the
fold takes, subtracts the samples' model-independent ``target_moments``,
and keeps each device's gradient class-major, since no norm or average
depends on the order of coordinates. Every other pass (the endpoints and
the virtual path, with their losses) is float64. As in training, overflow
is read from the results: the float32 probes run with overflow and
invalid-value warnings off, and an interval whose float32 maxima are not
all finite takes its satellite probes again in float64. An overflow
always reaches those maxima: an infinite logit turns nan at the max
shift, an overflowing sum or squared norm is inf, and ``np.maximum`` and
``sqrt`` keep a nan.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import InputError
from .learner import ProbeSamples, Samples
from .simulation import AggregationWeights, TrainingTrace, parallel_map

SAFETY_MARGIN = 1.5
BOUND_TOLERANCE = 1.05
_MIN_PAIR_DIST = 1e-12


@dataclass
class GradContext:
    """The run's float64 gradient and loss passes, and its float32 probes."""

    learner: object
    samples: Samples
    weights: AggregationWeights

    @classmethod
    def from_trace(cls, trace: TrainingTrace) -> "GradContext":
        return cls(learner=trace.learner, samples=trace.samples,
                   weights=trace.aggregation)

    @cached_property
    def probe_samples(self) -> ProbeSamples:
        """The float32 samples of ``probe_grads`` in the grouped order,
        cast on first use."""
        # non-finite float32 samples send every probe to the float64 pass
        with np.errstate(over="ignore", invalid="ignore"):
            return ProbeSamples.of(self.samples, np.float32,
                                   self.weights.order)

    def device_grads(self, w: np.ndarray) -> np.ndarray:
        """Every device's gradient at one shared model, ``(D, P)``."""
        return self.learner.grad(w, self.samples)

    def probe_grads(self, ws: np.ndarray) -> np.ndarray:
        """``SoftmaxLearner.probe_grad`` at K models: ``(K, D, P)``."""
        return self.learner.probe_grad(ws, self.probe_samples)

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
                       grouped_grads: Iterable[np.ndarray],
                       ) -> DivergenceEstimate:
    """Gradient divergence maxima over probe models, folded from the
    ``(K, D, P)`` device gradients of K probes at a time, with the rows in
    ``weights.order``; the fold overwrites them, and a generator is read
    one array at a time. The running maxima are of squared distances
    (``AggregationWeights.squared_gaps``) in the gradients' dtype; they
    are returned as float64 distances by device id and satellite, 0 for
    satellites without devices. ``sqrt`` is monotone and correctly
    rounded, so the root of a maximum is the maximum of the roots, and a
    nan stays nan. Raises InputError when given no probes.
    """
    dev_sq = sat_sq = 0.0  # a Python float: the maxima take the gaps' dtype
    for grouped in grouped_grads:
        dev_gap, sat_gap = weights.squared_gaps(grouped)
        del grouped  # let go of these probes before the next are computed
        dev_sq = np.maximum(dev_sq, dev_gap).max(axis=0)
        sat_sq = np.maximum(sat_sq, sat_gap).max(axis=0)
    if isinstance(dev_sq, float):
        raise InputError("need at least one probe's device gradients")
    delta_dev = np.empty(len(weights.order))
    delta_dev[weights.order] = np.sqrt(dev_sq)
    delta_sat = np.sqrt(sat_sq).astype(float)
    delta_sat[~weights.nonempty] = 0.0
    return _weighted_divergence(delta_dev, delta_sat, weights)


def _one_probe(weights: AggregationWeights,
               grads: np.ndarray) -> DivergenceEstimate:
    """One probe's estimate, its ``(D, P)`` rows copied into order."""
    return measure_divergence(weights, (grads.take(weights.order, 0)[None],))


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
                 ) -> tuple[np.ndarray, list[np.ndarray], DivergenceEstimate,
                            dict[int, float]]:
    """Centralized gradient descent from ``w0``.

    Returns the ``steps + 1`` models, the global gradient at each model but
    the last, the divergence estimate with ``w0`` as its one probe, and the
    global losses at ``w0`` and at model ``loss_at`` when it is below
    ``steps``, keyed by model index. Each loss comes from its model's
    gradient pass, and the other passes take no loss. The device gradients
    at ``w0`` are folded into the estimate right after their pass and
    dropped, so the path holds one pass's device gradients at a time.
    """
    start_loss, start_grads = ctx.loss_and_grads(w0)
    losses = {0: start_loss}
    grads = [ctx.weights.device_frac @ start_grads]
    start = _one_probe(ctx.weights, start_grads)
    del start_grads
    path = [w0.copy(), w0 - eta * grads[0]]
    for i in range(1, steps):
        if i == loss_at:
            losses[i], dev_g = ctx.loss_and_grads(path[i])
            grads.append(ctx.weights.device_frac @ dev_g)
            del dev_g
        else:
            grads.append(ctx.global_grad(path[i]))
        path.append(path[i] - eta * grads[i])
    return np.stack(path), grads, start, losses


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

    def term(divergence: float, t: int) -> float:
        # a zero divergence contributes 0, even where h(t) overflows
        if not divergence:
            return 0.0
        try:
            return divergence * ((eta * beta + 1.0) ** t - 1.0)
        except OverflowError:
            return divergence * float("inf")

    return (rho / beta) * (term(delta, tau1) + term(Delta, tau1 * tau2))


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


def _check_interval(trace: TrainingTrace, ctx: GradContext, g: int,
                    ) -> tuple[IntervalCheck, float, float, DivergenceEstimate]:
    """Global interval ``g``'s check, its rho and beta, and the divergence
    at its two recorded global models.

    The satellite aggregates at the interval's end, most of the check's
    gradient passes, take the float32 ``ctx.probe_grads``, and so their
    fold is float32. If its maxima are not all finite, an overflow reached
    them, and the same fold runs again over ``ctx.device_grads``. Every
    other pass is float64, since the gap and beta's gradient differences
    are prone to cancellation. The four pair models' passes (start, end,
    virtual end and the virtual path's midpoint) yield their losses too.
    """
    training = trace.config.training
    tau1, tau2 = training.tau1, training.tau2
    eta = training.learning_rate
    weights = ctx.weights
    t_end, w_end = trace.global_models[g]
    # the virtual path's midpoint is a pair model; it is v_end itself when
    # tau1 * tau2 = 1, whose loss comes from v_end's own pass below
    mid = (tau1 * tau2 + 1) // 2
    path, path_grads, start, losses = _global_path(
        ctx, trace.global_models[g - 1][1], tau1 * tau2, eta, loss_at=mid)
    w_start, v_end = path[0], path[-1]

    # Each probe's device gradients are folded into the estimates as soon as
    # they exist and then dropped: a task holds one float64 probe's or one
    # float32 pair's at a time. The fold takes maxima, exact in any grouping.
    end_loss, end_grads = ctx.loss_and_grads(w_end)
    endpoints = _union_divergence(
        [start, _one_probe(weights, end_grads)], weights)
    end_grad = weights.device_frac @ end_grads
    del end_grads
    v_end_loss, v_end_grads = ctx.loss_and_grads(v_end)
    losses[len(path) - 1] = v_end_loss
    path_grads.append(weights.device_frac @ v_end_grads)
    virtual_end = _one_probe(weights, v_end_grads)
    del v_end_grads
    # satellite_models runs parallel to global_models[1:]
    sats = trace.satellite_models[g - 1][1][weights.nonempty]
    with np.errstate(over="ignore", invalid="ignore"):
        satellites = measure_divergence(weights, (
            ctx.probe_grads(sats[k:k + 2]) for k in range(0, len(sats), 2)))
    if not (np.isfinite(satellites.delta_per_device).all()
            and np.isfinite(satellites.Delta_per_satellite).all()):
        satellites = measure_divergence(weights, (
            ctx.device_grads(w).take(weights.order, 0)[None] for w in sats))
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
    # cast once, before the workers that read it start
    ctx.probe_samples
    intervals = range(1, len(trace.global_models))
    checks, rhos, betas, endpoints = zip(
        *parallel_map(partial(_check_interval, trace, ctx), intervals))
    overall = _union_divergence(endpoints, ctx.weights)
    return BoundReport(intervals=list(checks), delta_hat=overall.delta_hat,
                       Delta_hat=overall.Delta_hat, rho_hat=max(0.0, *rhos),
                       beta_hat=max(0.0, *betas))
