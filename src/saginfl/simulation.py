"""The hierarchical training loop: local steps, satellite aggregation,
inter-satellite synchronization, with per-round time accounting.

Every local round all devices take one gradient step, on their full local
data or on a mini-batch. Each tau1 rounds, satellites take the data-weighted
average of their devices' models (one operator, ``AggregationWeights``,
which the diagnostics share) and broadcast back. Each tau1*tau2 rounds the
satellite models are synchronized by ring allreduce (single orbit) or the
three-phase multi-orbit variant, and the global model is broadcast to
everyone; the synchronization's rings and transfers are fixed by the
topology, so they are planned once per run, and the same plan prices the
round's sync time.

Between two satellite aggregations no device reads another's state, so the
tau1 steps of such a segment run in parallel: the devices are split into
contiguous blocks, one per CPU available to the process, and each block
steps its own rows of the device parameters in place (numpy and BLAS
release the GIL). ``parallel_map`` runs the blocks, and the bound check's
intervals, on the calling thread plus threads it starts for that one call,
one fewer than the workers, so N CPUs start N - 1 threads a call and a
single CPU none. The threads are plain ``threading`` threads that take items
from the front of a deque while the caller takes them from the back, and
each call joins its own. With the caller idle behind a pool of N, each
pool thread grew a malloc arena of its own; on a shared 2-core x86-64 box
the caller's share took the Walker benchmark's peak RSS from 50.92 to
49.53 MB and the single orbit's from 45.80 to 45.24 MB, wall time unchanged
(``BENCH_31.json``). Dropping ``concurrent.futures``, and so the
``logging`` it loads, with ``cli`` importing ``traceback`` only on failure,
took about 0.5 MB more off the single orbit's (``BENCH_33.json``), and
starting threads per call, with no job queue, keeps ``queue`` and
``heapq`` out of a run (``BENCH_35.json``).
Each device's gradient is its own GEMMs and its own per-sample softmax, and
the mini-batches are drawn in the main thread in step order, so the trace
is bit-identical whatever the block count and fully determined by the seed.
Finiteness is checked once per segment; a segment that ends non-finite is
replayed step by step, from its devices' satellite models, to name its
first non-finite round.
"""
from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from numpy.random import SeedSequence, default_rng

from .allreduce import (
    SyncPlan,
    multi_orbit_sync_states,
    plan_multi_orbit,
    ring_allreduce_states,
)
from .assignment import AssignmentMap, cnasa, gdo
from .config import ExperimentConfig, validate_config
from .data import generate_data
from .errors import TopologyError, TrainingError
from .learner import Samples, make_learner
from .partition import (
    PartitionSet,
    arc_partition,
    graph_partition,
    with_air_parts,
)
from .timecost import TimeBreakdown, make_delivery_model, price_round
from .topology import (
    IslGraph,
    NetworkTopology,
    build_single_orbit,
    build_walker,
    compute_coverage,
    derive_isl_graph,
    hop_distances,
)


@dataclass(frozen=True)
class AggregationWeights:
    """Data-size weights of the device -> satellite -> global averages.

    Device i reporting to satellite k weighs |D_i| / |D_k| in k's average,
    so a satellite's weights sum to 1 when it holds data. Averaging within
    each air node first and then across the air nodes of a satellite
    re-associates the same sum, so this one operator also serves the air
    layer; the acceptance suite checks the two-level equality.

    The devices are grouped by satellite in ``order``: slot j holds the
    (j+1)-th device, by ascending id, of every satellite that has one, in
    satellite order. Each entry of ``slots`` pairs the satellites of one
    slot (a slice when they are consecutive) with its positions in
    ``order``. ``satellite_average`` starts every sum from +0.0 and adds
    the slots one by one, so each satellite adds ``share_i * row_i`` in
    ascending device id, the order of a sparse ``(N_S, D)`` matrix product,
    and no weight ever multiplies another satellite's row: a non-finite row
    reaches only its own satellite, and satellites without devices stay 0.
    Every average and distance is taken in the dtype of the rows given.
    """

    sat_of_device: np.ndarray
    order: np.ndarray            # (D,) device ids, slot by slot
    share: np.ndarray            # (D, 1, 1) |D_i| / |D_k| per entry of order
    slots: tuple[tuple[slice | np.ndarray, slice], ...]
    device_frac: np.ndarray      # |D_i| / |D|
    sat_frac: np.ndarray         # |D_k| / |D|
    nonempty: np.ndarray         # satellites holding data

    @classmethod
    def build(cls, sat_of_device: np.ndarray, device_sizes: np.ndarray,
              n_satellites: int) -> "AggregationWeights":
        totals = np.bincount(sat_of_device, weights=device_sizes,
                             minlength=n_satellites)
        nonempty = totals > 0
        share = device_sizes / np.where(nonempty, totals, 1.0)[sat_of_device]
        counts = np.bincount(sat_of_device, minlength=n_satellites)
        by_satellite = np.argsort(sat_of_device, kind="stable")
        rank = np.empty_like(by_satellite)
        rank[by_satellite] = (np.arange(len(by_satellite))
                              - np.repeat(np.cumsum(counts) - counts, counts))
        order = np.lexsort((sat_of_device, rank))
        slots, start = [], 0
        for j in range(counts.max(initial=0)):
            sats = np.flatnonzero(counts > j)
            span = slice(start, start + len(sats))
            start = span.stop
            # a slice adds in place; an index array gathers and scatters,
            # which doubles the cost of an average
            if sats[-1] - sats[0] + 1 == len(sats):
                sats = slice(sats[0], sats[-1] + 1)
            slots.append((sats, span))
        total = device_sizes.sum()
        return cls(sat_of_device=sat_of_device, order=order,
                   share=share[order, None, None], slots=tuple(slots),
                   device_frac=device_sizes / total, sat_frac=totals / total,
                   nonempty=nonempty)

    def satellite_average(self, rows: np.ndarray) -> np.ndarray:
        """Data-weighted per-satellite averages of device rows, ``(N_S, P)``."""
        return self._grouped_average(rows.take(self.order, 0)[:, None])[:, 0]

    def _grouped_average(self, grouped: np.ndarray) -> np.ndarray:
        """``satellite_average`` of K sets of rows ``(D, K, P)`` already
        taken in ``order``, ``(N_S, K, P)``."""
        scaled = self.share.astype(grouped.dtype, copy=False) * grouped
        out = np.zeros((len(self.sat_frac),) + scaled.shape[1:], scaled.dtype)
        for sats, rows in self.slots:
            out[sats] += scaled[rows]
        return out

    def squared_gaps(self, grouped: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """For K probes' rows ``(K, D, P)`` in ``order``, which it
        overwrites, device-major as ``SoftmaxLearner.probe_grad`` lays them
        out: each device's squared distance to its satellite's average,
        ``(K, D)`` in ``order``, and each satellite's to the mean."""
        rows = grouped.transpose(1, 0, 2)
        sat = self._grouped_average(rows)
        for sats, span in self.slots:
            rows[span] -= sat[sats]
        sat -= (self.sat_frac.astype(sat.dtype, copy=False)
                @ sat.transpose(1, 0, 2))
        return (np.einsum("dkp,dkp->kd", rows, rows),
                np.einsum("skp,skp->ks", sat, sat))


@dataclass
class TrainingTrace:
    """One run's results and the context its diagnostics read.

    The trace keeps the models the bound check reads: the global model at
    t = 0 and after every global round, and the satellite aggregates at
    each global round's end, before synchronization. Those aggregates are
    copied into one ``(global_rounds, N_S, P)`` block, allocated before the
    rounds start, and each entry of ``satellite_models`` is its round's
    slot. The tau1 aggregates inside a global round are not kept, so the
    run cannot be replayed aggregate by aggregate from its trace.
    """

    config: ExperimentConfig
    # (t, (N_S, P) slot of one block) at each global round's end
    satellite_models: list[tuple[int, np.ndarray]] = field(default_factory=list)
    # (t, (P,) global model) at t = 0 and after each global round
    global_models: list[tuple[int, np.ndarray]] = field(default_factory=list)
    accuracy: list[tuple[int, int, float]] = field(default_factory=list)
    # the cost of every global round, fixed by the run's set-up
    round_cost: TimeBreakdown | None = None
    # one synchronization's rings and transfers, the same every global round
    sync_plan: SyncPlan | None = None
    warnings: tuple[str, ...] = ()

    # run context, set by run_obl
    topology: NetworkTopology | None = None
    graph: IslGraph | None = None
    access: np.ndarray | None = None          # (N_A,) access satellite
    assignment: AssignmentMap | None = None
    partition: PartitionSet | None = None     # None under GDO
    samples: Samples | None = None
    learner: object | None = None
    sat_of_device: np.ndarray | None = None
    device_sizes: np.ndarray | None = None

    @property
    def final_accuracy(self) -> float:
        return self.accuracy[-1][2] if self.accuracy else float("nan")

    @property
    def total_time(self) -> float:
        """The round cost once per completed global round, added in order."""
        return sum([self.round_cost.t_total] * len(self.accuracy))

    @cached_property
    def aggregation(self) -> AggregationWeights:
        """The run's aggregation weights, built once."""
        return AggregationWeights.build(self.sat_of_device, self.device_sizes,
                                        self.topology.n_satellites)

    def satellite_weights(self) -> np.ndarray:
        """|D_k| / |D| per satellite."""
        return self.aggregation.sat_frac


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(limit: int) -> int:
    """Up to ``limit`` workers, one per CPU available to the process, the
    calling thread counted."""
    return max(1, min(_available_cpus(), limit))


def parallel_map(fn, *iterables) -> list:
    """``fn`` over the zipped ``iterables``: once every item has run, the
    results in item order, or the earliest failed item's exception raised.

    The call starts ``worker_count(len(items)) - 1`` threads, none for one
    worker, that take items from the front while the caller takes them from
    the back; with no thread the caller runs them all, in order. The threads
    are joined before the call returns or raises. Every item runs in a fresh
    context, as on a new thread, so under numpy's default error state.
    """
    items = list(zip(*iterables))
    results = [None] * len(items)
    errors = {}
    todo = deque(range(len(items)))

    def run(pop) -> None:
        while True:
            try:
                i = pop()
            except IndexError:
                return
            try:
                results[i] = contextvars.Context().run(fn, *items[i])
            except BaseException as exc:
                errors[i] = exc

    threads = []
    try:
        for _ in range(worker_count(len(items)) - 1):
            thread = threading.Thread(target=run, args=(todo.popleft,),
                                      daemon=True)
            thread.start()
            threads.append(thread)
        run(todo.pop if threads else todo.popleft)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _local_steps(learner, eta: float, params: np.ndarray, samples: Samples,
                 batches: list[np.ndarray | None]) -> None:
    """Take one device block's local steps, updating ``params`` in place:
    one step per entry of ``batches``, on the mini-batch it indexes or on
    all of ``samples``."""
    # numpy's error state is per thread, so it is set where the steps run
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in batches:
            step = samples if idx is None else samples.select(idx)
            grads = learner.grad(params, step)
            grads *= eta
            params -= grads


def build_topology(cfg: ExperimentConfig) -> NetworkTopology:
    t = cfg.topology
    if t.kind == "single":
        return build_single_orbit(t.n_sats, t.altitude_km, t.n_air,
                                  t.devices_per_air)
    return build_walker(t.n_planes, t.sats_per_plane, t.inclination_deg,
                        t.altitude_km, t.air_per_cell, t.devices_per_air)


def select_assignment(cfg: ExperimentConfig, topology: NetworkTopology,
                      graph: IslGraph, hops: np.ndarray, access: np.ndarray,
                      class_counts: np.ndarray, m: int,
                      policy_rng: np.random.Generator,
                      partition_rng: np.random.Generator,
                      ) -> tuple[AssignmentMap, PartitionSet | None]:
    """GDO keeps the access map; CDO is CNASA over one arc of every
    satellite; CNASA works on arcs (one orbit) or graph parts (Walker)."""
    name = cfg.policy.name
    if name == "gdo":
        return gdo(access, hops), None
    if name == "cdo":
        parts = arc_partition(topology, topology.n_satellites)
    elif topology.kind == "single":
        parts = arc_partition(topology, cfg.policy.n_geo)
    else:
        parts = graph_partition(graph, cfg.policy.n_geo, partition_rng)
    pset = with_air_parts(parts, access)
    assignment = cnasa(topology, access, pset, class_counts, policy_rng,
                       make_delivery_model(hops, access, cfg, m))
    return assignment, pset


def run_obl(cfg: ExperimentConfig) -> TrainingTrace:
    """Execute the configured number of global rounds; deterministic per seed."""
    validate_config(cfg)
    seed_seq = SeedSequence(cfg.run.seed)
    data_rng, policy_rng, partition_rng, learner_rng, batch_rng = (
        default_rng(s) for s in seed_seq.spawn(5))

    topology = build_topology(cfg)
    graph = derive_isl_graph(topology)
    hops = hop_distances(graph)
    access = compute_coverage(topology)

    features, labels, test_x, test_y = generate_data(cfg.data, topology,
                                                     data_rng)
    samples = Samples.stack(features, labels, cfg.data.n_classes)
    test = Samples.stack(test_x[None], test_y[None], cfg.data.n_classes)
    del features, test_x  # the samples hold the augmented copies
    learner = make_learner(cfg.training, cfg.data)
    m = learner.n_params

    assignment, pset = select_assignment(
        cfg, topology, graph, hops, access, samples.class_counts, m,
        policy_rng, partition_rng)
    relay_hops = assignment.relay_hops()
    if cfg.policy.name == "cnasa" and relay_hops >= cfg.policy.n_geo:
        # assignment must stay inside its diameter-bounded partition
        raise TopologyError(
            f"CNASA relay hops {relay_hops} not below n_geo {cfg.policy.n_geo}")

    n_sats, n_devices = topology.n_satellites, topology.n_devices
    plan = plan_multi_orbit(graph, m)
    sync = (ring_allreduce_states if topology.n_planes == 1
            else multi_orbit_sync_states)
    warnings = assignment.warnings
    if cfg.run.sync_algo == "gossip":
        warnings += (
            "sync_algo=gossip: t_sync is the analytic gossip cost; [commlog] "
            "lists the ring allreduce that produced the model values",)
    trace = TrainingTrace(
        config=cfg, round_cost=price_round(cfg, assignment, plan, m),
        sync_plan=plan, warnings=warnings, topology=topology, graph=graph,
        access=access, assignment=assignment, partition=pset,
        samples=samples, learner=learner,
        sat_of_device=assignment.f[topology.air_of_device],
        device_sizes=samples.class_counts.sum(axis=1))
    weights = trace.aggregation

    w0 = learner.init_params(learner_rng)
    device_params = np.tile(w0, (n_devices, 1))
    sat_params = np.tile(w0, (n_sats, 1))
    trace.global_models.append((0, w0))

    tau1, tau2 = cfg.training.tau1, cfg.training.tau2
    eta = cfg.training.learning_rate
    total_steps = cfg.training.global_rounds * tau1 * tau2
    batch_size = cfg.training.batch_size
    n_samples = samples.x.shape[2]
    # the pre-sync aggregates of every global round, in one block made
    # before the rounds start, so it sits outside the heap their
    # temporaries churn; with ProbeSamples' one feature array this lowers
    # the check's peak RSS on both configs, where the block alone raised
    # the single orbit's (BENCH_34.json)
    record = np.empty((cfg.training.global_rounds, n_sats, m))
    n_blocks = worker_count(n_devices)
    cuts = [n_devices * k // n_blocks for k in range(n_blocks + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    block_samples = [Samples(x=samples.x[:, b], labels=samples.labels[b],
                             n_classes=samples.n_classes) for b in blocks]
    for t in range(tau1, total_steps + 1, tau1):
        if cfg.mini_batch:
            # per-device sample without replacement (mini-batch mode)
            batches = [np.argsort(batch_rng.random((n_devices, n_samples)),
                                  axis=1)[:, :batch_size]
                       for _ in range(tau1)]
        else:
            batches = [None] * tau1
        parallel_map(
            partial(_local_steps, learner, eta),
            [device_params[b] for b in blocks], block_samples,
            [[i if i is None else i[b] for i in batches] for b in blocks])
        if not np.isfinite(device_params).all():
            # params -= grads keeps a non-finite entry non-finite, so a
            # step-by-step replay of the segment finds its first round.
            # Every segment starts from its devices' satellite models:
            # tile(w0), the previous segment's broadcast, or the synced
            # models, whose rows all equal the global model bit for bit
            start = sat_params[weights.sat_of_device]
            for r, idx in enumerate(batches, t - tau1 + 1):
                _local_steps(learner, eta, start, samples, [idx])
                if not np.isfinite(start).all():
                    raise TrainingError(
                        f"non-finite device parameters at local round {r}")

        sat_params = np.where(weights.nonempty[:, None],
                              weights.satellite_average(device_params),
                              sat_params)
        if t % (tau1 * tau2) == 0:
            # the record keeps a copy of the aggregates; the sync writes
            # new ones whose rows all equal the global model bit for bit
            slot = record[len(trace.satellite_models)]
            slot[...] = sat_params
            trace.satellite_models.append((t, slot))
            sat_params, _ = sync(sat_params, weights.sat_frac, plan)
            trace.global_models.append((t, sat_params[0].copy()))
        device_params = sat_params[weights.sat_of_device]
    trace.accuracy = [
        (g, t, learner.accuracy(w, test))
        for g, (t, w) in enumerate(trace.global_models[1:], start=1)]
    return trace
