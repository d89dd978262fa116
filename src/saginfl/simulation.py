"""The hierarchical training loop: local steps, satellite aggregation,
inter-satellite synchronization, with per-round time accounting.

Every local round all devices take one full-batch gradient step. Each tau1
rounds, satellites take the data-weighted average of their devices' models
(one operator, ``AggregationWeights``, which the diagnostics share) and
broadcast back. Each tau1*tau2 rounds the satellite models are synchronized
by ring allreduce (single orbit) or the three-phase multi-orbit variant, and
the global model is broadcast to everyone; the synchronization's rings and
transfers are fixed by the topology, so they are planned once per run, and
the same plan prices the round's sync time. Devices step in ascending id
order, so the trace is schedule-independent and fully determined by the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

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

    Row k of ``sat_weight`` holds |D_i| / |D_k| for every device i reporting
    to satellite k, so it sums to 1 on satellites that hold data. Averaging
    within each air node first and then across the air nodes of a satellite
    re-associates the same sum, so this one operator also serves the air
    layer; the acceptance suite checks the two-level equality.
    """

    sat_of_device: np.ndarray
    sat_weight: csr_matrix       # (N_S, D)
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
        n_devices = len(device_sizes)
        sat_weight = csr_matrix((share, (sat_of_device, np.arange(n_devices))),
                                shape=(n_satellites, n_devices))
        total = device_sizes.sum()
        return cls(sat_of_device=sat_of_device, sat_weight=sat_weight,
                   device_frac=device_sizes / total, sat_frac=totals / total,
                   nonempty=nonempty)

    def satellite_average(self, rows: np.ndarray) -> np.ndarray:
        """Data-weighted per-satellite averages of device rows, ``(N_S, P)``."""
        return self.sat_weight @ rows

    def astype(self, dtype) -> "AggregationWeights":
        """The weights with both averaging steps in ``dtype``, so that they
        keep rows of ``dtype`` in ``dtype``."""
        return replace(self, sat_weight=self.sat_weight.astype(dtype),
                       sat_frac=self.sat_frac.astype(dtype))


@dataclass
class TrainingTrace:
    """Complete record of one run, sufficient for diagnostics and replay."""

    config: ExperimentConfig
    satellite_models: list[tuple[int, np.ndarray]] = field(default_factory=list)
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
    seed_seq = np.random.SeedSequence(cfg.run.seed)
    data_rng, policy_rng, partition_rng, learner_rng, batch_rng = (
        np.random.default_rng(s) for s in seed_seq.spawn(5))

    topology = build_topology(cfg)
    graph = derive_isl_graph(topology)
    hops = hop_distances(graph)
    access = compute_coverage(topology)

    features, labels, test_x, test_y = generate_data(cfg.data, topology,
                                                     data_rng)
    samples = Samples.stack(features, labels, cfg.data.n_classes)
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
    global_params = w0.copy()
    trace.global_models.append((0, global_params.copy()))

    tau1, tau2 = cfg.training.tau1, cfg.training.tau2
    eta = cfg.training.learning_rate
    total_steps = cfg.training.global_rounds * tau1 * tau2
    batch_size = cfg.training.batch_size
    n_samples = samples.x.shape[2]
    for t in range(1, total_steps + 1):
        if 0 < batch_size < n_samples:
            # per-device sample without replacement (mini-batch mode)
            idx = np.argsort(batch_rng.random((n_devices, n_samples)),
                             axis=1)[:, :batch_size]
            step_samples = samples.select(idx)
        else:
            step_samples = samples
        with np.errstate(over="ignore", invalid="ignore"):
            grads = learner.grad(device_params, step_samples)
            device_params = device_params - eta * grads
        if not np.all(np.isfinite(device_params)):
            raise TrainingError(f"non-finite device parameters at local round {t}")

        if t % tau1 != 0:
            continue

        sat_params = np.where(weights.nonempty[:, None],
                              weights.satellite_average(device_params),
                              sat_params)
        trace.satellite_models.append((t, sat_params.copy()))

        if t % (tau1 * tau2) != 0:
            device_params = sat_params[weights.sat_of_device]
            continue

        g_round = t // (tau1 * tau2)
        sat_params, _ = sync(sat_params, weights.sat_frac, plan)
        global_params = sat_params[0]
        device_params = np.tile(global_params, (n_devices, 1))
        trace.global_models.append((t, global_params.copy()))

        acc = learner.accuracy(global_params, test_x, test_y)
        trace.accuracy.append((g_round, t, acc))
    return trace
