"""The hierarchical training loop: local steps, satellite aggregation,
inter-satellite synchronization, with per-round time accounting.

Every local round all devices take one full-batch gradient step. Each tau1
rounds, satellites aggregate their devices' models (flat or via the air
layer, identical results) and broadcast back. Each tau1*tau2 rounds the
satellite models are synchronized by ring allreduce (single orbit) or the
three-phase multi-orbit variant, and the global model is broadcast to
everyone. Devices step in ascending id order, so the trace is
schedule-independent and fully determined by the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allreduce import ModelVector, multi_orbit_sync_states, ring_allreduce_states
from .assignment import AssignmentMap, ClassDistribution, cdo, cnasa, gdo
from .config import ExperimentConfig, validate_config
from .coverage import CoverageMap, compute_coverage
from .data import DeviceDataset, generate_data
from .errors import InputError, TopologyError, TrainingError
from .learner import Samples, make_learner
from .partition import PartitionSet, arc_partition, graph_partition, with_air_parts
from .timecost import (
    TimeBreakdown,
    TimeParams,
    comm_time,
    comp_time,
    gossip_sync_time,
    make_delivery_model,
    sync_time,
    sync_time_multi_orbit,
)
from .topology import (
    IslGraph,
    NetworkTopology,
    build_single_orbit,
    build_walker,
    derive_isl_graph,
    hop_distances,
)


def satellite_aggregate(models: list[tuple[np.ndarray, int]],
                        via_air: list[list[int]] | None = None) -> np.ndarray:
    """Data-size-weighted average of device models, flat or air-first.

    ``via_air`` groups model indices by air node; the two-level path averages
    within each air node first, then across air nodes. Both paths agree by
    the distributive law.
    """
    if not models:
        raise InputError("satellite_aggregate needs at least one model")
    total = sum(size for _, size in models)
    if total == 0:
        raise InputError("zero total data size")
    if via_air is None:
        acc = np.zeros_like(models[0][0])
        for params, size in models:
            acc += (size / total) * params
        return acc
    acc = np.zeros_like(models[0][0])
    for group in via_air:
        group_size = sum(models[i][1] for i in group)
        if group_size == 0:
            continue
        partial = np.zeros_like(models[0][0])
        for i in group:
            partial += (models[i][1] / group_size) * models[i][0]
        acc += (group_size / total) * partial
    return acc


@dataclass
class TrainingTrace:
    """Complete record of one run, sufficient for diagnostics and replay."""

    config: ExperimentConfig
    records: list[tuple[int, str]] = field(default_factory=list)
    satellite_models: list[tuple[int, np.ndarray]] = field(default_factory=list)
    global_models: list[tuple[int, np.ndarray]] = field(default_factory=list)
    accuracy: list[tuple[int, int, float]] = field(default_factory=list)
    breakdowns: list[TimeBreakdown] = field(default_factory=list)
    comm_rows: list[tuple[int, str, int, int, int, int]] = field(default_factory=list)
    partition_rows: list[tuple[int, int]] = field(default_factory=list)
    assignment_rows: list[tuple[int, int, int]] = field(default_factory=list)
    warnings: tuple[str, ...] = ()

    # run context, populated by run_obl
    topology: NetworkTopology | None = None
    graph: IslGraph | None = None
    coverage: CoverageMap | None = None
    assignment: AssignmentMap | None = None
    datasets: list[DeviceDataset] = field(default_factory=list)
    test_features: np.ndarray | None = None
    test_labels: np.ndarray | None = None
    learner: object | None = None
    sat_of_device: np.ndarray | None = None
    device_sizes: np.ndarray | None = None

    @property
    def final_accuracy(self) -> float:
        return self.accuracy[-1][2] if self.accuracy else float("nan")

    @property
    def total_time(self) -> float:
        return sum(b.t_total for b in self.breakdowns)

    def device_weights(self) -> np.ndarray:
        """|D_i| / |D| per device."""
        return self.device_sizes / self.device_sizes.sum()

    def satellite_weights(self) -> np.ndarray:
        """|D_k| / |D| per satellite."""
        n_sats = self.topology.n_satellites
        w = np.zeros(n_sats)
        np.add.at(w, self.sat_of_device, self.device_sizes)
        return w / self.device_sizes.sum()


def build_topology(cfg: ExperimentConfig) -> NetworkTopology:
    t = cfg.topology
    if t.kind == "single":
        return build_single_orbit(t.n_sats, t.altitude_km, t.n_air,
                                  t.devices_per_air, t.link_params())
    return build_walker(t.n_planes, t.sats_per_plane, t.inclination_deg,
                        t.altitude_km, t.air_per_cell, t.devices_per_air,
                        t.link_params())


def make_time_params(cfg: ExperimentConfig, model_params: int) -> TimeParams:
    tr = cfg.training
    return TimeParams(
        links=cfg.topology.link_params(),
        flops_model=tr.flops_model,
        flops_device=tr.flops_device,
        flops_air=tr.flops_air,
        flops_satellite=tr.flops_satellite,
        samples_per_epoch=cfg.data.samples_per_device,
        epochs_per_local_round=1,
        model_bits=model_params * tr.bits_per_param,
        model_params=model_params,
        tau1=tr.tau1,
        tau2=tr.tau2,
        devices_per_air=cfg.topology.devices_per_air,
    )


def select_assignment(cfg: ExperimentConfig, topology: NetworkTopology,
                      graph: IslGraph, hops: np.ndarray, coverage: CoverageMap,
                      device_dists: list[ClassDistribution],
                      time_params: TimeParams,
                      policy_rng: np.random.Generator,
                      partition_rng: np.random.Generator,
                      ) -> tuple[AssignmentMap, PartitionSet | None]:
    delivery = make_delivery_model(hops, coverage, time_params,
                                   time_params.model_bits)
    name = cfg.policy.name
    if name == "gdo":
        return gdo(coverage), None
    if name == "cdo":
        assignment = cdo(topology, coverage, device_dists, policy_rng, delivery)
        all_sats = tuple(s.id for s in topology.satellites)
        all_airs = tuple(a.id for a in topology.air_nodes)
        pset = PartitionSet(parts=(all_sats,), air_parts=(all_airs,),
                            n_geo=topology.n_satellites)
        return assignment, pset
    if topology.kind == "single":
        pset = arc_partition(topology, cfg.policy.n_geo, coverage)
    else:
        pset = with_air_parts(graph_partition(graph, cfg.policy.n_geo,
                                              partition_rng), coverage)
    assignment = cnasa(topology, coverage, pset, device_dists,
                       cfg.policy.n_geo, policy_rng, delivery)
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
    coverage = compute_coverage(topology)

    air_of_device = topology.air_of_device()
    n_devices = topology.n_devices
    device_lons = [
        topology.air_nodes[air_of_device[dev]].longitude_deg
        for dev in range(n_devices)
    ]
    if cfg.data.geo_bin_deg > 0:
        bin_deg = cfg.data.geo_bin_deg
    elif topology.kind == "single":
        bin_deg = 360.0 / topology.n_satellites
    else:
        bin_deg = 360.0 / cfg.data.n_classes
    datasets, test_x, test_y = generate_data(
        n_devices, cfg.data.classes_per_device, cfg.data.samples_per_device,
        cfg.data.feature_dim, cfg.data.n_classes, device_lons, data_rng,
        test_samples=cfg.data.test_samples, blob_scale=cfg.data.blob_scale,
        bin_deg=bin_deg, class_scale_min=cfg.data.class_scale_min,
        class_scale_max=cfg.data.class_scale_max)
    device_dists = [ds.class_dist for ds in datasets]

    learner = make_learner(cfg.training.learner, cfg.data.feature_dim,
                           cfg.data.n_classes, cfg.training.l2,
                           cfg.training.hidden_dim, cfg.training.init_scale)
    time_params = make_time_params(cfg, learner.n_params)

    assignment, pset = select_assignment(
        cfg, topology, graph, hops, coverage, device_dists, time_params,
        policy_rng, partition_rng)
    relay_hops = assignment.relay_hops()
    if cfg.policy.name == "cnasa" and relay_hops >= cfg.policy.n_geo:
        # assignment must stay inside its diameter-bounded partition
        raise TopologyError(
            f"CNASA relay hops {relay_hops} not below n_geo {cfg.policy.n_geo}")

    trace = TrainingTrace(config=cfg)
    trace.topology = topology
    trace.graph = graph
    trace.coverage = coverage
    trace.assignment = assignment
    trace.datasets = datasets
    trace.test_features = test_x
    trace.test_labels = test_y
    trace.learner = learner
    trace.warnings = assignment.warnings
    if pset is not None:
        part_of = pset.part_of()
        trace.partition_rows = sorted(part_of.items())
    trace.assignment_rows = [
        (air, assignment.f[air], assignment.hops[air])
        for air in sorted(assignment.f)
    ]

    n_sats = topology.n_satellites
    sat_of_device = np.array([assignment.f[air_of_device[dev]]
                              for dev in range(n_devices)])
    device_sizes = np.array([ds.class_dist.sample_count for ds in datasets],
                            dtype=float)
    trace.sat_of_device = sat_of_device
    trace.device_sizes = device_sizes

    # aggregation operators: satellites x devices and the air-first pair
    sat_weight = np.zeros((n_sats, n_devices))
    sat_totals = np.zeros(n_sats)
    np.add.at(sat_totals, sat_of_device, device_sizes)
    for dev in range(n_devices):
        sat_weight[sat_of_device[dev], dev] = device_sizes[dev]
    nonempty = sat_totals > 0
    sat_weight[nonempty] /= sat_totals[nonempty, None]

    n_air = topology.n_air_nodes
    air_weight = np.zeros((n_air, n_devices))
    air_totals = np.zeros(n_air)
    for dev in range(n_devices):
        air_weight[air_of_device[dev], dev] = device_sizes[dev]
        air_totals[air_of_device[dev]] += device_sizes[dev]
    air_weight[air_totals > 0] /= air_totals[air_totals > 0, None]
    sat_air_weight = np.zeros((n_sats, n_air))
    for air in range(n_air):
        sat = assignment.f[air]
        if sat_totals[sat] > 0:
            sat_air_weight[sat, air] = air_totals[air] / sat_totals[sat]

    global_weights = sat_totals / device_sizes.sum()

    samples = Samples.stack([ds.features for ds in datasets],
                            [ds.labels for ds in datasets], cfg.data.n_classes)

    w0 = learner.init_params(learner_rng)
    device_params = np.tile(w0, (n_devices, 1))
    sat_params = np.tile(w0, (n_sats, 1))
    global_params = w0.copy()
    trace.global_models.append((0, global_params.copy()))

    tau1, tau2 = cfg.training.tau1, cfg.training.tau2
    eta = cfg.training.learning_rate
    total_steps = cfg.training.global_rounds * tau1 * tau2
    single_orbit = topology.n_planes == 1

    orbit_sizes = [len(o) for o in graph.orbits]
    round_comm = comm_time(assignment, time_params, time_params.model_bits)
    round_comp = comp_time(time_params, assignment.max_assigned)
    if cfg.run.sync_algo == "gossip":
        round_sync = gossip_sync_time(n_sats, time_params,
                                      time_params.model_bits) if n_sats > 1 else 0.0
    elif single_orbit:
        round_sync = sync_time(n_sats, time_params, time_params.model_bits)
    else:
        round_sync = sync_time_multi_orbit(orbit_sizes, time_params,
                                           time_params.model_bits)

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
            trace.records.append((t, "local"))
            continue

        if cfg.run.aggregate_via_air:
            air_models = air_weight @ device_params
            aggregated = sat_air_weight @ air_models
        else:
            aggregated = sat_weight @ device_params
        sat_params = np.where(nonempty[:, None], aggregated, sat_params)
        trace.satellite_models.append((t, sat_params.copy()))

        if t % (tau1 * tau2) != 0:
            trace.records.append((t, "satellite"))
            device_params = sat_params[sat_of_device]
            continue

        trace.records.append((t, "global"))
        g_round = t // (tau1 * tau2)
        models = [ModelVector(params=sat_params[k], weight=global_weights[k])
                  for k in range(n_sats)]
        if single_orbit:
            ids = [s.id for s in topology.satellites]
            states, log = ring_allreduce_states(models, ids)
            global_params = states[0]
        else:
            orbit_models = [[models[s] for s in orbit] for orbit in graph.orbits]
            state_map, log = multi_orbit_sync_states(orbit_models, graph)
            global_params = state_map[min(state_map)]
        for phase, step, src, dst, n_params in log.transfers:
            trace.comm_rows.append((g_round, phase, step, src, dst, n_params))
        sat_params = np.tile(global_params, (n_sats, 1))
        device_params = np.tile(global_params, (n_devices, 1))
        trace.global_models.append((t, global_params.copy()))

        acc = learner.accuracy(global_params, test_x, test_y)
        trace.accuracy.append((g_round, t, acc))
        trace.breakdowns.append(TimeBreakdown.build(
            round_comm, round_comp, round_sync, assignment.relay_hops()))
    return trace
