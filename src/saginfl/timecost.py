"""End-to-end delay and per-round time accounting.

Per global round the total cost splits into communication (device uplink, air
uplink with relay forwarding, satellite downlink broadcast), computation
(local training plus two aggregation stages), and inter-satellite
synchronization. Bandwidth is equal-split among simultaneous transmitters:
a satellite's uplink capacity over the air nodes in its access cell, an air
node's over its devices. The broadcast downlink is a single transmitter and
is not split. Every cost is priced from the configuration and the model's
parameter count ``m``. On the static snapshot a run models, every global
round costs the same, so ``price_round`` prices one round once per run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allreduce import SyncPlan
from .assignment import AssignmentMap
from .config import ExperimentConfig


@dataclass(frozen=True)
class TimeBreakdown:
    t_comm: float
    t_comp: float
    t_sync: float
    n_ss: int

    @property
    def t_total(self) -> float:
        return self.t_comm + self.t_comp + self.t_sync


def end_to_end(bits: float, rate_bps: float, prop_s: float) -> float:
    """Transmission plus propagation delay of a payload over one link."""
    return bits / rate_bps + prop_s


def comm_time(assignment: AssignmentMap, cfg: ExperimentConfig, m: int) -> float:
    """Communication time of one global round.

    tau2 * (T_SG + T_GA + T_AS + N_SS * T_SS) with worst-case per-class
    delays: the device and air uplinks see their bandwidth equal-split among
    the busiest cell's transmitters.
    """
    top = cfg.topology
    bits = m * cfg.training.bits_per_param
    t_sg = end_to_end(bits, top.sg_rate_bps, top.sg_prop_s)
    t_ga = end_to_end(bits, top.ga_rate_bps / top.devices_per_air,
                      top.ga_prop_s)
    t_as = end_to_end(bits, top.as_rate_bps / assignment.max_access_cell,
                      top.as_prop_s)
    t_ss = end_to_end(bits, top.ss_rate_bps, top.ss_prop_s)
    n_ss = assignment.relay_hops()
    return cfg.training.tau2 * (t_sg + t_ga + t_as + n_ss * t_ss)


def comp_time(cfg: ExperimentConfig, m: int, airs_per_satellite: int) -> float:
    """Computation time of one global round.

    tau2 * (tau1 * T_train + T_agg_air + T_agg_satellite); training cost is
    FLOPs * samples / device FLOPS (one epoch per local round), aggregation
    cost is params * received models / aggregator FLOPS.
    """
    tr = cfg.training
    t_train = tr.flops_model * cfg.data.samples_per_device / tr.flops_device
    t_agg_air = m * cfg.topology.devices_per_air / tr.flops_air
    t_agg_sat = m * airs_per_satellite / tr.flops_satellite
    return tr.tau2 * (tr.tau1 * t_train + t_agg_air + t_agg_sat)


def sync_time(phases: tuple[tuple[tuple[int, ...], ...], ...],
              cfg: ExperimentConfig, m: int) -> float:
    """Ring allreduce time of a synchronization plan's ``phases``.

    One ring of N satellites takes 2(N-1)(T_trans/N + T_prop + M/(N*FLOPS)).
    Phases run one after another; the rings of a phase run in parallel, so
    its largest ring sets the phase's cost.
    """
    top = cfg.topology
    t_trans = m * cfg.training.bits_per_param / top.ss_rate_bps

    def ring(n: int) -> float:
        return 2.0 * (n - 1) * (t_trans / n + top.ss_prop_s
                                + m / (n * cfg.training.flops_satellite))

    return sum(max(ring(len(r)) for r in rings) for rings in phases)


def gossip_sync_time(n_sats: int, cfg: ExperimentConfig, m: int) -> float:
    """Analytic gossip cost: N*log2(N) full-model deliveries per satellite."""
    top = cfg.topology
    cycles = n_sats * math.log2(n_sats)
    per_cycle = (m * cfg.training.bits_per_param / top.ss_rate_bps
                 + top.ss_prop_s + m / cfg.training.flops_satellite)
    return cycles * per_cycle


def price_round(cfg: ExperimentConfig, assignment: AssignmentMap,
                plan: SyncPlan, m: int) -> TimeBreakdown:
    """The cost of one global round: communication, computation, and the
    sync time of ``plan``'s rings, or the analytic gossip cost under
    ``sync_algo = gossip``."""
    gossip = cfg.run.sync_algo == "gossip"
    return TimeBreakdown(
        t_comm=comm_time(assignment, cfg, m),
        t_comp=comp_time(cfg, m, assignment.max_assigned),
        t_sync=(gossip_sync_time(cfg.topology.n_satellites, cfg, m) if gossip
                else sync_time(plan.phases, cfg, m)),
        n_ss=assignment.relay_hops())


@dataclass(frozen=True)
class DeliveryTimeModel:
    """Model delivery time from an air node to a target satellite.

    One model upload over the air-satellite link plus one inter-satellite
    forward per hop separating the access satellite from the target.
    """

    hops: np.ndarray
    access: np.ndarray            # (N_A,) access satellite per air node
    t_as_s: float
    t_ss_s: float

    def delivery_time(self, air_id: int, target_sat: int) -> float:
        src = self.access[air_id]
        return self.t_as_s + int(self.hops[src, target_sat]) * self.t_ss_s


def make_delivery_model(hops: np.ndarray, access: np.ndarray,
                        cfg: ExperimentConfig, m: int) -> DeliveryTimeModel:
    top = cfg.topology
    bits = m * cfg.training.bits_per_param
    return DeliveryTimeModel(
        hops=hops,
        access=access,
        t_as_s=end_to_end(bits, top.as_rate_bps, top.as_prop_s),
        t_ss_s=end_to_end(bits, top.ss_rate_bps, top.ss_prop_s),
    )
