"""End-to-end delay and per-round time accounting: the one time model.

Per global round the total cost splits into communication (device uplink, air
uplink with relay forwarding, satellite downlink broadcast), computation
(local training plus two aggregation stages), and inter-satellite
synchronization. Bandwidth is equal-split among simultaneous transmitters:
a satellite's uplink capacity over the air nodes in its access cell, an air
node's over its devices. The broadcast downlink is a single transmitter and
is not split. ``price`` prices a round from the configuration, the model's
parameter count ``m`` and the round's ``RoundShape``: ``price_round`` at a
run's shape (on the static snapshot a run models, every global round costs
the same), ``validate_config`` at the worst shape a config allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module to validate the time keys
    from .allreduce import SyncPlan
    from .assignment import AssignmentMap
    from .config import ExperimentConfig, TopologyConfig

Key = tuple[str, str]   # the ``(section, key)`` that sets a cost
SG, GA, AS, SS = (("topology", f"{link}_rate_bps") for link in ("sg", "ga", "as", "ss"))
AIR, SAT = ("training", "flops_air"), ("training", "flops_satellite")
MODEL, DEVICE = ("training", "flops_model"), ("training", "flops_device")


@dataclass(frozen=True)
class TimeBreakdown:
    t_comm: float
    t_comp: float
    t_sync: float
    n_ss: int

    @property
    def t_total(self) -> float:
        return self.t_comm + self.t_comp + self.t_sync


@dataclass(frozen=True)
class RoundShape:
    """What a round's cost depends on beyond the config and ``m``."""

    access_cell: int          # air nodes in the busiest access cell
    airs_per_satellite: int   # air nodes on the busiest aggregation satellite
    relay_hops: int           # the longest relay path, in ISL hops
    rings: tuple[int, ...]    # the largest ring of each sync phase

    @classmethod
    def worst(cls, topology: TopologyConfig) -> RoundShape:
        """A shape no run of ``topology`` exceeds: every air node in one
        access cell and on one satellite, relay paths of ``n_satellites``
        hops, and sync phases whose largest rings hold every satellite
        (three phases on a Walker, one on a single orbit)."""
        n_air, n = topology.n_air_nodes, topology.n_satellites
        return cls(n_air, n_air, n, (n,) * (1 if topology.kind == "single" else 3))


def _shared(bits: float, rate: float, senders: int) -> float:
    """Transmission time over ``rate`` split among ``senders``; infinite
    when the share underflows to zero."""
    share = rate / senders
    return bits / share if share > 0 else math.inf


def unit_costs(cfg: ExperimentConfig, m: int, shape: RoundShape) -> dict[Key, float]:
    """The cost of one unit of each rate or FLOP key's work, keyed by that
    key: one model's transmission over each link, one aggregation at each
    aggregator, in seconds; and one local step, as its FLOPs under
    ``flops_model`` and its time under ``flops_device``."""
    t, tr = cfg.topology, cfg.training
    bits = m * tr.bits_per_param
    step = tr.flops_model * cfg.data.samples_per_device
    return {SG: bits / t.sg_rate_bps,
            GA: _shared(bits, t.ga_rate_bps, t.devices_per_air),
            AS: _shared(bits, t.as_rate_bps, shape.access_cell),
            SS: bits / t.ss_rate_bps,
            AIR: m * t.devices_per_air / tr.flops_air,
            SAT: m * shape.airs_per_satellite / tr.flops_satellite,
            MODEL: step,
            DEVICE: step / tr.flops_device}


def price(cfg: ExperimentConfig, m: int,
          shape: RoundShape) -> tuple[TimeBreakdown, dict[Key, float]]:
    """One global round's cost at ``shape``: its breakdown, and the same
    cost split into one term per ``(section, key)`` that sets it.

    Communication is tau2 * (T_SG + T_GA + T_AS + N_SS * T_SS), computation
    tau2 * (tau1 * T_train + T_agg_air + T_agg_satellite). One sync ring of
    N satellites takes 2(N-1)(T_trans/N + T_prop + M/(N*FLOPS)); phases run
    in turn, each costing its largest ring. Gossip sync is N*log2(N)
    full-model deliveries per satellite.
    """
    t, tr = cfg.topology, cfg.training
    u = unit_costs(cfg, m, shape)
    t_sg, t_ga = u[SG] + t.sg_prop_s, u[GA] + t.ga_prop_s
    t_as, t_ss = u[AS] + t.as_prop_s, u[SS] + t.ss_prop_s
    if cfg.run.sync_algo == "gossip":
        n = t.n_satellites
        sync_hops = sync_models = n * math.log2(n)
        t_sync = sync_hops * (t_ss + m / tr.flops_satellite)
    else:
        sync_hops = sum(2 * (n - 1) for n in shape.rings)
        sync_models = sum(2 * (n - 1) / n for n in shape.rings)
        t_sync = sum(2.0 * (n - 1) * (u[SS] / n + t.ss_prop_s
                                      + m / (n * tr.flops_satellite))
                     for n in shape.rings)
    relayed = tr.tau2 * shape.relay_hops
    cost = TimeBreakdown(
        t_comm=tr.tau2 * (t_sg + t_ga + t_as + shape.relay_hops * t_ss),
        t_comp=tr.tau2 * (tr.tau1 * u[DEVICE] + u[AIR] + u[SAT]),
        t_sync=t_sync, n_ss=shape.relay_hops)
    terms = {SG: tr.tau2 * u[SG], ("topology", "sg_prop_s"): tr.tau2 * t.sg_prop_s,
             GA: tr.tau2 * u[GA], ("topology", "ga_prop_s"): tr.tau2 * t.ga_prop_s,
             AS: tr.tau2 * u[AS], ("topology", "as_prop_s"): tr.tau2 * t.as_prop_s,
             SS: (relayed + sync_models) * u[SS],
             ("topology", "ss_prop_s"): (relayed + sync_hops) * t.ss_prop_s,
             DEVICE: tr.tau2 * tr.tau1 * u[DEVICE],
             AIR: tr.tau2 * u[AIR],
             SAT: tr.tau2 * u[SAT] + sync_models * (m / tr.flops_satellite)}
    return cost, terms


def price_round(cfg: ExperimentConfig, assignment: AssignmentMap,
                plan: SyncPlan, m: int) -> TimeBreakdown:
    """The cost of one global round of a run: ``assignment`` sets the
    shared cells and relay hops, ``plan``'s phases the rings."""
    return price(cfg, m, RoundShape(
        assignment.max_access_cell, assignment.max_assigned,
        assignment.relay_hops(),
        tuple(max(len(ring) for ring in rings) for rings in plan.phases)))[0]


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


# one air node uploads at a time: the air-satellite rate is not shared
_ONE_SENDER = RoundShape(1, 1, 0, ())


def make_delivery_model(hops: np.ndarray, access: np.ndarray,
                        cfg: ExperimentConfig, m: int) -> DeliveryTimeModel:
    u, t = unit_costs(cfg, m, _ONE_SENDER), cfg.topology
    return DeliveryTimeModel(hops=hops, access=access,
                             t_as_s=u[AS] + t.as_prop_s,
                             t_ss_s=u[SS] + t.ss_prop_s)


def delivery_terms(cfg: ExperimentConfig, m: int) -> dict[Key, float]:
    """An upper bound on any cluster's summed delivery times, and so on any
    matching's total, split into one term per ``(section, key)``: every air
    node delivers over ``n_satellites`` hops, n_air * (t_AS + N * t_SS)."""
    u, t = unit_costs(cfg, m, _ONE_SENDER), cfg.topology
    n_air, hops = t.n_air_nodes, t.n_air_nodes * t.n_satellites
    return {AS: n_air * u[AS], ("topology", "as_prop_s"): n_air * t.as_prop_s,
            SS: hops * u[SS], ("topology", "ss_prop_s"): hops * t.ss_prop_s}
