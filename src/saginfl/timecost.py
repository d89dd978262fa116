"""End-to-end delay and per-round time accounting.

Per global round the total cost splits into communication (device uplink, air
uplink with relay forwarding, satellite downlink broadcast), computation
(local training plus two aggregation stages), and inter-satellite
synchronization. Bandwidth is equal-split among simultaneous transmitters:
a satellite's uplink capacity over the air nodes in its access cell, an air
node's over its devices. The broadcast downlink is a single transmitter and
is not split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import AssignmentMap
from .errors import InputError
from .topology import LinkParams


@dataclass(frozen=True)
class TimeParams:
    links: dict[str, LinkParams]       # keys SG, GA, AS, SS
    flops_model: float                 # FLOPs per sample, forward + backward
    flops_device: float                # FLOPS available on a device
    flops_air: float
    flops_satellite: float
    samples_per_epoch: int
    model_bits: int
    model_params: int
    tau1: int
    tau2: int
    devices_per_air: int


@dataclass(frozen=True)
class TimeBreakdown:
    t_comm: float
    t_comp: float
    t_sync: float
    n_ss: int

    @property
    def t_total(self) -> float:
        return self.t_comm + self.t_comp + self.t_sync


def trans_delay(bits: float, link: LinkParams) -> float:
    """Transmission delay of a payload over one link at its rate."""
    if bits <= 0:
        raise InputError(f"payload must be positive, got {bits}")
    return bits / link.rate_bps


def end_to_end(bits: float, link: LinkParams) -> float:
    """Transmission plus propagation delay."""
    return trans_delay(bits, link) + link.prop_delay_s


def _shared(link: LinkParams, n_users: int) -> LinkParams:
    """Equal-split of the link's capacity among simultaneous transmitters."""
    if n_users <= 1:
        return link
    return replace(link, rate_bps=link.rate_bps / n_users)


def comm_time(assignment: AssignmentMap, params: TimeParams) -> float:
    """Communication time of one global round.

    tau2 * (T_SG + T_GA + T_AS + N_SS * T_SS) with worst-case per-class
    delays: the device and air uplinks see their bandwidth equal-split among
    the busiest cell's transmitters.
    """
    bits = params.model_bits
    t_sg = end_to_end(bits, params.links["SG"])
    t_ga = end_to_end(bits, _shared(params.links["GA"], params.devices_per_air))
    t_as = end_to_end(bits, _shared(params.links["AS"],
                                    assignment.max_access_cell))
    t_ss = end_to_end(bits, params.links["SS"])
    n_ss = assignment.relay_hops()
    return params.tau2 * (t_sg + t_ga + t_as + n_ss * t_ss)


def comp_time(params: TimeParams, airs_per_satellite: int) -> float:
    """Computation time of one global round.

    tau2 * (tau1 * T_train + T_agg_air + T_agg_satellite); training cost is
    FLOPs * samples / device FLOPS (one epoch per local round), aggregation
    cost is params * received models / aggregator FLOPS.
    """
    t_train = params.flops_model * params.samples_per_epoch / params.flops_device
    t_agg_air = params.model_params * params.devices_per_air / params.flops_air
    t_agg_sat = params.model_params * airs_per_satellite / params.flops_satellite
    return params.tau2 * (params.tau1 * t_train + t_agg_air + t_agg_sat)


def sync_time(orbit_sizes: list[int], params: TimeParams) -> float:
    """Ring allreduce synchronization time over the orbits' rings.

    One ring of N satellites takes 2(N-1)(T_trans/N + T_prop + M/(N*FLOPS)).
    A single orbit is one ring. Several orbits run three sequential phases:
    intra-orbit reduce (orbits in parallel), a ring over one representative
    per orbit, and intra-orbit distribution.
    """
    if not orbit_sizes or any(n < 1 for n in orbit_sizes):
        raise InputError(f"invalid orbit sizes {orbit_sizes}")
    ss = params.links["SS"]
    t_trans = trans_delay(params.model_bits, ss)

    def ring(n: int) -> float:
        return 2.0 * (n - 1) * (t_trans / n + ss.prop_delay_s
                                + params.model_params / (n * params.flops_satellite))

    if len(orbit_sizes) == 1:
        return ring(orbit_sizes[0])
    intra = max(ring(n) for n in orbit_sizes)
    return intra + ring(len(orbit_sizes)) + intra


def gossip_sync_time(n_sats: int, params: TimeParams) -> float:
    """Analytic gossip cost: N*log2(N) full-model deliveries per satellite."""
    if n_sats < 2:
        raise InputError(f"gossip needs n_sats >= 2, got {n_sats}")
    ss = params.links["SS"]
    cycles = n_sats * math.log2(n_sats)
    per_cycle = (trans_delay(params.model_bits, ss) + ss.prop_delay_s
                 + params.model_params / params.flops_satellite)
    return cycles * per_cycle


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
                        params: TimeParams) -> DeliveryTimeModel:
    return DeliveryTimeModel(
        hops=hops,
        access=access,
        t_as_s=end_to_end(params.model_bits, params.links["AS"]),
        t_ss_s=end_to_end(params.model_bits, params.links["SS"]),
    )
