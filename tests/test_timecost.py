"""Per-link delays and the per-round time model."""
import math
from dataclasses import replace

import numpy as np
from oracles import isl_graph

from saginfl.allreduce import SyncPlan, plan_multi_orbit, plan_ring
from saginfl.assignment import AssignmentMap
from saginfl.config import (
    DataConfig,
    ExperimentConfig,
    RunConfig,
    TopologyConfig,
    TrainingConfig,
)
from saginfl.simulation import TrainingTrace
from saginfl.timecost import (
    RoundShape,
    TimeBreakdown,
    make_delivery_model,
    price,
    price_round,
)

TFLOPS = 0.665e12
M = 110           # model parameters
BITS = M * 32     # default bits_per_param


def config(tau1=2, tau2=2, devices_per_air=2, flops_air=TFLOPS,
           flops_satellite=TFLOPS, **links):
    # the default link table: SG 6 Gbps / 10 ms, GA 32 Gbps / 5 ms,
    # AS 6 Gbps / 5 ms, SS 30 Gbps / 20 ms
    return ExperimentConfig(
        topology=TopologyConfig(devices_per_air=devices_per_air, **links),
        data=DataConfig(samples_per_device=100),
        training=TrainingConfig(tau1=tau1, tau2=tau2, flops_model=1e6,
                                flops_device=TFLOPS, flops_air=flops_air,
                                flops_satellite=flops_satellite))


def assignment(hops, max_access=5, max_assigned=5):
    hops = np.array(hops)
    return AssignmentMap(f=np.zeros_like(hops), hops=hops,
                         max_access_cell=max_access, max_assigned=max_assigned)


def ring_phases(n):
    return plan_ring(range(n), M).phases


def cost(cfg, m, access=5, assigned=5, hops=0, rings=()):
    """One round's breakdown at the given shape."""
    return price(cfg, m, RoundShape(access, assigned, hops, rings))[0]


def sync_time(phases, cfg, m):
    """The sync cost of a plan's ``phases``, as ``price_round`` takes it."""
    plan = SyncPlan.of(m, [("", rings) for rings in phases])
    return price_round(cfg, assignment([0]), plan, m).t_sync


def links(m, bits_per_param=32, **keys):
    """The delivery model's (t_AS, t_SS) for ``m`` parameters."""
    cfg = config(**keys)
    cfg = replace(cfg, training=replace(cfg.training,
                                        bits_per_param=bits_per_param))
    model = make_delivery_model(None, None, cfg, m)
    return model.t_as_s, model.t_ss_s


class TestTransDelay:
    def test_cifar_model_over_isl(self):
        bits = 1_369_738 * 32
        _, delay = links(1_369_738, ss_prop_s=0.0)
        assert abs(delay - bits / 30e9) < 1e-15
        assert 0.00140 < delay < 0.00150   # about 1.46 ms


class TestEndToEnd:
    def test_isl_propagation_dominates_tiny_payload(self):
        # one 8-bit parameter
        assert abs(links(1, bits_per_param=8)[1] - 0.020) < 1e-6

    def test_pure_propagation_with_ideal_rate(self):
        # 1e9 bits
        t_as, _ = links(31_250_000, as_rate_bps=1e30)
        assert abs(t_as - 0.005) < 1e-12

    def test_air_satellite_sum(self):
        bits = 43_831_616
        assert abs(links(bits // 32)[0] - (bits / 6000e6 + 0.005)) < 1e-12


class TestRelayHops:
    def test_gdo_zero(self):
        assert assignment([0, 0, 0]).relay_hops() == 0

    def test_single_max(self):
        assert assignment([0, 3, 1]).relay_hops() == 3

    def test_empty_assignment(self):
        assert assignment([]).relay_hops() == 0


class TestCommTime:
    def test_zero_relay_formula(self):
        expected = ((BITS / 6000e6 + 0.010)
                    + BITS / (32e9 / 2) + 0.005
                    + BITS / (6000e6 / 5) + 0.005)
        assert abs(cost(config(tau2=1), M, access=5).t_comm - expected) < 1e-12

    def test_unshared_links_take_the_full_rate(self):
        # one device per air node and one air node per cell split nothing
        expected = ((BITS / 6000e6 + 0.010)
                    + (BITS / 32e9 + 0.005)
                    + (BITS / 6000e6 + 0.005))
        cfg = config(tau2=1, devices_per_air=1)
        assert cost(cfg, M, access=1).t_comm == expected

    def test_linear_in_tau2(self):
        one = cost(config(tau2=1), M, hops=2).t_comm
        two = cost(config(tau2=2), M, hops=2).t_comm
        assert abs(two - 2 * one) < 1e-12

    def test_monotone_in_hops_and_bits(self):
        cfg = config()
        low = cost(cfg, M, hops=1).t_comm
        high = cost(cfg, M, hops=5).t_comm
        assert high > low
        bigger = cost(cfg, 10 * M, hops=1).t_comm
        assert bigger > low


class TestCompTime:
    def test_train_time_arithmetic(self):
        t_train = 1e6 * 100 * 1 / TFLOPS
        assert abs(t_train - 1.5038e-4) < 1e-7
        value = cost(config(tau1=1, tau2=1), M, assigned=0).t_comp
        agg_air = M * 2 / TFLOPS
        assert abs(value - (t_train + agg_air)) < 1e-15

    def test_negligible_aggregation_reduces_to_training(self):
        cfg = config(tau1=1, tau2=3, flops_air=1e30, flops_satellite=1e30)
        t_train = 1e6 * 100 / TFLOPS
        assert abs(cost(cfg, M, assigned=5).t_comp - 3 * t_train) < 1e-12

    def test_aggregation_linear_in_airs_per_satellite(self):
        cfg = config(tau1=1, tau2=1)
        base = cost(cfg, M, assigned=5).t_comp
        double = cost(cfg, M, assigned=10).t_comp
        extra = M * 5 / TFLOPS
        assert abs(double - base - extra) < 1e-15


def walker_graph(orbits):
    """Orbits bridged by one inter-orbit edge between consecutive first
    members."""
    edges = [(a, b) for orbit in orbits
             for a, b in zip(orbit, orbit[1:] + orbit[:1])]
    edges += [(prev[0], nxt[0]) for prev, nxt in zip(orbits, orbits[1:])]
    return isl_graph(edges, orbits)


class TestSyncTime:
    def test_twenty_satellites_prop_dominated(self):
        value = sync_time(plan_ring(range(20), 1).phases, config(), 1)
        assert abs(value - 2 * 19 * 0.020) < 1e-3

    def test_single_satellite_zero(self):
        assert sync_time(ring_phases(1), config(), M) == 0.0

    def test_gossip_slower_than_ring(self):
        m = 21840
        ring = sync_time(plan_ring(range(20), m).phases, config(), m)
        gossip = cost(replace(config(), run=RunConfig(sync_algo="gossip")),
                      m).t_sync
        assert gossip > ring

    def test_multi_orbit_three_phases(self):
        cfg = config()
        graph = walker_graph([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])
        value = sync_time(plan_multi_orbit(graph, M).phases, cfg, M)
        intra = sync_time(ring_phases(4), cfg, M)
        inter = sync_time(ring_phases(3), cfg, M)
        assert abs(value - (intra + inter + intra)) < 1e-12

    def test_unequal_orbits_cost_their_largest_ring(self):
        cfg = config()
        graph = walker_graph([[0, 1, 2], [3, 4, 5, 6, 7], [8, 9, 10, 11]])
        phases = plan_multi_orbit(graph, M).phases
        assert [len(p) for p in phases] == [3, 1, 3]
        for phase in phases:
            largest = max(len(ring) for ring in phase)
            assert sync_time((phase,), cfg, M) == sync_time(
                ring_phases(largest), cfg, M)
        orbit, reps = (sync_time(ring_phases(n), cfg, M) for n in (5, 3))
        assert sync_time(phases, cfg, M) == orbit + reps + orbit

    def test_multi_orbit_single_orbit_matches_ring(self):
        # one orbit is one ring: 2(N-1)(T_trans/N + T_prop + M/(N*FLOPS))
        graph = walker_graph([[0, 1, 2, 3, 4, 5]])
        ring = 2 * 5 * (BITS / 30e9 / 6 + 0.020 + M / (6 * TFLOPS))
        assert abs(sync_time(plan_multi_orbit(graph, M).phases, config(), M)
                   - ring) < 1e-15


class TestPriceRound:
    def test_ring_round_is_its_three_terms(self):
        # the busiest cell, the busiest satellite, the longest relay path
        # and the plan's one ring of 20
        cfg, a = config(), assignment([0, 3, 1], max_assigned=4)
        plan = plan_ring(range(cfg.topology.n_satellites), M)
        assert price_round(cfg, a, plan, M) == cost(cfg, M, 5, 4, 3, (20,))

    def test_gossip_round_takes_the_analytic_sync_cost(self):
        cfg = replace(config(), run=RunConfig(sync_algo="gossip"))
        plan = plan_ring(range(cfg.topology.n_satellites), M)
        priced = price_round(cfg, assignment([2]), plan, M)
        # N*log2(N) deliveries of the whole model, for N = 20
        assert priced.t_sync == 20 * math.log2(20) * (
            BITS / 30e9 + 0.020 + M / TFLOPS)

    def test_terms_split_the_round(self):
        for algo in ("ring", "gossip"):
            cfg = replace(config(), run=RunConfig(sync_algo=algo))
            priced, terms = price(cfg, M, RoundShape(5, 4, 3, (4, 5, 4)))
            assert len(terms) == 11
            assert math.isclose(sum(terms.values()), priced.t_total,
                                rel_tol=1e-12)


def total_time(cost, rounds):
    """A trace's total time after ``rounds`` completed global rounds."""
    accuracy = [(rnd, rnd, 0.5) for rnd in range(1, rounds + 1)]
    return TrainingTrace(config=ExperimentConfig(), round_cost=cost,
                         accuracy=accuracy).total_time


class TestTotalTime:
    def test_empty_sum(self):
        assert total_time(TimeBreakdown(1.0, 2.0, 3.0, 1), 0) == 0.0

    def test_single_round(self):
        b = TimeBreakdown(1.0, 2.0, 3.0, 1)
        assert total_time(b, 1) == b.t_total == 6.0

    def test_fifty_identical_rounds(self):
        # the round cost added once per round, left to right
        b = TimeBreakdown(0.1, 0.2, 0.7, 2)
        assert total_time(b, 50) == sum([b.t_total] * 50)
