"""Per-link delays and the per-round time model."""
import numpy as np
import pytest

from saginfl.assignment import AssignmentMap
from saginfl.config import ExperimentConfig
from saginfl.errors import InputError
from saginfl.simulation import TrainingTrace
from saginfl.timecost import (
    TimeBreakdown,
    TimeParams,
    comm_time,
    comp_time,
    end_to_end,
    gossip_sync_time,
    sync_time,
    trans_delay,
)
from saginfl.topology import LinkParams

TFLOPS = 0.665e12


def table_links():
    return {
        "SG": LinkParams(rate_bps=6000e6, prop_delay_s=0.010),
        "GA": LinkParams(rate_bps=32e9, prop_delay_s=0.005),
        "AS": LinkParams(rate_bps=6000e6, prop_delay_s=0.005),
        "SS": LinkParams(rate_bps=30e9, prop_delay_s=0.020),
    }


def params(tau1=2, tau2=2, model_params=110, devices_per_air=2):
    return TimeParams(
        links=table_links(), flops_model=1e6, flops_device=TFLOPS,
        flops_air=TFLOPS, flops_satellite=TFLOPS, samples_per_epoch=100,
        model_bits=model_params * 32,
        model_params=model_params, tau1=tau1, tau2=tau2,
        devices_per_air=devices_per_air)


def assignment(hops, max_access=5, max_assigned=5):
    hops = np.array(hops)
    return AssignmentMap(f=np.zeros_like(hops), hops=hops,
                         max_access_cell=max_access, max_assigned=max_assigned)


class TestTransDelay:
    def test_cifar_model_over_isl(self):
        bits = 1_369_738 * 32
        delay = trans_delay(bits, table_links()["SS"])
        assert abs(delay - bits / 30e9) < 1e-15
        assert 0.00140 < delay < 0.00150   # about 1.46 ms

    def test_nonpositive_payload_rejected(self):
        with pytest.raises(InputError):
            trans_delay(0, table_links()["SS"])


class TestEndToEnd:
    def test_isl_propagation_dominates_tiny_payload(self):
        delay = end_to_end(8, table_links()["SS"])
        assert abs(delay - 0.020) < 1e-6

    def test_pure_propagation_with_ideal_rate(self):
        link = LinkParams(rate_bps=1e30, prop_delay_s=0.005)
        assert abs(end_to_end(1e9, link) - 0.005) < 1e-12

    def test_air_satellite_sum(self):
        link = table_links()["AS"]
        bits = 43_831_616
        assert abs(end_to_end(bits, link) - (bits / 6000e6 + 0.005)) < 1e-12


class TestRelayHops:
    def test_gdo_zero(self):
        assert assignment([0, 0, 0]).relay_hops() == 0

    def test_single_max(self):
        assert assignment([0, 3, 1]).relay_hops() == 3

    def test_empty_assignment(self):
        assert assignment([]).relay_hops() == 0


class TestCommTime:
    def test_zero_relay_formula(self):
        p = params(tau2=1)
        a = assignment([0], max_access=5)
        bits = p.model_bits
        expected = (end_to_end(bits, p.links["SG"])
                    + bits / (32e9 / 2) + 0.005
                    + bits / (6000e6 / 5) + 0.005)
        assert abs(comm_time(a, p) - expected) < 1e-12

    def test_linear_in_tau2(self):
        a = assignment([2])
        one = comm_time(a, params(tau2=1))
        two = comm_time(a, params(tau2=2))
        assert abs(two - 2 * one) < 1e-12

    def test_monotone_in_hops_and_bits(self):
        p = params()
        low = comm_time(assignment([1]), p)
        high = comm_time(assignment([5]), p)
        assert high > low
        bigger = comm_time(assignment([1]), params(model_params=1100))
        assert bigger > low


class TestCompTime:
    def test_train_time_arithmetic(self):
        p = params(tau1=1, tau2=1)
        t_train = 1e6 * 100 * 1 / TFLOPS
        assert abs(t_train - 1.5038e-4) < 1e-7
        value = comp_time(p, airs_per_satellite=0)
        agg_air = p.model_params * p.devices_per_air / TFLOPS
        assert abs(value - (t_train + agg_air)) < 1e-15

    def test_negligible_aggregation_reduces_to_training(self):
        p = TimeParams(links=table_links(), flops_model=1e6,
                       flops_device=TFLOPS, flops_air=1e30,
                       flops_satellite=1e30, samples_per_epoch=100,
                       model_bits=3520,
                       model_params=110, tau1=1, tau2=3, devices_per_air=2)
        t_train = 1e6 * 100 / TFLOPS
        assert abs(comp_time(p, 5) - 3 * t_train) < 1e-12

    def test_aggregation_linear_in_airs_per_satellite(self):
        p = params(tau1=1, tau2=1)
        base = comp_time(p, airs_per_satellite=5)
        double = comp_time(p, airs_per_satellite=10)
        extra = p.model_params * 5 / TFLOPS
        assert abs(double - base - extra) < 1e-15


class TestSyncTime:
    def test_twenty_satellites_prop_dominated(self):
        p = params(model_params=1)
        value = sync_time([20], p)
        assert abs(value - 2 * 19 * 0.020) < 1e-3

    def test_single_satellite_zero(self):
        assert sync_time([1], params()) == 0.0

    def test_gossip_slower_than_ring(self):
        p = params(model_params=21840)
        ring = sync_time([20], p)
        gossip = gossip_sync_time(20, p)
        assert gossip > ring

    def test_multi_orbit_three_phases(self):
        p = params()
        value = sync_time([4, 4, 4], p)
        intra = sync_time([4], p)
        inter = sync_time([3], p)
        assert abs(value - (intra + inter + intra)) < 1e-12

    def test_multi_orbit_single_orbit_matches_ring(self):
        # one orbit is one ring: 2(N-1)(T_trans/N + T_prop + M/(N*FLOPS))
        p = params()
        ss = p.links["SS"]
        ring = 2 * 5 * (trans_delay(p.model_bits, ss) / 6 + ss.prop_delay_s
                        + p.model_params / (6 * p.flops_satellite))
        assert abs(sync_time([6], p) - ring) < 1e-15


def total_time(breakdowns):
    return TrainingTrace(config=ExperimentConfig(),
                         breakdowns=list(breakdowns)).total_time


class TestTotalTime:
    def test_empty_sum(self):
        assert total_time([]) == 0.0

    def test_single_round(self):
        b = TimeBreakdown(1.0, 2.0, 3.0, 1)
        assert total_time([b]) == b.t_total == 6.0

    def test_fifty_identical_rounds(self):
        b = TimeBreakdown(0.1, 0.2, 0.7, 2)
        assert abs(total_time([b] * 50) - 50 * b.t_total) < 1e-9

