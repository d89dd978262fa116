"""Ring allreduce value correctness, consensus, and traffic accounting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    gossip_traffic,
    isl_graph,
    naive_ring,
    naive_three_phase,
    phase_steps,
    ring_traffic_analytic,
    total_received,
    total_sent,
    traffic_per_node,
)

from saginfl.allreduce import (
    multi_orbit_sync_states,
    plan_multi_orbit,
    plan_ring,
    ring_allreduce_states,
    ring_traffic_per_node,
)
from saginfl.errors import InputError, TopologyError
from saginfl.topology import build_walker, derive_isl_graph


def random_models(rng, n, m):
    """``(n, m)`` models and their weights, which sum to 1."""
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    return rng.standard_normal((n, m)), weights


def direct_average(params, weights):
    return (params * weights[:, None]).sum(axis=0)


def ring(params, weights):
    """One ring over satellites 0..n-1."""
    plan = plan_ring(range(len(params)), params.shape[1])
    return ring_allreduce_states(params, weights, plan)


def multi(params, weights, graph):
    return multi_orbit_sync_states(params, weights,
                                   plan_multi_orbit(graph, params.shape[1]))


class TestRingAllreduce:
    def test_four_scalars(self):
        states, plan = ring(np.array([[1.0], [2.0], [3.0], [4.0]]),
                           np.full(4, 0.25))
        assert states.shape == (4, 1)
        assert all(abs(s[0] - 2.5) < 1e-12 for s in states)

    def test_single_participant_zero_traffic(self):
        states, plan = ring(np.array([[3.0, 4.0]]), np.array([1.0]))
        assert (states[0] == [3.0, 4.0]).all()
        assert total_sent(plan) == 0

    def test_five_random_vectors(self):
        rng = np.random.default_rng(1)
        params, weights = random_models(rng, 5, 64)
        states, _ = ring(params, weights)
        expected = direct_average(params, weights)
        rel = np.abs(states[0] - expected) / np.maximum(np.abs(expected), 1e-30)
        assert rel.max() < 1e-9

    def test_consensus_bit_identical(self):
        rng = np.random.default_rng(2)
        states, _ = ring(*random_models(rng, 7, 33))
        base = states[0].tobytes()
        assert all(s.tobytes() == base for s in states)

    def test_length_mismatch_rejected(self):
        weights = np.full(2, 0.5)
        with pytest.raises(InputError):
            ring_allreduce_states(np.zeros((2, 3)), weights, plan_ring(range(2), 4))
        with pytest.raises(InputError):
            ring_allreduce_states(np.zeros((2, 3)), np.full(3, 1 / 3),
                                  plan_ring(range(2), 3))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            ring(np.zeros((2, 3)), np.array([0.5, 0.2]))

    def test_non_finite_models_rejected(self):
        params = np.zeros((2, 3))
        params[1, 2] = np.nan
        with pytest.raises(InputError, match="finite"):
            ring(params, np.full(2, 0.5))

    def test_plan_must_cover_the_models(self):
        params, weights = random_models(np.random.default_rng(18), 4, 6)
        with pytest.raises(InputError):
            ring_allreduce_states(params, weights, plan_ring(range(3), 6))
        with pytest.raises(InputError):
            ring_allreduce_states(params, weights, plan_ring([0, 1, 2, 2], 6))

    def test_multi_orbit_plan_rejected(self):
        graph = derive_isl_graph(build_walker(2, 3, 85.0, 330.0, 1, 1))
        params, weights = random_models(np.random.default_rng(19), 6, 4)
        with pytest.raises(InputError, match="one ring"):
            ring_allreduce_states(params, weights, plan_multi_orbit(graph, 4))

    def test_phase_step_counts(self):
        _, plan = ring(*random_models(np.random.default_rng(3), 6, 10))
        assert phase_steps(plan)["scatter"] == 5
        assert phase_steps(plan)["gather"] == 5


class TestTraffic:
    def test_measured_equals_closed_form(self):
        _, plan = ring(*random_models(np.random.default_rng(4), 4, 8))
        assert traffic_per_node(plan, 4) == 12
        assert ring_traffic_per_node(4, 8) == 12

    def test_single_node_zero(self):
        assert ring_traffic_per_node(1, 100) == 0

    def test_paper_scale_chunked_count(self):
        assert ring_traffic_per_node(20, 21840) == 2 * 19 * 1092

    def test_measured_matches_formula_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(1, 300))
            _, plan = ring(*random_models(rng, n, m))
            assert traffic_per_node(plan, n) == ring_traffic_per_node(n, m)

    def test_conservation(self):
        _, plan = ring(*random_models(np.random.default_rng(6), 9, 41))
        assert total_sent(plan) == total_received(plan)


class TestGossip:
    def test_four_nodes(self):
        assert gossip_traffic(4, 1) == 8.0

    def test_twenty_nodes(self):
        assert abs(gossip_traffic(20, 1) - 20 * math.log2(20)) < 1e-12

    def test_requires_two(self):
        with pytest.raises(InputError):
            gossip_traffic(1, 10)

    def test_exceeds_ring_for_all_n(self):
        for n in range(2, 1025):
            assert gossip_traffic(n, 1.0) > ring_traffic_analytic(n, 1.0)


class TestMultiOrbitSync:
    def _graph(self, planes, per):
        return derive_isl_graph(build_walker(planes, per, 85.0, 330.0, 1, 1))

    def test_three_orbits_mean(self):
        graph = self._graph(3, 3)
        params, weights = random_models(np.random.default_rng(7), 9, 12)
        states, _ = multi(params, weights, graph)
        expected = direct_average(params, weights)
        for vec in states:
            rel = np.abs(vec - expected) / np.maximum(np.abs(expected), 1e-30)
            assert rel.max() < 1e-9

    def test_three_orbits_of_two_equal_weights(self):
        # hand-built graph: three 2-satellite orbits bridged in a chain
        graph = isl_graph(((0, 1), (2, 3), (4, 5), (0, 2), (2, 4), (0, 4)),
                          orbits=((0, 1), (2, 3), (4, 5)))
        params = np.array([[float(v), 2.0 * v] for v in range(6)])
        states, _ = multi(params, np.full(6, 1 / 6), graph)
        for sat in range(6):
            assert np.allclose(states[sat], [2.5, 5.0], rtol=1e-12)

    def test_single_orbit_reduces_to_ring(self):
        graph = isl_graph(((0, 1), (1, 2), (2, 3), (0, 3)),
                          orbits=((0, 1, 2, 3),))
        params, weights = random_models(np.random.default_rng(8), 4, 9)
        multi_states, multi_log = multi(params, weights, graph)
        flat_states, flat_log = ring(params, weights)
        assert multi_states.tobytes() == flat_states.tobytes()
        assert phase_steps(multi_log) == phase_steps(flat_log)

    def test_phase_two_step_count(self):
        graph = self._graph(3, 4)
        _, plan = multi(*random_models(np.random.default_rng(9), 12, 6), graph)
        phase2 = phase_steps(plan)["phase2-scatter"] + phase_steps(plan)["phase2-gather"]
        assert phase2 == 2 * (3 - 1)

    def test_consensus_and_flat_equivalence(self):
        graph = self._graph(4, 5)
        params, weights = random_models(np.random.default_rng(10), 20, 37)
        states, _ = multi(params, weights, graph)
        assert len({v.tobytes() for v in states}) == 1
        ring_out = ring(params, weights)[0][0]
        rel = np.abs(states[0] - ring_out) / np.maximum(np.abs(ring_out), 1e-30)
        assert rel.max() < 1e-9

    def test_orbit_without_inter_edge_rejected(self):
        graph = isl_graph(((0, 1), (2, 3)), orbits=((0, 1), (2, 3)))
        with pytest.raises(TopologyError):
            plan_multi_orbit(graph, 2)

    def test_model_weight_one_on_result(self):
        # every satellite ends with the full weighted average (total weight 1)
        graph = self._graph(2, 3)
        params, weights = random_models(np.random.default_rng(11), 6, 5)
        states, _ = multi(params, weights, graph)
        assert states.shape == (6, 5)
        for vec in states:
            assert np.allclose(vec, direct_average(params, weights),
                               rtol=1e-9, atol=1e-12)


class TestStackedRings:
    """The stacked phases against the per-ring, per-step reference."""

    def assert_matches_reference(self, graph, m, seed):
        params, weights = random_models(np.random.default_rng(seed),
                                        len(graph.adjacency), m)
        states, plan = multi(params, weights, graph)
        want, transfers, reps = naive_three_phase(params, weights, graph)
        assert sorted(want) == list(range(len(states)))
        # phase 3 hands out the phase-2 sum, where the reference rings zero
        # vectors round each orbit: only the sign of an exact zero may differ
        for s, vec in want.items():
            assert np.array_equal(states[s], vec), s
        assert plan.transfers.tolist() == transfers
        # per node: phases 1 and 3 on its orbit, phase 2 on the
        # representatives' ring
        expected = {}
        for orbit in graph.orbits:
            for s in orbit:
                expected[s] = 2 * ring_traffic_per_node(len(orbit), m)
                if s in reps:
                    expected[s] += ring_traffic_per_node(len(reps), m)
        assert plan.params_sent == {s: v for s, v in expected.items() if v}
        return plan

    def test_walker_phase_two_ring_smaller_than_orbits(self):
        graph = derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1, 1))
        plan = self.assert_matches_reference(graph, 37, seed=12)
        assert phase_steps(plan)["phase2-scatter"] == 2
        assert phase_steps(plan)["phase1-scatter"] == 3 * 3

    def test_walker_phase_two_ring_larger_than_orbits(self):
        graph = derive_isl_graph(build_walker(5, 3, 85.0, 330.0, 1, 1))
        self.assert_matches_reference(graph, 23, seed=13)

    def test_unequal_orbits_with_a_one_satellite_ring(self):
        graph = isl_graph(((1, 2), (2, 3), (1, 3), (4, 5), (0, 1), (3, 4)),
                          orbits=((0,), (1, 2, 3), (4, 5)))
        plan = self.assert_matches_reference(graph, 10, seed=14)
        # the lone satellite of orbit 0 sends only on the representatives' ring
        sent_in = set(plan.transfers["phase"][plan.transfers["src"] == 0].tolist())
        assert sent_in == {"phase2-scatter", "phase2-gather"}

    def test_one_satellite_ring(self):
        params, weights = random_models(np.random.default_rng(15), 1, 5)
        states, plan = ring(params, weights)
        assert states[0].tobytes() == naive_ring(
            [params[0] * weights[0]], [0], "", [])[0].tobytes()
        assert len(plan.transfers) == 0 and plan.params_sent == {}

    def test_phase_three_hands_out_the_phase_two_sum(self):
        # all-negative-zero models sum to -0.0; the reference's phase-3 ring
        # adds +0.0 vectors to it and hands out +0.0, the broadcast hands
        # out the sum itself
        graph = derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1, 1))
        params = np.full((12, 7), -0.0)
        states, _ = multi(params, np.full(12, 1 / 12), graph)
        want, _, _ = naive_three_phase(params, np.full(12, 1 / 12), graph)
        assert np.signbit(states).all()
        assert all(np.array_equal(states[s], vec) for s, vec in want.items())
        assert not all(np.signbit(vec).all() for vec in want.values())

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_single_ring_matches_reference(self, n, m, seed):
        rng = np.random.default_rng(seed)
        params, weights = random_models(rng, n, m)
        # ring order differs from id order: member k is satellite ids[k]
        ids = rng.permutation(n).tolist()
        states, plan = ring_allreduce_states(params, weights, plan_ring(ids, m))
        transfers = []
        want = naive_ring([params[s] * weights[s] for s in ids], ids, "",
                          transfers)
        assert [states[s].tobytes() for s in ids] == [w.tobytes() for w in want]
        assert plan.transfers.tolist() == transfers

    def test_plan_reused_across_syncs(self):
        graph = derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1, 1))
        plan = plan_multi_orbit(graph, 9)
        rng = np.random.default_rng(16)
        for _ in range(2):
            params, weights = random_models(rng, 12, 9)
            fresh, _ = multi(params, weights, graph)
            planned, returned = multi_orbit_sync_states(params, weights, plan)
            assert returned is plan
            assert planned.tobytes() == fresh.tobytes()

    def test_plan_for_another_model_size_rejected(self):
        graph = derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1, 1))
        params, weights = random_models(np.random.default_rng(17), 12, 9)
        with pytest.raises(InputError):
            multi_orbit_sync_states(params, weights, plan_multi_orbit(graph, 8))


@given(st.integers(1, 16), st.integers(1, 128), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_allreduce_value_property(n, m, seed):
    params, weights = random_models(np.random.default_rng(seed), n, m)
    states, plan = ring(params, weights)
    expected = direct_average(params, weights)
    assert all(np.allclose(s, expected, rtol=1e-9, atol=1e-12) for s in states)
    if n > 1:
        assert traffic_per_node(plan, n) == ring_traffic_per_node(n, m)
