"""Ring allreduce value correctness, consensus, and traffic accounting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saginfl.allreduce import (
    ModelVector,
    chunk_model,
    gossip_traffic,
    multi_orbit_sync_states,
    plan_multi_orbit,
    plan_ring,
    ring_allreduce_states,
    ring_traffic_analytic,
    ring_traffic_per_node,
    stitch_chunks,
    traffic_per_node,
)
from saginfl.errors import InputError, TopologyError
from saginfl.topology import IslGraph, build_walker, derive_isl_graph


def random_models(rng, n, m):
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    return [ModelVector(params=rng.standard_normal(m), weight=float(w))
            for w in weights]


def direct_average(models):
    return sum(mv.params * mv.weight for mv in models)


def naive_ring(vectors, ids, prefix, transfers):
    """One ring's chunked allreduce, step by step with per-node chunk lists.

    Every send of a step is read before any lands. Appends the ring's
    transfers as ``(phase, step, src, dst, params)``.
    """
    n, m = len(vectors), len(vectors[0])
    if n == 1:
        return [vectors[0].copy()]
    size = math.ceil(m / n)
    chunks = []
    for v in vectors:
        padded = np.concatenate([v, np.zeros(size * n - m)])
        chunks.append([padded[c * size:(c + 1) * size].copy()
                       for c in range(n)])
    for half in ("scatter", "gather"):
        for step in range(n - 1):
            sends = []
            for k in range(n):
                c = (k - step) % n if half == "scatter" else (k + 1 - step) % n
                sends.append(((k + 1) % n, c, chunks[k][c].copy()))
                transfers.append((prefix + half, step, ids[k],
                                  ids[(k + 1) % n], size))
            for dst, c, payload in sends:
                if half == "scatter":
                    chunks[dst][c] = chunks[dst][c] + payload
                else:
                    chunks[dst][c] = payload
    return [np.concatenate(row)[:m] for row in chunks]


def naive_three_phase(orbit_models, graph):
    """Orbit by orbit, then the representatives, then orbit by orbit."""
    incident = {s for edge, kind in zip(graph.edges, graph.kinds)
                if kind == "inter" for s in edge}
    reps = [min(s for s in orbit if s in incident) for orbit in graph.orbits]
    transfers = []
    sums = [naive_ring([mv.params * mv.weight for mv in models], orbit,
                       "phase1-", transfers)[0]
            for models, orbit in zip(orbit_models, graph.orbits)]
    global_vec = naive_ring(sums, reps, "phase2-", transfers)[0]
    states = {}
    for orbit, rep in zip(graph.orbits, reps):
        vectors = [global_vec.copy() if s == rep else np.zeros_like(global_vec)
                   for s in orbit]
        states.update(zip(orbit, naive_ring(vectors, orbit, "phase3-",
                                            transfers)))
    return states, transfers, reps


class TestChunkModel:
    def test_exact_division(self):
        chunks = chunk_model(np.arange(8.0), 4)
        assert [len(c) for c in chunks] == [2, 2, 2, 2]
        assert (chunks[0] == [0.0, 1.0]).all()

    def test_padding(self):
        chunks = chunk_model(np.arange(7.0), 4)
        assert [len(c) for c in chunks] == [2, 2, 2, 2]
        assert chunks[3][1] == 0.0

    @given(st.integers(1, 200), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, m, n):
        params = np.random.default_rng(m * 64 + n).standard_normal(m)
        chunks = chunk_model(params, n)
        assert (stitch_chunks(chunks, m) == params).all()


class TestRingAllreduce:
    def test_four_scalars(self):
        models = [ModelVector(params=np.array([float(v)]), weight=0.25)
                  for v in (1, 2, 3, 4)]
        states, log = ring_allreduce_states(models)
        assert all(abs(s[0] - 2.5) < 1e-12 for s in states)

    def test_single_participant_zero_traffic(self):
        states, log = ring_allreduce_states(
            [ModelVector(np.array([3.0, 4.0]), 1.0)])
        assert (states[0] == [3.0, 4.0]).all()
        assert log.total_sent() == 0

    def test_five_random_vectors(self):
        rng = np.random.default_rng(1)
        models = random_models(rng, 5, 64)
        states, _ = ring_allreduce_states(models)
        expected = direct_average(models)
        rel = np.abs(states[0] - expected) / np.maximum(np.abs(expected), 1e-30)
        assert rel.max() < 1e-9

    def test_consensus_bit_identical(self):
        rng = np.random.default_rng(2)
        models = random_models(rng, 7, 33)
        states, _ = ring_allreduce_states(models)
        base = states[0].tobytes()
        assert all(s.tobytes() == base for s in states)

    def test_length_mismatch_rejected(self):
        models = [ModelVector(np.zeros(3), 0.5), ModelVector(np.zeros(4), 0.5)]
        with pytest.raises(InputError):
            ring_allreduce_states(models)

    def test_weights_must_sum_to_one(self):
        models = [ModelVector(np.zeros(3), 0.5), ModelVector(np.zeros(3), 0.2)]
        with pytest.raises(InputError):
            ring_allreduce_states(models)

    def test_phase_step_counts(self):
        models = random_models(np.random.default_rng(3), 6, 10)
        _, log = ring_allreduce_states(models)
        assert log.steps["scatter"] == 5
        assert log.steps["gather"] == 5


class TestTraffic:
    def test_measured_equals_closed_form(self):
        models = random_models(np.random.default_rng(4), 4, 8)
        _, log = ring_allreduce_states(models)
        assert traffic_per_node(log, 8, 4) == 12
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
            models = random_models(rng, n, m)
            _, log = ring_allreduce_states(models)
            assert traffic_per_node(log, m, n) == ring_traffic_per_node(n, m)

    def test_conservation(self):
        models = random_models(np.random.default_rng(6), 9, 41)
        _, log = ring_allreduce_states(models)
        assert log.total_sent() == log.total_received()


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
        rng = np.random.default_rng(7)
        flat = random_models(rng, 9, 12)
        orbit_models = [list(flat[i * 3:(i + 1) * 3]) for i in range(3)]
        states, _ = multi_orbit_sync_states(orbit_models, graph)
        expected = direct_average(flat)
        for sat, vec in states.items():
            rel = np.abs(vec - expected) / np.maximum(np.abs(expected), 1e-30)
            assert rel.max() < 1e-9

    def test_three_orbits_of_two_equal_weights(self):
        # hand-built graph: three 2-satellite orbits bridged in a chain
        graph = IslGraph(
            nodes=tuple(range(6)),
            edges=((0, 1), (2, 3), (4, 5), (0, 2), (2, 4), (0, 4)),
            kinds=("intra", "intra", "intra", "inter", "inter", "inter"),
            orbits=((0, 1), (2, 3), (4, 5)))
        models = [ModelVector(params=np.array([float(v), 2.0 * v]),
                              weight=1 / 6) for v in range(6)]
        orbit_models = [models[0:2], models[2:4], models[4:6]]
        states, _ = multi_orbit_sync_states(orbit_models, graph)
        for sat in range(6):
            assert np.allclose(states[sat], [2.5, 5.0], rtol=1e-12)

    def test_single_orbit_reduces_to_ring(self):
        ring = IslGraph(nodes=(0, 1, 2, 3),
                        edges=((0, 1), (1, 2), (2, 3), (0, 3)),
                        kinds=("intra",) * 4, orbits=((0, 1, 2, 3),))
        models = random_models(np.random.default_rng(8), 4, 9)
        multi_states, multi_log = multi_orbit_sync_states([models], ring)
        flat_states, flat_log = ring_allreduce_states(
            models, plan_ring([0, 1, 2, 3], 9))
        for sat in range(4):
            assert (multi_states[sat] == flat_states[sat]).all()
        assert multi_log.steps == flat_log.steps

    def test_phase_two_step_count(self):
        graph = self._graph(3, 4)
        rng = np.random.default_rng(9)
        flat = random_models(rng, 12, 6)
        orbit_models = [list(flat[i * 4:(i + 1) * 4]) for i in range(3)]
        _, log = multi_orbit_sync_states(orbit_models, graph)
        phase2 = log.steps["phase2-scatter"] + log.steps["phase2-gather"]
        assert phase2 == 2 * (3 - 1)

    def test_consensus_and_flat_equivalence(self):
        graph = self._graph(4, 5)
        rng = np.random.default_rng(10)
        flat = random_models(rng, 20, 37)
        orbit_models = [list(flat[i * 5:(i + 1) * 5]) for i in range(4)]
        states, _ = multi_orbit_sync_states(orbit_models, graph)
        assert len({v.tobytes() for v in states.values()}) == 1
        ring_out = ring_allreduce_states(flat)[0][0]
        rel = np.abs(states[0] - ring_out) / np.maximum(np.abs(ring_out), 1e-30)
        assert rel.max() < 1e-9

    def test_orbit_without_inter_edge_rejected(self):
        graph = IslGraph(nodes=(0, 1, 2, 3),
                         edges=((0, 1), (2, 3)),
                         kinds=("intra", "intra"), orbits=((0, 1), (2, 3)))
        models = [[ModelVector(np.ones(2), 0.25)] * 2 for _ in range(2)]
        with pytest.raises(TopologyError):
            multi_orbit_sync_states(models, graph)

    def test_model_weight_one_on_result(self):
        # every satellite ends with the full weighted average (total weight 1)
        graph = self._graph(2, 3)
        flat = random_models(np.random.default_rng(11), 6, 5)
        states, _ = multi_orbit_sync_states([flat[:3], flat[3:]], graph)
        assert sorted(states) == list(range(6))
        for vec in states.values():
            assert np.allclose(vec, direct_average(flat), rtol=1e-9, atol=1e-12)


class TestStackedRings:
    """The stacked phases against the per-ring, per-step reference."""

    @staticmethod
    def split(flat, graph):
        out, k = [], 0
        for orbit in graph.orbits:
            out.append(flat[k:k + len(orbit)])
            k += len(orbit)
        return out

    def assert_matches_reference(self, graph, m, seed):
        flat = random_models(np.random.default_rng(seed), len(graph.nodes), m)
        orbit_models = self.split(flat, graph)
        states, log = multi_orbit_sync_states(orbit_models, graph)
        want, transfers, reps = naive_three_phase(orbit_models, graph)
        assert sorted(states) == sorted(want)
        for s, vec in want.items():
            assert states[s].tobytes() == vec.tobytes(), s
        assert log.transfers.tolist() == transfers
        # per node: phases 1 and 3 on its orbit, phase 2 on the
        # representatives' ring
        expected = {}
        for orbit in graph.orbits:
            for s in orbit:
                expected[s] = 2 * ring_traffic_per_node(len(orbit), m)
                if s in reps:
                    expected[s] += ring_traffic_per_node(len(reps), m)
        assert log.params_sent == {s: v for s, v in expected.items() if v}
        return log

    def test_walker_phase_two_ring_smaller_than_orbits(self):
        graph = derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1, 1))
        log = self.assert_matches_reference(graph, 37, seed=12)
        assert log.steps["phase2-scatter"] == 2
        assert log.steps["phase1-scatter"] == 3 * 3

    def test_walker_phase_two_ring_larger_than_orbits(self):
        graph = derive_isl_graph(build_walker(5, 3, 85.0, 330.0, 1, 1))
        self.assert_matches_reference(graph, 23, seed=13)

    def test_unequal_orbits_with_a_one_satellite_ring(self):
        graph = IslGraph(
            nodes=tuple(range(6)),
            edges=((1, 2), (2, 3), (1, 3), (4, 5), (0, 1), (3, 4)),
            kinds=("intra",) * 4 + ("inter",) * 2,
            orbits=((0,), (1, 2, 3), (4, 5)))
        log = self.assert_matches_reference(graph, 10, seed=14)
        # the lone satellite of orbit 0 sends only on the representatives' ring
        sent_in = set(log.transfers["phase"][log.transfers["src"] == 0].tolist())
        assert sent_in == {"phase2-scatter", "phase2-gather"}

    def test_one_satellite_ring(self):
        models = random_models(np.random.default_rng(15), 1, 5)
        states, log = ring_allreduce_states(models, plan_ring([7], 5))
        assert states[0].tobytes() == naive_ring(
            [models[0].params * models[0].weight], [7], "", [])[0].tobytes()
        assert len(log.transfers) == 0 and log.params_sent == {}

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_single_ring_matches_reference(self, n, m, seed):
        models = random_models(np.random.default_rng(seed), n, m)
        ids = list(range(10, 10 + n))
        states, log = ring_allreduce_states(models, plan_ring(ids, m))
        transfers = []
        want = naive_ring([mv.params * mv.weight for mv in models], ids, "",
                          transfers)
        assert [s.tobytes() for s in states] == [w.tobytes() for w in want]
        assert log.transfers.tolist() == transfers

    def test_plan_reused_across_syncs(self):
        graph = derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1, 1))
        plan = plan_multi_orbit(graph, 9)
        rng = np.random.default_rng(16)
        for _ in range(2):
            orbit_models = self.split(random_models(rng, 12, 9), graph)
            fresh, _ = multi_orbit_sync_states(orbit_models, graph)
            planned, log = multi_orbit_sync_states(orbit_models, graph, plan)
            assert log is plan.log
            assert all(planned[s].tobytes() == fresh[s].tobytes()
                       for s in fresh)

    def test_plan_for_another_model_size_rejected(self):
        graph = derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1, 1))
        orbit_models = self.split(
            random_models(np.random.default_rng(17), 12, 9), graph)
        with pytest.raises(InputError):
            multi_orbit_sync_states(orbit_models, graph,
                                    plan_multi_orbit(graph, 8))


@given(st.integers(1, 16), st.integers(1, 128), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_allreduce_value_property(n, m, seed):
    rng = np.random.default_rng(seed)
    models = random_models(rng, n, m)
    states, log = ring_allreduce_states(models)
    expected = direct_average(models)
    assert all(np.allclose(s, expected, rtol=1e-9, atol=1e-12) for s in states)
    if n > 1:
        assert traffic_per_node(log, m, n) == ring_traffic_per_node(n, m)
