"""Arc and diameter-bounded graph partitions."""
import collections
from pathlib import Path

import numpy as np
import pytest
from oracles import induced_diameter, isl_graph, naive_graph_partition

from saginfl.config import load_config
from saginfl.partition import (
    PartitionSet,
    arc_partition,
    graph_partition,
    with_air_parts,
)
from saginfl.simulation import build_topology
from saginfl.topology import (
    build_single_orbit,
    build_walker,
    compute_coverage,
    derive_isl_graph,
)

WALKER_INI = Path(__file__).resolve().parents[1] / "configs" / "walker.ini"


def ring_graph(n):
    return isl_graph([(k, (k + 1) % n) for k in range(n)],
                     orbits=(tuple(range(n)),))


class TestArcPartition:
    def test_twenty_sats_n_geo_two(self):
        topo = build_single_orbit(20, 330.0, 100, 2)
        pset = arc_partition(topo, 2)
        assert len(pset.parts) == 10
        assert pset.parts[0] == (0, 1)
        assert pset.parts[1] == (2, 3)

    def test_n_geo_equals_n_sats_single_part(self):
        topo = build_single_orbit(20, 330.0, 100, 2)
        pset = arc_partition(topo, 20)
        assert len(pset.parts) == 1
        assert pset.parts[0] == tuple(range(20))

    def test_air_counts_per_part(self):
        topo = build_single_orbit(20, 330.0, 100, 2)
        pset = with_air_parts(arc_partition(topo, 4), compute_coverage(topo))
        assert len(pset.parts) == 5
        assert [len(ap) for ap in pset.air_parts] == [20] * 5

    def test_short_last_arc(self):
        topo = build_single_orbit(7, 330.0, 7, 1)
        pset = arc_partition(topo, 3)
        assert [len(p) for p in pset.parts] == [3, 3, 1]


class TestGraphPartition:
    def test_ring_six_diameter_bound(self):
        graph = ring_graph(6)
        for seed in range(5):
            pset = graph_partition(graph, 3, np.random.default_rng(seed))
            for part in pset.parts:
                assert 0 <= induced_diameter(part, graph) < 3

    def test_n_geo_one_singletons(self):
        graph = ring_graph(8)
        pset = graph_partition(graph, 1, np.random.default_rng(0))
        assert all(len(p) == 1 for p in pset.parts)
        assert len(pset.parts) == 8

    def test_three_plane_graph_diameter_under_three(self):
        graph = derive_isl_graph(build_walker(3, 8, 85.0, 330.0, 1, 1))
        pset = graph_partition(graph, 3, np.random.default_rng(7))
        for part in pset.parts:
            d = induced_diameter(part, graph)
            assert 0 <= d < 3

    def test_parts_disjointly_cover(self):
        graph = derive_isl_graph(build_walker(4, 6, 85.0, 330.0, 1, 1))
        pset = graph_partition(graph, 2, np.random.default_rng(3))
        seen = [s for part in pset.parts for s in part]
        assert sorted(seen) == list(range(24))

    def test_deterministic_per_seed(self):
        graph = derive_isl_graph(build_walker(3, 8, 85.0, 330.0, 1, 1))
        a = graph_partition(graph, 3, np.random.default_rng(42))
        b = graph_partition(graph, 3, np.random.default_rng(42))
        assert a.parts == b.parts

    def test_induced_check_rejects_outside_shortcuts(self):
        # path u-w plus s-u, s-v, w-z, z-v: residual distance w..v is 2 via z,
        # but inside {s,u,v,w} it is 3, so w must not join when n_geo=3
        edges = ((0, 1), (0, 2), (1, 3), (3, 4), (4, 2))
        graph = isl_graph(edges, orbits=(tuple(range(5)),))
        for seed in range(10):
            pset = graph_partition(graph, 3, np.random.default_rng(seed))
            for part in pset.parts:
                d = induced_diameter(part, graph)
                assert 0 <= d < 3


class TestAgainstAllPairsOracle:
    """The member-row search emits the parts of the all-pairs search and
    draws the same numbers from the rng."""

    @pytest.mark.parametrize("n_geo", [2, 4, 10])
    def test_walker_ini_graph(self, n_geo):
        graph = derive_isl_graph(build_topology(load_config(WALKER_INI)))
        for seed in range(21):
            rng = np.random.default_rng(seed)
            twin = np.random.default_rng(seed)
            got = graph_partition(graph, n_geo, rng).parts
            assert got == naive_graph_partition(graph, n_geo, twin), seed
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_acceptance_criterion_3_graphs(self):
        # the random Walker graphs and rng stream of test_criterion_3
        rng = np.random.default_rng(99)
        for _ in range(50):
            planes = int(rng.integers(2, 7))
            per = int(rng.integers(4, 17))
            graph = derive_isl_graph(
                build_walker(planes, per, 85.0, 330.0, 1, 1))
            for n_geo in (1, 2, 3, 4):
                twin = np.random.default_rng()
                twin.bit_generator.state = rng.bit_generator.state
                got = graph_partition(graph, n_geo, rng).parts
                assert got == naive_graph_partition(graph, n_geo, twin)
                assert rng.bit_generator.state == twin.bit_generator.state


class TestAirNodesToParts:
    def test_direct_lookup(self):
        topo = build_single_orbit(2, 330.0, 2, 1)
        access = compute_coverage(topo)
        parts = ((0,), (1,))
        air_parts = with_air_parts(
            PartitionSet(parts=parts, air_parts=()), access).air_parts
        for idx, ap in enumerate(air_parts):
            for air in ap:
                assert access[air] == parts[idx][0]

    def test_empty_cell_satellites_allowed(self):
        # more satellites than air nodes: some parts end up with no air nodes
        topo = build_single_orbit(8, 330.0, 2, 1)
        pset = with_air_parts(arc_partition(topo, 2), compute_coverage(topo))
        sizes = [len(ap) for ap in pset.air_parts]
        assert sum(sizes) == 2
        assert 0 in sizes

    def test_walker_disjoint_union(self):
        topo = build_walker(15, 16, 85.0, 330.0, 2, 1)
        graph = derive_isl_graph(topo)
        access = compute_coverage(topo)
        pset = with_air_parts(graph_partition(graph, 4, np.random.default_rng(1)), access)
        seen = [a for ap in pset.air_parts for a in ap]
        assert sorted(seen) == list(range(480))


class TestInvariants:
    def test_random_graphs_bound_and_cover(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            planes = int(rng.integers(2, 5))
            per = int(rng.integers(4, 9))
            graph = derive_isl_graph(
                build_walker(planes, per, 85.0, 330.0, 1, 1))
            n_geo = int(rng.integers(1, 5))
            pset = graph_partition(graph, n_geo, rng)
            seen = sorted(s for p in pset.parts for s in p)
            assert seen == list(range(planes * per))
            for part in pset.parts:
                assert induced_diameter(part, graph) < n_geo
