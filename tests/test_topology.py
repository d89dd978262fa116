"""Constellation construction, ISL graph derivation, and hop distances."""
import collections
import math

import numpy as np
import pytest
from oracles import (
    great_circle_angle,
    isl_edges,
    isl_graph,
    latlon_to_unit,
    plane_normal,
    reference_constellation,
    reference_inter_orbit_edges,
    reference_walker_air,
)
from scipy import sparse
from scipy.sparse import csgraph

from saginfl.errors import TopologyError
from saginfl.topology import (
    _hop_matrix,
    build_single_orbit,
    build_walker,
    compute_coverage,
    connected_components,
    derive_isl_graph,
    great_circle_angles,
    hop_distances,
    nearest_satellite,
    write_topology_table,
)


def bfs_oracle(n_nodes, edges, src):
    """Plain queue BFS, independent of the vectorized implementation."""
    adj = collections.defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {src: 0}
    queue = collections.deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestSingleOrbit:
    def test_table_scale_device_count(self):
        topo = build_single_orbit(20, 330.0, 100, 2)
        assert topo.n_satellites == 20
        assert topo.n_air == 100
        assert topo.n_devices == 200

    def test_one_satellite_no_isl_edges(self):
        topo = build_single_orbit(1, 330.0, 1, 1)
        graph = derive_isl_graph(topo)
        assert topo.n_satellites == 1
        assert graph.adjacency.tolist() == [[False]]

    def test_air_nodes_evenly_spaced(self):
        topo = build_single_orbit(4, 330.0, 8, 2)
        assert topo.air_lon.tolist() == [k * 45.0 for k in range(8)]
        assert topo.air_lat.tolist() == [0.0] * 8

    def test_each_device_owned_once(self):
        topo = build_single_orbit(5, 330.0, 7, 3)
        assert topo.n_devices == 21
        assert topo.air_of_device.tolist() == [d // 3 for d in range(21)]


class TestWalker:
    def test_paper_scale_counts(self):
        topo = build_walker(15, 16, 85.0, 330.0, 2, 1)
        assert topo.n_satellites == 240
        assert topo.n_air == 480
        assert topo.n_devices == 480

    def test_minimum_ring_planes(self):
        topo = build_walker(2, 3, 85.0, 330.0, 1, 1)
        graph = derive_isl_graph(topo)
        assert topo.n_satellites == 6
        for orbit in graph.orbits:
            intra = [e for e in isl_edges(graph, "intra") if e[0] in orbit]
            assert len(intra) == 3  # 3-cycle per plane

    def test_connected_with_inter_orbit_edges(self):
        topo = build_walker(3, 8, 85.0, 330.0, 1, 1)
        graph = derive_isl_graph(topo)
        hop_distances(graph)  # raises if disconnected
        pair_edges = collections.Counter()
        plane_of = np.arange(24) // 8
        for a, b in isl_edges(graph, "inter"):
            pair_edges[tuple(sorted((plane_of[a], plane_of[b])))] += 1
        for pi in range(3):
            for pj in range(pi + 1, 3):
                assert pair_edges[(pi, pj)] >= 1

    def test_cell_air_nodes_distinct_positions(self):
        topo = build_walker(3, 6, 85.0, 330.0, 2, 1)
        positions = {(round(lat, 9), round(lon, 9)) for lat, lon
                     in zip(topo.air_lat.tolist(), topo.air_lon.tolist())}
        assert len(positions) == topo.n_air == 36


class TestIslGraph:
    def test_single_orbit_cycle_edge_count(self):
        topo = build_single_orbit(20, 330.0, 10, 1)
        graph = derive_isl_graph(topo)
        assert len(isl_edges(graph)) == 20
        assert isl_edges(graph, "inter") == []

    def test_three_planes_every_pair_linked(self):
        topo = build_walker(3, 6, 85.0, 330.0, 1, 1)
        graph = derive_isl_graph(topo)
        plane_of = np.arange(18) // 6
        linked = {tuple(sorted((plane_of[a], plane_of[b])))
                  for a, b in isl_edges(graph, "inter")}
        assert linked == {(0, 1), (0, 2), (1, 2)}

    def test_walker_degree_bound(self):
        topo = build_walker(15, 16, 85.0, 330.0, 1, 1)
        graph = derive_isl_graph(topo)
        assert graph.adjacency.sum(axis=1).max() <= 2 + 2 * (15 - 1)
        hop_distances(graph)  # connected

    @pytest.mark.parametrize("shape", [(16, 15, 90.0), (14, 16, 90.0),
                                       (2, 3, 90.0), (6, 5, 90.0),
                                       (4, 7, 90.0), (15, 16, 85.0)])
    def test_inter_orbit_edges_match_per_pair_reference(self, shape):
        # at 90 degrees an even number of planes makes plane p and plane
        # p + n/2 coincide; several cross-plane pairs then lie at one angle
        # up to rounding, and the lowest (a, b) among them is the anchor
        graph = derive_isl_graph(build_walker(*shape, 330.0, 1, 1))
        assert isl_edges(graph, "inter") == reference_inter_orbit_edges(*shape)

    def test_intra_edges_form_one_cycle_per_plane(self):
        topo = build_walker(4, 5, 60.0, 500.0, 1, 1)
        graph = derive_isl_graph(topo)
        for orbit in graph.orbits:
            members = set(orbit)
            intra = [e for e in isl_edges(graph, "intra") if e[0] in members]
            assert len(intra) == len(orbit)
            degree = collections.Counter()
            for a, b in intra:
                degree[a] += 1
                degree[b] += 1
            assert all(degree[s] == 2 for s in orbit)

    @pytest.mark.parametrize("topo", [
        build_single_orbit(1, 330.0, 1, 1), build_single_orbit(2, 330.0, 1, 1),
        build_single_orbit(3, 330.0, 1, 1), build_single_orbit(20, 330.0, 1, 1),
        build_walker(3, 1, 85.0, 330.0, 1, 1), build_walker(3, 2, 85.0, 330.0, 1, 1),
        build_walker(2, 3, 85.0, 330.0, 1, 1), build_walker(15, 16, 85.0, 330.0, 1, 1),
    ], ids=["1x1", "1x2", "1x3", "1x20", "3x1", "3x2", "2x3", "15x16"])
    def test_adjacency_symmetric_with_one_cycle_per_orbit(self, topo):
        graph = derive_isl_graph(topo)
        n = topo.n_satellites
        assert graph.adjacency.shape == (n, n)
        assert graph.adjacency.dtype == bool
        assert (graph.adjacency == graph.adjacency.T).all()
        assert not graph.adjacency.diagonal().any()
        expected = set()
        for ring in graph.orbits:
            links = {tuple(sorted((a, b)))
                     for a, b in zip(ring, ring[1:] + ring[:1]) if a != b}
            assert len(links) == {1: 0, 2: 1}.get(len(ring), len(ring))
            expected |= links
        assert set(isl_edges(graph, "intra")) == expected

    def test_rebuild_identical_serialization(self, tmp_path):
        paths = []
        for i in range(2):
            topo = build_walker(3, 8, 85.0, 330.0, 2, 2)
            p = tmp_path / f"topo{i}.tsv"
            write_topology_table(topo, p, compute_coverage(topo))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestHopDistances:
    def test_ring_antipode(self):
        graph = derive_isl_graph(build_single_orbit(20, 330.0, 1, 1))
        hops = hop_distances(graph)
        assert hops[0, 10] == 10

    def test_ring_arc(self):
        graph = derive_isl_graph(build_single_orbit(20, 330.0, 1, 1))
        hops = hop_distances(graph)
        assert hops[0, 3] == 3

    def test_two_plane_bridge_path(self):
        # hand-built: two 4-rings joined by a single bridge 0-4
        edges = [(0, 1), (1, 2), (2, 3), (0, 3),
                 (4, 5), (5, 6), (6, 7), (4, 7), (0, 4)]
        graph = isl_graph(edges, orbits=((0, 1, 2, 3), (4, 5, 6, 7)))
        hops = hop_distances(graph)
        for a in range(4):
            for b in range(4, 8):
                oracle_a = bfs_oracle(8, edges, a)
                expected = oracle_a[b]
                assert hops[a, b] == expected
                # cross-plane route: to the bridge, across, then within
                assert expected == hops[a, 0] + 1 + hops[4, b]

    def test_matches_bfs_oracle_on_walker(self):
        graph = derive_isl_graph(build_walker(3, 6, 85.0, 330.0, 1, 1))
        hops = hop_distances(graph)
        for src in range(0, 18, 5):
            oracle = bfs_oracle(18, isl_edges(graph), src)
            for dst in range(18):
                assert hops[src, dst] == oracle[dst]

    def test_symmetry_triangle_and_edge_property(self):
        graph = derive_isl_graph(build_walker(3, 8, 85.0, 330.0, 1, 1))
        hops = hop_distances(graph)
        n = len(graph.adjacency)
        assert (hops == hops.T).all()
        assert (np.diag(hops) == 0).all()
        edge_set = set(isl_edges(graph))
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert (hops[a, b] == 1) == (
                        tuple(sorted((a, b))) in edge_set)
        for c in range(0, n, 7):
            assert (hops <= hops[:, [c]] + hops[[c], :]).all()

    def test_hop_matrix_matches_csgraph_on_random_graphs(self):
        rng = np.random.default_rng(3)
        disconnected = 0
        for _ in range(200):
            n = int(rng.integers(1, 40))
            upper = np.triu(rng.random((n, n)) < 0.2 * rng.random(), 1)
            adj = upper | upper.T
            ref = csgraph.shortest_path(sparse.csr_matrix(adj, dtype=float),
                                        unweighted=True)
            hops = _hop_matrix(adj)
            assert hops.dtype == np.int64
            assert np.array_equal(hops, np.where(np.isinf(ref), -1, ref))
            n_comps, labels = csgraph.connected_components(adj, directed=False)
            assert connected_components(hops) == sorted(
                np.flatnonzero(labels == k).tolist() for k in range(n_comps))
            disconnected += n_comps > 1
        assert disconnected > 50

    def test_disconnected_graph_names_components(self):
        graph = isl_graph(((0, 1), (2, 3)), orbits=((0, 1), (2, 3)))
        with pytest.raises(TopologyError, match=r"\[0, 1\]"):
            hop_distances(graph)

    def test_components_sorted_by_lowest_member(self):
        graph = isl_graph(((1, 5), (0, 4), (3, 4)),
                          orbits=((0, 1, 2, 3, 4, 5),))
        with pytest.raises(TopologyError) as exc:
            hop_distances(graph)
        assert str(exc.value) == ("ISL graph is disconnected; components: "
                                  "[[0, 3, 4], [1, 5], [2]]")


class TestGeometry:
    def test_equatorial_positions_on_equator(self):
        pos = build_single_orbit(8, 330.0, 1, 1).sat_units
        assert np.allclose(pos[:, 2], 0.0)
        lons = np.degrees(np.arctan2(pos[:, 1], pos[:, 0])) % 360
        assert np.allclose(sorted(lons), [45.0 * k for k in range(8)])

    def test_great_circle_angle_quarter(self):
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert np.allclose(great_circle_angles(a, b),
                           [[math.pi / 2, 0.0, math.pi]])
        assert math.isclose(great_circle_angle(a[0], b[0]), math.pi / 2)

    def test_layer_arrays_equal_per_element_reference(self):
        # numpy's sin, cos and radians give math's bits, so every layer
        # array equals the one-element-at-a-time build exactly
        cases = [(build_single_orbit(n, 330.0, n + 2, 1), (1, n, 0.0), None)
                 for n in range(1, 65)]
        for planes in (2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30, 40, 48,
                       60, 80):
            for inc in (85.0, 90.0):
                for per_cell in (1, 2, 3):
                    topo = build_walker(planes, 240 // planes, inc, 330.0,
                                        per_cell, 1)
                    cases.append((topo, (planes, 240 // planes, inc), per_cell))
        for topo, shape, per_cell in cases:
            units, normals = reference_constellation(*shape)
            assert np.array_equal(topo.sat_units, units), shape
            assert np.array_equal(topo.plane_normals, normals), shape
            if per_cell is None:
                n_air = topo.n_air
                lats, lons = [0.0] * n_air, [k * 360.0 / n_air
                                             for k in range(n_air)]
            else:
                lats, lons = reference_walker_air(units, per_cell)
            assert topo.air_lat.tolist() == lats, shape
            assert topo.air_lon.tolist() == lons, shape
            air_units = [latlon_to_unit(lat, lon) for lat, lon in zip(lats, lons)]
            assert np.array_equal(topo.air_units, np.array(air_units)), shape

    def test_vectorized_angles_match_one_pair_rule_on_plane_pair(self):
        topo = build_walker(15, 16, 85.0, 330.0, 1, 1)
        pos = topo.sat_units
        planes = [list(orbit) for orbit in derive_isl_graph(topo).orbits[:2]]
        normals = [plane_normal(p * 360.0 / 15, 85.0) for p in (0, 1)]
        cross = np.cross(*normals)
        cross /= np.linalg.norm(cross)
        for region in (cross, -cross):
            for ids in planes:
                one_pair = [great_circle_angle(pos[i], region) for i in ids]
                assert np.allclose(great_circle_angles(pos[ids], region[None])[:, 0],
                                   one_pair, rtol=0.0, atol=1e-15)
                # the sequential scan the vectorized pick replaced
                best, best_ang = ids[0], one_pair[0]
                for i, ang in zip(ids[1:], one_pair[1:]):
                    if ang < best_ang - 1e-12 or (
                            abs(ang - best_ang) <= 1e-12 and i < best):
                        best, best_ang = i, ang
                assert nearest_satellite(ids, pos, region[None]).tolist() == [best]

    def test_nearest_sat_tie_within_tolerance_picks_lowest_id(self):
        point = np.array([[1.0, 0.0, 0.0]])
        tilt = 0.1
        pos = np.zeros((8, 3))
        pos[[5, 2, 7]] = [[np.cos(tilt), np.sin(tilt), 0.0],
                          [np.cos(tilt), -np.sin(tilt), 0.0],
                          [np.cos(tilt), 0.0, np.sin(tilt)]]
        pos[3] = [np.cos(2 * tilt), np.sin(2 * tilt), 0.0]
        assert nearest_satellite([5, 3, 7, 2], pos, point).tolist() == [2]
        pos[7] = [np.cos(tilt / 2), 0.0, np.sin(tilt / 2)]
        assert nearest_satellite([5, 3, 7, 2], pos, point).tolist() == [7]

    def test_topology_table_row_count(self, tmp_path):
        topo = build_single_orbit(4, 330.0, 6, 2)
        p = tmp_path / "t.tsv"
        write_topology_table(topo, p, compute_coverage(topo))
        lines = p.read_text().strip().split("\n")
        assert len(lines) == 1 + 4 + 6 + 12
        assert [line.split("\t")[-1] for line in lines[5:11]] == [
            str(s) for s in compute_coverage(topo).tolist()]
