"""Assignment policies: distributions, k-means, clusters, matching, CNASA."""
import itertools

import numpy as np
import pytest
from oracles import brute_force_matching
from scipy.optimize import linear_sum_assignment

from saginfl.assignment import (
    _lsap,
    air_class_mix,
    build_clusters,
    cnasa,
    gdo,
    kmeans,
    min_cost_matching,
)
from saginfl.config import ExperimentConfig, PolicyConfig
from saginfl.errors import InputError, TopologyError
from saginfl.partition import PartitionSet, arc_partition, with_air_parts
from saginfl.simulation import select_assignment
from saginfl.timecost import DeliveryTimeModel, make_delivery_model
from saginfl.topology import (
    build_single_orbit,
    build_walker,
    compute_coverage,
    derive_isl_graph,
    hop_distances,
)


def hop_matrix(topology):
    return hop_distances(derive_isl_graph(topology))


def delivery_model(topology, access, t_as=1.0, t_ss=1.0):
    return DeliveryTimeModel(hops=hop_matrix(topology), access=access,
                             t_as_s=t_as, t_ss_s=t_ss)


class TestAirClassDistribution:
    def test_weighted_average(self):
        out = air_class_mix(np.array([[3, 0], [0, 1]]), np.array([0, 0]), 1)
        assert np.allclose(out, [[0.75, 0.25]])

    def test_single_device_identity(self):
        out = air_class_mix(np.array([[2, 3, 5]]), np.array([0]), 1)
        assert np.allclose(out, [[0.2, 0.3, 0.5]])

    def test_matches_pooled_label_histogram(self):
        # three air nodes, each pooling the labels of its own devices
        rng = np.random.default_rng(5)
        air_of_device = np.array([2, 0, 2, 1, 0, 2])
        pooled = [[], [], []]
        counts = []
        for air in air_of_device.tolist():
            labels = rng.integers(0, 10, size=int(rng.integers(5, 40)))
            pooled[air].extend(labels.tolist())
            counts.append(np.bincount(labels, minlength=10))
        expected = [np.bincount(p, minlength=10) / len(p) for p in pooled]
        out = air_class_mix(np.array(counts), air_of_device, 3)
        assert np.allclose(out, expected)


class TestKmeans:
    def test_k_equals_n_singletons(self):
        labels = kmeans(np.eye(5), 5, np.random.default_rng(0))
        assert len(set(labels.tolist())) == 5

    def test_two_one_hot_families(self):
        rng = np.random.default_rng(3)
        pts = np.array([[1.0, 0.0, 0.0]] * 3 + [[0.0, 0.0, 1.0]] * 3)
        labels = kmeans(pts, 2, rng)
        assert len(set(labels[:3].tolist())) == 1
        assert len(set(labels[3:].tolist())) == 1
        assert labels[0] != labels[3]
        # brute-force optimal 2-partition by within-group sum of squares
        X = pts
        best, best_cost = None, None
        for mask in range(1, 2 ** len(pts) - 1):
            ga = [i for i in range(len(pts)) if mask >> i & 1]
            gb = [i for i in range(len(pts)) if not mask >> i & 1]
            cost = sum(
                float(((X[g] - X[g].mean(axis=0)) ** 2).sum())
                for g in (ga, gb))
            if best_cost is None or cost < best_cost - 1e-12:
                best, best_cost = (tuple(sorted(ga)), tuple(sorted(gb))), cost
        ours = (tuple(i for i in range(6) if labels[i] == labels[0]),
                tuple(i for i in range(6) if labels[i] != labels[0]))
        assert set(map(frozenset, ours)) == set(map(frozenset, best))

    def test_k_one_single_group(self):
        raw = np.random.default_rng(1).random((7, 4))
        labels = kmeans(raw / raw.sum(axis=1, keepdims=True), 1,
                        np.random.default_rng(0))
        assert set(labels.tolist()) == {0}

    def test_deterministic_given_seed(self):
        rng_pts = np.random.default_rng(9)
        raw = rng_pts.random((12, 6))
        pts = raw / raw.sum(axis=1, keepdims=True)
        a = kmeans(pts, 3, np.random.default_rng(4))
        b = kmeans(pts, 3, np.random.default_rng(4))
        assert (a == b).all()


class TestBuildClusters:
    def test_one_member_per_group(self):
        groups = [[0, 1], [2, 3]]
        out = build_clusters(groups, 2, np.random.default_rng(0))
        for cluster in out:
            assert len(cluster) == 2
            assert len({0, 1} & set(cluster)) == 1
            assert len({2, 3} & set(cluster)) == 1

    def test_covers_all_members_exactly_once(self):
        groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        out = build_clusters(groups, 3, np.random.default_rng(2))
        seen = sorted(a for c in out for a in c)
        assert seen == list(range(9))

    def test_backfill_from_largest_group(self):
        # groups (3, 1): cluster 0 takes one from each; cluster 1 finds
        # group 1 empty and backfills from group 0
        groups = [[10, 11, 12], [20]]
        out = build_clusters(groups, 2, np.random.default_rng(0))
        c0, c1 = out
        assert 20 in c0
        assert set(c1) <= {10, 11, 12}
        assert len(c1) == 2

    def test_balance_within_one(self):
        # mirror the cnasa call pattern: k groups with k <= floor(N / n_geo)
        rng = np.random.default_rng(8)
        for trial in range(30):
            total = int(rng.integers(2, 30))
            n_geo = int(rng.integers(1, total + 1))
            k = max(1, total // n_geo)
            members = list(range(total))
            rng.shuffle(members)
            cuts = sorted(rng.choice(np.arange(1, total), size=k - 1,
                                     replace=False).tolist()) if k > 1 else []
            groups = [members[a:b] for a, b in
                      zip([0] + cuts, cuts + [total])]
            out = build_clusters(groups, n_geo, rng)
            lens = [len(c) for c in out]
            assert max(lens) - min(lens) <= 1
            assert sorted(a for c in out for a in c) == list(range(total))


class TestMinCostMatching:
    def test_two_by_two(self):
        cost = np.array([[1.0, 2.0], [3.0, 1.0]])
        perm = min_cost_matching(cost)
        assert perm == (0, 1)
        total, _ = brute_force_matching(cost)
        assert total == 2.0

    def test_zero_matrix_identity(self):
        perm = min_cost_matching(np.zeros((4, 4)))
        assert perm == (0, 1, 2, 3)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(17)
        for n in (3, 4, 5):
            for _ in range(20):
                cost = rng.random((n, n))
                perm = min_cost_matching(cost)
                ours = float(cost[np.arange(n), list(perm)].sum())
                best, _ = brute_force_matching(cost)
                assert abs(ours - best) < 1e-9

    def test_lexicographic_among_ties(self):
        cost = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert min_cost_matching(cost) == (0, 1)
        cost = np.array([[0.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0]])
        # zero-cost optima are (0,2,1) and (1,0,2); pick the lexicographic one
        assert min_cost_matching(cost) == (0, 2, 1)

    def test_solver_returns_scipys_columns(self):
        # scipy's solver is the reference: same optimum, ties included, on
        # random, small-integer (tie-heavy) and all-equal matrices
        rng = np.random.default_rng(5)
        for trial in range(1200):
            n = int(rng.integers(1, 31))
            if trial % 3 == 0:
                cost = rng.random((n, n))
            elif trial % 3 == 1:
                cost = rng.integers(0, 4, (n, n)).astype(float)
            else:
                cost = np.full((n, n), float(rng.integers(3)))
            assert _lsap(cost) == linear_sum_assignment(cost)[1].tolist()

    def test_large_matrix_returns_scipys_columns(self):
        # beyond the canonicalization size the solver's optimum is returned
        cost = np.random.default_rng(6).integers(0, 5, (240, 240)).astype(float)
        assert min_cost_matching(cost) == tuple(linear_sum_assignment(cost)[1])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            min_cost_matching(np.array([[1.0, np.inf], [1.0, 2.0]]))
        with pytest.raises(InputError):
            min_cost_matching(np.array([[1.0, np.nan], [1.0, 2.0]]))


def cdo(topology, access, class_counts, rng, model):
    """The CDO baseline: CNASA over one arc of every satellite."""
    pset = with_air_parts(arc_partition(topology, topology.n_satellites),
                          access)
    return cnasa(topology, access, pset, class_counts, rng, model)


def _toy_scenario(n_sats=2, n_air=4, devices_per_air=1):
    topology = build_single_orbit(n_sats, 330.0, n_air, devices_per_air)
    access = compute_coverage(topology)
    return topology, access


def _one_hot_counts(classes, n_classes, count=10):
    """Class counts ``(D, C)`` of devices holding ``count`` samples of one
    class each."""
    return count * np.eye(n_classes)[classes]


class TestCnasa:
    def test_n_geo_one_equals_gdo(self):
        topology, access = _toy_scenario(4, 8)
        class_counts = _one_hot_counts([d % 4 for d in range(8)], 4)
        pset = with_air_parts(arc_partition(topology, 1), access)
        model = delivery_model(topology, access)
        out = cnasa(topology, access, pset, class_counts,
                    np.random.default_rng(0), model)
        assert np.array_equal(out.f, access)
        assert not out.hops.any()

    def test_air_node_left_out_of_every_part_raises(self):
        topology, access = _toy_scenario(4, 8)
        class_counts = _one_hot_counts([d % 4 for d in range(8)], 4)
        pset = with_air_parts(arc_partition(topology, 2), access)
        first, *rest = pset.air_parts
        assert first[0] == 0
        pset = PartitionSet(parts=pset.parts, air_parts=(first[1:], *rest))
        with pytest.raises(TopologyError, match=r"air nodes \[0\]"):
            cnasa(topology, access, pset, class_counts,
                  np.random.default_rng(0), delivery_model(topology, access))

    def test_single_global_part_matches_cdo(self):
        topology, access = _toy_scenario(4, 8)
        class_counts = _one_hot_counts([d % 4 for d in range(8)], 4)
        graph = derive_isl_graph(topology)
        hops = hop_distances(graph)
        cfg = ExperimentConfig(policy=PolicyConfig(name="cdo"))
        all_sats = tuple(range(topology.n_satellites))
        all_airs = tuple(range(topology.n_air))
        pset = PartitionSet(parts=(all_sats,), air_parts=(all_airs,))
        a = cnasa(topology, access, pset, class_counts,
                  np.random.default_rng(7),
                  make_delivery_model(hops, access, cfg, 110))
        b, b_pset = select_assignment(
            cfg, topology, graph, hops, access, class_counts, 110,
            np.random.default_rng(7), np.random.default_rng(0))
        assert b_pset == pset
        assert np.array_equal(a.f, b.f)

    def test_walker_cdo_is_one_part_of_everything(self):
        topology = build_walker(3, 4, 85.0, 330.0, 2, 1)
        access = compute_coverage(topology)
        graph = derive_isl_graph(topology)
        hops = hop_distances(graph)
        class_counts = _one_hot_counts([d % 4 for d in range(24)], 4)
        _, pset = select_assignment(
            ExperimentConfig(policy=PolicyConfig(name="cdo")), topology,
            graph, hops, access, class_counts, 110, np.random.default_rng(7),
            np.random.default_rng(0))
        assert pset == PartitionSet(parts=(tuple(range(12)),),
                                    air_parts=(tuple(range(24)),))

    def test_toy_matches_exhaustive_balanced_search(self):
        # 4 air nodes, 2 satellites, n_geo = 2: CNASA must reach the minimum
        # total delivery time among balanced assignments (2 air nodes each)
        topology, access = _toy_scenario(2, 4)
        class_counts = _one_hot_counts([0, 1, 0, 1], 2)
        model = delivery_model(topology, access, t_as=1.0, t_ss=5.0)
        pset = with_air_parts(arc_partition(topology, 2), access)
        out = cnasa(topology, access, pset, class_counts,
                    np.random.default_rng(0), model)

        def total_time(f):
            return sum(
                model.delivery_time(a, f[a]) for a in range(4))

        best = None
        for targets in itertools.product((0, 1), repeat=4):
            if sum(targets) != 2:
                continue    # keep two air nodes per satellite
            f = dict(enumerate(targets))
            t = total_time(f)
            if best is None or t < best - 1e-12:
                best = t
        assert abs(total_time(out.f) - best) < 1e-9

    def test_assignment_total_and_hops_within_partition(self):
        topology = build_single_orbit(20, 330.0, 100, 2)
        access = compute_coverage(topology)
        rng = np.random.default_rng(0)
        class_counts = _one_hot_counts(
            [int(rng.integers(0, 10)) for _ in range(200)], 10)
        pset = with_air_parts(arc_partition(topology, 4), access)
        model = delivery_model(topology, access)
        out = cnasa(topology, access, pset, class_counts, rng, model)
        assert len(out.f) == 100 and (out.f >= 0).all()
        assert out.hops.max() < 4
        assert np.array_equal(pset.part_of[out.f], pset.part_of[access])

    def test_cluster_balance_keeps_satellite_loads_even(self):
        topology = build_single_orbit(10, 330.0, 50, 2)
        access = compute_coverage(topology)
        rng = np.random.default_rng(3)
        class_counts = _one_hot_counts(
            [int(rng.integers(0, 5)) for _ in range(100)], 5)
        pset = with_air_parts(arc_partition(topology, 5), access)
        out = cnasa(topology, access, pset, class_counts, rng,
                    delivery_model(topology, access))
        loads = {}
        for air, sat in enumerate(out.f):
            loads[sat] = loads.get(sat, 0) + 1
        assert max(loads.values()) - min(loads.values()) <= 1


class TestBaselines:
    def test_gdo_is_access_map(self):
        topology, access = _toy_scenario(4, 12)
        out = gdo(access, hop_matrix(topology))
        assert np.array_equal(out.f, access)

    def test_gdo_zero_hops(self):
        topology, access = _toy_scenario(4, 12)
        out = gdo(access, hop_matrix(topology))
        assert set(out.hops.tolist()) == {0}
        assert out.relay_hops() == 0

    def test_cdo_hops_reach_beyond_access(self):
        topology, access = _toy_scenario(4, 8)
        # strongly clustered distributions force cross-satellite mixing
        class_counts = _one_hot_counts([0, 0, 1, 1, 2, 2, 3, 3], 4)
        out = cdo(topology, access, class_counts,
                  np.random.default_rng(1), delivery_model(topology, access))
        assert (out.hops >= 0).all()
        assert out.relay_hops() >= 1

    def test_cdo_clusters_closer_to_global_mix(self):
        topology, access = _toy_scenario(4, 8)
        class_counts = _one_hot_counts([0, 0, 1, 1, 2, 2, 3, 3], 4)
        probs = class_counts / 10
        global_mix = probs.mean(axis=0)

        def satellite_l1(assignment):
            per_sat = {}
            for air, sat in enumerate(assignment.f):
                per_sat.setdefault(sat, []).append(probs[air])
            gaps = [np.abs(np.mean(v, axis=0) - global_mix).sum()
                    for v in per_sat.values()]
            return float(np.mean(gaps))

        cdo_gap = satellite_l1(
            cdo(topology, access, class_counts, np.random.default_rng(1),
                delivery_model(topology, access)))
        gdo_gap = satellite_l1(gdo(access, hop_matrix(topology)))
        assert cdo_gap < gdo_gap


class TestClusterQuality:
    def test_cluster_mix_beats_random_split(self):
        # CNASA cluster distributions should sit closer to the partition's
        # pooled distribution than random equal splits, averaged over seeds
        topology = build_single_orbit(4, 330.0, 16, 1)
        access = compute_coverage(topology)
        class_counts = _one_hot_counts(np.arange(16) % 4, 4)
        probs = class_counts / 10
        pset = with_air_parts(arc_partition(topology, 4), access)
        part_airs = pset.air_parts[0]
        pooled = probs[list(part_airs)].mean(axis=0)

        def mean_l1(clusters):
            gaps = []
            for cluster in clusters:
                if not cluster:
                    continue
                mix = probs[list(cluster)].mean(axis=0)
                gaps.append(np.abs(mix - pooled).sum())
            return float(np.mean(gaps))

        ours = []
        rand = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            out = cnasa(topology, access, pset, class_counts, rng,
                        delivery_model(topology, access))
            clusters = {}
            for air, sat in enumerate(out.f):
                clusters.setdefault(sat, []).append(air)
            ours.append(mean_l1(list(clusters.values())))
            perm = rng.permutation(len(part_airs))
            random_clusters = [
                [part_airs[i] for i in perm[j::4]] for j in range(4)]
            rand.append(mean_l1(random_clusters))
        assert np.mean(ours) <= np.mean(rand) + 1e-12


def test_cnasa_cost_growth_trend():
    # near O(N_A^2/N_S + N_S * n_geo^2): doubling air nodes must not blow up
    import time
    topology_small = build_single_orbit(10, 330.0, 40, 1)
    topology_big = build_single_orbit(10, 330.0, 80, 1)
    times = []
    for topo in (topology_small, topology_big):
        access = compute_coverage(topo)
        counts = _one_hot_counts(np.arange(topo.n_air) % 10, 10)
        pset = with_air_parts(arc_partition(topo, 2), access)
        model = delivery_model(topo, access)
        t0 = time.perf_counter()
        for seed in range(3):
            cnasa(topo, access, pset, counts, np.random.default_rng(seed),
                  model)
        times.append(time.perf_counter() - t0)
    assert times[1] < times[0] * 16
