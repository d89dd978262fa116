"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the plain suite stays green/red either way. Scenario knobs live in
the helpers below and mirror the default single-orbit configuration.
"""
import dataclasses
import functools
import itertools
import math
import time

import numpy as np
import pytest
from oracles import (
    brute_force_matching,
    divergence_at_global_models,
    gossip_traffic,
    induced_diameter,
    isl_graph,
    naive_ring,
    ring_traffic_analytic,
    traffic_per_node,
)

from saginfl.allreduce import (
    multi_orbit_sync_states,
    plan_multi_orbit,
    plan_ring,
    ring_allreduce_states,
    ring_traffic_per_node,
)
from saginfl.assignment import min_cost_matching
from saginfl.config import (
    DataConfig,
    ExperimentConfig,
    PolicyConfig,
    RunConfig,
    TopologyConfig,
    TrainingConfig,
)
from saginfl.diagnostics import check_convergence_bound
from saginfl.partition import graph_partition
from saginfl.simulation import run_obl
from saginfl.topology import build_walker, derive_isl_graph
from saginfl.trace import trace_lines


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} {name} failed{suffix}"


def table_scenario(policy, n_geo, seed, **overrides):
    """The single-orbit reference scenario: 20 satellites, 100 air nodes,
    200 devices, non-IID degree 2, 30 global rounds."""
    data_kw = dict(classes_per_device=2)
    data_kw.update({k[5:]: v for k, v in overrides.items()
                    if k.startswith("data_")})
    train_kw = {k[6:]: v for k, v in overrides.items()
                if k.startswith("train_")}
    return ExperimentConfig(
        topology=TopologyConfig(),
        data=dataclasses.replace(DataConfig(), **data_kw),
        training=dataclasses.replace(TrainingConfig(), **train_kw),
        policy=PolicyConfig(name=policy, n_geo=n_geo),
        run=RunConfig(seed=seed),
    )


@functools.cache
def accuracy_and_time(cfg: ExperimentConfig) -> tuple[float, float]:
    """One run's final accuracy and total time; criteria that share a
    scenario share its run."""
    trace = run_obl(cfg)
    return trace.final_accuracy, trace.total_time


def mean_over_seeds(policy, n_geo, seeds, **overrides):
    accs, times = [], []
    for seed in seeds:
        acc, total = accuracy_and_time(
            table_scenario(policy, n_geo, seed, **overrides))
        accs.append(acc)
        times.append(total)
    return float(np.mean(accs)), float(np.mean(times))


SEEDS = (0, 1, 2, 3, 4)


def test_criterion_1_allreduce_correctness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 4097))
        weights = rng.random(n) + 0.05
        weights /= weights.sum()
        params = rng.standard_normal((n, m))
        expected = (params * weights[:, None]).sum(axis=0)
        scale = np.maximum(np.abs(expected), 1e-30)

        if case % 2 == 0 or n < 4:
            states, _ = ring_allreduce_states(params, weights,
                                              plan_ring(range(n), m))
        else:
            n_orbits = int(rng.integers(2, min(n, 6) + 1))
            sizes = [n // n_orbits + (1 if j < n % n_orbits else 0)
                     for j in range(n_orbits)]
            # synthetic ring-of-rings graph with ids 0..n-1
            ids = iter(range(n))
            orbits = [tuple(next(ids) for _ in range(s)) for s in sizes]
            edges = [(a, b) for orbit in orbits
                     for a, b in zip(orbit, orbit[1:] + orbit[:1]) if a != b]
            edges += [(orbits[j - 1][0], orbits[j][0])
                      for j in range(len(orbits))]
            graph = isl_graph(edges, orbits)
            states, _ = multi_orbit_sync_states(params, weights,
                                                plan_multi_orbit(graph, m))
        assert len({s.tobytes() for s in states}) == 1
        worst = max(worst, float((np.abs(states[0] - expected) / scale).max()))
    elapsed = time.perf_counter() - start
    _report(1, "allreduce correctness", worst < 1e-9 and elapsed < 10.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_traffic_claim():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(40):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(1, 2048))
        weights = rng.random(n)
        weights /= weights.sum()
        _, plan = ring_allreduce_states(rng.standard_normal((n, m)), weights,
                                        plan_ring(range(n), m))
        ok &= traffic_per_node(plan, n) == ring_traffic_per_node(n, m) \
            == 2 * (n - 1) * math.ceil(m / n)
    gossip_beats = all(
        gossip_traffic(n, 1.0) > ring_traffic_analytic(n, 1.0)
        for n in range(2, 1025))
    _report(2, "ring traffic exact + gossip ordering", ok and gossip_beats)


def test_criterion_3_partition_bound():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        planes = int(rng.integers(2, 7))
        per = int(rng.integers(4, 17))
        graph = derive_isl_graph(
            build_walker(planes, per, 85.0, 330.0, 1, 1))
        for n_geo in (1, 2, 3, 4):
            pset = graph_partition(graph, n_geo, rng)
            seen = sorted(s for p in pset.parts for s in p)
            ok &= seen == list(range(planes * per))
            for part in pset.parts:
                d = induced_diameter(part, graph)
                ok &= 0 <= d < n_geo
    elapsed = time.perf_counter() - start
    _report(3, "graph partition diameter bound", ok and elapsed < 60.0,
            f"{elapsed:.1f}s")


def test_criterion_4_matching_optimality():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 9))
        cost = rng.random((n, n)) * float(rng.integers(1, 100))
        perm = min_cost_matching(cost)
        ours = float(cost[np.arange(n), list(perm)].sum())
        best, _ = brute_force_matching(cost)
        ok &= abs(ours - best) < 1e-9
    elapsed = time.perf_counter() - start
    _report(4, "matching equals brute force", ok and elapsed < 10.0,
            f"{elapsed:.1f}s")


def test_criterion_5_policy_ordering():
    start = time.perf_counter()
    acc_gdo, time_gdo = mean_over_seeds("gdo", 1, SEEDS)
    acc_cnasa, time_cnasa = mean_over_seeds("cnasa", 4, SEEDS)
    acc_cdo, time_cdo = mean_over_seeds("cdo", 20, SEEDS)
    elapsed = time.perf_counter() - start
    acc_ok = acc_cdo >= acc_cnasa >= acc_gdo
    time_ok = time_gdo <= time_cnasa <= time_cdo
    margin_ok = time_cnasa <= 0.9 * time_cdo
    _report(5, "policy ordering", acc_ok and time_ok and margin_ok
            and elapsed < 600.0,
            f"acc {acc_gdo:.4f}/{acc_cnasa:.4f}/{acc_cdo:.4f}, "
            f"time {time_gdo:.1f}/{time_cnasa:.1f}/{time_cdo:.1f}s, "
            f"{elapsed:.0f}s")


def test_criterion_6_n_geo_tradeoff():
    accs, times = [], []
    for n_geo in (2, 4, 10):
        a, t = mean_over_seeds("cnasa", n_geo, SEEDS)
        accs.append(a)
        times.append(t)
    time_ok = times[0] <= times[1] <= times[2]
    inversions = [max(0.0, accs[i] - accs[i + 1]) for i in range(2)]
    acc_ok = sum(1 for inv in inversions if inv > 0) <= 1 \
        and max(inversions) <= 0.005
    _report(6, "n_geo accuracy/time trade-off", acc_ok and time_ok,
            f"acc {['%.4f' % a for a in accs]}, "
            f"time {['%.1f' % t for t in times]}")


def test_criterion_7_tau2_effect():
    # pre-convergence horizon: more satellite rounds per global round buy
    # accuracy while the model is still unlearning its noisy initialization
    rounds = 6
    per_round_times, accs = [], []
    for tau2 in (1, 2, 4):
        acc, total = mean_over_seeds(
            "cnasa", 4, SEEDS, train_tau2=tau2, train_tau1=2,
            train_learning_rate=0.1, train_global_rounds=rounds)
        per_round_times.append(total / rounds)
        accs.append(acc)
    time_ok = per_round_times[0] < per_round_times[1] < per_round_times[2]
    acc_ok = accs[0] <= accs[1] + 1e-12 and accs[1] <= accs[2] + 1e-12
    _report(7, "tau2 time and accuracy effect", time_ok and acc_ok,
            f"per-round {['%.2f' % t for t in per_round_times]}s, "
            f"acc {['%.4f' % a for a in accs]}")


def test_criterion_8_non_iid_robustness():
    gaps = []
    for cpd in (1, 2, 5):
        acc_cnasa, _ = mean_over_seeds("cnasa", 4, SEEDS,
                                       data_classes_per_device=cpd)
        acc_gdo, _ = mean_over_seeds("gdo", 1, SEEDS,
                                     data_classes_per_device=cpd)
        gaps.append(acc_cnasa - acc_gdo)
    nonneg = all(g >= 0 for g in gaps)
    widening = gaps[0] >= gaps[1] >= gaps[2]
    _report(8, "non-IID gap nonnegative and widening", nonneg and widening,
            f"gaps {['%+.4f' % g for g in gaps]}")


def _bound_scenario(policy, n_geo, seed):
    return ExperimentConfig(
        topology=TopologyConfig(n_sats=4, n_air=8, devices_per_air=2),
        data=DataConfig(n_classes=8, feature_dim=8, classes_per_device=2,
                        samples_per_device=25, test_samples=400),
        training=TrainingConfig(tau1=2, tau2=2, global_rounds=8,
                                learning_rate=0.1),
        policy=PolicyConfig(name=policy, n_geo=n_geo),
        run=RunConfig(seed=seed),
    )


def test_criterion_9_theorem_bound():
    report = check_convergence_bound(run_obl(_bound_scenario("cnasa", 2, 0)))
    bound_ok = all(c.holds for c in report.intervals)
    deltas = []
    for seed in range(10):
        d_gdo = divergence_at_global_models(
            run_obl(_bound_scenario("gdo", 1, seed)))
        d_cnasa = divergence_at_global_models(
            run_obl(_bound_scenario("cnasa", 2, seed)))
        deltas.append(d_gdo.Delta_hat - d_cnasa.Delta_hat)
    div_ok = float(np.mean(deltas)) >= 0
    _report(9, "convergence bound and divergence ordering",
            bound_ok and div_ok,
            f"max margin {report.max_margin:.3f}, "
            f"mean Delta reduction {np.mean(deltas):+.4f}")


def test_criterion_10_determinism():
    cfg = table_scenario("cnasa", 4, 123, train_global_rounds=3)
    a = "\n".join(trace_lines(run_obl(cfg), None))
    b = "\n".join(trace_lines(run_obl(cfg), None))
    _report(10, "byte-identical reruns", a.encode() == b.encode())


def test_criterion_11_degenerate_equivalences():
    # CNASA with n_geo = 1 reproduces the GDO assignment
    cfg = table_scenario("cnasa", 1, 5, train_global_rounds=2)
    trace = run_obl(cfg)
    gdo_like = np.array_equal(trace.assignment.f, trace.access)

    # one-orbit multi_orbit_sync_states equals the step-by-step reference
    # ring bitwise, on a ring whose order is not the id order
    rng = np.random.default_rng(3)
    weights = rng.random(6)
    weights /= weights.sum()
    params = rng.standard_normal((6, 40))
    order = (0, 3, 1, 5, 2, 4)
    ring = isl_graph([(order[k - 1], order[k]) for k in range(6)],
                     orbits=(order,))
    multi, _ = multi_orbit_sync_states(params, weights,
                                       plan_multi_orbit(ring, 40))
    reference = naive_ring([params[s] * weights[s] for s in order], order,
                           "", [])
    sync_same = all(multi[s].tobytes() == vec.tobytes()
                    for s, vec in zip(order, reference))

    # air-first aggregation equals the run's flat aggregation operator
    rng = np.random.default_rng(4)
    sizes = trace.device_sizes
    params = rng.standard_normal((len(sizes), 12))
    f = trace.assignment.f
    airs = range(trace.topology.n_air)
    devices_of = {air: np.flatnonzero(trace.topology.air_of_device == air)
                  for air in airs}
    sat_size = np.zeros(trace.topology.n_satellites)
    for air in airs:
        sat_size[f[air]] += sizes[devices_of[air]].sum()
    air_agg = np.zeros((trace.topology.n_satellites, 12))
    for air in airs:
        devs = devices_of[air]
        air_model = sizes[devs] @ params[devs] / sizes[devs].sum()
        air_agg[f[air]] += sizes[devs].sum() / sat_size[f[air]] * air_model
    flat_agg = trace.aggregation.satellite_average(params)
    agg_same = float(np.abs(flat_agg - air_agg).max()) < 1e-12
    _report(11, "degenerate equivalences", gdo_like and sync_same and agg_same)
