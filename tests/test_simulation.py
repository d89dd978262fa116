"""The hierarchical training loop end to end."""
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import commlog_pieces, isl_graph

from saginfl.allreduce import plan_multi_orbit, plan_ring
from saginfl.config import (
    DataConfig,
    ExperimentConfig,
    PolicyConfig,
    RunConfig,
    TopologyConfig,
    TrainingConfig,
    load_config,
)
from saginfl import cli, simulation
from saginfl.data import generate_data
from saginfl.diagnostics import GradContext
from saginfl.errors import ConfigurationError, TopologyError, TrainingError
from saginfl.learner import Samples
from saginfl.simulation import run_obl
from saginfl.timecost import price_round
from saginfl.topology import build_walker, derive_isl_graph
from saginfl.trace import trace_lines

ROOT = Path(__file__).resolve().parents[1]


def make_config(policy="gdo", n_geo=1, seed=0, topology=None, data=None,
                training=None, run=None):
    return ExperimentConfig(
        topology=topology or TopologyConfig(n_sats=4, n_air=8,
                                            devices_per_air=2),
        data=data or DataConfig(n_classes=8, feature_dim=8,
                                classes_per_device=2, samples_per_device=20,
                                test_samples=400),
        training=training or TrainingConfig(global_rounds=4),
        policy=PolicyConfig(name=policy, n_geo=n_geo),
        run=run or RunConfig(seed=seed),
    )


class TestDegenerate:
    def test_single_device_is_plain_gradient_descent(self):
        cfg = make_config(
            topology=TopologyConfig(n_sats=1, n_air=1, devices_per_air=1),
            data=DataConfig(n_classes=4, feature_dim=4, classes_per_device=4,
                            samples_per_device=30, test_samples=200),
            training=TrainingConfig(tau1=1, tau2=1, global_rounds=6,
                                    learning_rate=0.1),
        )
        trace = run_obl(cfg)
        learner = trace.learner
        w = trace.global_models[0][1].copy()
        for _ in range(6):
            w = w - 0.1 * learner.grad(w[None], trace.samples)[0]
        assert np.allclose(trace.global_models[-1][1], w, atol=1e-12)

    def test_satellite_and_global_model_cadence(self):
        # the aggregates are kept at global-round ends only, where the
        # bound check reads them
        cfg = make_config(training=TrainingConfig(tau1=2, tau2=3,
                                                  global_rounds=2))
        trace = run_obl(cfg)
        sat_ts = [t for t, _ in trace.satellite_models]
        glob_ts = [t for t, _ in trace.global_models]
        assert glob_ts == [0, 6, 12]
        assert sat_ts == glob_ts[1:]


class TestAggregationConservation:
    def test_global_equals_weighted_satellite_average(self):
        cfg = make_config(policy="cnasa", n_geo=2,
                          training=TrainingConfig(tau1=2, tau2=2,
                                                  global_rounds=3))
        trace = run_obl(cfg)
        sat_w = trace.satellite_weights()
        sat_models = dict(trace.satellite_models)
        for t, g in trace.global_models[1:]:
            expected = sat_w @ sat_models[t]
            rel = np.abs(g - expected) / np.maximum(np.abs(expected), 1e-12)
            assert rel.max() < 1e-9

    def test_air_first_equals_flat_run(self):
        # the run's one operator equals averaging per air node first, then
        # across each satellite's air nodes
        trace = run_obl(make_config(policy="cnasa", n_geo=2, seed=3))
        sizes = trace.device_sizes
        params = np.random.default_rng(3).standard_normal(
            (len(sizes), trace.learner.n_params))
        n_sats = trace.topology.n_satellites
        sat_size = np.zeros(n_sats)
        air_models = {}
        for air in range(trace.topology.n_air):
            devs = np.flatnonzero(trace.topology.air_of_device == air)
            air_models[air] = (sizes[devs] @ params[devs] / sizes[devs].sum(),
                               sizes[devs].sum())
            sat_size[trace.assignment.f[air]] += sizes[devs].sum()
        via_air = np.zeros((n_sats, params.shape[1]))
        for air, (model, size) in air_models.items():
            sat = trace.assignment.f[air]
            via_air[sat] += (size / sat_size[sat]) * model
        flat = trace.aggregation.satellite_average(params)
        assert np.abs(flat - via_air).max() < 1e-12


class TestIidCloseToCentralized:
    @pytest.mark.parametrize("policy,n_geo", [("gdo", 1), ("cnasa", 2),
                                              ("cdo", 4)])
    def test_within_two_points(self, policy, n_geo):
        data = DataConfig(n_classes=8, feature_dim=8, classes_per_device=8,
                          samples_per_device=20, test_samples=1000)
        training = TrainingConfig(tau1=2, tau2=2, global_rounds=10,
                                  learning_rate=0.1)
        cfg = make_config(policy=policy, n_geo=n_geo, data=data,
                          training=training)
        trace = run_obl(cfg)
        # centralized oracle: same step budget on pooled data
        ctx = GradContext.from_trace(trace)
        w = trace.global_models[0][1].copy()
        for _ in range(2 * 2 * 10):
            w = w - 0.1 * ctx.global_grad(w)
        # the run's test set: its data stream is the first of five spawned
        data_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.run.seed).spawn(5)[0])
        _, _, test_x, test_y = generate_data(cfg.data, trace.topology,
                                             data_rng)
        test = Samples.stack(test_x[None], test_y[None], cfg.data.n_classes)
        central = trace.learner.accuracy(w, test)
        assert abs(trace.final_accuracy - central) <= 0.02


class TestDeterminism:
    def test_repeated_run_bit_identical_trace(self):
        cfg = make_config(policy="cnasa", n_geo=2, seed=11)
        a = list(trace_lines(run_obl(cfg), None))
        b = list(trace_lines(run_obl(cfg), None))
        assert a == b

    def test_different_seed_differs(self):
        a = run_obl(make_config(seed=1))
        b = run_obl(make_config(seed=2))
        assert a.final_accuracy != b.final_accuracy or \
            not np.allclose(a.global_models[-1][1], b.global_models[-1][1])


class TestDeviceBlocks:
    """Each tau1 segment steps contiguous device blocks, one per available
    CPU, on a thread pool; no output depends on the block count."""

    @pytest.mark.parametrize("training", [
        TrainingConfig(tau1=2, tau2=2, global_rounds=3),
        TrainingConfig(tau1=2, tau2=2, global_rounds=3, batch_size=5),
        TrainingConfig(tau1=2, tau2=2, global_rounds=3, learner="mlp",
                       hidden_dim=4, learning_rate=0.2),
    ], ids=["softmax", "mini_batch", "mlp"])
    def test_outputs_independent_of_block_count(self, training, monkeypatch):
        # 16 devices: one block, two, three of unequal size, one per device;
        # a short switch interval interleaves the block threads finely
        cfg = make_config(policy="cnasa", n_geo=2, seed=3, training=training)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 16):
                monkeypatch.setattr(simulation, "_available_cpus",
                                    lambda: cpus)
                runs.append(run_obl(cfg))
        finally:
            sys.setswitchinterval(interval)
        first = runs[0]
        for trace in runs[1:]:
            assert (list(trace_lines(trace, None))
                    == list(trace_lines(first, None)))
            for name in ("satellite_models", "global_models"):
                got, want = getattr(trace, name), getattr(first, name)
                assert [t for t, _ in got] == [t for t, _ in want]
                for (_, a), (_, b) in zip(got, want, strict=True):
                    assert (a == b).all()


    @pytest.mark.parametrize("learning_rate,first_round", [
        (1e70, 5),     # the first step after a synchronization
        (1e55, 6),     # the second step after a synchronization
        (1e50, 7),     # the first step after a satellite broadcast
        (1e35, 10),    # the second step after the second synchronization
    ])
    def test_replay_names_the_first_non_finite_round(
            self, learning_rate, first_round, monkeypatch):
        # a segment that ends non-finite is replayed from its devices'
        # satellite models; the rounds are those the replay from a copy of
        # the segment's start named
        cfg = make_config(policy="cnasa", n_geo=2, seed=3,
                          training=TrainingConfig(
                              tau1=2, tau2=2, global_rounds=3,
                              learning_rate=learning_rate))
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(simulation, "_available_cpus", lambda: cpus)
            with pytest.raises(TrainingError, match=(
                    f"non-finite device parameters at local round "
                    f"{first_round}$")):
                run_obl(cfg)


class TestWalkerRuns:
    def test_walker_multi_orbit_sync_path(self):
        cfg = make_config(
            policy="cnasa", n_geo=2,
            topology=TopologyConfig(kind="walker", n_planes=3,
                                    sats_per_plane=4, inclination_deg=85.0,
                                    air_per_cell=1, devices_per_air=1),
            data=DataConfig(n_classes=6, feature_dim=6, classes_per_device=2,
                            samples_per_device=15, test_samples=300),
            training=TrainingConfig(tau1=2, tau2=2, global_rounds=2),
        )
        trace = run_obl(cfg)
        assert trace.topology.n_satellites == 12
        assert len(trace.accuracy) == 2
        phases = set(trace.sync_plan.transfers["phase"].tolist())
        assert any(p.startswith("phase2") for p in phases)
        assert trace.assignment.relay_hops() < 2

    def test_multi_orbit_matches_flat_average(self):
        cfg = make_config(
            policy="gdo",
            topology=TopologyConfig(kind="walker", n_planes=2,
                                    sats_per_plane=3, inclination_deg=60.0,
                                    air_per_cell=1, devices_per_air=2),
            data=DataConfig(n_classes=6, feature_dim=6, classes_per_device=3,
                            samples_per_device=10, test_samples=200),
            training=TrainingConfig(tau1=1, tau2=1, global_rounds=1),
        )
        trace = run_obl(cfg)
        sat_w = trace.satellite_weights()
        t, g = trace.global_models[-1]
        expected = sat_w @ dict(trace.satellite_models)[t]
        assert np.abs(g - expected).max() < 1e-9


class TestCommLog:
    @pytest.mark.parametrize("topology", [
        TopologyConfig(n_sats=4, n_air=8, devices_per_air=2),
        TopologyConfig(kind="walker", n_planes=3, sats_per_plane=4,
                       inclination_deg=85.0, air_per_cell=1,
                       devices_per_air=1),
    ], ids=["single", "walker"])
    def test_written_log_is_the_per_round_logs(self, topology, monkeypatch):
        logs = []
        for name in ("ring_allreduce_states", "multi_orbit_sync_states"):
            def recorded(*args, _sync=getattr(simulation, name), **kwargs):
                out = _sync(*args, **kwargs)
                logs.append(out[1])
                return out
            monkeypatch.setattr(simulation, name, recorded)
        cfg = make_config(
            policy="cnasa", n_geo=2, topology=topology,
            data=DataConfig(n_classes=6, feature_dim=6, classes_per_device=2,
                            samples_per_device=15, test_samples=300),
            training=TrainingConfig(tau1=2, tau2=2, global_rounds=3))
        # the log comes one round per piece; compare it line by line
        lines = "\n".join(trace_lines(run_obl(cfg), None)).split("\n")
        written = lines[lines.index("[commlog]") + 2:]
        assert len(logs) == 3
        expected = [f"{rnd},{phase},{step},{src},{dst},{params}"
                    for rnd, log in enumerate(logs, start=1)
                    for phase, step, src, dst, params in log.transfers.tolist()]
        assert written == expected and len(expected) > 0

    def test_run_writes_the_log_without_the_transfer_table(
            self, tmp_path, monkeypatch):
        # a run, its check and its files read the plan's rings only; the
        # record array is built here, after the run, when first read
        traces = []

        def recorded(cfg, _run=cli.run_obl):
            traces.append(_run(cfg))
            return traces[-1]

        monkeypatch.setattr(cli, "run_obl", recorded)
        cfg = make_config(
            policy="cnasa", n_geo=2,
            topology=TopologyConfig(kind="walker", n_planes=3,
                                    sats_per_plane=4, inclination_deg=85.0,
                                    air_per_cell=1, devices_per_air=1),
            data=DataConfig(n_classes=6, feature_dim=6, classes_per_device=2,
                            samples_per_device=15, test_samples=300),
            training=TrainingConfig(tau1=2, tau2=2, global_rounds=3))
        cli.execute_run(cfg, tmp_path)
        [trace] = traces
        plan = trace.sync_plan
        assert "transfers" not in vars(plan)
        [path] = tmp_path.glob("*.trace.txt")
        lines = path.read_text().split("\n")
        written = lines[lines.index("[commlog]") + 2:-1]
        assert written == "\n".join(commlog_pieces(plan, 3)).split("\n")
        assert len(plan.transfers) == len(written) // 3 > 0

    @pytest.mark.parametrize("plan", [
        plan_multi_orbit(derive_isl_graph(build_walker(3, 4, 85.0, 330.0, 1,
                                                       1)), 72),
        # configs/walker.ini's plan: 14,820 rows, 15 formatting blocks
        plan_multi_orbit(derive_isl_graph(build_walker(15, 16, 85.0, 330.0,
                                                       1, 1)), 110),
        # a one-member orbit has no transfers; m = 2 is below the rings'
        # sizes, so every chunk holds one parameter
        plan_multi_orbit(isl_graph(
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4),
             (0, 1), (0, 4), (3, 5)],
            [(0,), (1, 2, 3), (4, 5, 6, 7, 8)]), 2),
        plan_ring([0], 5),
    ], ids=["walker", "walker_15x16", "single_member_ring", "no_transfers"])
    def test_log_equals_row_by_row_formatting(self, plan):
        trace = run_obl(make_config(training=TrainingConfig(global_rounds=3)))
        trace.sync_plan = plan
        pieces = list(trace_lines(trace, None))
        written = pieces[pieces.index("round,phase,step,src,dst,params") + 1:]
        assert written == commlog_pieces(plan, 3)


class TestTimeAccounting:
    def test_breakdown_identity(self):
        trace = run_obl(make_config(policy="cnasa", n_geo=2))
        b = trace.round_cost
        assert abs(b.t_total - (b.t_comm + b.t_comp + b.t_sync)) < 1e-15
        assert b.n_ss == trace.assignment.relay_hops()

    def test_comm_time_policy_ordering_per_instance(self):
        # the communication term orders with the relay hop counts
        topo = TopologyConfig(n_sats=10, n_air=30, devices_per_air=2)
        data = DataConfig(n_classes=10, feature_dim=10, classes_per_device=2,
                          samples_per_device=10, test_samples=100)
        training = TrainingConfig(global_rounds=1, tau1=1, tau2=1)
        comm = {}
        for policy, ng in (("gdo", 1), ("cnasa", 2), ("cdo", 10)):
            trace = run_obl(make_config(policy=policy, n_geo=ng, seed=2,
                                        topology=topo, data=data,
                                        training=training))
            comm[policy] = trace.round_cost.t_comm
        assert comm["gdo"] <= comm["cnasa"] <= comm["cdo"]

    def test_gossip_sync_costed_not_simulated(self):
        ring_cfg = make_config(seed=5)
        gossip_cfg = dataclasses.replace(
            ring_cfg, run=RunConfig(seed=5, sync_algo="gossip"))
        ring = run_obl(ring_cfg)
        gossip = run_obl(gossip_cfg)
        # same values, different sync time
        assert np.allclose(ring.global_models[-1][1],
                           gossip.global_models[-1][1])
        # the ring run's set-up, priced under gossip, differs only in t_sync
        priced = price_round(gossip_cfg, ring.assignment, ring.sync_plan,
                             ring.learner.n_params)
        assert gossip.round_cost == priced
        assert priced.t_sync > ring.round_cost.t_sync
        assert dataclasses.replace(
            priced, t_sync=ring.round_cost.t_sync) == ring.round_cost

    def test_gossip_trace_says_what_was_costed(self):
        ring_cfg = make_config(seed=5, training=TrainingConfig(global_rounds=1))
        gossip_cfg = dataclasses.replace(
            ring_cfg, run=RunConfig(seed=5, sync_algo="gossip"))

        def warning_lines(cfg):
            lines = list(trace_lines(run_obl(cfg), None))
            if "[warnings]" not in lines:
                return []
            start = lines.index("[warnings]") + 1
            return lines[start:lines.index("", start)]

        assert warning_lines(ring_cfg) == []
        [line] = warning_lines(gossip_cfg)
        assert "t_sync is the analytic gossip cost" in line
        assert "[commlog] lists the ring allreduce" in line

    def test_relay_hops_at_n_geo_raise_topology_error(self, monkeypatch):
        real_cnasa = simulation.cnasa

        def overlong(*args):
            assignment = real_cnasa(*args)
            return dataclasses.replace(
                assignment, hops=np.full_like(assignment.hops, 2))

        monkeypatch.setattr(simulation, "cnasa", overlong)
        with pytest.raises(TopologyError, match="relay hops 2"):
            run_obl(make_config(policy="cnasa", n_geo=2))

    def test_policy_inconsistency_rejected(self):
        cfg = make_config(policy="cnasa", n_geo=9)  # only 4 satellites
        with pytest.raises(ConfigurationError):
            run_obl(cfg)


class TestLearnerVariants:
    def test_mlp_run_trains(self):
        cfg = make_config(
            training=TrainingConfig(learner="mlp", hidden_dim=8, tau1=2,
                                    tau2=2, global_rounds=8,
                                    learning_rate=0.2))
        trace = run_obl(cfg)
        assert not trace.learner.convex
        assert len(trace.accuracy) == 8
        assert trace.accuracy[-1][2] > trace.accuracy[0][2] - 0.05

    def test_mini_batch_mode_runs_and_differs(self):
        full = run_obl(make_config(seed=9))
        mini = run_obl(make_config(
            seed=9, training=TrainingConfig(global_rounds=4, batch_size=5)))
        assert not np.allclose(full.global_models[-1][1],
                               mini.global_models[-1][1])

    def test_mini_batch_deterministic(self):
        cfg = make_config(
            seed=9, training=TrainingConfig(global_rounds=3, batch_size=5))
        a = run_obl(cfg)
        b = run_obl(cfg)
        assert (a.global_models[-1][1] == b.global_models[-1][1]).all()


class TestReferenceTimeModel:
    """The time model on the reference scenarios, to the bit.

    Every cost is float arithmetic over the configuration and integer
    assignment statistics, so it does not depend on the BLAS build.
    """

    @pytest.mark.parametrize("ini,workload", [
        ("single_orbit.ini", "single_ref"), ("walker.ini", "walker_ref")])
    def test_total_time_matches_reference(self, ini, workload):
        cfg = load_config(ROOT / "configs" / ini)
        reference = json.loads((ROOT / "bench" / "reference.json").read_text())
        trace = run_obl(cfg)
        expected = reference[workload][str(cfg.run.seed)]["total_time_s"]
        assert trace.total_time == expected
        lines = itertools.dropwhile(lambda line: line != "[time]",
                                    trace_lines(trace, None))
        rows = list(itertools.takewhile(bool, lines))[2:]
        rounds, costs = zip(*(row.split(",", 1) for row in rows))
        assert rounds == tuple(str(r) for r in range(
            1, cfg.training.global_rounds + 1))
        assert len(set(costs)) == 1
