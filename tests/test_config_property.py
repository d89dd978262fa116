"""Random small configurations either fail fast naming the field or run to
finite outputs that satisfy the model's invariants."""
import math
import re
import sys
from collections import Counter
from dataclasses import astuple, fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saginfl.allreduce import ring_traffic_per_node
from saginfl.config import (
    DataConfig,
    ExperimentConfig,
    PolicyConfig,
    RunConfig,
    TopologyConfig,
    TrainingConfig,
)
from saginfl.diagnostics import bound_inapplicable, check_convergence_bound
from saginfl.errors import ConfigurationError, InputError
from saginfl.simulation import run_obl
from saginfl.timecost import RoundShape, price

# values that no run accepts, each with the field it sets
INVALID = [
    ("data", "samples_per_device", 0),
    ("training", "bits_per_param", 0),
    ("training", "flops_device", 0.0),
    ("topology", "sg_rate_bps", 0.0),
    ("topology", "ss_prop_s", -1.0),
    ("data", "geo_bin_deg", -5.0),
    ("data", "class_scale_min", -1.0),
    ("topology", "altitude_km", math.nan),
    ("data", "blob_scale", math.nan),
    ("training", "learning_rate", math.inf),
    ("run", "label", "a/b"),
]


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["single", "walker"]))
    if kind == "single":
        topology = TopologyConfig(kind=kind, n_sats=draw(st.integers(1, 6)),
                                  n_air=draw(st.integers(1, 8)),
                                  devices_per_air=draw(st.integers(1, 2)))
        n_sats = topology.n_sats
    else:
        topology = TopologyConfig(
            kind=kind, n_planes=draw(st.integers(2, 3)),
            sats_per_plane=draw(st.integers(3, 4)),
            inclination_deg=draw(st.sampled_from([60.0, 85.0, 90.0])),
            air_per_cell=draw(st.integers(1, 2)),
            devices_per_air=draw(st.integers(1, 2)))
        n_sats = topology.n_planes * topology.sats_per_plane
    n_classes = draw(st.integers(2, 4))
    samples = draw(st.integers(1, 6))
    data = DataConfig(n_classes=n_classes,
                      feature_dim=n_classes + draw(st.integers(0, 2)),
                      classes_per_device=draw(st.integers(1, n_classes)),
                      samples_per_device=samples,
                      test_samples=draw(st.integers(5, 20)))
    training = TrainingConfig(
        learning_rate=draw(st.sampled_from([0.05, 0.2, 0.5])),
        tau1=draw(st.integers(1, 3)), tau2=draw(st.integers(1, 2)),
        global_rounds=draw(st.integers(1, 2)),
        learner=draw(st.sampled_from(["softmax", "mlp"])),
        hidden_dim=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(0, samples)))
    policy = PolicyConfig(name=draw(st.sampled_from(["gdo", "cdo", "cnasa"])),
                          n_geo=draw(st.integers(1, n_sats + 1)))
    run = RunConfig(seed=draw(st.integers(0, 1000)),
                    sync_algo=draw(st.sampled_from(["ring", "gossip"])))
    cfg = ExperimentConfig(topology=topology, data=data, training=training,
                           policy=policy, run=run)
    invalid = draw(st.none() | st.sampled_from(INVALID))
    if invalid is not None:
        section, key, value = invalid
        cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                               **{key: value})})
    return cfg, invalid


def names_a_field(exc: ConfigurationError) -> bool:
    """The message contains ``[section] key`` for a real key."""
    match = re.search(r"\[(\w+)\] (\w+)", str(exc))
    if match is None:
        return False
    section, key = match.groups()
    block = getattr(ExperimentConfig(), section, None)
    return block is not None and key in {f.name for f in fields(block)}


def assert_invariants(trace) -> None:
    n_air = trace.topology.n_air
    n_sats = trace.topology.n_satellites
    f = trace.assignment.f
    assert f.shape == (n_air,) and (f >= 0).all() and (f < n_sats).all()
    cfg = trace.config
    if cfg.policy.name == "cnasa":
        assert trace.assignment.relay_hops() < cfg.policy.n_geo

    # each satellite's weights sum to 1, or to exactly 0 without devices
    weights = trace.aggregation
    rows = weights.satellite_average(np.ones((trace.topology.n_devices, 1)))[:, 0]
    assert np.allclose(rows[weights.nonempty], 1.0, rtol=0.0, atol=1e-12)
    assert not rows[~weights.nonempty].any()
    assert not np.signbit(rows[~weights.nonempty]).any()

    # every satellite sends ring_traffic_per_node on each ring it joins
    m = trace.learner.n_params
    orbits = trace.graph.orbits
    transfers = trace.sync_plan.transfers
    sent = Counter()
    for phase, src, params in zip(transfers["phase"].tolist(),
                                  transfers["src"].tolist(),
                                  transfers["params"].tolist()):
        sent[phase.split("-")[0] if "-" in phase else "ring", src] += params
    if len(orbits) == 1:
        assert all(sent["ring", s] == ring_traffic_per_node(n_sats, m)
                   for s in range(n_sats))
    else:
        for orbit in orbits:
            for s in orbit:
                for phase in ("phase1", "phase3"):
                    assert sent[phase, s] == ring_traffic_per_node(len(orbit), m)
        phase2 = [v for (phase, _), v in sent.items() if phase == "phase2"]
        assert phase2 == [ring_traffic_per_node(len(orbits), m)] * len(orbits)

    outputs = [acc for _, _, acc in trace.accuracy] + [trace.total_time]
    assert all(math.isfinite(v) for v in outputs)
    assert all(np.isfinite(w).all() for _, w in trace.global_models)

    # the trace keeps the satellite aggregates at global-round ends only
    assert ([t for t, _ in trace.satellite_models]
            == [t for t, _ in trace.global_models[1:]])
    assert len(trace.satellite_models) == cfg.training.global_rounds


@given(configs())
@settings(max_examples=30, deadline=None)
def test_config_fails_fast_or_runs_to_valid_outputs(drawn):
    cfg, invalid = drawn
    try:
        trace = run_obl(cfg)
    except ConfigurationError as exc:
        assert names_a_field(exc), str(exc)
        return
    assert invalid is None, f"{invalid} was accepted"
    assert_invariants(trace)
    if bound_inapplicable(trace) is not None:
        return
    try:
        report = check_convergence_bound(trace)
    except InputError:
        return
    assert all(math.isfinite(v) for v in (
        report.delta_hat, report.Delta_hat, report.rho_hat, report.beta_hat))


# every key the time model reads a rate, delay or FLOP count from
TIME_KEYS = tuple(
    (section, f.name) for section in ("topology", "training")
    for f in fields(getattr(ExperimentConfig(), section))
    if f.name.endswith(("_prop_s", "_rate_bps")) or f.name.startswith("flops_"))
# log-uniform over every binade of positive floats, subnormals included
LOG_UNIFORM = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                        st.integers(sys.float_info.min_exp - 53,
                                    sys.float_info.max_exp - 1))


@st.composite
def timed_configs(draw):
    topology = draw(st.sampled_from([
        TopologyConfig(n_sats=3, n_air=4, devices_per_air=2),
        TopologyConfig(kind="walker", n_planes=2, sats_per_plane=3,
                       air_per_cell=1, devices_per_air=1)]))
    cfg = ExperimentConfig(
        topology=topology,
        data=DataConfig(n_classes=2, feature_dim=2, classes_per_device=1,
                        samples_per_device=2, test_samples=5),
        training=TrainingConfig(tau1=1, tau2=2, global_rounds=2),
        policy=PolicyConfig(name=draw(st.sampled_from(["gdo", "cnasa"])),
                            n_geo=2),
        run=RunConfig(seed=0,
                      sync_algo=draw(st.sampled_from(["ring", "gossip"]))))
    drawn = {}
    for section, key in TIME_KEYS:
        # a delay may be 0; a rate or FLOP count must be positive
        zero = st.just(0.0) if key.endswith("_prop_s") else st.nothing()
        drawn[section, key] = draw(zero | LOG_UNIFORM)
    for section in ("topology", "training"):
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{
            key: value for (sec, key), value in drawn.items()
            if sec == section})})
    return cfg


@given(timed_configs())
@settings(max_examples=60, deadline=None)
def test_time_keys_fail_fast_or_run_to_finite_total_time(cfg):
    try:
        trace = run_obl(cfg)
    except ConfigurationError as exc:
        match = re.search(r"\[(\w+)\] (\w+)", str(exc))
        assert match is not None and match.groups() in TIME_KEYS, str(exc)
        return
    assert math.isfinite(trace.total_time)
    # the worst-case shape validate_config prices bounds the run's round
    worst, _ = price(cfg, trace.learner.n_params, RoundShape.worst(cfg.topology))
    assert all(a <= b for a, b in zip(astuple(trace.round_cost), astuple(worst)))
