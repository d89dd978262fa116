"""The traced benchmark wraps package names at fixed sites; they must exist.

``bench/child.py`` replaces functions, methods and a classmethod at the
names their callers look up, and rebuilds satellite weights from a bare
``TrainingTrace``. This runs that instrumentation on a small single-orbit
run and a small Walker run (the three-phase sync and graph partition hooks)
in a fresh interpreter, so a refactor that drops or retypes a wrapped name,
or what a hook reads from its return value, fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
from collections import defaultdict
from dataclasses import replace

sys.path.insert(0, sys.argv[1])
import child
from saginfl import cli
from saginfl.allreduce import ring_traffic_per_node
from saginfl.config import (DataConfig, ExperimentConfig, PolicyConfig,
                            RunConfig, TopologyConfig, TrainingConfig)
from saginfl.simulation import TrainingTrace

spans, runs, counts = child.Spans(), [], defaultdict(int)
child.instrument_traced(spans, runs, counts)
cfg = ExperimentConfig(
    topology=TopologyConfig(n_sats=4, n_air=8, devices_per_air=2),
    data=DataConfig(n_classes=8, feature_dim=8, samples_per_device=20,
                    test_samples=100),
    training=TrainingConfig(tau1=2, tau2=2, global_rounds=2),
    policy=PolicyConfig(name="cnasa", n_geo=2),
    run=RunConfig(seed=0))
cli.check_convergence_bound(cli.run_obl(cfg))
[rec] = runs
weights = TrainingTrace(
    config=rec["config"], topology=rec["topology"],
    sat_of_device=rec["sat_of_device"],
    device_sizes=rec["device_sizes"]).satellite_weights()
assert len(weights) == 4 and abs(weights.sum() - 1.0) < 1e-12, weights
names = {span[0] for span in spans.spans}
missing = {"simulation.run_obl", "partition.build", "allreduce.sync",
           "diagnostics.check", "diagnostics.context",
           "learner.grad"} - names
assert not missing, missing

# Walker: multi_orbit_sync_states and graph_partition carry the hooks
spans.spans.clear()
counts.clear()
walker = replace(
    cfg, topology=TopologyConfig(kind="walker", n_planes=3, sats_per_plane=4,
                                 inclination_deg=85.0, air_per_cell=1,
                                 devices_per_air=1),
    data=DataConfig(n_classes=6, feature_dim=6, samples_per_device=15,
                    test_samples=100))
cli.run_obl(walker)
names = {span[0] for span in spans.spans}
missing = {"allreduce.sync", "partition.build"} - names
assert not missing, missing
assert counts["partition.parts"] > 0, dict(counts)
m = runs[-1]["n_params"]
per_sync = 2 * (3 * 2 * 3 * 4) + 2 * 2 * 3
assert counts["allreduce.transfers"] == 2 * per_sync, dict(counts)
assert counts["allreduce.params_sent_per_node"] == (
    2 * ring_traffic_per_node(4, m) + ring_traffic_per_node(3, m)), dict(counts)
"""


def test_traced_benchmark_hooks_resolve():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
