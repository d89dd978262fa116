"""Run one benchmark operation in a fresh interpreter and report on it.

    python3 bench/child.py SPEC.json RESULT.json

SPEC names the checkout's ``src`` directory, the ``saginfl`` command line,
the workload kind (``run`` or ``sweep``) and a mode. The output root comes
from ``SAGINFL_OUTPUT_ROOT``, which the caller points at a fresh directory.

- ``timed``: no clock reads inside the command. ``cli.run_obl`` is wrapped
  only to keep what the checks need from each returned trace.
- ``traced``: every module's public functions are wrapped at the name their
  caller looks up (the package uses ``from .x import y``, so the wrapper for
  ``graph_partition`` goes on ``saginfl.simulation``, not on
  ``saginfl.partition``). Each call leaves a span (name, start, end,
  parent); the per-layer numbers are derived from the spans.
- ``setup``: the interpreter imports ``saginfl`` and instruments it as for
  ``timed``, then stops before the command.

Every mode reports ``t_ready``, the ``time.monotonic()`` reading just before
the command would start, so the caller can time the interpreter's set-up.
After the command returns, its outputs are checked. RESULT.json gets the
timings, the check outcomes, the SHA-256 of the outputs, the library
versions and, when traced, the per-layer numbers. Spans go to the file the
spec names.
"""
from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter

# Checks made on every run (every sweep cell), and once per sweep.
RUN_CHECKS = ("air_nodes_assigned", "relay_hops_below_n_geo",
              "satellite_weights_sum_to_1", "ring_traffic_per_node",
              "outputs_finite")
SWEEP_CHECKS = ("runs_csv_columns", "summary_csv_columns",
                "runs_csv_row_order")
SUMMARY_FLOATS = ("final_accuracy", "total_time_s", "delta_hat", "Delta_hat",
                  "bound_margin")


class Spans:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call."""
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        func = static.__func__ if is_classmethod else getattr(owner, attr)
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                out = func(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()
            if on_return is not None:
                on_return(out)
            return out

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def kept(trace) -> dict:
    """References to what the checks need from a returned trace.

    The trace itself is let go, so its datasets are freed as they would be
    without the benchmark and the peak memory stays the command's own.
    """
    return {"config": trace.config, "topology": trace.topology,
            "graph": trace.graph, "n_params": trace.learner.n_params,
            "sat_of_device": trace.sat_of_device,
            "device_sizes": trace.device_sizes}


def instrument_timed(runs: list) -> None:
    from saginfl import cli
    orig_run_obl = cli.run_obl

    def run_obl(cfg):
        trace = orig_run_obl(cfg)
        runs.append(kept(trace))
        return trace

    cli.run_obl = run_obl


def instrument_traced(spans: Spans, runs: list, counts: dict) -> None:
    from saginfl import assignment, cli, diagnostics, learner, simulation, timecost

    def on_parts(pset):
        counts["partition.parts"] += len(pset.parts)

    def on_sync(out):
        log = out[1]
        counts["allreduce.transfers"] += len(log.transfers)
        counts["allreduce.params_sent_per_node"] = max(
            counts["allreduce.params_sent_per_node"],
            max(log.params_sent.values(), default=0))

    sites = [
        (cli, "_cmd_run", "cli.command", None),
        (cli, "_cmd_sweep", "cli.command", None),
        (cli, "execute_run", "cli.execute_run", None),
        (cli, "load_config", "config.load", None),
        (cli, "run_obl", "simulation.run_obl", lambda t: runs.append(kept(t))),
        (cli, "check_convergence_bound", "diagnostics.check", None),
        (cli, "write_trace", "trace.write", None),
        (cli, "write_summary", "trace.write", None),
        (cli, "write_topology_table", "trace.write", None),
        (simulation, "build_single_orbit", "topology.build", None),
        (simulation, "build_walker", "topology.build", None),
        (simulation, "derive_isl_graph", "topology.isl_graph", None),
        (simulation, "hop_distances", "topology.hop_distances", None),
        (simulation, "compute_coverage", "coverage.compute", None),
        (simulation, "generate_data", "data.generate", None),
        (simulation, "select_assignment", "assignment.select", None),
        (simulation, "make_delivery_model", "timecost.delivery_model", None),
        (simulation, "arc_partition", "partition.build", on_parts),
        (simulation, "graph_partition", "partition.build", on_parts),
        (simulation, "with_air_parts", "partition.build", None),
        (simulation, "ring_allreduce_states", "allreduce.sync", on_sync),
        (simulation, "multi_orbit_sync_states", "allreduce.sync", on_sync),
        (assignment, "kmeans", "assignment.kmeans", None),
        (assignment, "min_cost_matching", "assignment.matching", None),
        (timecost.DeliveryTimeModel, "delivery_time", "timecost.delivery_time", None),
        (diagnostics.GradContext, "from_trace", "diagnostics.context", None),
        (diagnostics, "virtual_trajectories", "diagnostics.virtual", None),
        (diagnostics, "measure_divergence", "diagnostics.divergence", None),
        (diagnostics, "estimate_rho_beta", "diagnostics.rho_beta", None),
    ]
    for cls in (learner.SoftmaxLearner, learner.MlpLearner):
        for method in ("grad", "loss", "accuracy"):
            sites.append((cls, method, f"learner.{method}", None))
    for owner, attr, name, on_return in sites:
        spans.wrap(owner, attr, name, on_return)


def layer_metrics(spans: list[list], counts: dict, wall_s: float,
                  out_bytes: int, steps: int) -> dict:
    """Per-layer totals, counts and self times derived from the spans."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start

    def self_time(i: int) -> float:
        return spans[i][2] - spans[i][1] - child_time[i]

    def ancestors(i: int):
        i = spans[i][3]
        while i >= 0:
            yield spans[i][0]
            i = spans[i][3]

    grad = {"train": [0.0, 0], "diag": [0.0, 0]}
    setup = loop = loop_self = 0.0
    top_level = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        up = list(ancestors(i))
        if name == "learner.grad":
            g = grad["diag" if "diagnostics.check" in up else "train"]
            g[0] += end - start
            g[1] += 1
        elif name == "simulation.run_obl":
            kids = [s for s in spans if s[3] == i]
            grads = [s[1] for s in kids if s[0] == "learner.grad"]
            if grads:
                setup += grads[0] - start
                after = [s for s in kids if s[1] >= grads[0]]
                loop += end - grads[0]
                loop_self += (end - grads[0]) - sum(s[2] - s[1] for s in after)
        if not name.startswith("cli.") and all(a.startswith("cli.") for a in up):
            top_level += end - start

    return {
        "topology.build_s": total["topology.build"],
        "topology.isl_graph_s": total["topology.isl_graph"],
        "topology.hop_distances_s": total["topology.hop_distances"],
        "partition.build_s": total["partition.build"],
        "partition.parts": counts["partition.parts"],
        "assignment.select_s": total["assignment.select"],
        "assignment.kmeans_s": total["assignment.kmeans"],
        "assignment.matching_s": total["assignment.matching"],
        "assignment.delivery_time_calls": calls["timecost.delivery_time"],
        "timecost.delivery_model_s": total["timecost.delivery_model"],
        "coverage.compute_s": total["coverage.compute"],
        "data.generate_s": total["data.generate"],
        "learner.grad_train_s": grad["train"][0],
        "learner.grad_train_calls": grad["train"][1],
        "learner.grad_diag_s": grad["diag"][0],
        "learner.grad_diag_calls": grad["diag"][1],
        "learner.loss_s": total["learner.loss"],
        "learner.accuracy_s": total["learner.accuracy"],
        "simulation.run_obl_s": total["simulation.run_obl"],
        "simulation.setup_s": setup,
        "simulation.device_steps_per_s": steps / loop,
        "simulation.loop_self_s": loop_self,
        "allreduce.sync_s": total["allreduce.sync"],
        "allreduce.sync_calls": calls["allreduce.sync"],
        "allreduce.transfers": counts["allreduce.transfers"],
        "allreduce.params_sent_per_node": counts["allreduce.params_sent_per_node"],
        "diagnostics.check_s": total["diagnostics.check"],
        "diagnostics.context_s": total["diagnostics.context"],
        "diagnostics.virtual_s": total["diagnostics.virtual"],
        "diagnostics.divergence_s": total["diagnostics.divergence"],
        "diagnostics.divergence_calls": calls["diagnostics.divergence"],
        "diagnostics.rho_beta_s": total["diagnostics.rho_beta"],
        "diagnostics.self_s": sum(self_time(i) for i, s in enumerate(spans)
                                  if s[0] == "diagnostics.check"),
        "trace.write_s": total["trace.write"],
        "trace.bytes": out_bytes,
        "cli.sweep_self_s": sum(self_time(i) for i, s in enumerate(spans)
                                if s[0] == "cli.command"),
        "cli.cells": calls["cli.execute_run"],
        "spans.top_level_share": top_level / wall_s,
    }


def span_cost(n_calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one."""
    class Target:
        @staticmethod
        def noop():
            return None

    bare = Target.noop
    spans = Spans()
    spans.wrap(Target, "noop", "noop")
    wrapped = Target.noop
    costs = []
    for _ in range(repeats):
        spans.spans.clear()
        t0 = clock()
        for _ in range(n_calls):
            wrapped()
        t1 = clock()
        for _ in range(n_calls):
            bare()
        t2 = clock()
        costs.append(((t1 - t0) - (t2 - t1)) / n_calls)
    return statistics.median(costs)


# ----------------------------------------------------------------- checks

def read_sections(path: Path) -> dict[str, list[str]]:
    """The trace file's lines by section name, each section's CSV header first.

    The ``[config]`` block's own ``[topology]``...``[run]`` headers become
    sections too; no check reads them.
    """
    sections: dict[str, list[str]] = {}
    current = None
    for line in path.read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif current is not None and line:
            current.append(line)
    return sections


def check_run(rec: dict, out_dir: Path) -> list[dict]:
    """The model invariants on one run's returned trace and written files."""
    import numpy as np
    from saginfl.allreduce import ring_traffic_per_node
    from saginfl.cli import run_stem
    from saginfl.simulation import TrainingTrace
    cfg = rec["config"]
    stem = run_stem(cfg)
    results = []

    def record(name, ok, detail=""):
        results.append({"name": name, "ok": bool(ok),
                        "detail": f"{stem}: {detail}" if detail else stem})

    sections = read_sections(out_dir / f"{stem}.trace.txt")
    with open(out_dir / f"{stem}.topology.tsv", newline="") as fh:
        table = list(csv.DictReader(fh, delimiter="\t"))
    air_ids = {int(r["id"]) for r in table if r["kind"] == "air"}
    sat_ids = {int(r["id"]) for r in table if r["kind"] == "satellite"}
    air_of_device = {int(r["id"]): int(r["parent"])
                     for r in table if r["kind"] == "device"}
    assigned = [tuple(int(x) for x in line.split(","))
                for line in sections["assignment"][1:]]
    record("air_nodes_assigned",
           {a for a, _, _ in assigned} == air_ids and len(assigned) == len(air_ids)
           and all(s in sat_ids for _, s, _ in assigned),
           f"{len(assigned)} rows for {len(air_ids)} air nodes")

    if cfg.policy.name == "cnasa":
        max_hops = max(h for _, _, h in assigned)
        record("relay_hops_below_n_geo", max_hops < cfg.policy.n_geo,
               f"max hops {max_hops}, n_geo {cfg.policy.n_geo}")

    # device -> satellite rebuilt from the written files; the weights are
    # recomputed from it and compared with the library's
    sat_of_air = {a: s for a, s, _ in assigned}
    n_devices = len(rec["device_sizes"])
    rebuilt = np.array([sat_of_air.get(air_of_device.get(dev), -1)
                        for dev in range(n_devices)])
    sizes = np.asarray(rec["device_sizes"], dtype=float)
    mapped = len(air_of_device) == n_devices and bool((rebuilt >= 0).all())
    expected = (np.bincount(rebuilt, weights=sizes, minlength=len(sat_ids))
                / sizes.sum() if mapped else np.zeros(0))
    weights = TrainingTrace(
        config=cfg, topology=rec["topology"], sat_of_device=rec["sat_of_device"],
        device_sizes=rec["device_sizes"]).satellite_weights()
    record("satellite_weights_sum_to_1",
           mapped and np.array_equal(rebuilt, rec["sat_of_device"])
           and len(weights) == len(sat_ids) and bool((weights >= 0).all())
           and abs(float(weights.sum()) - 1.0) <= 1e-9
           and np.allclose(weights, expected, rtol=0.0, atol=1e-12),
           f"{len(weights)} weights for {len(sat_ids)} satellites, "
           f"sum {float(weights.sum())!r}, device map "
           + ("matches" if mapped and np.array_equal(rebuilt, rec["sat_of_device"])
              else "differs from the written files"))

    # params sent per node per sync: each ring (the one orbit; phases 1 and
    # 3 within an orbit; phase 2 over one satellite per orbit) costs every
    # member ring_traffic_per_node(ring size, model size)
    orbits = rec["graph"].orbits
    orbit_size = {s: len(o) for o in orbits for s in o}
    m = rec["n_params"]
    sent = defaultdict(int)
    for line in sections["commlog"][1:]:
        rnd, phase, _, src, _, params = line.split(",")
        sent[(int(rnd), phase.split("-")[0] if "-" in phase else "ring",
              int(src))] += int(params)
    bad = [k for k, v in sent.items()
           if v != ring_traffic_per_node(
               len(orbits) if k[1] == "phase2" else orbit_size[k[2]], m)]
    per_round = defaultdict(set)
    for rnd, group, src in sent:
        per_round[(rnd, group)].add(src)
    rounds = {rnd for rnd, _ in per_round}
    expected_senders = {"ring": len(orbit_size), "phase1": len(orbit_size),
                        "phase3": len(orbit_size), "phase2": len(orbits)}
    short = [k for k, v in per_round.items() if len(v) != expected_senders[k[1]]]
    record("ring_traffic_per_node",
           not bad and not short and len(rounds) == cfg.training.global_rounds,
           f"{len(sent)} node-syncs over {len(rounds)} rounds, "
           f"{len(bad)} off the closed form, {len(short)} syncs missing a node")

    with open(out_dir / f"{stem}.summary.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    values = [float(row[c]) for c in SUMMARY_FLOATS]
    values += [float(line.split(",")[2]) for line in sections["accuracy"][1:]]
    record("outputs_finite", all(math.isfinite(v) for v in values),
           f"{len(values)} values")
    return results


def check_sweep(out_dir: Path) -> list[dict]:
    """runs.csv and summary.csv: well-formed, complete, in (value, seed) order."""
    from saginfl.cli import AGG_COLUMNS, RUNS_COLUMNS
    results = []
    with open(out_dir / "runs.csv", newline="") as fh:
        runs = list(csv.reader(fh))
    with open(out_dir / "summary.csv", newline="") as fh:
        summary = list(csv.reader(fh))
    body = runs[1:]
    results.append({
        "name": "runs_csv_columns",
        "ok": runs[0] == list(RUNS_COLUMNS)
        and all(len(r) == len(RUNS_COLUMNS) and r[-1] == "ok" for r in body),
        "detail": f"{len(body)} rows"})
    results.append({
        "name": "summary_csv_columns",
        "ok": summary[0] == list(AGG_COLUMNS)
        and all(len(r) == len(AGG_COLUMNS) for r in summary[1:]),
        "detail": f"{len(summary) - 1} rows"})
    order = [(int(r[1]), int(r[2])) for r in body]
    results.append({
        "name": "runs_csv_row_order", "ok": order == sorted(order),
        "detail": "rows (value, seed): "
                  + " ".join(f"({v},{s})" for v, s in order)})
    return results


def files_sha256(root: Path, paths) -> str:
    """SHA-256 over the files' paths (relative to root) and contents."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def library_versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import saginfl
    if not Path(saginfl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"saginfl imported from {saginfl.__file__}, not {src}")
    from saginfl import cli

    mode = spec["mode"]
    runs: list = []
    spans = Spans()
    counts = defaultdict(int)
    if mode == "traced":
        instrument_traced(spans, runs, counts)
    else:
        instrument_timed(runs)
    result = {"t_ready": time.monotonic()}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result))
        return 0

    t0 = clock()
    code = cli.main(spec["argv"])
    wall_s = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(exit_code=code, wall_s=wall_s, peak_rss_mb=peak_rss_mb,
                  versions=library_versions())
    if code != 0:
        Path(result_path).write_text(json.dumps(result))
        return 0

    def files_of(rec: dict) -> Path:
        out_dir = cli.output_dir(rec["config"])
        return out_dir / f"sweep_{spec['axis']}" if spec["kind"] == "sweep" else out_dir

    out_root = Path(spec["out_root"])
    outputs = [p for p in out_root.rglob("*") if p.is_file()]
    checks = [c for rec in runs for c in check_run(rec, files_of(rec))]
    if spec["kind"] == "sweep":
        checks += check_sweep(files_of(runs[0]))
    result.update(checks=checks, sha256=files_sha256(out_root, outputs),
                  summaries=[summary_values(rec, files_of(rec))
                             for rec in runs])

    if mode == "traced":
        steps = sum(device_steps(rec) for rec in runs)
        layers = layer_metrics(spans.spans, counts, wall_s,
                               sum(p.stat().st_size for p in outputs), steps)
        layers["trace_overhead_s"] = span_cost() * len(spans.spans)
        result["layers"] = layers
        Path(spec["spans_path"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": spans.spans}))
    Path(result_path).write_text(json.dumps(result))
    return 0


def device_steps(rec: dict) -> int:
    """Local gradient steps summed over devices in one run."""
    t = rec["config"].training
    return rec["topology"].n_devices * t.global_rounds * t.tau1 * t.tau2


def summary_values(rec: dict, out_dir: Path) -> dict:
    """The run's summary row, keyed for the reference comparison."""
    from saginfl.cli import run_stem
    cfg = rec["config"]
    with open(out_dir / f"{run_stem(cfg)}.summary.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    return {"n_geo": cfg.policy.n_geo, "seed": cfg.run.seed,
            **{c: float(row[c]) for c in SUMMARY_FLOATS}}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
