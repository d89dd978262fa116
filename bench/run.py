"""saginfl benchmark: times fixed workloads end to end and layer by layer.

    python3 bench/run.py --workload single_ref --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each operation is one ``saginfl`` command
(``run`` or ``sweep``) executed in-process through ``saginfl.cli.main`` in a
fresh child interpreter (``bench/child.py``), one at a time (closed loop),
with BLAS and OpenMP pinned to one thread. Outputs go to a scratch directory
under ``bench/_work`` that is removed at the end; ``bench/results`` keeps a
JSON record of each invocation and, for traced runs, the spans.

``--trace 0`` runs operations until their child processes together have
run for ``--seconds`` (at least one operation), with a fixed number of
set-up probes (fresh interpreters that stop before the command) before and
after them, and reports the end-to-end metrics. ``--trace 1`` runs a fixed
number of traced operations per workload and reports the per-layer
metrics. Either way every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs every workload in turn.
See ``bench/README.md`` for the workloads, metrics and checks.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True

from child import RUN_CHECKS, SWEEP_CHECKS, files_sha256  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0      # the whole invocation must end within 180 s
SETUP_PROBES = 8         # set-up probes per timed run, half before the
                         # operations and half after, to span the run

# The seed is the config's [run] seed for run workloads; the sweep uses
# seeds (seed, seed + 1). Defaults reproduce configs/*.ini and the
# documented sweep (--seeds 0,1). "traced" is the number of traced
# operations in a --trace 1 run: one on walker_ref, whose traced operation
# takes about a minute, so that the run stays well inside RUN_LIMIT_S.
# BENCHMARK.json lists single_ref and walker_ref only: sweep_ngeo's
# runs_csv_row_order check fails until sweep orders its rows numerically
# (ROADMAP item 4), and every listed workload must pass its checks.
WORKLOADS = {
    "single_ref": {"kind": "run", "config": "configs/single_orbit.ini",
                   "default_seed": 1, "runs": 1, "traced": 2},
    "walker_ref": {"kind": "run", "config": "configs/walker.ini",
                   "default_seed": 1, "runs": 1, "traced": 1},
    "sweep_ngeo": {"kind": "sweep", "config": "configs/single_orbit.ini",
                   "default_seed": 0, "axis": "n_geo", "values": "2,4,10",
                   "global_rounds": 10, "runs": 6, "traced": 2},
}
REFERENCE_KEYS = ("final_accuracy", "total_time_s", "bound_margin")

clock = time.perf_counter


class Invocation:
    """Scratch space, inputs and collected results of one benchmark run."""

    def __init__(self, root: Path, name: str, seed: int, seconds: int):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.start = clock()
        self.work = BENCH_DIR / "_work" / f"{os.getpid()}-{name}-{seed}"
        self.work.mkdir(parents=True)
        self.n_children = 0
        self.argv = self._make_argv()

    def elapsed(self) -> float:
        return clock() - self.start

    def _make_argv(self) -> list[str]:
        w = self.workload
        parser = configparser.ConfigParser()
        if not parser.read(self.root / w["config"]):
            raise SystemExit(f"cannot read {w['config']}")
        path = self.work / Path(w["config"]).name
        if w["kind"] == "run":
            parser["run"]["seed"] = str(self.seed)
        else:
            parser["training"]["global_rounds"] = str(w["global_rounds"])
        with open(path, "w") as fh:
            parser.write(fh)
        if w["kind"] == "run":
            return ["run", str(path)]
        return ["sweep", str(path), "--axis", w["axis"], "--values",
                w["values"], "--seeds", f"{self.seed},{self.seed + 1}"]

    def run_child(self, mode: str, spans_path: Path | None = None) -> dict:
        """One operation, or one set-up probe, in a fresh interpreter."""
        self.n_children += 1
        tag = f"{self.n_children:02d}-{mode}"
        out_root = self.work / f"{tag}-out"
        out_root.mkdir()
        spec_path = self.work / f"{tag}.spec.json"
        result_path = self.work / f"{tag}.result.json"
        spec_path.write_text(json.dumps({
            "src": str(self.root / "src"), "argv": self.argv, "mode": mode,
            "kind": self.workload["kind"], "axis": self.workload.get("axis"),
            "out_root": str(out_root),
            "spans_path": str(spans_path) if spans_path else None}))
        env = dict(os.environ, **THREAD_ENV, PYTHONDONTWRITEBYTECODE="1",
                   SAGINFL_OUTPUT_ROOT=str(out_root))
        t_spawn = time.monotonic()
        t0 = clock()
        with open(self.work / f"{tag}.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), str(spec_path), str(result_path)],
                    cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
                returncode = proc.returncode
            except subprocess.TimeoutExpired:
                returncode = "timeout"
        result = {"mode": mode, "elapsed_s": clock() - t0}
        if returncode == 0 and result_path.exists():
            result.update(json.loads(result_path.read_text()))
            # interpreter start, imports and instrumentation (the child and
            # this process read the same system-wide monotonic clock)
            result["setup_s"] = result.pop("t_ready") - t_spawn
        else:
            result["error"] = f"child exited with {returncode}"
        if result.get("exit_code", 0) != 0:
            result["error"] = f"saginfl exited with {result['exit_code']}"
        if "error" in result:
            log_text = (self.work / f"{tag}.log").read_text()
            result["log_tail"] = log_text.splitlines()[-20:]
        shutil.rmtree(out_root, ignore_errors=True)
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Checks:
    """Tally of output checks; failures are kept with their detail."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.notes: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}" if detail else name)


def check_ops(ops: list[dict], inv: Invocation, checks: Checks,
              reference: dict) -> None:
    """Per-operation checks, rerun determinism and the reference values."""
    expected = len(RUN_CHECKS) * inv.workload["runs"]
    if inv.workload["kind"] == "sweep":
        expected += len(SWEEP_CHECKS)
    for i, op in enumerate(ops):
        if "error" in op:
            # a failed operation fails every check it would have made
            for _ in range(expected):
                checks.add(f"op {i + 1}", False, op["error"])
            continue
        for c in op["checks"]:
            checks.add(c["name"], c["ok"], c["detail"])
    done = [op for op in ops if "error" not in op]
    if len(done) > 1:
        for op in done[1:]:
            checks.add("rerun_determinism", op["sha256"] == done[0]["sha256"],
                       f"{op['sha256'][:12]} != {done[0]['sha256'][:12]}")
    else:
        checks.notes.append("rerun determinism not checked: one operation")

    table = reference[inv.name]
    for op in done:
        for row in op["summaries"]:
            key = str(row["seed"]) if inv.workload["kind"] == "run" \
                else f"{row['n_geo']}/{row['seed']}"
            if key not in table:
                checks.notes.append(f"no reference values for {key}")
                continue
            off = [k for k in REFERENCE_KEYS
                   if not within(row[k], table[key][k], reference["tolerance"][k])]
            checks.add("reference_values", not off,
                       f"{key}: " + ", ".join(f"{k} {row[k]!r} vs {table[key][k]!r}"
                                              for k in off))


def within(value: float, ref: float, tol: dict) -> bool:
    return abs(value - ref) <= max(tol.get("abs", 0.0),
                                   tol.get("rel", 0.0) * abs(ref))


def tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}, n={n}"
    if n >= 11:
        v = sorted(values)
        text += f", p{100 * (n - 10) / n:.0f} {v[n - 11]:.6g}"
    return text


def measure_timed(inv: Invocation, checks: Checks, reference: dict):
    probes = [inv.run_child("setup") for _ in range(SETUP_PROBES // 2)]
    ops = []
    while sum(op["elapsed_s"] for op in ops) < inv.seconds:
        ops.append(inv.run_child("timed"))
    done = [op for op in ops if "error" not in op]
    if not done:
        raise RuntimeError("no operation completed: "
                           + " | ".join(ops[0].get("log_tail", [])))
    probes += [inv.run_child("setup") for _ in range(SETUP_PROBES - len(probes))]
    for probe in probes:
        checks.add("setup_probe", "error" not in probe, probe.get("error", ""))
    check_ops(ops, inv, checks, reference)
    samples = {"wall_s": [op["wall_s"] for op in done],
               "setup_s": [op["setup_s"] for op in done + probes
                           if "error" not in op],
               "peak_rss_mb": [op["peak_rss_mb"] for op in done]}
    return ops + probes, samples, {k: statistics.median(v)
                                   for k, v in samples.items()}


def measure_traced(inv: Invocation, checks: Checks, reference: dict,
                   count_names: set[str]):
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    ops = [inv.run_child("traced", spans_path=results_dir /
                         f"{inv.name}-seed{inv.seed}-spans{rep}.json")
           for rep in range(1, inv.workload["traced"] + 1)]
    check_ops(ops, inv, checks, reference)
    done = [op for op in ops if "error" not in op]
    if not done:
        raise RuntimeError("no traced operation completed: "
                           + " | ".join(ops[0].get("log_tail", [])))
    layers = [op["layers"] for op in done]
    if len(ops) > 1:
        for name in sorted(count_names):
            same = len(layers) == len(ops) and len({lay[name] for lay in layers}) == 1
            checks.add("counts_repeat", same,
                       f"{name}: " + " vs ".join(str(lay[name]) for lay in layers))
    else:
        checks.notes.append("counts_repeat not checked: one traced operation")
    metrics = {name: layers[0][name] if name in count_names
               else statistics.median(lay[name] for lay in layers)
               for name in layers[0]}
    return ops, {}, metrics


def environment(root: Path, versions: dict) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        git_sha = None
    return {"git_sha": git_sha,
            "src_sha256": files_sha256(root, (root / "src").rglob("*.py")),
            **versions,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": THREAD_ENV}


def run_workload(root: Path, name: str, seed: int | None, seconds: int,
                 trace: bool, spec: dict, reference: dict) -> dict:
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    count_names = {m["name"] for m in spec["per_layer"]
                   if m["unit"] in ("count", "bytes")}
    seed = WORKLOADS[name]["default_seed"] if seed is None else seed
    inv = Invocation(root, name, seed, seconds)
    checks = Checks()
    try:
        if trace:
            ops, samples, values = measure_traced(inv, checks, reference, count_names)
        else:
            ops, samples, values = measure_timed(inv, checks, reference)
    finally:
        inv.close()
    env = environment(root, next(op["versions"] for op in ops if "versions" in op))

    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"{sum(op['mode'] != 'setup' for op in ops)} operations, "
          f"{sum(op['mode'] == 'setup' for op in ops)} set-up probes, "
          f"{inv.elapsed():.1f} s")
    print("   command: saginfl " + " ".join(inv.argv))
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for metric, unit in units.items():
        line = f"   {metric:34s} {values[metric]:14.6f} {unit}"
        if metric in samples:
            line += f"   ({tail(samples[metric])})"
        print(line)
    print(f"   checks: {checks.attempted} attempted, {len(checks.failed)} failed")
    for failure, n in Counter(checks.failed).items():
        print(f"   FAILED {failure}" + (f"  (x{n})" if n > 1 else ""))
    for note in dict.fromkeys(checks.notes):
        print(f"   note: {note}")

    record = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "command": inv.argv, "environment": env,
              "metrics": values, "samples": samples,
              "checks": {"attempted": checks.attempted, "failed": checks.failed,
                         "notes": list(dict.fromkeys(checks.notes))},
              "operations": ops}
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": not checks.failed, "attempted": checks.attempted,
            "failed": len(checks.failed),
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    missing = [p for p in ("src/saginfl/__init__.py", "BENCHMARK.json",
                           *sorted({w["config"] for w in WORKLOADS.values()}))
               if not (root / p).is_file()]
    if missing:
        print(f"not a saginfl checkout ({', '.join(missing)} missing); "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace), spec, reference)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
