"""Experiment runner.

Subcommands: ``run <config>`` executes one configuration and writes the trace,
summary, and topology table; ``sweep <config> --axis --values --seeds`` runs
the cross product, reports each finished cell on stderr, and aggregates
per-cell statistics; ``validate <config>`` checks a configuration without
running. Exit codes: 0 ok, 2 configuration error, 3 runtime error.
SAGINFL_OUTPUT_ROOT overrides the output root.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    AXES,
    ExperimentConfig,
    apply_axis,
    key_type,
    load_config,
    run_stem,
    validate_config,
    with_seed,
)
from .diagnostics import bound_inapplicable, check_convergence_bound
from .errors import ConfigurationError
from .simulation import run_obl
from .topology import write_topology_table
from .trace import (
    SUMMARY_COLUMNS,
    _fmt,
    summary_row,
    summary_text,
    write_summary,
    write_trace,
)

RUNS_COLUMNS = ("axis", "value", "seed", *SUMMARY_COLUMNS[3:], "status")
AGG_COLUMNS = ("axis", "value", "n_seeds", "accuracy_mean", "accuracy_std",
               "time_mean", "time_std")


def output_dir(cfg: ExperimentConfig) -> Path:
    root = Path(os.environ.get("SAGINFL_OUTPUT_ROOT", "."))
    return root / cfg.run.output_dir


def execute_run(cfg: ExperimentConfig, out: Path) -> dict:
    """Run one configuration; write trace, summary, and topology files.

    Runs outside the convergence bound's scope (mini-batch or MLP) skip the
    bound report.
    """
    trace = run_obl(cfg)
    report = (None if bound_inapplicable(trace)
              else check_convergence_bound(trace))
    out.mkdir(parents=True, exist_ok=True)
    stem = run_stem(cfg)
    write_trace(trace, report, out / f"{stem}.trace.txt")
    row = summary_row(trace, report)
    write_summary(row, out / f"{stem}.summary.csv")
    write_topology_table(trace.topology, out / f"{stem}.topology.tsv",
                         access=trace.access)
    return row


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.write(summary_text(execute_run(cfg, output_dir(cfg))))
    return 0


def _parse_list(flag: str, raw: str, item_type: type = int) -> list:
    """The comma list given to ``flag`` as ``item_type`` values: non-empty
    and without repeats."""
    items = [v.strip() for v in raw.split(",") if v.strip()]
    if not items:
        raise ConfigurationError(f"{flag} must be a non-empty comma list")
    try:
        items = [item_type(v) for v in items]
    except ValueError as exc:
        raise ConfigurationError(
            f"{flag} must be a comma list of {item_type.__name__} values") from exc
    repeated = sorted({v for v in items if items.count(v) > 1})
    if repeated:
        raise ConfigurationError(f"{flag} repeats {repeated}")
    return items


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    values = _parse_list("--values", args.values, key_type(*AXES[args.axis]))
    seeds = _parse_list("--seeds", args.seeds)
    # every cell is checked before the first one runs
    cells = [(value, seed, validate_config(
                  with_seed(apply_axis(base, args.axis, value), seed)))
             for value in values for seed in seeds]

    out = output_dir(base) / f"sweep_{args.axis}"
    out.mkdir(parents=True, exist_ok=True)
    # errors.log holds this sweep's failed cells only
    (out / "errors.log").unlink(missing_ok=True)
    rows = []
    for i, (value, seed, cfg) in enumerate(cells, start=1):
        start = time.perf_counter()
        try:
            summary, status = execute_run(cfg, out), "ok"
        except Exception as exc:  # keep sweeping on per-cell failures
            import traceback
            summary, status = {}, f"error: {exc}"
            with open(out / "errors.log", "a") as fh:
                fh.write(f"{args.axis}={_fmt(value)} seed={seed}\n"
                         f"{traceback.format_exc()}\n")
        # progress goes to stderr, so stdout keeps its one closing line
        print(f"[{i}/{len(cells)}] {args.axis}={_fmt(value)} seed={seed} "
              f"{'ok' if status == 'ok' else 'error'} "
              f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
        results = [summary.get(c, "") for c in RUNS_COLUMNS[3:-1]]
        rows.append(dict(zip(RUNS_COLUMNS,
                             [args.axis, value, seed, *results, status])))

    # one axis has one value type, so the native order is total
    rows.sort(key=lambda r: (r["value"], r["seed"]))
    with open(out / "runs.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUNS_COLUMNS)
        writer.writerows([_fmt(r[c]) for c in RUNS_COLUMNS] for r in rows)

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGG_COLUMNS)
        for value in sorted({r["value"] for r in rows}):
            cell = [r for r in rows if r["value"] == value and r["status"] == "ok"]
            if not cell:
                writer.writerow([args.axis, value, 0, "", "", "", ""])
                continue
            accs = np.array([r["final_accuracy"] for r in cell], dtype=float)
            times = np.array([r["total_time_s"] for r in cell], dtype=float)
            writer.writerow([args.axis, value, len(cell)] + [
                _fmt(float(v)) for v in (accs.mean(), accs.std(),
                                         times.mean(), times.std())])
    print(f"wrote {out / 'runs.csv'} and {out / 'summary.csv'} "
          f"({len(rows)} runs)")
    return 0


def _cmd_validate(args) -> int:
    load_config(args.config)
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="saginfl",
        description="Hierarchical federated learning simulator for "
                    "space-air-ground networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configuration")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--seeds", required=True,
                         help="comma-separated seeds")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a configuration file")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback
        print(f"runtime error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
