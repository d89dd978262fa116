"""Trace and summary file emission.

One plain-text trace file per run: the resolved configuration header followed
by CSV sections for accuracy, time, partition, assignment, divergence, the
per-interval bound checks, and the communication log (one synchronization's
transfers, the same every global round, listed once per round). Floats are
written with repr so reruns of the same configuration are byte-identical.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

from .allreduce import SyncPlan
from .diagnostics import BoundReport
from .simulation import TrainingTrace

SUMMARY_COLUMNS = ("policy", "n_geo", "seed", "final_accuracy",
                   "total_time_s", "delta_hat", "Delta_hat", "bound_margin")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _row(values) -> str:
    return ",".join(map(_fmt, values))


def _section(name: str, header: str, rows: Iterable) -> Iterator[str]:
    """A blank line, ``[name]``, the CSV header, then one line per row."""
    yield from ("", f"[{name}]", header)
    yield from map(_row, rows)


def _schedule(plan: SyncPlan) -> list[str]:
    """The plan's ``[commlog]`` lines without the round, in pieces of at
    most 1,024 lines: each line starts with its comma, and a piece's lines
    are joined by line ends.

    Formatted from ``plan.steps()``, straight from the ring ids. A piece's
    lines are small Python objects, which take fresh pages in larger
    pieces.
    """
    lines = (line for phase, step, src, dst, params in plan.steps()
             for line in map(f",{phase},{step},{{}},{{}},{params}".format,
                             src, dst))
    pieces = []
    while block := list(islice(lines, 1024)):
        pieces.append("\n".join(block))
    return pieces


def trace_lines(trace: TrainingTrace, report: BoundReport | None,
                ) -> Iterator[str]:
    """The trace file's text in pieces, each one line or, in ``[commlog]``,
    up to 1,024 lines of one round, without the last line end.

    A generator, so that writing a long communication log holds the
    schedule's text once and one numbered piece at a time.
    """
    yield from ("# saginfl trace v1", "", "[config]")
    yield trace.config.canonical_text().rstrip("\n")
    if trace.warnings:
        yield from ("", "[warnings]", *trace.warnings)

    rounds = range(1, len(trace.accuracy) + 1)
    cost = trace.round_cost
    yield from _section("accuracy", "round,t,accuracy", trace.accuracy)
    yield from _section("time", "round,t_comm,t_comp,t_sync,t_total,n_ss", [
        (rnd, cost.t_comm, cost.t_comp, cost.t_sync, cost.t_total, cost.n_ss)
        for rnd in rounds])
    parts = [] if trace.partition is None else trace.partition.part_of.tolist()
    yield from _section("partition", "satellite,part", enumerate(parts))
    f, hops = trace.assignment.f.tolist(), trace.assignment.hops.tolist()
    yield from _section("assignment", "air,satellite,hops",
                        zip(range(len(f)), f, hops))
    reports = [] if report is None else [report]
    yield from _section("divergence", "delta_hat,Delta_hat,rho_hat,beta_hat", [
        (r.delta_hat, r.Delta_hat, r.rho_hat, r.beta_hat) for r in reports])
    yield from _section("bound", "interval,t,gap,bound,margin,holds", [
        (c.interval, c.t_end, c.gap, c.bound, c.margin, int(c.holds))
        for r in reports for c in r.intervals])

    # one schedule, formatted once as plain text, numbered once per round
    yield from ("", "[commlog]", "round,phase,step,src,dst,params")
    schedule = [] if trace.sync_plan is None else _schedule(trace.sync_plan)
    for rnd in rounds:
        for piece in schedule:
            yield str(rnd) + piece.replace("\n", f"\n{rnd}")


def write_trace(trace: TrainingTrace, report: BoundReport | None,
                path: Path) -> None:
    with path.open("w") as fh:
        # a [commlog] piece is up to 1,024 lines: its line end is written
        # after it, not appended to a copy of it
        for piece in trace_lines(trace, report):
            fh.write(piece)
            fh.write("\n")


def summary_row(trace: TrainingTrace, report: BoundReport | None) -> dict:
    cfg = trace.config
    return {
        "policy": cfg.policy.name,
        "n_geo": cfg.policy.n_geo if cfg.policy.name == "cnasa" else "",
        "seed": cfg.run.seed,
        "final_accuracy": trace.final_accuracy,
        "total_time_s": trace.total_time,
        "delta_hat": report.delta_hat if report else float("nan"),
        "Delta_hat": report.Delta_hat if report else float("nan"),
        "bound_margin": report.max_margin if report else float("nan"),
    }


def summary_text(row: dict) -> str:
    """The summary's header line and value line, each ending in a newline."""
    return (_row(SUMMARY_COLUMNS) + "\n"
            + _row(row[c] for c in SUMMARY_COLUMNS) + "\n")


def write_summary(row: dict, path: Path) -> None:
    path.write_text(summary_text(row))
