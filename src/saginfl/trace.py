"""Trace and summary file emission.

One plain-text trace file per run: the resolved configuration header followed
by CSV sections for accuracy, time, partition, assignment, divergence, the
per-interval bound checks, and the communication log (one synchronization's
transfers, the same every global round, listed once per round). Floats are
written with repr so reruns of the same configuration are byte-identical.
"""
from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from .diagnostics import BoundReport
from .simulation import TrainingTrace

SUMMARY_COLUMNS = ("policy", "n_geo", "seed", "final_accuracy",
                   "total_time_s", "delta_hat", "Delta_hat", "bound_margin")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def trace_lines(trace: TrainingTrace, report: BoundReport | None,
                ) -> Iterator[str]:
    """The trace file's lines, without line ends.

    A generator, so that writing a long communication log never holds the
    whole text in memory.
    """
    cfg = trace.config
    yield from ("# saginfl trace v1", "", "[config]")
    yield cfg.canonical_text().rstrip("\n")
    if trace.warnings:
        yield ""
        yield "[warnings]"
        yield from trace.warnings

    yield ""
    yield "[accuracy]"
    yield "round,t,accuracy"
    for rnd, t, acc in trace.accuracy:
        yield f"{rnd},{t},{_fmt(acc)}"

    yield ""
    yield "[time]"
    yield "round,t_comm,t_comp,t_sync,t_total,n_ss"
    for rnd, b in enumerate(trace.breakdowns, start=1):
        yield (f"{rnd},{_fmt(b.t_comm)},{_fmt(b.t_comp)},"
               f"{_fmt(b.t_sync)},{_fmt(b.t_total)},{b.n_ss}")

    yield ""
    yield "[partition]"
    yield "satellite,part"
    if trace.partition is not None:
        for sat, part in enumerate(trace.partition.part_of.tolist()):
            yield f"{sat},{part}"

    yield ""
    yield "[assignment]"
    yield "air,satellite,hops"
    assignment = trace.assignment
    for air, (sat, hops) in enumerate(zip(assignment.f.tolist(),
                                          assignment.hops.tolist())):
        yield f"{air},{sat},{hops}"

    yield ""
    yield "[divergence]"
    yield "delta_hat,Delta_hat,rho_hat,beta_hat"
    if report is not None:
        yield (f"{_fmt(report.delta_hat)},{_fmt(report.Delta_hat)},"
               f"{_fmt(report.rho_hat)},{_fmt(report.beta_hat)}")

    yield ""
    yield "[bound]"
    yield "interval,t,gap,bound,margin,holds"
    if report is not None:
        for c in report.intervals:
            yield (f"{c.interval},{c.t_end},{_fmt(c.gap)},"
                   f"{_fmt(c.bound)},{_fmt(c.margin)},{int(c.holds)}")

    yield ""
    yield "[commlog]"
    yield "round,phase,step,src,dst,params"
    if trace.sync_plan is not None:
        # one schedule, formatted once, repeated for every global round
        rows = [f",{phase},{step},{src},{dst},{params}" for phase, step, src,
                dst, params in trace.sync_plan.transfers.tolist()]
        for rnd in range(1, len(trace.breakdowns) + 1):
            yield from map(str(rnd).__add__, rows)


def write_trace(trace: TrainingTrace, report: BoundReport | None,
                path: Path) -> None:
    with path.open("w") as fh:
        fh.writelines(f"{line}\n" for line in trace_lines(trace, report))


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
    values = ",".join(_fmt(row[c]) for c in SUMMARY_COLUMNS)
    return ",".join(SUMMARY_COLUMNS) + "\n" + values + "\n"


def write_summary(row: dict, path: Path) -> None:
    path.write_text(summary_text(row))
