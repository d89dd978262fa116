"""Inter-satellite model synchronization by chunked Ring Allreduce.

The collective is simulated as a deterministic step-synchronous loop: in each
step every participant sends one chunk to its ring successor, and all sends
of a step land simultaneously. Scatter-reduce accumulates, allgather
overwrites. The multi-orbit variant runs three phases: intra-orbit reduce,
inter-orbit reduce over one representative per orbit, and intra-orbit
distribution.

A synchronization's rings and transfers depend only on the topology and the
model size, so they are planned once (``plan_ring``, ``plan_multi_orbit``)
and the plan serves every round: its ``CommLog`` holds the transfer schedule
as arrays. The equal-size rings of a phase step together as one stacked
array; every chunk is summed in the same order as on a ring of its own, so
stacking moves no bit.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, TopologyError
from .topology import IslGraph

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class ModelVector:
    """Flat parameter vector plus its share of the global data."""

    params: np.ndarray
    weight: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.params)):
            raise InputError("model parameters must be finite")
        if self.weight < 0:
            raise InputError(f"model weight must be >= 0, got {self.weight}")


def _per_node(nodes: np.ndarray, params: np.ndarray) -> dict[int, int]:
    ids, where = np.unique(nodes, return_inverse=True)
    totals = np.zeros(len(ids), dtype=np.int64)
    np.add.at(totals, where, params)
    return dict(zip(ids.tolist(), totals.tolist()))


@dataclass(frozen=True, eq=False)
class CommLog:
    """Exact communication accounting for one synchronization.

    ``transfers`` is a record array in execution order with fields
    ``phase``, ``step``, ``src``, ``dst`` and ``params``: in ring step
    ``step`` of ``phase``, satellite ``src`` sends a chunk of ``params``
    parameters to ``dst``. ``steps`` counts the ring steps of each phase,
    summed over the phase's rings.
    """

    transfers: np.ndarray
    steps: dict[str, int]

    @cached_property
    def params_sent(self) -> dict[int, int]:
        return _per_node(self.transfers["src"], self.transfers["params"])

    @cached_property
    def params_received(self) -> dict[int, int]:
        return _per_node(self.transfers["dst"], self.transfers["params"])

    def total_sent(self) -> int:
        return sum(self.params_sent.values())

    def total_received(self) -> int:
        return sum(self.params_received.values())


def _chunk_size(m: int, n: int) -> int:
    return max(1, math.ceil(m / n))


def chunk_model(params: np.ndarray, n: int) -> np.ndarray:
    """Split the last axis into n chunks of ceil(M/n) entries, zero-padding
    the last: ``(..., M)`` becomes ``(..., n, ceil(M/n))``."""
    if n < 1:
        raise InputError(f"chunk count must be >= 1, got {n}")
    params = np.asarray(params, dtype=float)
    lead, m = params.shape[:-1], params.shape[-1]
    size = _chunk_size(m, n)
    padded = np.zeros(lead + (size * n,), dtype=float)
    padded[..., :m] = params
    return padded.reshape(lead + (n, size))


def stitch_chunks(chunks: np.ndarray, m: int) -> np.ndarray:
    """Inverse of chunk_model: join the last two axes and drop padding."""
    return chunks.reshape(chunks.shape[:-2] + (-1,))[..., :m]


@dataclass(frozen=True, eq=False)
class SyncPlan:
    """One synchronization's rings, phase by phase, and its transfers.

    ``phases`` holds each phase's rings in execution order; a ring is its
    members' ids in ring order (member k sends to member k+1 mod n).
    """

    m: int
    phases: tuple[tuple[tuple[int, ...], ...], ...]
    log: CommLog


def _plan(m: int, phases: list[tuple[str, list[tuple[int, ...]]]]) -> SyncPlan:
    """Rings run one after another in the listed order; each runs all its
    scatter steps, then all its gather steps, every member sending once per
    step."""
    width = max(len(prefix) for prefix, _ in phases) + len("scatter")
    dtype = np.dtype([("phase", f"U{width}"), ("step", np.int64),
                      ("src", np.int64), ("dst", np.int64),
                      ("params", np.int64)])
    blocks = [np.zeros(0, dtype)]
    steps: dict[str, int] = {}
    for prefix, rings in phases:
        for ring in rings:
            n = len(ring)
            if n == 1:
                continue
            ids = np.asarray(ring)
            for half in ("scatter", "gather"):
                block = np.empty((n - 1) * n, dtype)
                block["phase"] = prefix + half
                block["step"] = np.repeat(np.arange(n - 1), n)
                block["src"] = np.tile(ids, n - 1)
                block["dst"] = np.tile(np.roll(ids, -1), n - 1)
                block["params"] = _chunk_size(m, n)
                blocks.append(block)
                steps[prefix + half] = steps.get(prefix + half, 0) + n - 1
    return SyncPlan(m=m, phases=tuple(tuple(rings) for _, rings in phases),
                    log=CommLog(transfers=np.concatenate(blocks), steps=steps))


def plan_ring(ids: Sequence[int], m: int) -> SyncPlan:
    """One ring over ``ids`` for a model of ``m`` parameters."""
    return _plan(m, [("", [tuple(ids)])])


def _orbit_representatives(graph: IslGraph) -> list[int]:
    incident: set[int] = set()
    for (a, b), kind in zip(graph.edges, graph.kinds):
        if kind == "inter":
            incident.add(a)
            incident.add(b)
    reps = []
    for orbit in graph.orbits:
        members = [s for s in orbit if s in incident]
        if not members:
            raise TopologyError(
                f"orbit {list(orbit)} has no inter-orbit edge; cannot synchronize")
        reps.append(min(members))
    return reps


def plan_multi_orbit(graph: IslGraph, m: int) -> SyncPlan:
    """The three phases over ``graph``'s orbits; one orbit is a plain ring.

    Phase 2's ring holds one representative per orbit, ordered by orbit
    index: the lowest-id satellite on an inter-orbit edge.
    """
    if len(graph.orbits) == 1:
        return plan_ring(graph.orbits[0], m)
    orbits = [tuple(orbit) for orbit in graph.orbits]
    reps = tuple(_orbit_representatives(graph))
    return _plan(m, [("phase1-", orbits), ("phase2-", [reps]),
                     ("phase3-", orbits)])


def _ring_reduce_sum(vectors: np.ndarray) -> np.ndarray:
    """Chunked ring allreduce over a stack of equal-size rings.

    ``vectors`` is ``(rings, n, M)``: member k of each ring holds
    ``vectors[:, k]`` and sends to member k+1 mod n. Returns every member's
    final vector, its ring's element-wise sum, as ``(rings, n, M)``; within
    a ring all are bit-identical. The caller is responsible for any
    weighting (fold it into the inputs). All sends of a step land
    simultaneously: the step's payloads are read before any receive is
    applied.
    """
    n, m = vectors.shape[1:]
    if n == 1:
        return vectors.copy()
    chunks = chunk_model(vectors, n)          # (rings, n, n, size)
    ks = np.arange(n)
    dst = (ks + 1) % n
    for step in range(n - 1):
        idx = (ks - step) % n
        chunks[:, dst, idx] += chunks[:, ks, idx]
    for step in range(n - 1):
        idx = (ks + 1 - step) % n
        chunks[:, dst, idx] = chunks[:, ks, idx]
    return stitch_chunks(chunks, m)


def _reduce_rings(rings: list[np.ndarray]) -> list[np.ndarray]:
    """``_ring_reduce_sum`` of rings given as ``(n_r, M)`` arrays, one
    stacked call per ring size; results in input order."""
    out: list[np.ndarray] = [np.empty(0)] * len(rings)
    by_size: dict[int, list[int]] = {}
    for r, vectors in enumerate(rings):
        by_size.setdefault(len(vectors), []).append(r)
    for members in by_size.values():
        summed = _ring_reduce_sum(np.stack([rings[r] for r in members]))
        for r, states in zip(members, summed):
            out[r] = states
    return out


def _check_models(models: list[ModelVector]) -> int:
    if not models:
        raise InputError("need at least one participant")
    m = models[0].params.shape[0]
    for mv in models:
        if mv.params.shape != (m,):
            raise InputError(
                f"model length mismatch: {mv.params.shape} vs ({m},)")
    total = sum(mv.weight for mv in models)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InputError(f"participant weights must sum to 1, got {total!r}")
    return m


def _check_plan(plan: SyncPlan, m: int, ring_sizes: list[int]) -> None:
    planned = [len(ring) for ring in plan.phases[0]]
    if plan.m != m or planned != ring_sizes:
        raise InputError(f"sync plan for rings {planned} of {plan.m} params "
                         f"does not fit rings {ring_sizes} of {m}")


def _scaled(models: list[ModelVector]) -> np.ndarray:
    return np.stack([mv.params * mv.weight for mv in models])


def ring_allreduce_states(models: list[ModelVector], plan: SyncPlan | None = None,
                          ) -> tuple[list[np.ndarray], CommLog]:
    """Weighted-average synchronization over one ring.

    Each participant's vector is pre-scaled by its weight, so the chunked
    sum-reduce yields the weighted average in a single pass. Returns every
    participant's final vector; all are bit-identical. ``plan`` is
    ``plan_ring(ids, M)``; without it the ring is ``0..n-1``.
    """
    m = _check_models(models)
    if plan is None:
        plan = plan_ring(range(len(models)), m)
    _check_plan(plan, m, [len(models)])
    states = _ring_reduce_sum(_scaled(models)[None])[0]
    return list(states), plan.log


def multi_orbit_sync_states(orbit_models: list[list[ModelVector]], graph: IslGraph,
                            plan: SyncPlan | None = None,
                            ) -> tuple[dict[int, np.ndarray], CommLog]:
    """Three-phase synchronization; returns each satellite's final vector.

    Phase 1 reduces within every orbit (weights pre-scaled globally), phase 2
    rings over one representative per orbit, and phase 3 redistributes
    within each orbit as a ring allreduce in which non-representatives
    contribute zero vectors, i.e. they only ever replace received chunks.
    ``plan`` is ``plan_multi_orbit(graph, M)``, built here when not given.
    """
    if len(orbit_models) != len(graph.orbits):
        raise InputError("one model list per orbit is required")
    m = _check_models([mv for orbit in orbit_models for mv in orbit])
    for j, orbit in enumerate(orbit_models):
        if not orbit:
            raise InputError(f"orbit {j} has no participants")
        if len(orbit) != len(graph.orbits[j]):
            raise InputError(f"orbit {j}: {len(orbit)} models for "
                             f"{len(graph.orbits[j])} satellites")
    if plan is None:
        plan = plan_multi_orbit(graph, m)

    if len(orbit_models) == 1:
        states, log = ring_allreduce_states(orbit_models[0], plan)
        return dict(zip(graph.orbits[0], states)), log

    _check_plan(plan, m, [len(orbit) for orbit in orbit_models])
    orbits, (reps,), _ = plan.phases
    # phase 1: per-orbit partial sums of globally weighted vectors
    orbit_sums = [states[0] for states
                  in _reduce_rings([_scaled(orbit) for orbit in orbit_models])]
    # phase 2: ring over representatives, one per orbit
    global_vec = _ring_reduce_sum(np.stack(orbit_sums)[None])[0, 0]
    # phase 3: intra-orbit distribution; non-representatives hold zeros so the
    # reduce degenerates to chunk replacement
    held = []
    for orbit, rep in zip(orbits, reps):
        vectors = np.zeros((len(orbit), m))
        vectors[orbit.index(rep)] = global_vec
        held.append(vectors)
    result = {s: vec for orbit, states in zip(orbits, _reduce_rings(held))
              for s, vec in zip(orbit, states)}
    return result, plan.log


def traffic_per_node(log: CommLog, m: int, n: int) -> int:
    """Measured parameters sent per satellite; uniform across the ring."""
    if n == 1 or not log.params_sent:
        return 0
    values = set(log.params_sent.values())
    if len(values) != 1:
        raise InputError(f"non-uniform per-node traffic: {sorted(values)}")
    return values.pop()


def ring_traffic_per_node(n: int, m: int) -> int:
    """Closed-form chunked ring traffic per node: 2(n-1)*ceil(m/n)."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0
    return 2 * (n - 1) * math.ceil(m / n)


def ring_traffic_analytic(n: int, m: float) -> float:
    """Idealized (unpadded) ring traffic per node: 2(n-1)*m/n."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    return 2.0 * (n - 1) * m / n


def gossip_traffic(n: int, m: float) -> float:
    """Per-node gossip traffic n*log2(n)*m; the protocol is costed, not simulated."""
    if n < 2:
        raise InputError(f"gossip needs n >= 2, got {n}")
    return n * math.log2(n) * m
