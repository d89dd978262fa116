"""Inter-satellite model synchronization by chunked Ring Allreduce.

In a ring of n members each model is cut into n chunks. Scatter-reduce
carries chunk c once round the ring, starting at member c, every member
adding its own chunk c; allgather then hands every member every reduced
chunk. So a ring leaves each member the element-wise sum, and adding the
members' chunks in that order gives the ring's bits without replaying its
steps. The multi-orbit variant runs three phases: intra-orbit reduce,
inter-orbit reduce over one representative per orbit, and intra-orbit
distribution of the resulting global sum.

A synchronization's rings and transfers depend only on the topology and the
model size, so they are planned once (``plan_ring``, ``plan_multi_orbit``)
and the plan serves every round. The plan holds the rings; its transfers
are generated from them, ring step by ring step, where they are read.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, TopologyError
from .topology import IslGraph

WEIGHT_TOL = 1e-9


def _chunk_size(m: int, n: int) -> int:
    return max(1, math.ceil(m / n))


@dataclass(frozen=True, eq=False)
class SyncPlan:
    """One synchronization's rings, phase by phase.

    ``phases`` holds each phase's rings in execution order; a ring is its
    members' ids in ring order (member k sends to member k+1 mod n).
    ``names`` holds each phase's name, the prefix of its transfers' phase
    (``""`` for a plain ring). Rings run one after another in the listed
    order; each runs all its scatter steps, then all its gather steps,
    every member sending once per step.
    """

    m: int
    phases: tuple[tuple[tuple[int, ...], ...], ...]
    names: tuple[str, ...]

    @classmethod
    def of(cls, m: int, phases: Sequence[tuple[str, Sequence[Sequence[int]]]],
           ) -> "SyncPlan":
        """A plan from ``(name, rings)`` per phase, in execution order."""
        return cls(m=m, names=tuple(name for name, _ in phases),
                   phases=tuple(tuple(map(tuple, rings)) for _, rings in phases))

    def steps(self) -> Iterator[tuple[str, int, tuple[int, ...],
                                      tuple[int, ...], int]]:
        """The transfers in execution order, one ring step at a time, as
        columns ``(phase, step, src, dst, params)``: in ring step ``step``
        of ``phase``, each satellite ``src[k]`` sends a chunk of ``params``
        parameters to ``dst[k]``. ``src`` is the ring and ``dst`` its
        members' successors; one-member rings send nothing."""
        for name, rings in zip(self.names, self.phases):
            for ring in rings:
                dst = ring[1:] + ring[:1]
                params = _chunk_size(self.m, len(ring))
                for half in ("scatter", "gather"):
                    for step in range(len(ring) - 1):
                        yield name + half, step, ring, dst, params

    @cached_property
    def transfers(self) -> np.ndarray:
        """``steps`` as one record array, one transfer per row, with fields
        ``phase``, ``step``, ``src``, ``dst`` and ``params``."""
        width = max(map(len, self.names)) + len("scatter")
        return np.array(
            [(phase, step, s, d, params)
             for phase, step, src, dst, params in self.steps()
             for s, d in zip(src, dst)],
            dtype=[("phase", f"U{width}"), ("step", np.int64),
                   ("src", np.int64), ("dst", np.int64),
                   ("params", np.int64)])

    @cached_property
    def params_sent(self) -> dict[int, int]:
        """Parameters each satellite sends, summed over the rings it sends
        in, by satellite id; satellites that send nothing are left out."""
        sent: dict[int, int] = {}
        for rings in self.phases:
            for ring in rings:
                for s in ring:
                    sent[s] = (sent.get(s, 0)
                               + ring_traffic_per_node(len(ring), self.m))
        return {s: v for s, v in sorted(sent.items()) if v}


def plan_ring(ids: Sequence[int], m: int) -> SyncPlan:
    """One ring over ``ids`` for a model of ``m`` parameters."""
    return SyncPlan.of(m, [("", [ids])])


def _orbit_representatives(graph: IslGraph) -> list[int]:
    orbit_of = np.full(len(graph.adjacency), -1)
    for k, orbit in enumerate(graph.orbits):
        orbit_of[list(orbit)] = k
    incident = (graph.adjacency & (orbit_of[:, None] != orbit_of)).any(axis=1)
    reps = []
    for orbit in graph.orbits:
        members = [s for s in orbit if incident[s]]
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
    reps = _orbit_representatives(graph)
    return SyncPlan.of(m, [("phase1-", graph.orbits), ("phase2-", [reps]),
                           ("phase3-", graph.orbits)])


def _ring_sums(vectors: np.ndarray) -> np.ndarray:
    """One ring's element-wise sum, as its chunked ring allreduce leaves it.

    ``vectors`` is ``(n, M)``: member k of the ring holds ``vectors[k]``.
    Chunk c (entry j is in chunk j // ceil(M/n)) starts at member c and
    each later member in ring order adds its own chunk c, so n - 1 adds in
    that order give the ring's bits. The caller is responsible for any
    weighting (fold it into the inputs). Returns ``(M,)``.
    """
    n, m = vectors.shape
    entries = np.arange(m)
    chunk = entries // _chunk_size(m, n)
    acc = vectors[chunk, entries]
    for k in range(1, n):
        acc = acc + vectors[(chunk + k) % n, entries]
    return acc


def _weighted(params: np.ndarray, weights: np.ndarray,
              plan: SyncPlan) -> np.ndarray:
    """``weights[k] * params[k]`` per satellite, once the models, weights
    and plan are checked against each other."""
    params = np.asarray(params, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if params.ndim != 2 or not len(params) or weights.shape != params.shape[:1]:
        raise InputError(f"need (N, M) models with N >= 1 and N weights, got "
                         f"{params.shape} and {weights.shape}")
    if not np.all(np.isfinite(params)):
        raise InputError("model parameters must be finite")
    if (weights < 0).any():
        raise InputError(f"model weights must be >= 0, got {weights.min()}")
    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InputError(f"participant weights must sum to 1, got {total!r}")
    planned = sorted(s for ring in plan.phases[0] for s in ring)
    if plan.m != params.shape[1] or planned != list(range(len(params))):
        raise InputError(f"sync plan over satellites {planned} of {plan.m} "
                         f"params does not fit models {params.shape}")
    return params * weights[:, None]


def ring_allreduce_states(params: np.ndarray, weights: np.ndarray,
                          plan: SyncPlan) -> tuple[np.ndarray, SyncPlan]:
    """``multi_orbit_sync_states`` over a plan of exactly one ring, such as
    ``plan_ring`` over ids 0..N-1; any other plan is an ``InputError``."""
    if len(plan.phases) != 1 or len(plan.phases[0]) != 1:
        raise InputError(f"ring_allreduce_states runs one ring, the plan has "
                         f"{[len(rings) for rings in plan.phases]} per phase")
    return multi_orbit_sync_states(params, weights, plan)


def multi_orbit_sync_states(params: np.ndarray, weights: np.ndarray,
                            plan: SyncPlan) -> tuple[np.ndarray, SyncPlan]:
    """Weighted-average synchronization over ``plan``: one ring, or the
    three phases of ``plan_multi_orbit``.

    Row k of ``params`` ``(N, M)`` is satellite k's model and ``weights[k]``
    its share of the data. Each model is pre-scaled by its weight, so the
    chunked sum-reduce yields the weighted average in a single pass. Phase 1
    sums every orbit's ring; phase 2 rings over one representative per
    orbit, listed in orbit order, so it sums the orbits' sums in that order.
    Phase 3 only carries that sum round each orbit, so every satellite gets
    it as is; a ring in which the other members add zero vectors could
    differ from it only in the sign of an exact zero. Returns every
    satellite's final vector as ``(N, M)``, all rows bit-identical, and the
    plan, whose transfers the synchronization made.
    """
    scaled = _weighted(params, weights, plan)
    sums = np.array([_ring_sums(scaled[list(ring)]) for ring in plan.phases[0]])
    if len(plan.phases) == 3:
        sums = _ring_sums(sums)
    return np.tile(sums, (len(scaled), 1)), plan


def ring_traffic_per_node(n: int, m: int) -> int:
    """Closed-form chunked ring traffic per node: 2(n-1) chunks of the
    plan's size."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return 2 * (n - 1) * _chunk_size(m, n)
