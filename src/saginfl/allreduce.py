"""Inter-satellite model synchronization by chunked Ring Allreduce.

The collective is simulated as a deterministic step-synchronous loop: in each
step every participant sends one chunk to its ring successor, and all sends
of a step land simultaneously. Scatter-reduce accumulates, allgather
overwrites. The multi-orbit variant runs three phases: intra-orbit reduce,
inter-orbit reduce over one representative per orbit, and intra-orbit
distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class CommLog:
    """Exact communication accounting for one synchronization."""

    params_sent: dict[int, int] = field(default_factory=dict)
    params_received: dict[int, int] = field(default_factory=dict)
    steps: dict[str, int] = field(default_factory=dict)
    transfers: list[tuple[str, int, int, int, int]] = field(default_factory=list)

    def note_ring_step(self, phase: str, step: int, ids: list[int],
                       chunk_params: int) -> None:
        """One synchronous ring step: every participant sends one chunk."""
        n = len(ids)
        for k in range(n):
            src, dst = ids[k], ids[(k + 1) % n]
            self.params_sent[src] = self.params_sent.get(src, 0) + chunk_params
            self.params_received[dst] = (self.params_received.get(dst, 0)
                                         + chunk_params)
            self.transfers.append((phase, step, src, dst, chunk_params))
        self.steps[phase] = self.steps.get(phase, 0) + 1

    def total_sent(self) -> int:
        return sum(self.params_sent.values())

    def total_received(self) -> int:
        return sum(self.params_received.values())


def chunk_model(params: np.ndarray, n: int) -> np.ndarray:
    """Split into n chunks (rows) of ceil(M/n) entries, zero-padding the last."""
    if n < 1:
        raise InputError(f"chunk count must be >= 1, got {n}")
    params = np.asarray(params, dtype=float)
    m = params.shape[0]
    size = max(1, math.ceil(m / n))
    padded = np.zeros(size * n, dtype=float)
    padded[:m] = params
    return padded.reshape(n, size)


def stitch_chunks(chunks: np.ndarray, m: int) -> np.ndarray:
    """Inverse of chunk_model: concatenate and drop padding."""
    return np.concatenate(chunks)[:m]


def _ring_reduce_sum(vectors: list[np.ndarray], ids: list[int], log: CommLog,
                     phase_prefix: str = "") -> list[np.ndarray]:
    """Chunked ring allreduce computing the element-wise sum of ``vectors``.

    Returns one array per participant; all entries are bit-identical. The
    caller is responsible for any weighting (fold it into the inputs). All
    sends of a step land simultaneously: payloads are snapshotted before any
    receive is applied.
    """
    n = len(vectors)
    m = vectors[0].shape[0]
    if n == 1:
        return [vectors[0].copy()]
    chunks = np.stack([chunk_model(v, n) for v in vectors])   # (n, n, size)
    size = chunks.shape[2]

    ks = np.arange(n)
    dst = (ks + 1) % n
    scatter = f"{phase_prefix}scatter"
    gather = f"{phase_prefix}gather"
    for step in range(n - 1):
        idx = (ks - step) % n
        payload = chunks[ks, idx, :].copy()
        chunks[dst, idx, :] += payload
        log.note_ring_step(scatter, step, ids, size)
    for step in range(n - 1):
        idx = (ks + 1 - step) % n
        payload = chunks[ks, idx, :].copy()
        chunks[dst, idx, :] = payload
        log.note_ring_step(gather, step, ids, size)
    return [stitch_chunks(chunks[k], m) for k in range(n)]


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


def ring_allreduce_states(models: list[ModelVector], ids: list[int] | None = None,
                          ) -> tuple[list[np.ndarray], CommLog]:
    """Weighted-average synchronization over one ring.

    Each participant's vector is pre-scaled by its weight, so the chunked
    sum-reduce yields the weighted average in a single pass. Returns every
    participant's final vector; all are bit-identical.
    """
    _check_models(models)
    ids = list(range(len(models))) if ids is None else list(ids)
    log = CommLog()
    states = _ring_reduce_sum([mv.params * mv.weight for mv in models], ids, log)
    return states, log


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


def multi_orbit_sync_states(orbit_models: list[list[ModelVector]], graph: IslGraph,
                            ) -> tuple[dict[int, np.ndarray], CommLog]:
    """Three-phase synchronization; returns each satellite's final vector.

    Phase 1 reduces within every orbit (weights pre-scaled globally), phase 2
    rings over one representative per orbit (the lowest-id satellite on an
    inter-orbit edge, ordered by orbit index), and phase 3 redistributes
    within each orbit as a ring allreduce in which non-representatives
    contribute zero vectors, i.e. they only ever replace received chunks.
    """
    if len(orbit_models) != len(graph.orbits):
        raise InputError("one model list per orbit is required")
    _check_models([mv for orbit in orbit_models for mv in orbit])
    for j, orbit in enumerate(orbit_models):
        if not orbit:
            raise InputError(f"orbit {j} has no participants")
        if len(orbit) != len(graph.orbits[j]):
            raise InputError(f"orbit {j}: {len(orbit)} models for "
                             f"{len(graph.orbits[j])} satellites")

    if len(orbit_models) == 1:
        ids = list(graph.orbits[0])
        states, log = ring_allreduce_states(orbit_models[0], ids)
        return dict(zip(ids, states)), log

    log = CommLog()
    # phase 1: per-orbit partial sums of globally weighted vectors
    orbit_sums: list[np.ndarray] = []
    for j, orbit in enumerate(orbit_models):
        ids = list(graph.orbits[j])
        scaled = [mv.params * mv.weight for mv in orbit]
        states = _ring_reduce_sum(scaled, ids, log, phase_prefix="phase1-")
        orbit_sums.append(states[0])

    # phase 2: ring over representatives, one per orbit
    reps = _orbit_representatives(graph)
    global_vec = _ring_reduce_sum(orbit_sums, reps, log,
                                  phase_prefix="phase2-")[0]

    # phase 3: intra-orbit distribution; non-representatives hold zeros so the
    # reduce degenerates to chunk replacement
    result: dict[int, np.ndarray] = {}
    for j, orbit in enumerate(graph.orbits):
        ids = list(orbit)
        rep = reps[j]
        vectors = [global_vec.copy() if s == rep else np.zeros_like(global_vec)
                   for s in ids]
        states = _ring_reduce_sum(vectors, ids, log, phase_prefix="phase3-")
        for s, vec in zip(ids, states):
            result[s] = vec
    return result, log


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
