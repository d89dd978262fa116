"""Communication-bounded satellite partitions and the air nodes they own.

Single-orbit constellations are cut into contiguous arcs of n_geo slots.
Multi-orbit ISL graphs are partitioned greedily: each iteration seeds a
sub-graph of the residual graph from a randomly picked satellite and grows
it breadth-first. A candidate joins only if its distance to every current
member stays below n_geo both on the residual graph and within the induced
sub-graph, so every emitted part certifies induced-sub-graph diameter <
n_geo. Residual distances are searched from the members only, one search
of at most n_geo - 1 hops as each joins. The CDO baseline uses one
whole-constellation part. Air nodes are attached to parts afterwards, by
with_air_parts, from the access array.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .topology import IslGraph, NetworkTopology


@dataclass(frozen=True)
class PartitionSet:
    parts: tuple[tuple[int, ...], ...]        # satellite ids per part
    air_parts: tuple[tuple[int, ...], ...]    # air node ids, parallel to parts

    @cached_property
    def part_of(self) -> np.ndarray:
        """Part index of each satellite, ``(N_S,)`` indexed by satellite id."""
        out = np.full(sum(map(len, self.parts)), -1)
        for idx, part in enumerate(self.parts):
            out[list(part)] = idx
        return out


def whole_partition(topology: NetworkTopology) -> PartitionSet:
    """One part holding every satellite and air node (n_geo = N_S)."""
    return PartitionSet(parts=(tuple(range(topology.n_satellites)),),
                        air_parts=(tuple(range(len(topology.air_nodes))),))


def arc_partition(topology: NetworkTopology, n_geo: int) -> PartitionSet:
    """Cut a single orbit into ceil(N_S/n_geo) arcs of consecutive slots.

    Arcs start at slot 0; the last arc is short when N_S mod n_geo != 0. Air
    parts are left empty; attach them with with_air_parts.
    """
    n_sats = topology.n_satellites
    order = sorted(topology.satellites, key=lambda s: s.slot_index)
    ids = [s.id for s in order]
    parts = tuple(
        tuple(ids[i:i + n_geo]) for i in range(0, n_sats, n_geo)
    )
    return PartitionSet(parts=parts, air_parts=())


def _induced_distance_ok(candidate: int, members: set[int],
                         neighbors: list[list[int]], n_geo: int) -> bool:
    """BFS from candidate inside members|{candidate}; all members < n_geo away."""
    allowed = members | {candidate}
    dist = {candidate: 0}
    queue = deque([candidate])
    while queue:
        u = queue.popleft()
        if dist[u] + 1 >= n_geo:
            continue
        for v in neighbors[u]:
            if v in allowed and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return all(m in dist for m in members)


def graph_partition(graph: IslGraph, n_geo: int,
                    rng: np.random.Generator) -> PartitionSet:
    """Greedy diameter-bounded partition of the ISL graph.

    Deterministic for a fixed rng seed. Air parts are left empty; attach them
    with with_air_parts once the access array exists.
    """
    n = len(graph.nodes)
    adj = graph.adjacency()
    neighbors = [np.flatnonzero(row).tolist() for row in adj]
    full = sparse.csr_matrix(adj, dtype=float)
    edge_src = np.repeat(np.arange(n), np.diff(full.indptr))
    alive = np.ones(n, dtype=bool)
    parts: list[tuple[int, ...]] = []
    while alive.any():
        # residual graph for this iteration: the edges between live nodes
        # (csgraph counts stored zeros as edges, so they are dropped)
        residual = full.copy()
        residual.data[~(alive[edge_src] & alive[residual.indices])] = 0.0
        residual.eliminate_zeros()
        candidates = np.flatnonzero(alive)
        seed = int(candidates[rng.integers(len(candidates))])
        members: list[int] = [seed]
        member_set = {seed}
        # each node's residual hops from its farthest member, inf beyond
        # n_geo - 1 hops; removed nodes are unreachable, so never pass
        hops = partial(csgraph.dijkstra, residual, unweighted=True,
                       limit=n_geo - 1)
        farthest = hops(indices=seed)
        i = 0
        while i < len(members):
            for v in neighbors[members[i]]:
                if v in member_set or farthest[v] >= n_geo:
                    continue
                if not _induced_distance_ok(v, member_set, neighbors, n_geo):
                    continue
                members.append(v)
                member_set.add(v)
                np.maximum(farthest, hops(indices=v), out=farthest)
            i += 1
        parts.append(tuple(sorted(member_set)))
        alive[list(member_set)] = False
    return PartitionSet(parts=tuple(parts), air_parts=())


def with_air_parts(pset: PartitionSet, access: np.ndarray) -> PartitionSet:
    """The partition with each air node in its access satellite's part."""
    part_of_air = pset.part_of[access]
    return replace(pset, air_parts=tuple(
        tuple(np.flatnonzero(part_of_air == idx).tolist())
        for idx in range(len(pset.parts))))
