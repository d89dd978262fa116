"""Communication-bounded satellite partitions and the air nodes they own.

Single-orbit constellations are cut into contiguous arcs of n_geo slots.
Multi-orbit ISL graphs are partitioned greedily: each iteration seeds a
sub-graph of the residual graph from a randomly picked satellite and grows
it breadth-first. A candidate joins only if its distance to every current
member stays below n_geo both on the residual graph and within the induced
sub-graph, so every emitted part certifies induced-sub-graph diameter <
n_geo. Residual distances are searched from the members only, one search
of at most n_geo - 1 hops as each joins. The CDO baseline uses one arc of
every satellite. Air nodes are attached to parts afterwards, by
with_air_parts, from the access array.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

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


def arc_partition(topology: NetworkTopology, n_geo: int) -> PartitionSet:
    """Cut a single orbit into ceil(N_S/n_geo) arcs of consecutive slots.

    Arcs start at slot 0, which is satellite 0; the last arc is short when
    N_S mod n_geo != 0. With n_geo = N_S the one arc holds every satellite
    of any constellation, which is the CDO baseline's part. Air parts are
    left empty; attach them with with_air_parts.
    """
    n_sats = topology.n_satellites
    parts = tuple(tuple(range(i, min(i + n_geo, n_sats)))
                  for i in range(0, n_sats, n_geo))
    return PartitionSet(parts=parts, air_parts=())


def _ball(source: int, neighbors: list[list[int]], allowed,
          radius: int) -> set[int]:
    """Nodes within ``radius`` hops of ``source`` by breadth-first search
    through the ``allowed`` nodes only."""
    seen = {source}
    frontier = [source]
    for _ in range(radius):
        reached = []
        for u in frontier:
            for v in neighbors[u]:
                if v in allowed and v not in seen:
                    seen.add(v)
                    reached.append(v)
        frontier = reached
    return seen


def graph_partition(graph: IslGraph, n_geo: int,
                    rng: np.random.Generator) -> PartitionSet:
    """Greedy diameter-bounded partition of the ISL graph.

    Deterministic for a fixed rng seed. Air parts are left empty; attach them
    with with_air_parts once the access array exists.
    """
    neighbors = [np.flatnonzero(row).tolist() for row in graph.adjacency]
    live = set(range(len(neighbors)))
    parts: list[tuple[int, ...]] = []
    while live:
        candidates = sorted(live)
        seed = candidates[rng.integers(len(candidates))]
        members: list[int] = [seed]
        member_set = {seed}
        # the live nodes within n_geo - 1 residual hops of every member
        near = _ball(seed, neighbors, live, n_geo - 1)
        i = 0
        while i < len(members):
            for v in neighbors[members[i]]:
                if v in member_set or v not in near:
                    continue
                induced = _ball(v, neighbors, member_set | {v}, n_geo - 1)
                if not member_set <= induced:
                    continue
                members.append(v)
                member_set.add(v)
                near &= _ball(v, neighbors, live, n_geo - 1)
            i += 1
        parts.append(tuple(sorted(member_set)))
        live -= member_set
    return PartitionSet(parts=tuple(parts), air_parts=())


def with_air_parts(pset: PartitionSet, access: np.ndarray) -> PartitionSet:
    """The partition with each air node in its access satellite's part."""
    part_of_air = pset.part_of[access]
    return replace(pset, air_parts=tuple(
        tuple(np.flatnonzero(part_of_air == idx).tolist())
        for idx in range(len(pset.parts))))
