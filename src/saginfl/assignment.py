"""Air-node-to-satellite assignment policies.

CNASA works per partition: pool device class counts up to air nodes,
k-means the air nodes' class mixes into homogeneous groups, round-robin one
member of every group into each cluster, then match clusters to satellites
by minimum total model delivery time. GDO keeps every air node on its
access satellite; CDO is CNASA run on one whole-constellation part (one
arc of every satellite).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, TopologyError
from .partition import PartitionSet
from .topology import NetworkTopology

# lexicographic tie canonicalization solves O(n^2) sub-problems; beyond this
# size the solver's optimum is returned as-is
_CANONICAL_MAX_N = 64
# Lloyd's iteration stops after this many passes, or once no center moves
# by _KMEANS_TOL or more
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class AssignmentMap:
    """Total map air node -> satellite, with relay hop counts; ``f`` and
    ``hops`` are ``(N_A,)`` arrays indexed by air id."""

    f: np.ndarray
    hops: np.ndarray
    max_access_cell: int   # busiest access cell, for uplink bandwidth sharing
    max_assigned: int      # busiest aggregation satellite
    warnings: tuple[str, ...] = ()

    @classmethod
    def build(cls, access: np.ndarray, f: np.ndarray, hop_matrix: np.ndarray,
              warnings: tuple[str, ...] = ()) -> "AssignmentMap":
        """The map from each air node's access and aggregating satellites;
        an air node left unassigned (``f < 0``) raises, naming it."""
        unassigned = np.flatnonzero(f < 0)
        if unassigned.size:
            raise TopologyError(f"air nodes {unassigned.tolist()} are not "
                                f"assigned to any satellite")
        return cls(f=f, hops=hop_matrix[access, f],
                   max_access_cell=int(np.bincount(access).max()),
                   max_assigned=int(np.bincount(f).max()), warnings=warnings)

    def relay_hops(self) -> int:
        return int(self.hops.max(initial=0))


def air_class_mix(class_counts: np.ndarray, air_of_device: np.ndarray,
                  n_air: int) -> np.ndarray:
    """Class distribution of each air node's pooled device samples,
    ``(N_A, C)``, from per-device class counts ``(D, C)``."""
    counts = np.zeros((n_air, class_counts.shape[1]))
    np.add.at(counts, air_of_device, class_counts)
    return counts / counts.sum(axis=1, keepdims=True)


def _seed_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """First center drawn from rng, the rest greedy farthest-point."""
    n = points.shape[0]
    centers = [int(rng.integers(n))]
    d2 = np.sum((points - points[centers[0]]) ** 2, axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(d2))   # argmax takes the lowest index on ties
        centers.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[centers].copy()


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's iteration on the rows of ``points``; returns group labels."""
    n = points.shape[0]
    centers = _seed_centers(points, k, rng)
    labels = np.zeros(n, dtype=int)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)   # lowest center index on ties
        # repair empty groups by stealing the point farthest from its center,
        # never re-stealing within one pass
        stolen: set[int] = set()
        for c in range(k):
            if not (labels == c).any():
                own = d2[np.arange(n), labels].copy()
                own[list(stolen)] = -1.0
                steal = int(np.argmax(own))
                stolen.add(steal)
                labels[steal] = c
                centers[c] = points[steal]
        moved = 0.0
        for c in range(k):
            member_mask = labels == c
            if not member_mask.any():
                continue
            new_center = points[member_mask].mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new_center - centers[c])))
            centers[c] = new_center
        if moved < _KMEANS_TOL:
            break
    return labels


def build_clusters(groups: list[list[int]], n_geo: int,
                   rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Round-robin draw: every cluster takes one member of every group.

    Draws are uniform without replacement. An exhausted group is backfilled
    from the largest remaining one (lowest index on ties). Leftovers are dealt
    one each to the smallest clusters so sizes stay within one of each other.
    """
    pools = [list(g) for g in groups]
    clusters: list[list[int]] = [[] for _ in range(n_geo)]

    def draw(pool: list[int]) -> int:
        return pool.pop(int(rng.integers(len(pool))))

    for cluster in clusters:
        for pool in pools:
            if pool:
                cluster.append(draw(pool))
            else:
                fallback = max(pools, key=len)
                if fallback:
                    cluster.append(draw(fallback))
    while any(pools):
        target = min(clusters, key=len)
        target.append(draw(max(pools, key=len)))
    return tuple(tuple(c) for c in clusters)


def _lsap(cost: np.ndarray) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square matrix.

    A port of the shortest augmenting path solver scipy runs (Crouse 2016,
    ``rectangular_lsap.cpp``). It keeps scipy's loop order, its reverse-filled
    ``remaining`` list and its tie rule (on equal path cost, prefer a column
    still unassigned), so it returns scipy's columns.
    """
    n = len(cost)
    rows = cost.tolist()
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        visited_rows: list[int] = []
        visited_cols: list[int] = []
        remaining = list(range(n - 1, -1, -1))
        min_val = 0.0
        i, sink = cur, -1
        while sink < 0:
            visited_rows.append(i)
            row, u_i = rows[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest
                                            and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _matching_total(cost: np.ndarray) -> float:
    return float(cost[np.arange(len(cost)), _lsap(cost)].sum())


def min_cost_matching(cost: np.ndarray) -> tuple[int, ...]:
    """Optimal square assignment; lexicographically smallest among ties.

    Solved by shortest augmenting paths (``_lsap``), then canonicalized row
    by row so equal-cost optima resolve deterministically.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise InputError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise InputError("cost matrix entries must be finite")
    n = cost.shape[0]
    if n > _CANONICAL_MAX_N:
        return tuple(_lsap(cost))
    total = _matching_total(cost)
    tol = 1e-12 * max(1.0, abs(total))
    perm: list[int] = []
    free = list(range(n))
    remaining = total
    for i in range(n):
        for c in free:
            rest_rows = list(range(i + 1, n))
            rest_cols = [x for x in free if x != c]
            sub = _matching_total(cost[np.ix_(rest_rows, rest_cols)]) if rest_rows else 0.0
            if cost[i, c] + sub <= remaining + tol:
                perm.append(c)
                free.remove(c)
                remaining = sub
                break
    return tuple(perm)


def gdo(access: np.ndarray, hop_matrix: np.ndarray) -> AssignmentMap:
    """Geographic-distance-only baseline: every air node keeps its access satellite."""
    return AssignmentMap.build(access, access, hop_matrix)


def cnasa(topology: NetworkTopology, access: np.ndarray,
          partition_set: PartitionSet, class_counts: np.ndarray,
          rng: np.random.Generator, timecost_model) -> AssignmentMap:
    """Partition-wise cluster-and-match assignment.

    ``class_counts`` ``(D, C)`` holds each device's samples per class.
    ``timecost_model`` supplies delivery_time(air_id, target_sat) built on the
    hop matrix; see timecost.DeliveryTimeModel. Each partition draws from its
    own child rng, so per-part work is independent of processing order.
    """
    f = np.full(len(access), -1)
    mix = air_class_mix(class_counts, topology.air_of_device, topology.n_air)
    warnings: list[str] = []
    part_rngs = rng.spawn(len(partition_set.parts))
    for part_idx, (sats, airs) in enumerate(
            zip(partition_set.parts, partition_set.air_parts)):
        part_rng = part_rngs[part_idx]
        sats = sorted(sats)
        airs = sorted(airs)
        if not airs:
            warnings.append(f"partition {part_idx} has no air nodes; skipped")
            continue
        n_clusters = len(sats)
        k = max(1, len(airs) // n_clusters)
        labels = kmeans(mix[airs], k, part_rng)
        groups = [[airs[i] for i in range(len(airs)) if labels[i] == g]
                  for g in range(k)]
        clusters = build_clusters(groups, n_clusters, part_rng)
        cost = np.zeros((n_clusters, n_clusters))
        for ci, cluster in enumerate(clusters):
            for si, sat in enumerate(sats):
                cost[ci, si] = sum(
                    timecost_model.delivery_time(a, sat) for a in cluster)
        perm = min_cost_matching(cost)
        for ci, cluster in enumerate(clusters):
            f[list(cluster)] = sats[perm[ci]]
    return AssignmentMap.build(access, f, timecost_model.hops, tuple(warnings))
