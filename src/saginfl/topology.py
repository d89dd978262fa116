"""Constellation topologies: satellites, air nodes, ground devices, and the ISL graph.

Geometry is a static snapshot on a spherical Earth. Satellites sit on circular
orbits; air nodes hover at fixed geographic positions; every ground device is
owned by exactly one air node. The inter-satellite link (ISL) graph has one
cycle of intra-orbit edges per plane plus inter-orbit edges placed at the two
intersection regions of every plane pair. An air node's access satellite is
the one whose ground projection is nearest (its Voronoi cell, queried
pointwise). Every layer is a set of arrays indexed by id; satellite ids run
plane by plane in slot order.

numpy's ``sin``, ``cos`` and ``radians`` return ``math``'s bits, but its
``arcsin`` and ``arctan2`` differ in the last bit on some inputs, so the
latitudes and longitudes written to the topology table come from ``math``
one element at a time.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError

AIR_ALTITUDE_M = 100.0


@dataclass(frozen=True, eq=False)
class IslGraph:
    """Inter-satellite link graph and per-orbit membership. A link is
    inter-orbit when its ends lie in different orbits."""

    adjacency: np.ndarray                         # (N_S, N_S) bool, symmetric
    orbits: tuple[tuple[int, ...], ...]           # satellite ids per plane, ring order


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    kind: str                     # 'single' | 'walker'
    altitude_km: float
    sat_units: np.ndarray         # (N_S, 3) unit position per satellite
    plane_normals: np.ndarray     # (n_planes, 3) unit normal per orbit plane
    air_lat: np.ndarray           # (N_A,) degrees
    air_lon: np.ndarray           # (N_A,) degrees in [0, 360)
    air_of_device: np.ndarray     # (D,) air node id per device

    @property
    def n_satellites(self) -> int:
        return len(self.sat_units)

    @property
    def n_devices(self) -> int:
        return len(self.air_of_device)

    @property
    def n_planes(self) -> int:
        return len(self.plane_normals)

    @property
    def n_air(self) -> int:
        return len(self.air_lat)

    @property
    def air_units(self) -> np.ndarray:
        """Unit position of each air node's ground point, ``(N_A, 3)``."""
        lat, lon = np.radians(self.air_lat), np.radians(self.air_lon)
        return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                         np.sin(lat)], axis=1)


def great_circle_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central angles (radians) between each row of ``u`` and each row of
    ``v``, ``(len(u), len(v))``; robust near 0 and pi."""
    return np.arctan2(np.linalg.norm(np.cross(u[:, None], v[None]), axis=2),
                      u @ v.T)


def _constellation(n_planes: int, per_plane: int, inclination_deg: float,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Unit positions ``(n_planes * per_plane, 3)`` and plane normals
    ``(n_planes, 3)``: planes spread evenly in right ascension with zero
    inter-plane phasing, slot s of each at phase s*360/per_plane."""
    raan = np.radians(np.arange(n_planes) * 360.0 / n_planes)[:, None]
    u = np.radians(np.arange(per_plane) * 360.0 / per_plane)
    inc = math.radians(inclination_deg)
    cos_inc, sin_inc = math.cos(inc), math.sin(inc)
    x = np.cos(raan) * np.cos(u) - np.sin(raan) * np.sin(u) * cos_inc
    y = np.sin(raan) * np.cos(u) + np.cos(raan) * np.sin(u) * cos_inc
    z = np.broadcast_to(np.sin(u) * sin_inc, x.shape)
    normals = np.concatenate([np.sin(raan) * sin_inc, -np.cos(raan) * sin_inc,
                              np.full_like(raan, cos_inc)], axis=1)
    return np.stack([x, y, z], axis=2).reshape(-1, 3), normals


def _subsatellite_latlon(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Latitude and longitude in degrees, longitude in [-180, 180], of the
    ground point under each unit position."""
    lat = [math.degrees(math.asin(min(max(z, -1.0), 1.0)))
           for z in units[:, 2].tolist()]
    lon = [math.degrees(math.atan2(y, x)) for x, y in units[:, :2].tolist()]
    return np.array(lat), np.array(lon)


def build_single_orbit(n_sats: int, altitude_km: float, n_air: int,
                       devices_per_air: int) -> NetworkTopology:
    """Equatorial ring of satellites with evenly spaced air nodes below.

    Satellites occupy phases k*360/n_sats on the equatorial orbit; air nodes
    sit on the equator at longitudes k*360/n_air. IDs are dense from 0.
    """
    sat_units, normals = _constellation(1, n_sats, 0.0)
    return NetworkTopology(kind="single", altitude_km=altitude_km,
                           sat_units=sat_units, plane_normals=normals,
                           air_lat=np.zeros(n_air),
                           air_lon=np.arange(n_air) * 360.0 / n_air,
                           air_of_device=np.repeat(np.arange(n_air),
                                                   devices_per_air))


def build_walker(n_planes: int, sats_per_plane: int, inclination_deg: float,
                 altitude_km: float, air_per_cell: int, devices_per_air: int,
                 ) -> NetworkTopology:
    """Walker constellation with air nodes at the snapshot sub-satellite points.

    Each logical satellite cell receives ``air_per_cell`` air nodes, spread
    over a small longitude band around the sub-satellite point so air
    positions stay distinct.
    """
    sat_units, normals = _constellation(n_planes, sats_per_plane,
                                        inclination_deg)
    lat, lon = _subsatellite_latlon(sat_units)
    offsets = (np.arange(air_per_cell) - (air_per_cell - 1) / 2.0) * 0.5
    n_air = len(sat_units) * air_per_cell
    return NetworkTopology(kind="walker", altitude_km=altitude_km,
                           sat_units=sat_units, plane_normals=normals,
                           air_lat=np.repeat(lat, air_per_cell),
                           air_lon=(lon[:, None] + offsets).ravel() % 360.0,
                           air_of_device=np.repeat(np.arange(n_air),
                                                   devices_per_air))


def nearest_satellite(ids: np.ndarray | list[int], positions: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """The satellite among ``ids`` nearest each row of ``points`` by central
    angle, with ``positions`` indexed by satellite id; within 1e-12 rad the
    lowest id wins."""
    ids = np.asarray(ids)
    angles = great_circle_angles(points, positions[ids])
    near = angles <= angles.min(axis=1, keepdims=True) + 1e-12
    return np.where(near, ids, ids.max()).min(axis=1)


def compute_coverage(topology: NetworkTopology) -> np.ndarray:
    """Access satellite of each air node, ``(N_A,)`` indexed by air id: the
    nearest satellite projection; within 1e-12 rad the lowest satellite id
    wins."""
    ids = np.arange(topology.n_satellites)
    # 32 air nodes at a time keep the (32, N_S, 3) angle temporaries small
    blocks = np.split(topology.air_units, range(32, topology.n_air, 32))
    return np.concatenate([nearest_satellite(ids, topology.sat_units, block)
                           for block in blocks])


def _inter_orbit_edges(topology: NetworkTopology, orbits: np.ndarray,
                       adj: np.ndarray) -> None:
    """Mark every plane pair's two inter-orbit links in ``adj``."""
    positions = topology.sat_units
    for pi, pj in itertools.combinations(range(len(orbits)), 2):
        ids_i, ids_j = orbits[pi], orbits[pj]
        cross = np.cross(topology.plane_normals[pi], topology.plane_normals[pj])
        norm = float(np.linalg.norm(cross))
        if norm > 1e-9:
            region = cross / norm
        else:
            # coincident planes: anchor the two regions on the closest
            # cross-plane pair and its antipode; within 1e-12 rad of the
            # closest, the lowest (a, b) wins
            angles = great_circle_angles(positions[ids_i], positions[ids_j])
            a, b = np.argwhere(angles <= angles.min() + 1e-12)[0]
            region = positions[ids_i[a]] + positions[ids_j[b]]
            region = region / np.linalg.norm(region)
        regions = np.stack([region, -region])
        a = nearest_satellite(ids_i, positions, regions)
        b = nearest_satellite(ids_j, positions, regions)
        adj[a, b] = adj[b, a] = True


def derive_isl_graph(topology: NetworkTopology) -> IslGraph:
    """Freeze the ISL graph at the snapshot.

    Intra-orbit links join ring neighbours, so each plane is a cycle (one
    link for two satellites, none for one). For every plane pair, one
    inter-orbit link is placed per orbit-intersection region (two regions
    per pair), joining the satellites nearest that region; ties break to
    the lowest satellite id.
    """
    n = topology.n_satellites
    orbits = np.arange(n).reshape(topology.n_planes, -1)
    adj = np.zeros((n, n), dtype=bool)
    nxt = np.roll(orbits, -1, axis=1)
    adj[orbits, nxt] = adj[nxt, orbits] = True
    np.fill_diagonal(adj, False)
    _inter_orbit_edges(topology, orbits, adj)
    return IslGraph(adjacency=adj, orbits=tuple(map(tuple, orbits.tolist())))


def _hop_matrix(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop counts of a symmetric adjacency matrix, -1 if
    unreachable, by breadth-first search from every node at once."""
    n = len(adj)
    width = max(int(adj.sum(axis=1).max(initial=0)), 1)
    # each row's neighbours first, padded with the node itself, which is
    # already seen by the time it could be gathered
    order = np.argsort(~adj, axis=1, kind="stable")[:, :width]
    nbr = np.where(np.take_along_axis(adj, order, axis=1), order,
                   np.arange(n)[:, None])
    dist = np.full((n, n), -1, dtype=np.int64)
    frontier = np.eye(n, dtype=bool)
    seen = frontier.copy()
    hops = 0
    while frontier.any():
        dist[frontier] = hops
        frontier = frontier[:, nbr].any(axis=2) & ~seen
        seen |= frontier
        hops += 1
    return dist


def connected_components(dist: np.ndarray) -> list[list[int]]:
    """Sorted member lists, ordered by their lowest id, read from the
    reachable entries of a hop matrix."""
    return [list(c) for c in sorted(
        {tuple(np.flatnonzero(row >= 0).tolist()) for row in dist})]


def hop_distances(graph: IslGraph) -> np.ndarray:
    """Symmetric matrix of shortest-path hop counts over the ISL graph."""
    dist = _hop_matrix(graph.adjacency)
    if (dist < 0).any():
        comps = connected_components(dist)
        raise TopologyError(f"ISL graph is disconnected; components: {comps}")
    return dist


def write_topology_table(topology: NetworkTopology, path,
                         access: np.ndarray) -> None:
    """Dump the topology as a plain-text table, one row per element.

    Columns: id, kind, lat_deg, lon_deg, alt_m, parent. Satellites carry their
    orbit index as parent; air nodes their access satellite; devices their
    owning air node.
    """
    lat, lon = _subsatellite_latlon(topology.sat_units)
    alt_m = topology.altitude_km * 1000.0
    per_plane = topology.n_satellites // topology.n_planes
    lines = ["id\tkind\tlat_deg\tlon_deg\talt_m\tparent"]
    for sat, (la, lo) in enumerate(zip(lat.tolist(), (lon % 360.0).tolist())):
        lines.append(f"{sat}\tsatellite\t{la!r}\t{lo!r}\t{alt_m!r}\t{sat // per_plane}")
    air_lat, air_lon = topology.air_lat.tolist(), topology.air_lon.tolist()
    for air, (la, lo, parent) in enumerate(zip(air_lat, air_lon, access.tolist())):
        lines.append(f"{air}\tair\t{la!r}\t{lo!r}\t{AIR_ALTITUDE_M!r}\t{parent}")
    for dev, air in enumerate(topology.air_of_device.tolist()):
        lines.append(f"{dev}\tdevice\t{air_lat[air]!r}\t{air_lon[air]!r}\t0.0\t{air}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
