"""Constellation topologies: satellites, air nodes, ground devices, and the ISL graph.

Geometry is a static snapshot on a spherical Earth. Satellites sit on circular
orbits; air nodes hover at fixed geographic positions; every ground device is
owned by exactly one air node. The inter-satellite link (ISL) graph has one
cycle of intra-orbit edges per plane plus inter-orbit edges placed at the two
intersection regions of every plane pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError

AIR_ALTITUDE_M = 100.0


@dataclass(frozen=True)
class LinkParams:
    """Delay model for one link class: a fixed rate plus propagation delay."""

    rate_bps: float
    prop_delay_s: float = 0.0


@dataclass(frozen=True)
class SatelliteSpec:
    id: int
    orbit_index: int
    slot_index: int
    altitude_km: float
    phase_deg: float          # angular position along the orbit plane
    inclination_deg: float
    raan_deg: float = 0.0     # right ascension of the plane's ascending node


@dataclass(frozen=True)
class AirNodeSpec:
    id: int
    latitude_deg: float
    longitude_deg: float
    altitude_m: float


@dataclass(frozen=True)
class IslGraph:
    """Inter-satellite link graph with edge kinds and per-orbit membership."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]            # sorted id pairs, deduplicated
    kinds: tuple[str, ...]                        # 'intra' | 'inter', parallel to edges
    orbits: tuple[tuple[int, ...], ...]           # satellite ids per plane, ring order

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix indexed by satellite id."""
        n = len(self.nodes)
        adj = np.zeros((n, n), dtype=bool)
        for a, b in self.edges:
            adj[a, b] = True
            adj[b, a] = True
        return adj


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    kind: str                                     # 'single' | 'walker'
    satellites: tuple[SatelliteSpec, ...]
    air_nodes: tuple[AirNodeSpec, ...]
    air_of_device: np.ndarray                     # (D,) air node id per device
    n_planes: int = 1

    @property
    def n_satellites(self) -> int:
        return len(self.satellites)

    @property
    def n_devices(self) -> int:
        return len(self.air_of_device)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _latlon_to_unit(lat_deg: float, lon_deg: float) -> np.ndarray:
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return np.array([
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    ])


def great_circle_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Central angle (radians) between two unit vectors; robust near 0 and pi."""
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def great_circle_angles(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central angles (radians) between each row of ``points`` and ``v``."""
    return np.arctan2(np.linalg.norm(np.cross(points, v), axis=1), points @ v)


def _plane_normal(raan_deg: float, inclination_deg: float) -> np.ndarray:
    raan = math.radians(raan_deg)
    inc = math.radians(inclination_deg)
    return np.array([
        math.sin(raan) * math.sin(inc),
        -math.cos(raan) * math.sin(inc),
        math.cos(inc),
    ])


def satellite_unit_position(sat: SatelliteSpec) -> np.ndarray:
    """Unit position vector of a satellite at the snapshot."""
    u = math.radians(sat.phase_deg)
    raan = math.radians(sat.raan_deg)
    inc = math.radians(sat.inclination_deg)
    x = math.cos(raan) * math.cos(u) - math.sin(raan) * math.sin(u) * math.cos(inc)
    y = math.sin(raan) * math.cos(u) + math.cos(raan) * math.sin(u) * math.cos(inc)
    z = math.sin(u) * math.sin(inc)
    return np.array([x, y, z])


def satellite_unit_positions(topology: NetworkTopology) -> np.ndarray:
    return np.array([satellite_unit_position(s) for s in topology.satellites])


def air_unit_positions(topology: NetworkTopology) -> np.ndarray:
    return np.array([
        _latlon_to_unit(a.latitude_deg, a.longitude_deg) for a in topology.air_nodes
    ])


def _make_air_nodes(positions: list[tuple[float, float]]) -> tuple[AirNodeSpec, ...]:
    return tuple(AirNodeSpec(id=i, latitude_deg=lat, longitude_deg=lon,
                             altitude_m=AIR_ALTITUDE_M)
                 for i, (lat, lon) in enumerate(positions))


def build_single_orbit(n_sats: int, altitude_km: float, n_air: int,
                       devices_per_air: int) -> NetworkTopology:
    """Equatorial ring of satellites with evenly spaced air nodes below.

    Satellites occupy phases k*360/n_sats on the equatorial orbit; air nodes
    sit on the equator at longitudes k*360/n_air. IDs are dense from 0.
    """
    sats = tuple(
        SatelliteSpec(id=k, orbit_index=0, slot_index=k, altitude_km=altitude_km,
                      phase_deg=k * 360.0 / n_sats, inclination_deg=0.0, raan_deg=0.0)
        for k in range(n_sats)
    )
    air_pos = [(0.0, k * 360.0 / n_air) for k in range(n_air)]
    return NetworkTopology(kind="single", satellites=sats,
                           air_nodes=_make_air_nodes(air_pos),
                           air_of_device=np.repeat(np.arange(n_air), devices_per_air))


def build_walker(n_planes: int, sats_per_plane: int, inclination_deg: float,
                 altitude_km: float, air_per_cell: int, devices_per_air: int,
                 ) -> NetworkTopology:
    """Walker constellation with air nodes at the snapshot sub-satellite points.

    Planes are spread evenly in right ascension over 360 degrees with zero
    inter-plane phasing. Each logical satellite cell receives ``air_per_cell``
    air nodes, offset slightly in longitude so positions stay distinct.
    """
    sats = []
    for p in range(n_planes):
        raan = p * 360.0 / n_planes
        for s in range(sats_per_plane):
            sats.append(SatelliteSpec(
                id=p * sats_per_plane + s, orbit_index=p, slot_index=s,
                altitude_km=altitude_km, phase_deg=s * 360.0 / sats_per_plane,
                inclination_deg=inclination_deg, raan_deg=raan,
            ))

    air_pos = []
    for sat in sats:
        u = satellite_unit_position(sat)
        lat = math.degrees(math.asin(np.clip(u[2], -1.0, 1.0)))
        lon = math.degrees(math.atan2(u[1], u[0]))
        for a in range(air_per_cell):
            # spread cell members over a small longitude band around the
            # sub-satellite point so air positions are distinct
            offset = (a - (air_per_cell - 1) / 2.0) * 0.5
            air_pos.append((lat, (lon + offset) % 360.0))
    return NetworkTopology(kind="walker", satellites=tuple(sats),
                           air_nodes=_make_air_nodes(air_pos),
                           air_of_device=np.repeat(np.arange(len(air_pos)),
                                                   devices_per_air),
                           n_planes=n_planes)


def nearest_satellite(ids: np.ndarray | list[int], positions: np.ndarray,
                      point: np.ndarray) -> int:
    """The satellite among ``ids`` nearest ``point`` by central angle, with
    ``positions`` indexed by satellite id; within 1e-12 rad the lowest id
    wins."""
    ids = np.asarray(ids)
    angles = great_circle_angles(positions[ids], point)
    return int(ids[angles <= angles.min() + 1e-12].min())


def _inter_orbit_edges(topology: NetworkTopology, orbits: list[list[int]],
                       positions: np.ndarray) -> list[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    for pi in range(len(orbits)):
        for pj in range(pi + 1, len(orbits)):
            ids_i, ids_j = orbits[pi], orbits[pj]
            rep_i = topology.satellites[ids_i[0]]
            rep_j = topology.satellites[ids_j[0]]
            n_i = _plane_normal(rep_i.raan_deg, rep_i.inclination_deg)
            n_j = _plane_normal(rep_j.raan_deg, rep_j.inclination_deg)
            cross = np.cross(n_i, n_j)
            norm = float(np.linalg.norm(cross))
            if norm > 1e-9:
                regions = [_unit(cross), -_unit(cross)]
            else:
                # coincident planes: anchor the two regions on the globally
                # closest cross-plane pair and its antipode
                best = None
                for a in ids_i:
                    for b in ids_j:
                        ang = great_circle_angle(positions[a], positions[b])
                        key = (ang, a, b)
                        if best is None or key < best:
                            best = key
                mid = _unit(positions[best[1]] + positions[best[2]])
                regions = [mid, -mid]
            for region in regions:
                a = nearest_satellite(ids_i, positions, region)
                b = nearest_satellite(ids_j, positions, region)
                edges.add(tuple(sorted((a, b))))
    return sorted(edges)


def derive_isl_graph(topology: NetworkTopology) -> IslGraph:
    """Freeze the ISL graph at the snapshot.

    Intra-orbit edges form one cycle per plane (one edge for two
    satellites). For every plane pair, one inter-orbit edge is placed per
    orbit-intersection region (two regions per pair), joining the
    satellites nearest that region; ties break to the lowest satellite id.
    Edges of different planes never coincide, so no edge repeats.
    """
    orbits: list[list[int]] = [[] for _ in range(topology.n_planes)]
    for sat in sorted(topology.satellites, key=lambda s: s.slot_index):
        orbits[sat.orbit_index].append(sat.id)
    intra = []
    for ring in orbits:
        n = len(ring)
        intra += [tuple(sorted((ring[k], ring[(k + 1) % n])))
                  for k in range(n if n > 2 else n - 1)]
    inter = _inter_orbit_edges(topology, orbits,
                               satellite_unit_positions(topology))
    return IslGraph(
        nodes=tuple(s.id for s in topology.satellites),
        edges=tuple(intra + inter),
        kinds=("intra",) * len(intra) + ("inter",) * len(inter),
        orbits=tuple(tuple(ring) for ring in orbits),
    )


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
    dist = _hop_matrix(graph.adjacency())
    if (dist < 0).any():
        comps = connected_components(dist)
        raise TopologyError(f"ISL graph is disconnected; components: {comps}")
    return dist


def write_topology_table(topology: NetworkTopology, path,
                         access: np.ndarray | None = None) -> None:
    """Dump the topology as a plain-text table, one row per element.

    Columns: id, kind, lat_deg, lon_deg, alt_m, parent. Satellites carry their
    orbit index as parent; air nodes their access satellite (when the access
    array is supplied); devices their owning air node.
    """
    lines = ["id\tkind\tlat_deg\tlon_deg\talt_m\tparent"]
    for s in topology.satellites:
        u = satellite_unit_position(s)
        lat = math.degrees(math.asin(float(np.clip(u[2], -1.0, 1.0))))
        lon = math.degrees(math.atan2(float(u[1]), float(u[0]))) % 360.0
        lines.append(f"{s.id}\tsatellite\t{lat!r}\t{lon!r}\t{s.altitude_km * 1000.0!r}\t{s.orbit_index}")
    for a in topology.air_nodes:
        parent = access[a.id] if access is not None else -1
        lines.append(f"{a.id}\tair\t{a.latitude_deg!r}\t{a.longitude_deg!r}\t{a.altitude_m!r}\t{parent}")
    for dev, air in enumerate(topology.air_of_device.tolist()):
        a = topology.air_nodes[air]
        lines.append(f"{dev}\tdevice\t{a.latitude_deg!r}\t{a.longitude_deg!r}\t0.0\t{air}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
