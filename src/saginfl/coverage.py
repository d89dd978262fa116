"""Access-satellite determination via nearest sub-satellite point.

Each air node connects to the satellite whose ground projection is closest
by great-circle distance, i.e. the satellite whose Voronoi cell contains the
air node. Cells are only ever queried pointwise, so no explicit diagram is
built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TopologyError
from .topology import (
    NetworkTopology,
    air_unit_positions,
    satellite_unit_positions,
)


@dataclass(frozen=True)
class CoverageMap:
    access: dict[int, int]              # air node id -> satellite id
    cell_members: dict[int, tuple[int, ...]]   # satellite id -> air node ids

    def validate(self, topology: NetworkTopology) -> None:
        """Raise TopologyError unless every air node has exactly one access
        satellite and the cell member lists invert the access map."""
        mismatch = {a.id for a in topology.air_nodes} ^ set(self.access)
        if mismatch:
            raise TopologyError(
                f"access map and air nodes differ on {sorted(mismatch)}")
        inverse: dict[int, list[int]] = {}
        for air, sat in self.access.items():
            inverse.setdefault(sat, []).append(air)
        for sat, members in self.cell_members.items():
            if sorted(inverse.get(sat, [])) != sorted(members):
                raise TopologyError(
                    f"cell of satellite {sat} lists {sorted(members)}, "
                    f"access map gives {sorted(inverse.get(sat, []))}")


def subsatellite_points(topology: NetworkTopology, epoch_s: float = 0.0) -> np.ndarray:
    """Per-satellite (lat_deg, lon_deg) of the radial projection onto the surface."""
    units = satellite_unit_positions(topology, epoch_s)
    lat = np.degrees(np.arcsin(np.clip(units[:, 2], -1.0, 1.0)))
    lon = np.degrees(np.arctan2(units[:, 1], units[:, 0]))
    return np.stack([lat, lon], axis=1)


def compute_coverage(topology: NetworkTopology, epoch_s: float = 0.0) -> CoverageMap:
    """Map each air node to its nearest satellite projection (lowest id on ties)."""
    sat_units = satellite_unit_positions(topology, epoch_s)
    air_units = air_unit_positions(topology)
    # central angle via the dot product; monotone, so argmin is the nearest.
    cos_angle = np.clip(air_units @ sat_units.T, -1.0, 1.0)
    angles = np.arccos(cos_angle)
    access: dict[int, int] = {}
    for air in topology.air_nodes:
        row = angles[air.id]
        best = float(row.min())
        # lowest satellite id among those within tie tolerance
        winner = int(np.flatnonzero(row <= best + 1e-12)[0])
        access[air.id] = winner
    members: dict[int, list[int]] = {s.id: [] for s in topology.satellites}
    for air_id in sorted(access):
        members[access[air_id]].append(air_id)
    cell_members = {sat: tuple(ids) for sat, ids in members.items()}
    return CoverageMap(access=access, cell_members=cell_members)
