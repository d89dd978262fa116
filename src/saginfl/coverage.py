"""Access-satellite determination via nearest sub-satellite point.

Each air node connects to the satellite whose ground projection is closest
by great-circle distance, i.e. the satellite whose Voronoi cell contains the
air node. Cells are only ever queried pointwise, so no explicit diagram is
built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import (
    NetworkTopology,
    air_unit_positions,
    nearest_satellite,
    satellite_unit_positions,
)


@dataclass(frozen=True)
class CoverageMap:
    access: dict[int, int]              # air node id -> satellite id


def compute_coverage(topology: NetworkTopology) -> CoverageMap:
    """Map each air node to its nearest satellite projection; within 1e-12
    rad the lowest satellite id wins."""
    sat_units = satellite_unit_positions(topology)
    ids = np.arange(len(sat_units))
    return CoverageMap(access={
        air.id: nearest_satellite(ids, sat_units, point)
        for air, point in zip(topology.air_nodes, air_unit_positions(topology))})
