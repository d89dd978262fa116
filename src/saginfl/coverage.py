"""Access-satellite determination via nearest sub-satellite point.

Each air node connects to the satellite whose ground projection is closest
by great-circle distance, i.e. the satellite whose Voronoi cell contains the
air node. Cells are only ever queried pointwise, so no explicit diagram is
built.
"""
from __future__ import annotations

import numpy as np

from .topology import (
    NetworkTopology,
    air_unit_positions,
    nearest_satellite,
    satellite_unit_positions,
)


def compute_coverage(topology: NetworkTopology) -> np.ndarray:
    """Access satellite of each air node, ``(N_A,)`` indexed by air id: the
    nearest satellite projection; within 1e-12 rad the lowest satellite id
    wins."""
    sat_units = satellite_unit_positions(topology)
    ids = np.arange(len(sat_units))
    return np.array([nearest_satellite(ids, sat_units, point)
                     for point in air_unit_positions(topology)], dtype=np.int64)
