"""Access-satellite determination via nearest sub-satellite point."""
import numpy as np
import pytest
from oracles import (
    cell_members,
    great_circle_angle,
    latlon_to_unit,
    subsatellite_points,
    validate_coverage,
)

from saginfl.errors import TopologyError
from saginfl.topology import (
    build_single_orbit,
    build_walker,
    compute_coverage,
    great_circle_angles,
)


def air_units(topology):
    """Air node unit positions, one node at a time."""
    return [latlon_to_unit(lat, lon) for lat, lon
            in zip(topology.air_lat.tolist(), topology.air_lon.tolist())]


def brute_force_access(topology):
    """Exhaustive nearest-projection search, one pair at a time."""
    access = {}
    for air, point in enumerate(air_units(topology)):
        best, best_ang = None, None
        for sat, unit in enumerate(topology.sat_units):
            ang = great_circle_angle(point, unit)
            if best is None or ang < best_ang - 1e-12:
                best, best_ang = sat, ang
        access[air] = best
    return access


class TestSubsatellitePoints:
    def test_equatorial_projection(self):
        topo = build_single_orbit(12, 330.0, 1, 1)
        points = subsatellite_points(topo)
        # satellite 1 sits at phase 30 degrees on the equator
        assert abs(points[1, 0] - 0.0) < 1e-9
        assert abs(points[1, 1] - 30.0) < 1e-9

    def test_projection_latitude_equals_orbital_latitude(self):
        topo = build_walker(2, 4, 85.0, 330.0, 1, 1)
        points = subsatellite_points(topo)
        for sat, unit in enumerate(topo.sat_units):
            lat = np.degrees(np.arcsin(unit[2]))
            assert abs(points[sat, 0] - lat) < 1e-9

    def test_walker_projections_distinct(self):
        topo = build_walker(15, 16, 85.0, 330.0, 1, 1)
        points = subsatellite_points(topo)
        seen = {tuple(np.round(row, 6)) for row in points}
        assert len(seen) == 240


class TestComputeCoverage:
    def test_tie_breaks_to_lower_id(self):
        # two satellites, air node exactly between their projections
        topo = build_single_orbit(2, 330.0, 4, 1)
        access = compute_coverage(topo)
        # air node 1 at 90 degrees is equidistant from satellites at 0 and 180
        assert access[1] == 0

    def test_even_split_five_air_per_satellite(self):
        topo = build_single_orbit(20, 330.0, 100, 2)
        access = compute_coverage(topo)
        members = cell_members(access, topo)
        sizes = [len(members[s]) for s in range(topo.n_satellites)]
        assert sizes == [5] * 20

    def test_walker_toy_matches_brute_force(self):
        topo = build_walker(3, 5, 85.0, 330.0, 2, 1)
        access = compute_coverage(topo)
        assert dict(enumerate(access.tolist())) == brute_force_access(topo)

    def test_voronoi_property_exhaustive(self):
        topo = build_walker(2, 6, 60.0, 500.0, 1, 1)
        access = compute_coverage(topo)
        sat_units = topo.sat_units
        for air, point in enumerate(air_units(topo)):
            chosen = great_circle_angle(point, sat_units[access[air]])
            for unit in sat_units:
                assert chosen <= great_circle_angle(point, unit) + 1e-12

    def test_coincident_satellites_tie_to_lowest_id(self):
        # An even number of planes at 90 degrees puts the satellites of
        # plane p and plane p + n/2 on the same points. Every air node must
        # go to the lowest id among the satellites nearest it (within
        # 1e-12 rad), with angles taken by the atan2 rule.
        topo = build_walker(14, 16, 90.0, 500.0, 3, 1)
        access = compute_coverage(topo)
        for air, point in enumerate(air_units(topo)):
            angles = great_circle_angles(topo.sat_units, point[None])[:, 0]
            nearest = np.flatnonzero(angles <= angles.min() + 1e-12)
            assert access[air] == nearest.min(), air
        # satellite 79 sits on satellite 185's point and has the lower id
        assert access[238] == 79

    def test_cells_partition_air_nodes(self):
        topo = build_single_orbit(7, 330.0, 23, 1)
        access = compute_coverage(topo)
        members = cell_members(access, topo)
        validate_coverage(access, members, topo)
        all_members = [a for cell in members.values() for a in cell]
        assert sorted(all_members) == list(range(23))

    def test_validate_rejects_unmapped_air_node(self):
        topo = build_single_orbit(4, 330.0, 8, 1)
        access = compute_coverage(topo)
        unmapped = access.copy()
        unmapped[3] = -1
        with pytest.raises(TopologyError, match=r"differ on \[3\]"):
            validate_coverage(unmapped, cell_members(access, topo), topo)

    def test_validate_rejects_inconsistent_cells(self):
        topo = build_single_orbit(4, 330.0, 8, 1)
        access = compute_coverage(topo)
        sat = access[0]
        members = cell_members(access, topo)
        members[sat] = tuple(a for a in members[sat] if a != 0)
        with pytest.raises(TopologyError, match=f"cell of satellite {sat}"):
            validate_coverage(access, members, topo)

    def test_single_orbit_cells_contiguous_in_longitude(self):
        topo = build_single_orbit(10, 330.0, 40, 1)
        access = compute_coverage(topo)
        spacing = 360.0 / 40
        for sat, members in cell_members(access, topo).items():
            if not members:
                continue
            lons = sorted(topo.air_lon[list(members)].tolist())
            # circular gaps, including the wrap from last back to first;
            # a contiguous arc has at most one gap beyond the air spacing
            gaps = [(lons[(i + 1) % len(lons)] - lons[i]) % 360
                    for i in range(len(lons))]
            assert sum(g > spacing + 1e-9 for g in gaps) <= 1
