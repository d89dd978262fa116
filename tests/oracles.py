"""Reference implementations the tests compare the package against.

Each one is the slow, direct form of something the package computes another
way (exhaustive matching, csgraph partition distances, per-step ring
transfers, inverted access maps, per-element ``math`` geometry, the
aggregation as a sparse matrix product, a standalone loss pass, the
communication log formatted row by row, the learners' residuals and probe
moments from dense one-hot targets, their L2 term through a bias mask, the
bias feature appended row by row), or a quantity only the tests need
(closed forms, the divergence at the recorded global models). None of them
runs in a simulation.
"""
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from saginfl.allreduce import SyncPlan
from saginfl.diagnostics import (
    DivergenceEstimate,
    GradContext,
    measure_divergence,
)
from saginfl.errors import InputError, TopologyError
from saginfl.learner import (
    MlpLearner,
    ProbeSamples,
    Samples,
    SoftmaxLearner,
    _softmax,
)
from saginfl.simulation import AggregationWeights, _row_norms
from saginfl.topology import IslGraph, NetworkTopology

_PERM_CACHE: dict[int, np.ndarray] = {}


def brute_force_matching(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exhaustive oracle over all n! permutations; usable for n <= 8."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))))
    perms = _PERM_CACHE[n]
    totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))
    return float(totals[best]), tuple(int(c) for c in perms[best])


def isl_graph(edges, orbits) -> IslGraph:
    """The ISL graph with links ``edges`` (id pairs) over ``orbits`` (ids per
    orbit in ring order, together covering 0..N-1)."""
    orbits = tuple(tuple(orbit) for orbit in orbits)
    n = sum(map(len, orbits))
    adjacency = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    return IslGraph(adjacency=adjacency, orbits=orbits)


def isl_edges(graph: IslGraph, kind=None) -> list[tuple[int, int]]:
    """The graph's links as sorted ``(a, b)`` pairs with ``a < b``; ``kind``
    'intra' keeps links inside one orbit, 'inter' links between orbits."""
    orbit_of = {s: k for k, orbit in enumerate(graph.orbits) for s in orbit}
    edges = [(a, b) for a, b in np.argwhere(np.triu(graph.adjacency)).tolist()]
    if kind is None:
        return edges
    return [(a, b) for a, b in edges
            if (orbit_of[a] == orbit_of[b]) == (kind == "intra")]


def induced_diameter(part: tuple[int, ...], graph: IslGraph) -> int:
    """Hop diameter of the sub-graph induced by ``part`` (-1 if disconnected),
    by breadth-first search from every member over the part's own edges."""
    neighbors: dict[int, list[int]] = {u: [] for u in part}
    for a, b in isl_edges(graph):
        if a in neighbors and b in neighbors:
            neighbors[a].append(b)
            neighbors[b].append(a)
    diameter = 0
    for source in neighbors:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) < len(neighbors):
            return -1
        diameter = max(diameter, max(dist.values()))
    return diameter


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


def naive_graph_partition(graph: IslGraph, n_geo: int,
                          rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """``graph_partition``'s parts, testing each candidate against hop
    distances that ``csgraph.dijkstra`` recomputes on the whole residual
    graph for every part.

    The residual graph masks one CSR copy of the ISL graph. One search
    finds the live satellites within ``n_geo - 1`` hops of the part's
    seed; every member lies among them, so a second search from each of
    them gives every member-to-candidate distance the test reads. Distances
    beyond ``n_geo - 1`` hops read as unreachable (inf); the candidate test
    rejects both alike.
    """
    neighbors = [np.flatnonzero(row).tolist() for row in graph.adjacency]
    full = sparse.csr_matrix(graph.adjacency, dtype=float)
    rows = np.repeat(np.arange(full.shape[0]), np.diff(full.indptr))
    alive = np.ones(full.shape[0], dtype=bool)
    parts: list[tuple[int, ...]] = []
    while alive.any():
        residual = full.copy()
        residual.data = (alive[rows] & alive[full.indices]).astype(float)
        residual.eliminate_zeros()
        candidates = np.flatnonzero(alive)
        seed = int(candidates[rng.integers(len(candidates))])
        near = np.flatnonzero(np.isfinite(csgraph.dijkstra(
            residual, unweighted=True, limit=n_geo - 1, indices=seed)))
        dist = csgraph.dijkstra(residual, unweighted=True, limit=n_geo - 1,
                                indices=near)
        row_of = {int(u): i for i, u in enumerate(near)}
        members: list[int] = [seed]
        member_set = {seed}
        i = 0
        while i < len(members):
            u = members[i]
            for v in neighbors[u]:
                if v in member_set or not alive[v]:
                    continue
                res = dist[[row_of[m] for m in members], v]
                if not np.all(res < n_geo):
                    continue
                if not _induced_distance_ok(v, member_set, neighbors, n_geo):
                    continue
                members.append(v)
                member_set.add(v)
            i += 1
        parts.append(tuple(sorted(member_set)))
        alive[list(member_set)] = False
    return tuple(parts)


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


def traffic_per_node(plan: SyncPlan, n: int) -> int:
    """Measured parameters sent per satellite; uniform across the ring."""
    if n == 1 or not plan.params_sent:
        return 0
    values = set(plan.params_sent.values())
    if len(values) != 1:
        raise InputError(f"non-uniform per-node traffic: {sorted(values)}")
    return values.pop()


def params_received(plan: SyncPlan) -> dict[int, int]:
    """Parameters each satellite receives, summed over its transfers."""
    received: dict[int, int] = {}
    for dst, params in zip(plan.transfers["dst"].tolist(),
                           plan.transfers["params"].tolist()):
        received[dst] = received.get(dst, 0) + params
    return received


def total_sent(plan: SyncPlan) -> int:
    return sum(plan.params_sent.values())


def total_received(plan: SyncPlan) -> int:
    return sum(params_received(plan).values())


def phase_steps(plan: SyncPlan) -> dict[str, int]:
    """Ring steps of each phase, summed over the phase's rings.

    Every member of a ring sends once per step and a ring runs its scatter
    steps before its gather steps, so each run of consecutive transfers
    sharing one phase and step is one ring step.
    """
    steps: dict[str, int] = {}
    previous = None
    for key in zip(plan.transfers["phase"].tolist(),
                   plan.transfers["step"].tolist()):
        if key != previous:
            steps[key[0]] = steps.get(key[0], 0) + 1
        previous = key
    return steps


def satellite_unit_position(phase_deg: float, raan_deg: float,
                            inclination_deg: float) -> np.ndarray:
    """Unit position of a satellite at ``phase_deg`` along the plane with
    right ascension ``raan_deg`` and inclination ``inclination_deg``."""
    u = math.radians(phase_deg)
    raan = math.radians(raan_deg)
    inc = math.radians(inclination_deg)
    x = math.cos(raan) * math.cos(u) - math.sin(raan) * math.sin(u) * math.cos(inc)
    y = math.sin(raan) * math.cos(u) + math.cos(raan) * math.sin(u) * math.cos(inc)
    z = math.sin(u) * math.sin(inc)
    return np.array([x, y, z])


def latlon_to_unit(lat_deg: float, lon_deg: float) -> np.ndarray:
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return np.array([
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    ])


def plane_normal(raan_deg: float, inclination_deg: float) -> np.ndarray:
    raan = math.radians(raan_deg)
    inc = math.radians(inclination_deg)
    return np.array([
        math.sin(raan) * math.sin(inc),
        -math.cos(raan) * math.sin(inc),
        math.cos(inc),
    ])


def great_circle_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Central angle (radians) between two unit vectors; robust near 0 and pi."""
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def reference_constellation(n_planes: int, per_plane: int,
                            inclination_deg: float,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Satellite positions by id and plane normals, one element at a time:
    plane p at right ascension p*360/n_planes, slot s at phase
    s*360/per_plane."""
    units = [satellite_unit_position(s * 360.0 / per_plane,
                                     p * 360.0 / n_planes, inclination_deg)
             for p in range(n_planes) for s in range(per_plane)]
    normals = [plane_normal(p * 360.0 / n_planes, inclination_deg)
               for p in range(n_planes)]
    return np.array(units), np.array(normals)


def reference_walker_air(units: np.ndarray, air_per_cell: int,
                         ) -> tuple[list[float], list[float]]:
    """Air latitudes and longitudes of a Walker, cell by cell: the
    sub-satellite point, spread over a 0.5-degree longitude band."""
    lats, lons = [], []
    for u in units:
        lat = math.degrees(math.asin(np.clip(u[2], -1.0, 1.0)))
        lon = math.degrees(math.atan2(u[1], u[0]))
        for a in range(air_per_cell):
            offset = (a - (air_per_cell - 1) / 2.0) * 0.5
            lats.append(lat)
            lons.append((lon + offset) % 360.0)
    return lats, lons


def _nearest(ids: list[int], units: np.ndarray, point: np.ndarray) -> int:
    """Lowest id among ``ids`` within 1e-12 rad of the nearest to ``point``."""
    angles = {i: great_circle_angle(units[i], point) for i in ids}
    least = min(angles.values())
    return min(i for i, ang in angles.items() if ang <= least + 1e-12)


def reference_inter_orbit_edges(n_planes: int, per_plane: int,
                                inclination_deg: float) -> list[tuple[int, int]]:
    """Inter-orbit edges of a Walker, one satellite pair at a time.

    Each plane pair gets the satellites nearest its two intersection
    regions. Coincident planes anchor the regions on their closest
    cross-plane pair and its antipode; among pairs within 1e-12 rad of the
    closest, the lowest (a, b) wins.
    """
    units, normals = reference_constellation(n_planes, per_plane,
                                             inclination_deg)
    planes = [list(range(p * per_plane, (p + 1) * per_plane))
              for p in range(n_planes)]
    edges = set()
    for pi, pj in itertools.combinations(range(n_planes), 2):
        cross = np.cross(normals[pi], normals[pj])
        if np.linalg.norm(cross) > 1e-9:
            region = cross / np.linalg.norm(cross)
        else:
            angles = {(a, b): great_circle_angle(units[a], units[b])
                      for a in planes[pi] for b in planes[pj]}
            least = min(angles.values())
            a, b = min(k for k, ang in angles.items() if ang <= least + 1e-12)
            region = units[a] + units[b]
            region = region / np.linalg.norm(region)
        for point in (region, -region):
            a = _nearest(planes[pi], units, point)
            b = _nearest(planes[pj], units, point)
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def subsatellite_points(topology: NetworkTopology) -> np.ndarray:
    """Per-satellite (lat_deg, lon_deg) of the radial projection onto the surface."""
    units = topology.sat_units
    lat = np.degrees(np.arcsin(np.clip(units[:, 2], -1.0, 1.0)))
    lon = np.degrees(np.arctan2(units[:, 1], units[:, 0]))
    return np.stack([lat, lon], axis=1)


def cell_members(access: np.ndarray, topology: NetworkTopology,
                 ) -> dict[int, tuple[int, ...]]:
    """Satellite id -> the air nodes it serves, in id order."""
    members: dict[int, list[int]] = {s: [] for s in range(topology.n_satellites)}
    for air_id, sat in enumerate(access.tolist()):
        members[sat].append(air_id)
    return {sat: tuple(ids) for sat, ids in members.items()}


def validate_coverage(access: np.ndarray,
                      members: dict[int, tuple[int, ...]],
                      topology: NetworkTopology) -> None:
    """Raise TopologyError unless every air node has exactly one access
    satellite and the cell member lists invert the access array."""
    inverse: dict[int, list[int]] = {}
    for air, sat in enumerate(access.tolist()):
        if 0 <= sat < topology.n_satellites:
            inverse.setdefault(sat, []).append(air)
    mapped = {air for cell in inverse.values() for air in cell}
    mismatch = set(range(topology.n_air)) ^ mapped
    if mismatch:
        raise TopologyError(
            f"access map and air nodes differ on {sorted(mismatch)}")
    for sat, cell in members.items():
        if sorted(inverse.get(sat, [])) != sorted(cell):
            raise TopologyError(
                f"cell of satellite {sat} lists {sorted(cell)}, "
                f"access map gives {sorted(inverse.get(sat, []))}")


def naive_ring(vectors, ids, prefix, transfers):
    """One ring's chunked allreduce, step by step with per-node chunk lists.

    Every send of a step is read before any lands. Appends the ring's
    transfers as ``(phase, step, src, dst, params)``.
    """
    n, m = len(vectors), len(vectors[0])
    if n == 1:
        return [vectors[0].copy()]
    size = math.ceil(m / n)
    chunks = []
    for v in vectors:
        padded = np.concatenate([v, np.zeros(size * n - m)])
        chunks.append([padded[c * size:(c + 1) * size].copy()
                       for c in range(n)])
    for half in ("scatter", "gather"):
        for step in range(n - 1):
            sends = []
            for k in range(n):
                c = (k - step) % n if half == "scatter" else (k + 1 - step) % n
                sends.append(((k + 1) % n, c, chunks[k][c].copy()))
                transfers.append((prefix + half, step, ids[k],
                                  ids[(k + 1) % n], size))
            for dst, c, payload in sends:
                if half == "scatter":
                    chunks[dst][c] = chunks[dst][c] + payload
                else:
                    chunks[dst][c] = payload
    return [np.concatenate(row)[:m] for row in chunks]


def naive_three_phase(params, weights, graph):
    """Orbit by orbit, then the representatives, then orbit by orbit.

    Row k of ``params`` is satellite k's model. Returns the final vectors
    by satellite id, the transfers and the representatives.
    """
    incident = {s for edge in isl_edges(graph, "inter") for s in edge}
    reps = [min(s for s in orbit if s in incident) for orbit in graph.orbits]
    transfers = []
    sums = [naive_ring([params[s] * weights[s] for s in orbit], orbit,
                       "phase1-", transfers)[0]
            for orbit in graph.orbits]
    global_vec = naive_ring(sums, reps, "phase2-", transfers)[0]
    states = {}
    for orbit, rep in zip(graph.orbits, reps):
        vectors = [global_vec.copy() if s == rep else np.zeros_like(global_vec)
                   for s in orbit]
        states.update(zip(orbit, naive_ring(vectors, orbit, "phase3-",
                                            transfers)))
    return states, transfers, reps


def global_loss(ctx: GradContext, w: np.ndarray) -> float:
    """The data-weighted global loss at one model, from a standalone
    ``learner.loss`` pass."""
    return float(ctx.weights.device_frac @ ctx.learner.loss(w, ctx.samples))


def divergence_at_global_models(trace) -> DivergenceEstimate:
    """The divergence estimate with the run's recorded global models as
    probes, as the bound check reports it overall."""
    ctx = GradContext.from_trace(trace)
    return measure_divergence(
        ctx.weights, (ctx.device_grads(w) for _, w in trace.global_models))


def commlog_pieces(plan: SyncPlan, n_rounds: int) -> list[str]:
    """The ``[commlog]`` rows after the header, one piece per round as
    ``trace_lines`` yields them, formatted row by row with f-strings."""
    schedule = [f",{phase},{step},{src},{dst},{params}"
                for phase, step, src, dst, params in plan.transfers.tolist()]
    if not schedule:
        return []
    return [str(rnd) + f"\n{rnd}".join(schedule)
            for rnd in range(1, n_rounds + 1)]


def sparse_average_operator(sat_of_device: np.ndarray, device_sizes: np.ndarray,
                            n_satellites: int, dtype=float) -> sparse.csr_matrix:
    """The device -> satellite average as a ``(N_S, D)`` CSR matrix: row k
    holds |D_i| / |D_k| for every device i reporting to satellite k."""
    totals = np.bincount(sat_of_device, weights=device_sizes,
                         minlength=n_satellites)
    share = device_sizes / np.where(totals > 0, totals, 1.0)[sat_of_device]
    n_devices = len(device_sizes)
    return sparse.csr_matrix(
        (share, (sat_of_device, np.arange(n_devices))),
        shape=(n_satellites, n_devices)).astype(dtype)


def sparse_divergence(weights: AggregationWeights, operator: sparse.csr_matrix,
                      device_grads) -> DivergenceEstimate:
    """``measure_divergence`` with the satellite averages taken by the CSR
    ``operator`` and each device compared with its satellite's row by a
    gather, in device order."""
    delta_dev = np.zeros(len(weights.device_frac))
    delta_sat = np.zeros(len(weights.sat_frac))
    for dev_g in device_grads:
        sat_g = operator @ dev_g
        glob_g = weights.sat_frac.astype(dev_g.dtype) @ sat_g
        dev_gap = _row_norms(dev_g - sat_g[weights.sat_of_device])
        sat_gap = _row_norms(sat_g - glob_g)
        sat_gap[~weights.nonempty] = 0.0
        delta_dev = np.maximum(delta_dev, dev_gap)
        delta_sat = np.maximum(delta_sat, sat_gap)
    return DivergenceEstimate(
        delta_hat=float(weights.device_frac @ delta_dev),
        Delta_hat=float(weights.sat_frac @ delta_sat),
        delta_per_device=delta_dev, Delta_per_satellite=delta_sat)


def augment(features: np.ndarray) -> np.ndarray:
    """Append the constant bias feature to row-major ``(..., d)`` features."""
    ones = np.ones(features.shape[:-1] + (1,))
    return np.concatenate([features, ones], axis=-1)


def l2_mask(weights: np.ndarray) -> np.ndarray:
    """The weights with their bias row zeroed: what the L2 term of a
    gradient regularizes."""
    mask = np.ones_like(weights)
    mask[..., -1, :] = 0.0
    return mask * weights


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Indicator rows along a new last axis, for labels of any shape."""
    return (labels[..., None] == np.arange(n_classes)).astype(float)


def one_hot_softmax(z, axis, labels=None):
    """The softmax with the cross-entropy's target logit taken as the
    class-axis sum of the full one-hot * logits product."""
    z -= z.max(axis=axis, keepdims=True)
    if labels is not None:
        targets = np.moveaxis(labels[..., None] == np.arange(z.shape[axis]),
                              -1, axis).astype(float)
        target_logit = (targets * z).sum(axis=axis)
    np.exp(z, out=z)
    total = z.sum(axis=axis, keepdims=True)
    z /= total
    if labels is None:
        return z
    return z, np.log(total.squeeze(axis)) - target_logit


@dataclass(frozen=True)
class OneHotSamples:
    """Samples with dense one-hot targets ``y`` ``(C, D, n)`` in the
    features' dtype, beside the same augmented features ``x``."""

    x: np.ndarray
    y: np.ndarray

    @classmethod
    def of(cls, samples: Samples) -> "OneHotSamples":
        y = one_hot(samples.labels, samples.n_classes).transpose(2, 0, 1)
        return cls(x=samples.x,
                   y=np.ascontiguousarray(y.astype(samples.x.dtype)))

    @property
    def class_counts(self) -> np.ndarray:
        """Samples of each class per device, ``(D, C)``."""
        return self.y.sum(axis=2).T

    def select(self, idx: np.ndarray) -> "OneHotSamples":
        """Per-device sample subsets; ``idx`` is ``(D, b)`` column indices."""
        return OneHotSamples(x=np.take_along_axis(self.x, idx[None], axis=2),
                             y=np.take_along_axis(self.y, idx[None], axis=2))

    def probe_samples(self, dtype) -> ProbeSamples:
        """``ProbeSamples.of`` with the moments from the cast ``y``."""
        x, y = self.x.astype(dtype), self.y.astype(dtype)
        rows = np.ascontiguousarray(x.transpose(1, 2, 0))
        moments = y.transpose(1, 0, 2) @ rows
        moments /= x.shape[2]
        return ProbeSamples(x=x, rows=rows, target_moments=moments)


def one_hot_grad(learner, flat: np.ndarray,
                 samples: OneHotSamples) -> np.ndarray:
    """``learner.grad`` with the residual taken as the probabilities minus
    the dense one-hot targets."""
    x, n_dev, n = samples.x, samples.x.shape[1], samples.x.shape[2]
    if isinstance(learner, SoftmaxLearner):
        weights = learner._shape(flat)
        probs = learner._probabilities(weights, x)
        probs -= samples.y
        grads = x.transpose(1, 0, 2) @ probs.transpose(1, 2, 0)
        grads /= n
        grads[..., :-1, :] += learner.l2 * weights[..., :-1, :]
        return grads.reshape(n_dev, -1)
    assert isinstance(learner, MlpLearner)
    w1, w2, h, h_aug, logits = learner._forward(flat, x)
    diff = _softmax(logits, axis=1)
    diff -= samples.y.transpose(1, 0, 2)
    g2 = h_aug @ diff.transpose(0, 2, 1) / n
    back = (w2[..., :-1, :] @ diff) * (1 - h ** 2)
    g1 = x.transpose(1, 0, 2) @ back.transpose(0, 2, 1) / n
    g1 += learner.l2 * l2_mask(w1)
    g2 += learner.l2 * l2_mask(w2)
    return np.concatenate([g1.reshape(n_dev, -1), g2.reshape(n_dev, -1)],
                          axis=1)
