"""Latency-minimizing service: density-ordered a priori scheme and oracle.

The a priori scheme is a master plan computed from the distribution alone:
visit grid cells by decreasing density, tour the realized points of each
cell locally, and glue the local tours with straight links.  The subset
dynamic program gives the true minimum total latency on small instances,
and the subpath-ordering helpers expose the sorting rule that makes the
density order optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    GridDensity,
    Point,
    PointSet,
    Route,
    _cell_ids,
    _group_by_cell,
    _require_count,
    _require_finite,
    _require_int,
    latency_growth_constant,
    total_latency,
)
from .tsp import _distance_matrix, _held_karp, _path_to, _require_budget, strip_two_opt

__all__ = [
    "TrpResult",
    "WeightedSubpath",
    "trp_apriori_scheme",
    "trp_exact",
    "optimal_subpath_order",
    "subpath_objective",
    "trp_factor_check",
]


@dataclass(frozen=True)
class TrpResult:
    """Open route over all points with its total latency.

    ``cell_order`` lists the visited (nonempty) cells in service order and
    ``per_cell_last_latency`` the waiting distance of the last point served
    in each of them.  Both are empty for oracle results, which do not go
    through the cell decomposition.
    """

    route: Route
    latency: float
    cell_order: tuple[int, ...] = ()
    per_cell_last_latency: tuple[float, ...] = ()
    depot_offset: float = 0.0

    def to_json(self) -> dict:
        return {
            "latency": self.latency,
            "n": len(self.route),
            "cell_order": list(self.cell_order),
            "order": list(self.route.order),
        }


@dataclass(frozen=True)
class WeightedSubpath:
    """A chunk of service: how many points it visits at which density level.

    ``n_visited`` is a whole number of at least 1, stored as an int, and
    ``density`` is positive and finite; anything else raises ``ValueError``.
    """

    n_visited: int
    density: float

    def __post_init__(self):
        object.__setattr__(self, "n_visited", _require_count("n_visited", self.n_visited, 1))
        _require_finite(density=self.density)
        if self.density <= 0:
            raise ValueError(f"subpath density must be positive, got {self.density}")


def trp_apriori_scheme(ps: PointSet, d: GridDensity, depot: Point | None = None) -> TrpResult:
    """Serve cells by decreasing density, touring each cell's points locally.

    Cells tie-break by lowest index.  Each nonempty cell gets a
    :func:`~routebench.tsp.strip_two_opt` tour (neighbour-list 2-opt and
    Or-opt over K = 8 candidates per point, capped at 50 moves per point),
    opened at the vertex nearest the previous cell's exit (the square
    origin, or the depot when given, for the first cell) and traversed in
    tour orientation; consecutive cells are linked by a straight edge.
    Nearly all of the scheme's time goes to that polish.
    With a depot, the depot-to-entry distance is added to every point's
    wait and reported via ``depot_offset``; a depot with a non-finite
    coordinate raises ``ValueError``.
    """
    if d.square != ps.square:
        raise ValueError("density and point set must share the bounding square")
    if depot is not None:
        _require_finite(depot_x=depot[0], depot_y=depot[1])
    n = len(ps)
    if n == 0:
        return TrpResult(Route._of((), closed=False), 0.0)

    m = d.m
    ids = _cell_ids(ps.coords, d.square, m)
    # decreasing density, lowest index first among ties; zero-density cells
    # holding stray points are served last under the same rule
    priority = np.lexsort((np.arange(m * m), -d.cells))
    start = np.array(depot, dtype=float) if depot is not None else np.array(d.square.origin, dtype=float)
    by_cell, bounds = _group_by_cell(ids, m * m)

    order: list[int] = []
    visited_cells: list[int] = []
    last_positions: list[int] = []
    exit_pos = start
    for cell in priority.tolist():
        members = by_cell[bounds[cell] : bounds[cell + 1]]
        if members.size == 0:
            continue
        sub = ps.subset(members, d.square.cell(m, cell))
        tour = np.array(strip_two_opt(sub).route.order, dtype=np.intp)
        pts = sub.coords.take(tour, axis=0)
        dists = np.hypot(pts[:, 0] - exit_pos[0], pts[:, 1] - exit_pos[1])
        entry = int(np.argmin(dists))
        order += members[np.concatenate((tour[entry:], tour[:entry]))].tolist()
        visited_cells.append(cell)
        last_positions.append(len(order) - 1)
        exit_pos = ps.coords[order[-1]]

    route = Route._of(tuple(order), closed=False)
    pts = ps.coords.take(np.array(order, dtype=np.intp), axis=0)
    steps = np.hypot(*(np.diff(pts, axis=0).T)) if n > 1 else np.zeros(0)
    prefix = np.concatenate([[0.0], np.cumsum(steps)])
    depot_offset = 0.0
    if depot is not None:
        depot_offset = n * float(np.hypot(pts[0, 0] - depot.x, pts[0, 1] - depot.y))
    latency = float(np.arange(n - 1, 0, -1.0) @ steps) + depot_offset  # total_latency of the route
    per_cell = tuple(prefix[last_positions].tolist())
    return TrpResult(route, latency, tuple(visited_cells), per_cell, depot_offset)


def trp_exact(ps: PointSet) -> TrpResult:
    """Minimum total latency over all open visiting orders (free start).

    Held-Karp dynamic program over (visited set, last) from every start
    point; extending a partial order of size s charges the new edge (n - s)
    times.  Time O(n^2 * 2^n), memory 16 bytes per (subset, last) state
    and no parent table; :func:`~routebench.tsp._require_budget` refuses
    n > 17.  Among orders of equal cost, the lowest-index predecessor wins
    at every step.
    """
    n = len(ps)
    _require_budget("trp_exact", n, n, n)
    if n == 0:
        return TrpResult(Route._of((), closed=False), 0.0)

    # the edge that grows a path to s points delays the n - s + 1 points after it
    dist, weights = _distance_matrix(ps), n + 1 - np.arange(n + 1)
    cost = _held_karp(dist, np.zeros(n), n, weights)
    route = Route._of(tuple(_path_to(cost, dist, (1 << n) - 1, int(np.argmin(cost[n][:, 0])), weights)), closed=False)
    return TrpResult(route, total_latency(route, ps))


def subpath_objective(subpaths: Sequence[WeightedSubpath], perm: Sequence[int]) -> float:
    """Weighted tail count objective for a given service permutation.

    Position i contributes n_i / sqrt(density_i) times the number of points
    still waiting after it.
    """
    perm = [_require_int(f"perm[{i}]", p, 0) for i, p in enumerate(perm)]
    if sorted(perm) != list(range(len(subpaths))):
        raise ValueError("perm must be a permutation of the subpath indices")
    counts = [subpaths[p].n_visited for p in perm]
    tail = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0.0]])
    coeff = np.array([counts[i] / math.sqrt(subpaths[p].density) for i, p in enumerate(perm)])
    return float(coeff @ tail)


def optimal_subpath_order(subpaths: Sequence[WeightedSubpath]) -> tuple[int, ...]:
    """Permutation minimizing the weighted tail objective: decreasing density.

    Ties keep the original order, so the result is stable and deterministic.
    """
    if not subpaths:
        raise ValueError("subpath list must be nonempty")
    return tuple(sorted(range(len(subpaths)), key=lambda i: (-subpaths[i].density, i)))


def trp_factor_check(ps: PointSet, d: GridDensity) -> float:
    """Scheme latency divided by n*sqrt(n) times the density growth constant."""
    n = len(ps)
    if n == 0:
        raise ValueError("factor check needs at least one point")
    g = latency_growth_constant(d)
    if g <= 0:
        raise ValueError("density growth constant is zero; ratio undefined")
    result = trp_apriori_scheme(ps, d)
    return result.latency / (n * math.sqrt(n) * g)
