"""Open paths through k of n points: grid scheme, exact oracle, rate bounds.

The grid scheme exploits local concentration: partition the square at a
resolution tuned to (k, n), serve k points inside one crowded cell, and
coarsen the grid until such a cell exists.  The exact oracle and the
analytic rate/tail evaluators make the scheme's behaviour falsifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridDensity, PointSet, Route, Square, _cell_ids, _path_length, route_length
from .core import _require_count, _require_int, _require_real
from .tsp import _distance_matrix, _held_karp, _knn, _path_to, _require_budget, strip_two_opt

__all__ = [
    "KtspResult",
    "ktsp_grid_scheme",
    "ktsp_nonuniform_scheme",
    "ktsp_exact",
    "ktsp_rate",
    "ktsp_tail_bound",
]


@dataclass(frozen=True)
class KtspResult:
    """Open path over exactly k point indices.

    ``alpha_used`` is the coarsening step at which the grid scheme found a
    crowded cell and ``cell_chosen`` that cell's row-major index in the
    scheme's internal grid.  ``density_cell`` is set by the density-aware
    variant to the density cell the search was restricted to.
    """

    route: Route
    length: float
    alpha_used: int
    cell_chosen: int | None
    density_cell: int | None = None

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "k": len(self.route),
            "alpha_used": self.alpha_used,
            "cell_chosen": self.cell_chosen,
            "order": list(self.route.order),
        }


def _grid_resolution(alpha: int, k: int, n: int, area: float) -> int:
    m = math.floor(math.sqrt(n ** (1.0 + 1.0 / (k - 1)) / (area * (k - 1))) / alpha)
    return max(m, 1)


def ktsp_grid_scheme(ps: PointSet, k: int) -> KtspResult:
    """Serve k points inside one crowded cell of a self-tuned grid.

    Starting from the finest resolution, the square is partitioned into
    equal cells; if some cell holds at least k points (ties broken by the
    lowest row-major index), the k points nearest that cell's center
    (among members at equal distance, the lower point index first) are
    toured with the strip construction plus 2-opt, and the tour is opened
    by dropping its longest edge (the first such edge of the tour).
    Otherwise the grid is coarsened and the search repeats; the single-cell
    grid always succeeds, so the loop terminates.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", len(ps), k)
    area = ps.square.area
    alpha = 0
    while True:
        alpha += 1
        m = _grid_resolution(alpha, k, n, area)
        ids = _cell_ids(ps.coords, ps.square, m)  # ps lies in its square; m >= 1 is an int
        # a cell holds >= k points where k equal ids sit in a row once sorted;
        # the first such run is the lowest crowded cell
        srt = np.sort(ids)
        full = srt[: n - k + 1] == srt[k - 1 :]
        first = int(full.argmax())
        if full[first]:
            cell = int(srt[first])
            break

    box = ps.square.cell(m, cell)
    cx, cy = box.origin[0] + box.side / 2, box.origin[1] + box.side / 2  # cell_center's floats
    members = np.flatnonzero(ids == cell)
    pts = ps.coords.take(members, axis=0)
    d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
    chosen = members[np.argsort(d2, kind="stable")[:k]]  # members ascend: ties to the lower index

    sub = ps._subset(chosen, box)
    tour = strip_two_opt(sub).route.order
    # open the tour at its longest edge; the edge after position i ends at i + 1
    pts = sub.coords.take(tour, axis=0)
    gaps = pts - np.concatenate((pts[1:], pts[:1]))
    cut = int(np.argmax(np.hypot(gaps[:, 0], gaps[:, 1]))) + 1
    return KtspResult(*_lift(ps, chosen, tour[cut:] + tour[:cut]), alpha, cell)


def _lift(ps: PointSet, members: np.ndarray, order) -> tuple[Route, float]:
    """The open path through ``members[order]`` as a route of ps, and its
    length on ps's coordinates, which a subset may have clipped by an ulp."""
    path = members.take(order)
    return Route._of(tuple(path.tolist()), closed=False), _path_length(ps.coords.take(path, axis=0), closed=False)


def _ktsp_in_region(ps: PointSet, members: np.ndarray, region: Square, k: int, density_cell: int) -> KtspResult:
    """The grid scheme on the points ``members`` of ps, taken as a point set
    of ``region``, with its path lifted back to ps's indices."""
    inner = ktsp_grid_scheme(ps._subset(members, region), k)
    return KtspResult(*_lift(ps, members, inner.route.order), inner.alpha_used, inner.cell_chosen, density_cell)


def ktsp_nonuniform_scheme(ps: PointSet, d: GridDensity, k: int) -> KtspResult:
    """Grid scheme restricted to the highest-density cell of ``d``.

    The crowded-cell search runs inside that cell treated as the compact
    space (ties between equal-density cells break to the lowest index).
    If the cell holds fewer than k points the scheme falls back to the
    plain grid scheme on the whole square.
    """
    k = _require_int("k", k, 2)
    _require_count("n", len(ps), k)
    if d.square != ps.square:
        raise ValueError("density and point set must share the bounding square")
    target = d.max_cell()
    ids = _cell_ids(ps.coords, d.square, d.m)
    members = np.flatnonzero(ids == target)
    if members.size < k:
        return ktsp_grid_scheme(ps, k)
    return _ktsp_in_region(ps, members, d.square.cell(d.m, target), k, target)


def ktsp_exact(ps: PointSet, k: int) -> KtspResult:
    """Shortest open path through exactly k of the n points.

    k = 2 and k = 3 are solved in closed form from each point's k - 1
    nearest others (:func:`~routebench.tsp._knn`, the 2-opt candidate
    search): the closest pair, or the point whose two nearest others lie
    closest, between them; memory O(n) and no cap.  Larger k runs the
    Held-Karp dynamic program from every start point up to paths of k
    points: time sum over s <= k of s(s - 1) * C(n, s) candidate sums,
    O(k^2 * C(n, k)) for k <= n/3 (there each size at least doubles the
    sums of the one below), memory 16 bytes per (subset, last point) state
    of at most k points, and no parent table.  :func:`_exact_budget` caps
    n: 58 at k = 4, 35 at k = 5, 26 at k = 6, 22 at k = 7, 20 at k = 8,
    18 at k = 9 to 11, 17 at k = 12 to 17.  Among paths of equal cost, the
    lowest-index predecessor wins at every step.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", len(ps), k)
    _exact_budget(n, k)

    if k <= 3:  # the point whose k - 1 nearest others lie closest, with them
        near = _knn(ps.coords, k - 1)[0]
        gaps = ps.coords[:, None, :] - ps.coords.take(near, axis=0)
        totals = np.hypot(gaps[..., 0], gaps[..., 1]).sum(axis=1)
        mid = int(np.argmin(totals))
        a, *b = near[mid].tolist()  # at k = 2 mid < a: mid is the first row holding the least pair
        order = (mid, a) if k == 2 else (a, mid, *b)
        return KtspResult(Route._of(order, closed=False), float(totals[mid]), 0, None)

    dist = _distance_matrix(ps)
    cost = _held_karp(dist, np.zeros(n), k)
    # among ties the lowest mask, then the highest last point: of a path and
    # its reverse at equal cost, the one starting at the lower index
    r = int(np.argmin(cost[k].min(axis=0)))
    j = k - 1 - int(np.argmin(cost[k][::-1, r]))
    order = _path_to(cost, dist, r, j)
    route = Route._of(tuple(order), closed=False)
    return KtspResult(route, route_length(route, ps), 0, None)


def _exact_budget(n: int, k: int) -> None:
    """:func:`_require_budget` for ktsp_exact's dynamic program; the closed
    forms at k = 2 and 3 have no cap."""
    if k >= 4:
        _require_budget(f"ktsp_exact at k = {k}", n, n, k)


def ktsp_rate(k: int, n: int, area: float) -> float:
    """Constant-free growth-rate term (k-1) / n^((1/2)(1+1/(k-1))) * sqrt(area).

    k is an integer of at least 2, n a whole number of at least k and area
    positive and finite; anything else raises ``ValueError``.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", n, k)
    area = _require_real("area", area, "positive")
    exponent = 0.5 * (1.0 + 1.0 / (k - 1))
    return (k - 1) / n**exponent * math.sqrt(area)


def ktsp_tail_bound(k: int, n: int, area: float, threshold: float) -> float:
    """Upper bound on P[shortest k-point path <= threshold], capped at 1.

    Evaluated in log space as n^k * (2*pi*threshold^2 / area)^(k-1) / (2k-2)!
    to avoid overflow; a zero threshold gives probability zero.  k and n
    follow :func:`ktsp_rate`, and the threshold is nonnegative and finite.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", n, k)
    area, threshold = _require_real("area", area, "positive"), _require_real("threshold", threshold, "nonnegative")
    if threshold == 0:
        return 0.0
    log_bound = (
        k * math.log(n)
        + (k - 1) * (math.log(2 * math.pi) + 2 * math.log(threshold) - math.log(area))
        - math.lgamma(2 * k - 1)
    )
    if log_bound >= 0:
        return 1.0
    return math.exp(log_bound)
