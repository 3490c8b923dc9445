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

from .core import GridDensity, PointSet, Route, _path_length, cell_ids, route_length
from .core import _require_count, _require_finite, _require_int
from .errors import CapacityError
from .tsp import _distance_matrix, _held_karp, _layers, _path_to, strip_two_opt

__all__ = [
    "KtspResult",
    "ktsp_grid_scheme",
    "ktsp_nonuniform_scheme",
    "ktsp_exact",
    "ktsp_rate",
    "ktsp_tail_bound",
]

EXACT_KTSP_MAX_N = 12


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


def _open_at_longest_edge(order: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Cut a closed tour at its longest edge, yielding an open path."""
    pts = coords.take(order, axis=0)
    gaps = pts - np.concatenate((pts[1:], pts[:1]))
    cut = int(np.argmax(np.hypot(gaps[:, 0], gaps[:, 1]))) + 1
    return np.concatenate((order[cut:], order[:cut]))


def ktsp_grid_scheme(ps: PointSet, k: int) -> KtspResult:
    """Serve k points inside one crowded cell of a self-tuned grid.

    Starting from the finest resolution, the square is partitioned into
    equal cells; if some cell holds at least k points (ties broken by the
    lowest row-major index), the k points nearest that cell's center are
    toured with the strip construction plus 2-opt, and the tour is opened
    by dropping its longest edge.  Otherwise the grid is coarsened and the
    search repeats; the single-cell grid always succeeds, so the loop
    terminates.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", len(ps), k)
    area = ps.square.area
    alpha = 0
    while True:
        alpha += 1
        m = _grid_resolution(alpha, k, n, area)
        ids = cell_ids(ps.coords, ps.square, m)
        # a cell holds >= k points where k equal ids sit in a row once sorted;
        # the first such run is the lowest crowded cell
        srt = np.sort(ids)
        full = srt[: n - k + 1] == srt[k - 1 :]
        first = int(full.argmax())
        if full[first]:
            cell = int(srt[first])
            break

    members = np.flatnonzero(ids == cell)
    cx, cy = ps.square.cell_center(m, cell)
    pts = ps.coords.take(members, axis=0)
    d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
    chosen = members[np.argsort(d2, kind="stable")[:k]]  # members ascend: ties to the lower index

    sub = ps.subset(chosen, ps.square.cell(m, cell))
    tour = strip_two_opt(sub)
    path = chosen[_open_at_longest_edge(np.array(tour.route.order, dtype=np.intp), sub.coords)]
    route = Route(tuple(path.tolist()), closed=False)
    return KtspResult(route, _path_length(ps.coords.take(path, axis=0), closed=False), alpha, cell)


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
    ids = cell_ids(ps.coords, d.square, d.m)
    members = np.flatnonzero(ids == target)
    if members.size < k:
        return ktsp_grid_scheme(ps, k)
    sub = ps.subset(members, d.square.cell(d.m, target))
    inner = ktsp_grid_scheme(sub, k)
    path = members[np.array(inner.route.order, dtype=np.intp)]
    route = Route(tuple(path.tolist()), closed=False)
    length = _path_length(ps.coords.take(path, axis=0), closed=False)
    return KtspResult(route, length, inner.alpha_used, inner.cell_chosen, density_cell=target)


def ktsp_exact(ps: PointSet, k: int) -> KtspResult:
    """Shortest open path through exactly k of the n points.

    k = 2 and k = 3 are solved in closed form for any n (closest pair,
    best middle point).  Larger k runs the Held-Karp dynamic program from
    every start point up to paths of k points: time O(n^2 * 2^n), memory
    n * 2^n float64 plus int8 (0.44 MB at n = 12); capped at n <= 12.  Among
    paths of equal cost, the lowest-index predecessor wins at every step.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", len(ps), k)
    if k >= 4 and n > EXACT_KTSP_MAX_N:
        raise CapacityError(f"ktsp_exact supports at most {EXACT_KTSP_MAX_N} points for k >= 4, got {n}")
    dist = _distance_matrix(ps)

    if k == 2:
        masked = dist + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
        flat = int(np.argmin(masked))
        i, j = divmod(flat, n)
        order = (min(i, j), max(i, j))
        route = Route(order, closed=False)
        return KtspResult(route, float(masked[i, j]), 0, None)

    if k == 3:
        masked = dist + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
        nearest2 = np.argsort(masked, axis=1, kind="stable")[:, :2]
        totals = np.take_along_axis(masked, nearest2, axis=1).sum(axis=1)
        mid = int(np.argmin(totals))
        a, b = int(nearest2[mid, 0]), int(nearest2[mid, 1])
        route = Route((a, mid, b), closed=False)
        return KtspResult(route, float(totals[mid]), 0, None)

    cost, parent = _held_karp(dist, np.zeros(n), k)
    layer = _layers(n)[k]
    # among ties the lowest mask, then the highest last point: of a path and
    # its reverse at equal cost, the one starting at the lower index
    flat = int(np.argmin(cost[layer][:, ::-1]))
    order = _path_to(parent, int(layer[flat // n]), n - 1 - flat % n)
    route = Route(tuple(order), closed=False)
    return KtspResult(route, route_length(route, ps), 0, None)


def ktsp_rate(k: int, n: int, area: float) -> float:
    """Constant-free growth-rate term (k-1) / n^((1/2)(1+1/(k-1))) * sqrt(area).

    k is an integer of at least 2, n a whole number of at least k and area
    positive and finite; anything else raises ``ValueError``.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", n, k)
    _require_finite(area=area)
    if area <= 0:
        raise ValueError(f"area must be positive, got {area}")
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
    _require_finite(area=area, threshold=threshold)
    if area <= 0 or threshold < 0:
        raise ValueError(f"area must be positive and threshold nonnegative, got {area} and {threshold}")
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
