"""Tour construction subroutines: strip tour, 2-opt polish, exact oracle.

The serpentine strip tour is the workhorse used by every approximation
scheme in this package: it is deterministic, runs in O(n log n), and its
length is provably at most (2 sqrt(n) + 4) times the side of the bounding
square.  The 2-opt pass improves it locally, and the subset dynamic program
provides ground truth on small instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import PointSet, Route, route_length
from .errors import CapacityError

__all__ = ["TspResult", "STRIP_SLACK", "strip_tour", "two_opt", "strip_two_opt", "tsp_exact"]

# Additive slack of the serpentine bound, in units of the square side.
STRIP_SLACK = 4.0

EXACT_TSP_MAX_N = 15


@dataclass(frozen=True)
class TspResult:
    route: Route
    length: float
    method: str


def strip_tour(ps: PointSet) -> TspResult:
    """Serpentine tour over ceil(sqrt(n)) horizontal strips.

    Points are bucketed by strip, sorted by x with alternating direction,
    concatenated bottom-to-top and closed.  The resulting length is at most
    (2*sqrt(n) + 4) * side for every input.
    """
    n = len(ps)
    if n == 0:
        raise ValueError("strip tour of an empty point set is undefined")
    if n == 1:
        return TspResult(Route((0,), closed=True), 0.0, "strip")
    strips = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    h = ps.square.side / strips
    ys = ps.coords[:, 1] - ps.square.origin[1]
    strip = np.clip(np.floor(ys / h).astype(np.int64), 0, strips - 1)
    xs = np.where(strip % 2 == 0, ps.coords[:, 0], -ps.coords[:, 0])
    order = np.lexsort((xs, strip))
    route = Route(tuple(int(i) for i in order), closed=True)
    length = route_length(route, ps)
    assert length <= (2.0 * math.sqrt(n) + STRIP_SLACK) * ps.square.side + 1e-9
    return TspResult(route, length, "strip")


def two_opt(ps: PointSet, start: Route) -> TspResult:
    """First-improvement 2-opt on a closed route, capped at 50*n moves."""
    if not start.closed:
        raise ValueError("two_opt expects a closed starting route")
    order = list(start.order)
    t = len(order)
    if t < 4:
        return TspResult(start, route_length(start, ps), "strip+2opt")

    pts = ps.coords[order].copy()
    xs, ys = pts[:, 0], pts[:, 1]

    def edge_lengths():
        return np.hypot(xs - np.roll(xs, -1), ys - np.roll(ys, -1))

    d_next = edge_lengths()
    eps = 1e-12 * max(1.0, ps.square.side)
    cap = 50 * t
    moves = 0
    improved = True
    while improved and moves < cap:
        improved = False
        i = 0
        while i < t - 2 and moves < cap:
            js = np.arange(i + 2, t)
            delta = (
                np.hypot(xs[i] - xs[js], ys[i] - ys[js])
                + np.hypot(xs[i + 1] - xs[(js + 1) % t], ys[i + 1] - ys[(js + 1) % t])
                - d_next[i]
                - d_next[js]
            )
            hit = np.flatnonzero(delta < -eps)
            if hit.size:
                j = int(js[hit[0]])
                order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]
                xs[i + 1 : j + 1] = xs[i + 1 : j + 1][::-1]
                ys[i + 1 : j + 1] = ys[i + 1 : j + 1][::-1]
                d_next = edge_lengths()
                moves += 1
                improved = True
                # re-scan the same row: the reversal may expose further moves
            else:
                i += 1
    route = Route(tuple(order), closed=True)
    return TspResult(route, route_length(route, ps), "strip+2opt")


def strip_two_opt(ps: PointSet) -> TspResult:
    """Strip tour followed by the 2-opt polish."""
    return two_opt(ps, strip_tour(ps).route)


def _distance_matrix(ps: PointSet) -> np.ndarray:
    """All pairwise Euclidean distances, an (n, n) float64 array."""
    diff = ps.coords[:, None, :] - ps.coords[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


@functools.lru_cache(maxsize=None)
def _layers(n: int) -> tuple[np.ndarray, ...]:
    """The subsets of n points as bitmasks, grouped by size: entry s holds
    every mask of popcount s in increasing order."""
    pc = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])  # popcount(m + 2^b) = popcount(m) + 1
    masks = np.argsort(pc, kind="stable")
    masks.flags.writeable = False  # cached and shared by every caller
    return tuple(np.split(masks, np.cumsum(np.bincount(pc))[:-1]))


@functools.lru_cache(maxsize=None)
def _steps(n: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
    """For each subset size s and point v: the masks of size s that hold v,
    and the same masks without v (int32, about 0.9 MB at n = 14)."""
    steps = []
    for layer in _layers(n):
        layer = layer.astype(np.int32)
        sels = [layer[(layer >> v) & 1 == 1] for v in range(n)]
        steps.append(tuple((sel, sel ^ (1 << v)) for v, sel in enumerate(sels)))
    return tuple(steps)


def _held_karp(
    dist: np.ndarray, start_cost: np.ndarray, stop: int, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Held-Karp subset dynamic program over (visited set, last point).

    ``cost[mask, v]`` is the cheapest path through exactly the points in
    ``mask`` that ends at v; a one-point path {v} costs ``start_cost[v]``,
    and the edge that grows a path to s points costs
    ``weights[s]`` times its length (1 without ``weights``).  Layers are
    filled by popcount up to ``stop``; for each layer and last point, one
    numpy step relaxes every mask of the layer that holds that point.  Ties
    go to the lowest-index predecessor, recorded in ``parent`` (-1 for one-
    point paths and unfilled states).

    Time O(n^2 * 2^n); memory n * 2^n float64 costs plus int8 parents.
    """
    n = len(start_cost)
    cost = np.full((1 << n, n), np.inf)
    parent = np.full((1 << n, n), -1, dtype=np.int8)
    points = np.arange(n)
    cost[1 << points, points] = start_cost
    rows = np.arange(1 << n)
    steps = _steps(n)
    for s in range(2, stop + 1):
        w = 1.0 if weights is None else weights[s]
        for v, (sel, prev) in enumerate(steps[s]):
            cand = cost[prev]
            cand += w * dist[:, v]
            best = cand.argmin(axis=1)
            parent[sel, v] = best
            cost[sel, v] = cand[rows[: len(sel)], best]
    return cost, parent


def _path_to(parent: np.ndarray, mask: int, last: int) -> list[int]:
    """The optimal path of state (mask, last), first point first."""
    order = []
    while last != -1:
        order.append(last)
        mask, last = mask ^ (1 << last), int(parent[mask, last])
    order.reverse()
    return order


def tsp_exact(ps: PointSet) -> TspResult:
    """Shortest closed tour by the Held-Karp dynamic program.

    Point 0 anchors the tour (cyclic symmetry makes this lossless), so the
    program runs over the other n - 1 points with paths starting one edge
    away from it.  Time O(n^2 * 2^n), memory n * 2^n float64 plus int8 over
    those n - 1 points (2.1 MB at n = 15); capped at n <= 15.  Among tours of
    equal cost, the lowest-index predecessor wins at every step.
    """
    n = len(ps)
    if n < 1:
        raise ValueError("exact tour of an empty point set is undefined")
    if n > EXACT_TSP_MAX_N:
        raise CapacityError(f"tsp_exact supports at most {EXACT_TSP_MAX_N} points, got {n}")
    if n <= 2:
        route = Route(tuple(range(n)), closed=True)
        return TspResult(route, route_length(route, ps), "exact")

    dist = _distance_matrix(ps)
    cost, parent = _held_karp(dist[1:, 1:], dist[0, 1:], n - 1)
    full = (1 << (n - 1)) - 1
    last = int(np.argmin(cost[full] + dist[1:, 0]))
    order = (0,) + tuple(v + 1 for v in _path_to(parent, full, last))
    route = Route(order, closed=True)
    return TspResult(route, route_length(route, ps), "exact")
