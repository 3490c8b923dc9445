"""Tour construction subroutines: strip tour, 2-opt polish, exact oracle.

The serpentine strip tour is the workhorse used by every approximation
scheme in this package: it is deterministic, runs in O(n log n), and its
length is provably at most (2 sqrt(n) + 4) times the side of the bounding
square.  The 2-opt pass (neighbour lists, Or-opt and a don't-look queue)
improves it locally, and the subset dynamic program provides ground truth
on small instances.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import PointSet, Route, _path_length, _route_points, route_length
from .errors import CapacityError

__all__ = ["TspResult", "strip_tour", "two_opt", "strip_two_opt", "tsp_exact"]

EXACT_TSP_MAX_N = 15

# Candidate neighbours per point, and the longest segment an Or-opt move
# relocates, in ``two_opt``.
NEIGHBORS = 8
OR_OPT_MAX = 3
# Candidate lists: up to _SORT_MAX points, sort rows of the distance matrix
# in Python; above, at most _KNN_BLOCK squared distances per numpy block.
_SORT_MAX = 16
_KNN_BLOCK = 1 << 12
# Held-Karp states relaxed per numpy step.
_HK_BLOCK = 1 << 11


@dataclass(frozen=True)
class TspResult:
    """A closed tour and its length.

    ``moves`` counts the improving moves that ``two_opt`` made and
    ``cap_hit`` says whether its 50 * t move cap stopped it; both stay at
    their defaults for the strip tour and the exact oracle.
    """

    route: Route
    length: float
    method: str
    moves: int = 0
    cap_hit: bool = False


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
    strip = np.minimum((ys / h).astype(np.int64), strips - 1)  # ys >= 0: truncation is the floor
    xs = np.where(strip % 2 == 0, ps.coords[:, 0], -ps.coords[:, 0])
    order = np.lexsort((xs, strip))
    route = Route(tuple(order.tolist()), closed=True)
    length = _path_length(ps.coords.take(order, axis=0), closed=True)
    assert length <= (2.0 * math.sqrt(n) + 4.0) * ps.square.side + 1e-9
    return TspResult(route, length, "strip")


def _nearest(d2: np.ndarray, cand: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the k candidates of least squared distance ``d2``, in
    (distance, index) order, and those distances; needs k < columns."""
    r = np.arange(len(d2))[:, None]
    part = np.argpartition(d2, (k - 1, k), axis=1)
    sel = part[:, :k]
    # a tie across the k-th place goes to the lower indices
    for i in np.flatnonzero(d2[r[:, 0], part[:, k - 1]] == d2[r[:, 0], part[:, k]]):
        sel[i] = np.lexsort((cand[i], d2[i]))[:k]
    cand, d2 = cand[r, sel], d2[r, sel]
    rank = np.lexsort((cand, d2), axis=1)
    return cand[r, rank], d2[r, rank]


def _grid_neighbors(pts: np.ndarray, k: int, nbr: np.ndarray, d2s: np.ndarray) -> np.ndarray:
    """Fill the rows of ``nbr`` and ``d2s`` that a grid search settles, and
    return the indices of the other rows.

    Points are bucketed in a grid of about two per cell, and a point's
    candidates are the points in the 5 x 5 cells around its own.  Sorted by
    cell, the points of one row of those cells form one run, so the
    candidates are five runs.  A row is settled when its k-th distance is
    below the distance from the point to the edge of those cells.  An input
    too crowded for the grid settles none: one whose fullest cell holds more
    than 4k points, or at least t / 25.
    """
    t = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    everyone = np.arange(t)
    low = pts.min(axis=0)
    span = float((pts.max(axis=0) - low).max())
    if span == 0:
        return everyone
    g = math.isqrt(t // 2)  # grid cells per side
    h = span / g
    col = np.minimum(((x - low[0]) / h).astype(np.int64), g - 1)
    row = np.minimum(((y - low[1]) / h).astype(np.int64), g - 1)
    gp = g + 4  # two cells of empty padding on every side
    cell = (row + 2) * gp + col + 2
    counts = np.bincount(cell, minlength=gp * gp)
    fullest = int(counts.max())
    if 25 * fullest >= t or fullest > 4 * k:  # the runs below stay O(k) long
        return everyone
    order = np.append(np.argsort(cell, kind="stable"), -1)  # -1 pads short runs
    xp, yp = np.append(x, np.inf), np.append(y, np.inf)  # and lies infinitely far away
    starts = np.concatenate(([0], np.cumsum(counts)))  # cell c's points are order[starts[c] : starts[c + 1]]
    # per point, the five runs of its window: where each starts in order, and its length
    rows_of_window = np.arange(-2, 3) * gp
    first = starts[cell[:, None] + (rows_of_window - 2)]
    size = starts[cell[:, None] + (rows_of_window + 3)] - first
    run = max(int(size.max()), k // 5 + 1)  # 5 * run > k, as _nearest needs
    width = 5 * run
    step = np.arange(run)
    rows = max(1, _KNN_BLOCK // width)
    for lo in range(0, t, rows):
        hi = min(t, lo + rows)
        at = np.where(step < size[lo:hi, :, None], first[lo:hi, :, None] + step, t)
        cand = order[at].reshape(hi - lo, width)
        d2 = (x[lo:hi, None] - xp[cand]) ** 2 + (y[lo:hi, None] - yp[cand]) ** 2
        d2[cand == everyone[lo:hi, None]] = np.inf
        nbr[lo:hi], d2s[lo:hi] = _nearest(d2, cand, k)
    # distance to the nearest edge of the 5 x 5 cells that faces other points
    margin = np.minimum.reduce([
        np.where(col > 2, x - (low[0] + (col - 2) * h), np.inf),
        np.where(col < g - 3, low[0] + (col + 3) * h - x, np.inf),
        np.where(row > 2, y - (low[1] + (row - 2) * h), np.inf),
        np.where(row < g - 3, low[1] + (row + 3) * h - y, np.inf),
    ]) - 1e-9 * h
    return np.flatnonzero(d2s[:, -1] >= np.where(margin > 0, margin, 0.0) ** 2)


def _neighbor_lists(pts: np.ndarray, k: int) -> tuple[np.ndarray, list[list[tuple[int, float]]]]:
    """The k nearest other points of each point: as an index array, and as
    lists of (index, distance) pairs.

    Neighbours run nearest first, ties to the lower index.  Up to
    ``_SORT_MAX`` points, rows of the distance matrix are sorted in Python.
    Above it a grid search settles most rows, and numpy sorts the others
    against all points, in blocks of at most ``_KNN_BLOCK`` distances, so
    memory is O(t * k) plus one bounded block.
    """
    t = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    if t <= _SORT_MAX:
        d2 = (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2
        np.fill_diagonal(d2, np.inf)  # a point is not its own neighbour
        rows = d2.tolist()
        near = [sorted(range(t), key=row.__getitem__)[:k] for row in rows]
        return np.array(near), [[(j, math.sqrt(row[j])) for j in js] for row, js in zip(rows, near)]

    nbr = np.empty((t, k), dtype=np.int64)
    d2s = np.empty((t, k))
    todo = _grid_neighbors(pts, k, nbr, d2s)
    rows = max(1, _KNN_BLOCK // t)
    for lo in range(0, len(todo), rows):
        part = todo[lo : lo + rows]
        r = np.arange(len(part))[:, None]
        d2 = (x[part, None] - x) ** 2 + (y[part, None] - y) ** 2
        d2[r[:, 0], part] = np.inf
        near = np.argsort(d2, axis=1, kind="stable")[:, :k]
        nbr[part], d2s[part] = near, d2[r, near]
    return nbr, list(map(list, map(zip, nbr.tolist(), np.sqrt(d2s).tolist())))


def _reverse(tour: list[int], pos: list[int], u: int, v: int) -> None:
    """Reverse the tour path that runs forward from u to v.

    When that path is the longer side, the rest of the tour is reversed
    instead: the same cycle, traversed the other way round.
    """
    t = len(tour)
    i, j = pos[u], pos[v]
    if 2 * ((j - i) % t + 1) > t:
        i, j = (j + 1) % t, (i - 1) % t
    if i <= j:
        seg = tour[i : j + 1]
        seg.reverse()
        tour[i : j + 1] = seg
        for p, c in enumerate(seg, i):
            pos[c] = p
    else:  # the path wraps past the end of the list
        seg = tour[i:] + tour[: j + 1]
        seg.reverse()
        tour[i:], tour[: j + 1] = seg[: t - i], seg[t - i :]
        for p, c in enumerate(seg, i - t):
            pos[c] = p % t


def _move2(tour: list[int], pos: list[int], a: int, b: int, c: int, d: int) -> None:
    """Replace tour edges (a, b) and (c, d) by (a, c) and (b, d).

    b follows a and d follows c in the same direction of travel.
    """
    if tour[(pos[a] + 1) % len(tour)] == b:
        _reverse(tour, pos, b, c)
    else:
        _reverse(tour, pos, a, d)


def _move_segment(tour: list[int], pos: list[int], p: int, s1: int, sk: int, n: int, c: int, e: int) -> None:
    """Move the path s1 .. sk, which runs from after p to before n, into the
    tour edge (c, e), with s1 next to c.  Done as two or three 2-opt moves."""
    t = len(tour)
    a = s1
    # u, w: the edge (c, e) in the direction in which s1 follows p
    same = (tour[(pos[p] + 1) % t] == s1) == (tour[(pos[c] + 1) % t] == e)
    u, w = (c, e) if same else (e, c)
    if w == p:  # view the tour in the other direction, so that u == n
        p, s1, sk, n, u, w = n, sk, s1, p, w, u
    _move2(tour, pos, p, s1, u, w)  # p u .. n sk .. s1 w
    if u != n:
        _move2(tour, pos, p, u, n, sk)  # p n .. u sk .. s1 w
    if (u == c) != (sk == a):
        _move2(tour, pos, u, sk, s1, w)  # p n .. u s1 .. sk w


def _stale(tour: list[int], pos: list[int], nbr: np.ndarray, examined: list[int], touched: list[int]) -> list[int]:
    """The points, in tour order, that a move may have changed since they
    were last examined: those whose own edges, the edges within three tour
    steps of them, or the edges of one of their candidates changed since."""
    t = len(tour)
    tour_a, touched_a = np.array(tour), np.array(touched)
    ring = touched_a[np.concatenate([tour_a[-3:], tour_a, tour_a[:3]])]
    latest = np.maximum.reduce([ring[j : j + t] for j in range(7)])[pos]
    latest = np.maximum(latest, touched_a[nbr].max(axis=1))
    return tour_a[(latest > np.array(examined))[tour_a]].tolist()


def two_opt(ps: PointSet, start: Route) -> TspResult:
    """Neighbour-list 2-opt and Or-opt with a don't-look queue.

    Each point gets its K = min(8, t - 1) nearest neighbours as candidates.
    A FIFO queue holds the active points, at first every point in route
    order.  A point a taken from the queue tries, in both directions of
    travel:

    - 2-opt: replace the edge from a to its tour neighbour b, and one edge
      at a candidate c, by (a, c) plus the edge that closes the tour.  The
      candidates are scanned nearest first until one is no closer than b.
    - Or-opt: move the segment of 1-3 points that starts at a into an edge
      at a candidate c, with a next to c, in either orientation.  The
      candidates are scanned until one is no closer than what taking the
      segment out saves.

    The first move that shortens the tour by more than 1e-12 * max(1, side)
    is made, and every endpoint of a changed edge is queued again.  When the
    queue runs dry, each point whose own edges, those within three tour
    steps, or those of its candidates changed since it was last examined is
    queued once more.  The search stops when that queues nothing, or after
    50 * t moves.  A reversal can flip the direction in which a candidate c
    runs relative to a without changing an edge near either, so a move from
    a to c may still improve the final tour.  With t <= K + 1 every point is
    a candidate of every other and is queued again after any move, so the
    final tour is 2-opt optimal.  The tour is a list plus a position array,
    and a move reverses the shorter side of it.

    The result starts at the first point of ``start`` and is never longer
    than it; ``moves`` counts the moves made and ``cap_hit`` says whether the
    cap stopped the search.
    """
    if not start.closed:
        raise ValueError("two_opt expects a closed starting route")
    order = start.order
    t = len(order)
    if t < 4:
        return TspResult(start, route_length(start, ps), "strip+2opt")

    coords = _route_points(start, ps)
    pt = list(map(tuple, coords.tolist()))
    nbr, cands = _neighbor_lists(coords, min(NEIGHBORS, t - 1))
    dist = math.dist
    eps = 1e-12 * max(1.0, ps.square.side)
    cap = 50 * t
    # at least three points stay outside a segment; on four points every
    # segment move is also a 2-opt move
    max_seg = min(OR_OPT_MAX, t - 3) if t > 4 else 0
    # tour[i + fwd] and tour[i + bwd] follow and precede position i, without wrapping
    fwd, bwd = 1 - t, -1

    tour = list(range(t))
    pos = list(range(t))
    queue = collections.deque(tour)
    queued = [True] * t
    examined = [-1] * t  # move count when a point was last examined
    touched = [0] * t  # move count when a point's edges last changed
    moves = filled_at = 0
    while moves < cap:
        if not queue:
            if moves == filled_at:  # nothing changed since the queue was last filled
                break
            filled_at = moves
            queue.extend(_stale(tour, pos, nbr, examined, touched))
            if not queue:
                break
            for a in queue:
                queued[a] = True
        a = queue.popleft()
        queued[a] = False
        examined[a] = moves
        pa = pt[a]
        ia = pos[a]
        near = cands[a]
        ends = tour[ia + fwd], tour[ia + bwd]
        gaps = dist(pa, pt[ends[0]]), dist(pa, pt[ends[1]])
        changed = None
        for nxt, b, g in zip((fwd, bwd), ends, gaps):
            # 2-opt: (a, b), (c, d) -> (a, c), (b, d), where b follows a and d follows c
            pb = pt[b]
            for c, dac in near:
                if dac >= g:
                    break
                d = tour[pos[c] + nxt]
                if c != b and d != a and dac + dist(pb, pt[d]) - g - dist(pt[c], pt[d]) < -eps:
                    _move2(tour, pos, a, b, c, d)
                    changed = (a, b, c, d)
                    break
            if changed:
                break
        if not changed:
            nearest = near[0][1]
            for nxt, prv, p, dpa in ((fwd, bwd, ends[1], gaps[1]), (bwd, fwd, ends[0], gaps[0])):
                # Or-opt: the segment a .. y follows p and precedes n; it goes
                # between c and its tour neighbour e, with a next to c
                pp = pt[p]
                seg = []
                n = a
                for _ in range(max_seg):
                    y = n
                    seg.append(y)
                    n = tour[pos[y] + nxt]
                    py = pt[y]
                    if y != a:
                        gain = dpa + dist(py, pt[n]) - dist(pp, pt[n])
                    elif nxt == fwd:  # a alone: n is ends[0], at distance gaps[0]
                        gain = dpa + gaps[0] - dist(pp, pt[n])
                    else:  # a alone was tried going forward
                        continue
                    if gain <= nearest:  # no candidate is closer than the gain
                        continue
                    for c, dac in near:
                        if dac >= gain:
                            break
                        if c in seg:
                            continue
                        ic = pos[c]
                        pc = pt[c]
                        for e in (tour[ic + nxt], tour[ic + prv]):
                            if e not in seg and dac + dist(py, pt[e]) - dist(pc, pt[e]) - gain < -eps:
                                _move_segment(tour, pos, p, a, y, n, c, e)
                                changed = (p, a, y, n, c, e)
                                break
                        if changed:
                            break
                    if changed:
                        break
                if changed:
                    break
        if changed:
            moves += 1
            for v in changed:
                touched[v] = moves
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)

    start_length = _path_length(coords, closed=True)
    if not moves:
        return TspResult(start, start_length, "strip+2opt")
    k = pos[0]
    tour = tour[k:] + tour[:k]
    route = Route(tuple(map(order.__getitem__, tour)), closed=True)
    length = _path_length(coords.take(tour, axis=0), closed=True)
    if length > start_length:  # rounding only: every move shortens the tour by more than eps
        route, length = start, start_length
    return TspResult(route, length, "strip+2opt", moves, moves == cap)


def strip_two_opt(ps: PointSet) -> TspResult:
    """Strip tour polished by :func:`two_opt`: neighbour-list 2-opt and
    Or-opt (segments of 1-3 points) with K = 8 candidates, a don't-look
    queue and a 50 * n move cap; ``moves`` and ``cap_hit`` report the polish."""
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
def _steps(n: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...], ...]:
    """The states (mask, v) of each subset size s, with v a point in the
    mask, cut into blocks of at most ``_HK_BLOCK`` states.

    A block holds, per state, its index ``mask * n + v`` in the flattened
    (2^n, n) tables and the mask without v (int32), and v (int8): 9 bytes
    per state and n * 2^(n-1) states in all, 1.03 MB at n = 14.  Every
    array is read-only, as the cache shares them.
    """
    steps = []
    for layer in _layers(n):
        layer = layer.astype(np.int32)
        sels = [layer[(layer >> v) & 1 == 1] for v in range(n)]
        state = np.concatenate([m * n + v for v, m in enumerate(sels)])
        prev = np.concatenate([m ^ (1 << v) for v, m in enumerate(sels)])
        last = np.repeat(np.arange(n, dtype=np.int8), [len(m) for m in sels])
        for a in (state, prev, last):
            a.flags.writeable = False  # and so are the blocks, views of them
        cuts = range(_HK_BLOCK, len(state), _HK_BLOCK)
        steps.append(tuple(zip(np.split(state, cuts), np.split(prev, cuts), np.split(last, cuts))))
    return tuple(steps)


def _held_karp(
    dist: np.ndarray, start_cost: np.ndarray, stop: int, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Held-Karp subset dynamic program over (visited set, last point).

    ``cost[mask, v]`` is the cheapest path through exactly the points in
    ``mask`` that ends at v; a one-point path {v} costs ``start_cost[v]``,
    and the edge that grows a path to s points costs
    ``weights[s]`` times its length (1 without ``weights``).  Layers are
    filled by popcount up to ``stop``.  The states of a layer are relaxed
    in the blocks of :func:`_steps`, one numpy step per block: state
    (mask, v) takes the least, over all n points u, of ``cost[mask - v, u]``
    plus the weighted edge (u, v), where u outside mask - v costs inf.  Ties
    go to the lowest-index predecessor, recorded in ``parent`` (-1 for one-
    point paths and unfilled states).

    Time O(n^2 * 2^n); memory n * 2^n float64 costs plus int8 parents, the
    cached blocks, and n float64 per state of one block.
    """
    n = len(start_cost)
    cost = np.full((1 << n, n), np.inf)
    parent = np.full((1 << n, n), -1, dtype=np.int8)
    points = np.arange(n)
    cost[1 << points, points] = start_cost
    cost_flat, parent_flat = cost.reshape(-1), parent.reshape(-1)
    row_start = n * np.arange(_HK_BLOCK)  # where each row of a block starts, flattened
    steps = _steps(n)
    dist_t = np.ascontiguousarray(dist.T)
    for s in range(2, stop + 1):
        edge = dist_t if weights is None else dist_t * weights[s]  # edge[v, u]: the edge (u, v), weighted
        for state, prev, last in steps[s]:
            cand = cost.take(prev, axis=0)
            cand += edge.take(last, axis=0)
            best = cand.argmin(axis=1)
            parent_flat[state] = best
            best += row_start[: len(state)]
            cost_flat[state] = cand.take(best)
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
