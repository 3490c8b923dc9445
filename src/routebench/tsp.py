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

# Bytes an exact oracle may hold; _require_budget derives each one's size cap from it.
EXACT_BUDGET = 32 << 20

# Candidate neighbours per point in ``two_opt``.
NEIGHBORS = 8
# Up to _SORT_MAX points, strip_tour, the candidate lists and _stale work on
# Python lists and floats, as each numpy call costs more than such a tour
# does.  Above, candidate lists take about _KNN_BLOCK squared distances per
# numpy block, and from _GRID_MIN points on, a grid search first (on uniform
# points it took 1.06x the time of the all-points path at 128 points and
# 0.92x at 144).
_SORT_MAX = 16
_GRID_MIN = 136
_KNN_BLOCK = 1 << 12
# A key past every candidate in _nearest, and a point past every other.
_FAR = complex(math.inf, math.inf)
# Held-Karp candidate sums per numpy step.
_HK_BLOCK = 1 << 14


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
    (2*sqrt(n) + 4) * side for every input.  Up to ``_SORT_MAX`` points the
    order is a stable Python sort on (strip, +-x) keys.  Above it the
    points are sorted by +-x, then stably by strip id in the smallest
    unsigned dtype that holds it, which numpy sorts by radix: with
    distinct +-x keys that is ``np.lexsort((xs, strip))``, at about a fifth
    of its time from 1600 points on.  Equal keys (duplicates, lattices, 0.0
    against -0.0) take ``np.lexsort`` itself.  Every path keeps ties in
    index order, so they give the same tour.
    """
    n = len(ps)
    if n == 0:
        raise ValueError("strip tour of an empty point set is undefined")
    strips = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    h, oy = float(ps.square.side / strips), float(ps.square.origin[1])
    if n <= _SORT_MAX:
        keys = []
        for x, y in ps.coords.tolist():
            strip = min(int((y - oy) / h), strips - 1)  # y >= oy: truncation is the floor
            keys.append((strip, -x if strip % 2 else x))
        order = sorted(range(n), key=keys.__getitem__)
        route = Route._of(tuple(order), closed=True)
    else:
        strip = np.minimum(((ps.coords[:, 1] - oy) / h).astype(np.int64), strips - 1)
        xs = np.where(strip % 2 == 0, ps.coords[:, 0], -ps.coords[:, 0])
        order = xs.argsort()
        sx = xs.take(order)
        if (sx[1:] == sx[:-1]).any():  # the first sort may swap equal keys
            order = np.lexsort((xs, strip))
        else:  # stable by strip id in its smallest unsigned dtype: a radix sort
            ids = strip.astype(np.min_scalar_type(strips - 1))
            order = order.take(ids.take(order).argsort(kind="stable"))
        route = Route._of(tuple(order.tolist()), closed=True)
    length = _path_length(ps.coords.take(order, axis=0), closed=True)
    assert length <= (2.0 * math.sqrt(n) + 4.0) * ps.square.side + 1e-9
    return TspResult(route, length, "strip")


def _nearest(d2: np.ndarray, cand: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the k candidates of least squared distance ``d2``, in
    (distance, index) order, and those distances; needs k <= columns.

    A row's answer lies among its entries at or inside its k-th distance
    (``np.partition``).  Those are laid out left-aligned in a block of
    (rows, most entries kept in a row) complex keys distance + index * 1j,
    padded with inf + inf * 1j; ``np.sort`` orders complex numbers by real,
    then imaginary part, so each row's first k keys are its answer, ties
    broken by index.  Indices stay exact below 2**53.
    """
    rows, cols = d2.shape
    at = (d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1, None]).ravel().nonzero()[0]
    width, to = k, slice(None)
    if len(at) > rows * k:  # ties across some row's k-th distance: more than k kept
        r = at // cols
        kept = np.bincount(r, minlength=rows)
        width = int(kept.max())
        to = r * width + np.arange(len(at)) - (np.cumsum(kept) - kept)[r]
    key = np.full((rows, width), _FAR)
    flat = key.reshape(-1)
    flat.real[to], flat.imag[to] = d2.take(at), cand.take(at)
    key.sort(axis=1)
    key = key[:, :k]
    return key.imag.astype(np.int64), key.real


def _grid_neighbors(pts: np.ndarray, k: int, nbr: np.ndarray, d2s: np.ndarray) -> np.ndarray:
    """Fill the rows of ``nbr`` and ``d2s`` that a grid search settles, and
    return the indices of the other rows.

    Points are bucketed in a grid of about two per cell.  Each occupied cell
    has one candidate list, the points of the 5 x 5 cells around it, which
    all its points share.  Sorted by cell, the points of one row of those
    cells form one run, so a list is five runs, padded to the longest list.
    Points are taken in cell order, in blocks of rows that hold at most
    max(``_KNN_BLOCK``, longest list) distances, and only the lists of the
    block's cells are built.  A row is settled when its k-th distance is
    below the distance from the point to the edge of its 5 x 5 cells.  An
    input of fewer than ``_GRID_MIN`` points, or of points all at one spot,
    settles none; however full its fullest cell, any other uses the grid.
    """
    t = len(pts)
    everyone = np.arange(t)
    low = pts.min(axis=0)
    span = float((pts.max(axis=0) - low).max())
    if t < _GRID_MIN or span == 0:
        return everyone
    g = math.isqrt(t // 2)  # grid cells per side
    h = span / g
    colrow = np.minimum(((pts - low) / h).astype(np.int64), g - 1)  # each point's grid column and row
    gp = g + 4  # two cells of empty padding on every side
    cell = (colrow[:, 1] + 2) * gp + colrow[:, 0] + 2
    counts = np.bincount(cell, minlength=gp * gp)
    order = np.argsort(cell, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))  # cell c's points are order[starts[c] : starts[c + 1]]
    occupied = np.flatnonzero(counts)
    cells = len(occupied)
    # A list is six runs of positions in order: the five rows of its cells,
    # then padding from position t on, where order reads -1.  Laid end to end,
    # list i fills places i * width to (i + 1) * width, and an entry's
    # position is its place plus the shift of its run.
    window = occupied[:, None] + np.arange(-2, 3) * gp
    first = starts[window - 2]
    size = starts[window + 3] - first
    length = size.sum(axis=1)
    width = max(int(length.max()), k)
    first = np.column_stack((first, np.full(cells, t)))
    size = np.column_stack((size, width - length))
    shift = first - (np.cumsum(size).reshape(cells, 6) - size)
    cell_of = np.repeat(np.arange(cells), counts[occupied])  # per point in cell order
    self_col = np.arange(t) - (shift[:, 2] + np.arange(cells) * width)[cell_of]
    shift, size = shift.ravel(), size.ravel()
    order_p = np.append(order, np.full(width, -1))
    z = np.empty(t + 1, dtype=np.complex128)  # the points as x + y * 1j, and at -1 one infinitely far
    z.real[:t], z.imag[:t], z[t] = pts[:, 0], pts[:, 1], _FAR
    z_own = z[order]
    rows = max(1, _KNN_BLOCK // width)
    bounds = [*range(0, t, rows), t]
    own_nbr, own_d2s = np.empty_like(nbr), np.empty_like(d2s)  # rows in cell order
    for lo, hi in zip(bounds, bounds[1:]):
        c0, c1 = int(cell_of[lo]), int(cell_of[hi - 1]) + 1
        lists = np.repeat(shift[6 * c0 : 6 * c1], size[6 * c0 : 6 * c1])
        lists += np.arange(c0 * width, c1 * width)
        cand = order_p[lists].reshape(c1 - c0, width)[cell_of[lo:hi] - c0]
        dz = z[cand]
        np.subtract(z_own[lo:hi, None], dz, out=dz)
        d2 = dz.real**2
        d2 += dz.imag**2
        d2[everyone[: hi - lo], self_col[lo:hi]] = np.inf
        own_nbr[lo:hi], own_d2s[lo:hi] = _nearest(d2, cand, k)
    nbr[order], d2s[order] = own_nbr, own_d2s
    # distance to the nearest edge of the 5 x 5 cells that faces other points
    margin = np.minimum(
        np.where(colrow > 2, pts - (low + (colrow - 2) * h), np.inf),
        np.where(colrow < g - 3, low + (colrow + 3) * h - pts, np.inf),
    ).min(axis=1) - 1e-9 * h
    return np.flatnonzero(d2s[:, -1] >= np.where(margin > 0, margin, 0.0) ** 2)


def _knn(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k < t nearest other points of each of the t points, and their
    squared distances: two (t, k) arrays, nearest first, ties to the lower
    index.

    From ``_GRID_MIN`` points on a grid search settles most rows, and each
    other row takes all points as candidates; :func:`_nearest` selects from
    both, in blocks of at most max(``_KNN_BLOCK``, t) distances, so memory
    is O(t * k) plus one block.
    """
    t = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    nbr = np.empty((t, k), dtype=np.int64)
    d2s = np.empty((t, k))
    todo = _grid_neighbors(pts, k, nbr, d2s)
    rows = max(1, _KNN_BLOCK // t)
    cand = np.tile(np.arange(t), (min(rows, len(todo)), 1))  # every point, in each row of a block
    for lo in range(0, len(todo), rows):
        part = todo[lo : lo + rows]
        d2 = (x[part, None] - x) ** 2 + (y[part, None] - y) ** 2
        d2[np.arange(len(part)), part] = np.inf
        nbr[part], d2s[part] = _nearest(d2, cand[: len(part)], k)
    return nbr, d2s


def _neighbor_lists(pts: np.ndarray, k: int) -> tuple[np.ndarray, list[list[tuple[int, float]]]]:
    """:func:`_knn`'s neighbours of each point: as an index array, and as
    lists of (index, distance) pairs.

    Up to ``_SORT_MAX`` points, the squared distances are Python floats,
    bit-equal to numpy's, and each row is sorted in Python.
    """
    t = len(pts)
    if t <= _SORT_MAX:
        xy = pts.tolist()
        rows = [[math.inf] * t for _ in range(t)]  # a point is not its own neighbour
        for i, (xi, yi) in enumerate(xy):
            for j in range(i + 1, t):
                dx, dy = xi - xy[j][0], yi - xy[j][1]
                rows[i][j] = rows[j][i] = dx * dx + dy * dy  # numpy's (x_i - x_j) ** 2 + (y_i - y_j) ** 2
        near = [sorted(range(t), key=row.__getitem__)[:k] for row in rows]
        return np.array(near), [[(j, math.sqrt(row[j])) for j in js] for row, js in zip(rows, near)]

    nbr, d2s = _knn(pts, k)
    pairs = list(zip(nbr.ravel().tolist(), np.sqrt(d2s).ravel().tolist()))
    return nbr, [pairs[i : i + k] for i in range(0, t * k, k)]


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


def _place(
    tour: list[int], pos: list[int], pt: list[tuple[float, float]], near: list[tuple[int, float]],
    gain: float, eps: float, nxt: int, prv: int, p: int, seg: tuple[int, ...], n: int,
) -> tuple[int, ...] | None:
    """Make the first Or-opt move of ``two_opt`` that puts the segment
    ``seg``, which runs in direction ``nxt`` from after p to before n, into
    an edge (c, e) at a candidate c of its first point, with that point next
    to c; e is c's tour neighbour in direction ``nxt``, then ``prv``.

    ``gain`` is what taking the segment out saves.  Returns the endpoints of
    the changed edges, or None if no candidate closer than ``gain`` pays.
    """
    dist = math.dist
    y = seg[-1]
    py = pt[y]
    for c, dac in near:
        if dac >= gain:
            break
        if c in seg:
            continue
        ic = pos[c]
        pc = pt[c]
        for e in (tour[ic + nxt], tour[ic + prv]):
            if e not in seg:
                pe = pt[e]
                if dac + dist(py, pe) - dist(pc, pe) - gain < -eps:
                    _move_segment(tour, pos, p, seg[0], y, n, c, e)
                    return p, seg[0], y, n, c, e
    return None


def _stale(tour: list[int], pos: list[int], nbr: np.ndarray, examined: list[int], touched: list[int]) -> list[int]:
    """The points, in tour order, that a move may have changed since they
    were last examined: those whose own edges, the edges within three tour
    steps of them, or the edges of one of their candidates ``nbr`` changed
    since.  Up to ``_SORT_MAX`` points a Python scan applies that rule,
    above it numpy arrays."""
    t = len(tour)
    if t <= _SORT_MAX:
        ring = [touched[v] for v in tour[-3:] + tour + tour[:3]]  # position i's ring is ring[i : i + 7]
        near = nbr.tolist()
        stale = []
        for i, v in enumerate(tour):
            since = examined[v]
            if max(ring[i : i + 7]) > since:
                stale.append(v)
            else:
                for c in near[v]:
                    if touched[c] > since:
                        stale.append(v)
                        break
        return stale
    tour_a, touched_a = np.array(tour), np.array(touched)
    ring = touched_a[np.concatenate([tour_a[-3:], tour_a, tour_a[:3]])]
    latest = np.maximum.reduce([ring[j : j + t] for j in range(7)])[pos]
    latest = np.maximum(latest, touched_a[nbr].max(axis=1))
    return tour_a[(latest > np.array(examined))[tour_a]].tolist()


def two_opt(ps: PointSet, start: Route, *, _length: float | None = None) -> TspResult:
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
    cap stopped the search.  ``_length`` is private: :func:`strip_two_opt`
    passes the strip tour's length, ``route_length`` of ``start`` bit for
    bit, so that it is not summed a second time.
    """
    if not start.closed:
        raise ValueError("two_opt expects a closed starting route")
    order = start.order
    t = len(order)
    coords = _route_points(start, ps)
    start_length = _path_length(coords, closed=True) if _length is None else _length
    if t < 4:
        return TspResult(start, start_length, "strip+2opt")

    pt = list(map(tuple, coords.tolist()))
    nbr, cands = _neighbor_lists(coords, min(NEIGHBORS, t - 1))
    dist = math.dist
    eps = 1e-12 * max(1.0, ps.square.side)
    cap = 50 * t
    # at least three points stay outside a segment; on four points every
    # segment move is also a 2-opt move
    max_seg = min(3, t - 3) if t > 4 else 0
    # tour[i + fwd] and tour[i - 1] follow and precede position i, without wrapping
    fwd = 1 - t

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
        n1, p1 = tour[ia + fwd], tour[ia - 1]  # a's tour neighbours
        pn, pp = pt[n1], pt[p1]
        gn, gp = dist(pa, pn), dist(pa, pp)
        changed = None
        # 2-opt: (a, b), (c, d) -> (a, c), (b, d), where b follows a and d
        # follows c; first going forward (b = n1), then backward (b = p1)
        for c, dac in near:
            if dac >= gn:
                break
            d = tour[pos[c] + fwd]
            if c != n1 and d != a:
                pd = pt[d]
                if dac + dist(pn, pd) - gn - dist(pt[c], pd) < -eps:
                    _move2(tour, pos, a, n1, c, d)
                    changed = (a, n1, c, d)
                    break
        if not changed:
            for c, dac in near:
                if dac >= gp:
                    break
                d = tour[pos[c] - 1]
                if c != p1 and d != a:
                    pd = pt[d]
                    if dac + dist(pp, pd) - gp - dist(pt[c], pd) < -eps:
                        _move2(tour, pos, a, p1, c, d)
                        changed = (a, p1, c, d)
                        break
        if not changed and max_seg:
            # Or-opt: the segment a .. y follows p and precedes n.  Going
            # forward it is a, n1, f2 after p1; going backward a, p1, b2 after
            # n1 (a alone was tried going forward).  Only a gain above the
            # nearest candidate's distance can pay for a move.
            nearest = near[0][1]
            gain = gp + gn - dist(pp, pn)
            if gain > nearest:
                changed = _place(tour, pos, pt, near, gain, eps, fwd, -1, p1, (a,), n1)
            if not changed:
                f2 = tour[ia + fwd + 1]
                pf2 = pt[f2]
                gain = gp + dist(pn, pf2) - dist(pp, pf2)
                if gain > nearest:
                    changed = _place(tour, pos, pt, near, gain, eps, fwd, -1, p1, (a, n1), f2)
            if not changed and max_seg == 3:
                f3 = tour[ia + fwd + 2]
                pf3 = pt[f3]
                gain = gp + dist(pf2, pf3) - dist(pp, pf3)
                if gain > nearest:
                    changed = _place(tour, pos, pt, near, gain, eps, fwd, -1, p1, (a, n1, f2), f3)
            if not changed:
                b2 = tour[ia - 2]
                pb2 = pt[b2]
                gain = gn + dist(pp, pb2) - dist(pn, pb2)
                if gain > nearest:
                    changed = _place(tour, pos, pt, near, gain, eps, -1, fwd, n1, (a, p1), b2)
            if not changed and max_seg == 3:
                b3 = tour[ia - 3]
                pb3 = pt[b3]
                gain = gn + dist(pb2, pb3) - dist(pn, pb3)
                if gain > nearest:
                    changed = _place(tour, pos, pt, near, gain, eps, -1, fwd, n1, (a, p1, b2), b3)
        if changed:
            moves += 1
            for v in changed:
                touched[v] = moves
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)

    if not moves:
        return TspResult(start, start_length, "strip+2opt")
    k = pos[0]
    tour = tour[k:] + tour[:k]
    route = Route._of(tuple(map(order.__getitem__, tour)), closed=True)
    length = _path_length(coords.take(tour, axis=0), closed=True)
    if length > start_length:  # rounding only: every move shortens the tour by more than eps
        route, length = start, start_length
    return TspResult(route, length, "strip+2opt", moves, moves == cap)


def strip_two_opt(ps: PointSet) -> TspResult:
    """Strip tour polished by :func:`two_opt`: neighbour-list 2-opt and
    Or-opt (segments of 1-3 points) with K = 8 candidates, a don't-look
    queue and a 50 * n move cap; ``moves`` and ``cap_hit`` report the polish.
    It calls both steps by their module-level names, so a profiler that
    wraps those names sees both; the strip tour's length is handed on."""
    start = strip_tour(ps)
    return two_opt(ps, start.route, _length=start.length)


def _distance_matrix(ps: PointSet) -> np.ndarray:
    """All pairwise Euclidean distances, an (n, n) float64 array."""
    diff = ps.coords[:, None, :] - ps.coords[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


@functools.lru_cache(maxsize=64)  # 60 pairs (n, s) cover every size over 10 to 14 points
def _states(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The states of subset size s >= 1 over n points, laid out as the
    size-s table: column r is the r-th s-point subset in colex order, which
    is increasing bitmask order, and entry (j, r) ends a path through it at
    its j-th point, points in increasing order.

    Returns two (s, C(n, s)) int32 arrays, 8 bytes per state: each state's
    point times n, and the column of its subset less that point in the
    size s - 1 index.  Both are read-only, as the cache shares them.

    The subsets whose largest point is b are, in order, the first
    c = C(b, s - 1) columns of the size s - 1 index with b appended.
    Dropping b leaves column r of them; dropping another point leaves a
    subset of b's group of size s - 1, which starts at column c.
    """
    if s == 1:
        scaled = np.arange(0, n * n, n, dtype=np.int32)[None]
        prev = np.zeros_like(scaled)  # the one empty subset
    else:
        below, below_prev = _states(n, s - 1)
        scaled = np.empty((s, math.comb(n, s)), dtype=np.int32)
        prev = np.empty_like(scaled)
        for b in range(s - 1, n):
            group, c = slice(math.comb(b, s), math.comb(b + 1, s)), math.comb(b, s - 1)
            scaled[:-1, group] = below[:, :c]
            scaled[-1, group] = b * n
            np.add(below_prev[:, :c], c, out=prev[:-1, group])
            prev[-1, group] = np.arange(c, dtype=np.int32)
    scaled.flags.writeable = prev.flags.writeable = False
    return scaled, prev


@functools.cache
def _others(s: int) -> np.ndarray:
    """The read-only (s - 1, s) table whose entry (i, j) is the index of
    the i-th point of an s-point mask other than its j-th."""
    rows = np.arange(s - 1)[:, None]
    other = rows + (rows >= np.arange(s))
    other.flags.writeable = False
    return other


def _require_budget(oracle: str, n: int, points: int, stop: int) -> None:
    """Raise ``CapacityError`` if ``oracle`` on n points may hold more than
    ``EXACT_BUDGET`` bytes at once: 24 per pair for the distance matrix at
    its peak, plus, for Held-Karp over ``points`` points up to paths of
    ``stop`` points, 8 bytes per state in the tables and 8 more in the
    :func:`_states` index, 8 per subset of the widest size (at least what
    the minimum over a table's columns or a :func:`_states` build holds
    besides) and 32 per candidate sum of one block.  That is the peak of a
    call with cold caches, or more."""
    p = min(points, 64)  # every term grows with p: past 64 points, a lower bound
    states = sum(s * math.comb(p, s) for s in range(1, stop + 1))
    widest = math.comb(p, min(stop, p // 2))  # the most subsets of one size up to stop
    need = 24 * n * n + 16 * states + 8 * widest + 32 * _HK_BLOCK
    if need > EXACT_BUDGET:
        mib = f"{need / 2**20:.4g} MiB, over the {EXACT_BUDGET >> 20} MiB budget"
        raise CapacityError(f"{oracle} on {n} points needs {mib}")


def _held_karp(
    dist: np.ndarray, start_cost: np.ndarray, stop: int, weights: np.ndarray | None = None
) -> list[np.ndarray]:
    """Held-Karp subset dynamic program over (visited set, last point).

    ``cost[s]`` has the layout of the :func:`_states` index, shape
    (s, C(n, s)): entry (j, r) is the cheapest path through exactly the
    points of the r-th s-point subset that ends at its j-th point.  A
    one-point path {v} costs ``start_cost[v]``, and the edge that grows a
    path to s points costs ``weights[s]`` times its length (1 without
    ``weights``).  Tables exist up to s = ``stop``.

    The s - 1 predecessors of state (j, r) are the whole column
    ``cost[s - 1][:, prev[j, r]]``, its i-th entry reached over the edge
    from the subset's i-th point other than its j-th.  One numpy step per
    block of whole subsets, about ``_HK_BLOCK`` candidate sums, gathers
    those columns and edges through the :func:`_states` index and the
    :func:`_others` table, both cached, into an (s - 1, s, block) array
    and takes its minimum along axis 0.  No parent is stored: see
    :func:`_path_to`.

    Time O(n^2 * 2^n); memory 8 bytes per state of sizes up to ``stop``
    for the tables, 8 per state for the cached index, and one block.
    """
    n = len(start_cost)
    cost = [np.empty((s, math.comb(n, s))) for s in range(stop + 1)]
    cost[1][0] = start_cost  # {v} is the v-th subset of size 1
    for s in range(2, stop + 1):
        # edge[u * n + v]: the edge (u, v), weighted
        edge = (dist if weights is None else dist * weights[s]).reshape(-1)
        scaled, prev = _states(n, s)
        other = _others(s)
        width = max(1, _HK_BLOCK // (s * (s - 1)))  # subsets per step
        for lo in range(0, scaled.shape[1], width):
            at = scaled[:, lo : lo + width]
            cand = cost[s - 1].take(prev[:, lo : lo + width], axis=1)
            via = at.take(other, axis=0)
            via += at // n
            cand += edge.take(via)
            np.minimum.reduce(cand, axis=0, out=cost[s][:, lo : lo + width])
    return cost


def _path_to(
    cost: list[np.ndarray], dist: np.ndarray, r: int, j: int, weights: np.ndarray | None = None
) -> list[int]:
    """The optimal path of state (j, r) of the last table that
    :func:`_held_karp` built from ``dist`` and ``weights``, first point first.

    Each step back, in Python floats, forms the state's candidate sums as
    the kernel did, the column ``prev[j, r]`` of the table below plus
    dist[v][last] (times ``weights[s]``) over the points v of that column's
    subset, and takes the first least one, the lowest-index predecessor.
    That subset's points are the state's with its j-th point deleted.
    """
    n = len(dist)
    rows = dist.tolist()
    points = [v // n for v in _states(n, len(cost) - 1)[0][:, r].tolist()]  # increasing
    order = [points[j]]
    for s in range(len(cost) - 1, 1, -1):
        r = int(_states(n, s)[1][j, r])
        last = points.pop(j)
        column = cost[s - 1][:, r].tolist()
        if weights is None:
            sums = [c + rows[v][last] for c, v in zip(column, points)]
        else:
            w = weights[s].item()
            sums = [c + rows[v][last] * w for c, v in zip(column, points)]
        j = sums.index(min(sums))
        order.append(points[j])
    order.reverse()
    return order


def tsp_exact(ps: PointSet) -> TspResult:
    """Shortest closed tour by the Held-Karp dynamic program.

    Point 0 anchors the tour (cyclic symmetry makes this lossless), so the
    program runs over the other n - 1 points with paths starting one edge
    away from it, and the walk back starts in column 0 of the last table,
    the subset of all of them.  Time O(n^2 * 2^n), memory 16 bytes per
    (subset, last point) state and no parent table; :func:`_require_budget`
    refuses n > 18.  Among tours of equal cost, the lowest-index
    predecessor wins at every step.
    """
    n = len(ps)
    if n < 1:
        raise ValueError("exact tour of an empty point set is undefined")
    _require_budget("tsp_exact", n, n - 1, n - 1)
    if n == 1:  # the program below needs a point besides the anchor
        return TspResult(Route._of((0,), closed=True), 0.0, "exact")

    dist = _distance_matrix(ps)
    cost = _held_karp(dist[1:, 1:], dist[0, 1:], n - 1)
    last = int(np.argmin(cost[n - 1][:, 0] + dist[1:, 0]))
    order = (0,) + tuple(v + 1 for v in _path_to(cost, dist[1:, 1:], 0, last))
    route = Route._of(order, closed=True)
    return TspResult(route, route_length(route, ps), "exact")
