"""Strip tour, 2-opt, and exact tour oracle tests."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from routebench import (
    CapacityError,
    GridDensity,
    PointSet,
    RandomSeed,
    Route,
    Square,
    route_length,
    sample_points,
    strip_tour,
    strip_two_opt,
    tsp_exact,
    two_opt,
)
from routebench import tsp
from routebench.tsp import (
    NEIGHBORS,
    _distance_matrix,
    _held_karp,
    _nearest,
    _neighbor_lists,
    _path_to,
    _states,
)

UNIT_CORNERS = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def brute_force_tour(ps):
    """Exact closed-tour length by enumerating all cyclic orders."""
    n = len(ps)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        best = min(best, route_length(Route(order, closed=True), ps))
    return best


def subset_masks(n, s):
    """Every s-point subset of range(n) as a bitmask, in increasing order."""
    return sorted(sum(1 << v for v in c) for c in itertools.combinations(range(n), s))


def reference_held_karp(dist, start_cost, stop, weights=None):
    """Held-Karp in plain Python, with an explicit parent table.

    Returns ``cost`` and ``parent``, dicts keyed by state (mask, v) for
    every mask of at most ``stop`` points and v in it; a state's parent is
    the lowest-index u of least ``cost[mask - v, u]`` plus the weighted
    edge (u, v), and None for one-point paths.
    """
    n = len(start_cost)
    dist = dist.tolist()
    cost = {(1 << v, v): float(start_cost[v]) for v in range(n)}
    parent = dict.fromkeys(cost)
    for mask in sorted(range(1 << n), key=lambda m: bin(m).count("1")):
        s = bin(mask).count("1")
        if not 2 <= s <= stop:
            continue
        w = 1 if weights is None else int(weights[s])
        for v in (v for v in range(n) if mask >> v & 1):
            prev, best, arg = mask ^ (1 << v), math.inf, None
            for u in (u for u in range(n) if prev >> u & 1):
                c = cost[prev, u] + (dist[u][v] if weights is None else dist[u][v] * w)
                if c < best:
                    best, arg = c, u
            cost[mask, v], parent[mask, v] = best, arg
    return cost, parent


class TestStripTour:
    def test_single_point(self):
        ps = PointSet.from_points([(0.3, 0.4)])
        result = strip_tour(ps)
        assert result.length == 0.0
        assert result.method == "strip"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            strip_tour(PointSet(np.zeros((0, 2))))

    def test_corners_meet_bound(self):
        ps = PointSet.from_points(UNIT_CORNERS)
        result = strip_tour(ps)
        assert result.length == pytest.approx(4.0)
        assert result.length <= 2 * math.sqrt(4) + 4

    def test_bound_on_random_instances(self):
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(77)
        for trial in range(100):
            n = int(rng.integers(1, 3000))
            ps = sample_points(d, n, RandomSeed(500, trial))
            result = strip_tour(ps)
            assert result.length <= (2 * math.sqrt(n) + 4) * ps.square.side + 1e-9

    def test_bound_scales_with_side(self):
        square_pts = np.random.default_rng(3).random((50, 2)) * 7.0
        from routebench import Square

        ps = PointSet(square_pts, Square((0.0, 0.0), 7.0))
        result = strip_tour(ps)
        assert result.length <= (2 * math.sqrt(50) + 4) * 7.0 + 1e-9

    def test_visits_each_point_once(self):
        ps = sample_points(GridDensity.uniform(1), 200, RandomSeed(8))
        result = strip_tour(ps)
        assert sorted(result.route.order) == list(range(200))

    def test_length_matches_route(self):
        ps = sample_points(GridDensity.uniform(1), 64, RandomSeed(9))
        result = strip_tour(ps)
        assert result.length == pytest.approx(route_length(result.route, ps), rel=1e-12)

    def test_length_is_route_length_bit_for_bit(self):
        # strip_tour measures its own lexsort order; route_length must agree exactly
        square = Square((-3.5, 2.25), 8.0)
        for n in (2, 3, 17, 400, 1601):
            ps = sample_points(GridDensity.uniform(3, square), n, RandomSeed(10, n))
            result = strip_tour(ps)
            assert all(type(i) is int for i in result.route.order)
            assert result.length.hex() == route_length(result.route, ps).hex()

    def test_order_matches_lexsort_reference(self, monkeypatch):
        # the Python sort of small inputs and the radix order of larger ones
        # give the lexsort order, ties included: duplicates, points on strip
        # boundaries, and x = 0 and -0 in odd strips, whose keys are -0 and 0
        square = Square((-2.0, 1.5), 4.0)
        lexsort = np.lexsort
        calls = []  # strip_tour's own np.lexsort calls: ties among the +-x keys
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))

        def check(pts, strips):
            ps = PointSet(pts, square)
            h = square.side / strips
            strip = np.minimum(((ps.coords[:, 1] - square.origin[1]) / h).astype(np.int64), strips - 1)
            keys = np.where(strip % 2 == 0, ps.coords[:, 0], -ps.coords[:, 0])
            result = strip_tour(ps)
            assert result.route.order == tuple(lexsort((keys, strip)).tolist())
            assert result.length.hex() == route_length(result.route, ps).hex()

        for t in range(1, 41):
            rng = np.random.default_rng(t)
            strips = math.isqrt(t - 1) + 1
            h = square.side / strips
            uniform = square.origin + rng.random((t, 2)) * square.side
            ys = np.minimum(square.origin[1] + rng.integers(0, strips + 1, t) * h, square.origin[1] + square.side)
            xs = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 2.0], t)
            for pts in (uniform, np.column_stack((xs, ys))):
                check(pts, strips)

        for t in (17, 136, 400, 1601, 20_000):
            rng = np.random.default_rng(t)
            strips = math.isqrt(t - 1) + 1
            ox, oy = square.origin
            h = square.side / strips
            uniform = square.origin + rng.random((t, 2)) * square.side
            calls.clear()
            check(uniform, strips)
            assert calls == [], f"uniform points at t = {t} took np.lexsort"
            duplicate = uniform.copy()
            duplicate[-1] = duplicate[0]
            across = uniform.copy()  # one x in strips 0 and 2, both even: equal keys
            across[:2] = [(0.25, oy + 0.5 * h), (0.25, oy + 2.5 * h)]
            zeros = uniform.copy()  # x = 0 and -0 in strip 1, odd: keys -0 and 0
            zeros[:2] = [(0.0, oy + 1.5 * h), (-0.0, oy + 1.5 * h)]
            w = math.isqrt(t - 1) + 1
            at = np.arange(t)
            lattice = square.origin + np.column_stack((at % w, at // w)) * (square.side / w)
            for pts in (duplicate, across, zeros, lattice):
                calls.clear()
                check(pts, strips)
                assert calls == [2], f"equal keys at t = {t} did not take np.lexsort"


class TestTwoOpt:
    def test_optimal_square_unchanged(self):
        ps = PointSet.from_points(UNIT_CORNERS)
        start = Route((0, 1, 2, 3), closed=True)
        result = two_opt(ps, start)
        assert result.route.order == start.order
        assert result.length == pytest.approx(4.0)

    def test_crossing_removed(self):
        ps = PointSet.from_points(UNIT_CORNERS)
        crossing = Route((0, 2, 1, 3), closed=True)
        before = route_length(crossing, ps)
        result = two_opt(ps, crossing)
        assert result.length < before
        assert result.length == pytest.approx(4.0)

    def test_never_worse_than_start(self):
        d = GridDensity.uniform(1)
        for trial in range(30):
            ps = sample_points(d, 40, RandomSeed(600, trial))
            start = strip_tour(ps)
            result = two_opt(ps, start.route)
            assert result.length <= start.length + 1e-12

    def test_open_start_rejected(self):
        ps = PointSet.from_points(UNIT_CORNERS)
        with pytest.raises(ValueError):
            two_opt(ps, Route((0, 1, 2, 3), closed=False))

    @pytest.mark.parametrize("n", [3, 50])
    def test_start_index_out_of_range_rejected(self, n):
        ps = sample_points(GridDensity.uniform(1), n, RandomSeed(602, n))
        with pytest.raises(ValueError, match="out of range"):
            two_opt(ps, Route(tuple(range(n - 1)) + (99,), closed=True))

    def test_near_optimal_on_small_instances(self):
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(4)
        good = 0
        trials = 200
        for trial in range(trials):
            n = int(rng.integers(4, 11))
            ps = sample_points(d, n, RandomSeed(601, trial))
            heur = strip_two_opt(ps)
            exact = tsp_exact(ps)
            assert heur.length >= exact.length - 1e-9
            if heur.length <= 1.25 * exact.length:
                good += 1
        assert good >= 0.95 * trials

    def test_strip_two_opt_is_two_opt_of_the_strip_tour(self):
        # strip_two_opt hands the strip tour's length on instead of summing
        # it again; the results, on both sides of _SORT_MAX, stay two_opt's
        square = Square((-3.5, 2.25), 8.0)
        for n in [*range(1, 41), 150]:
            ps = sample_points(GridDensity.uniform(2, square), n, RandomSeed(640, n))
            a, b = strip_two_opt(ps), two_opt(ps, strip_tour(ps).route)
            assert (a.route, a.length.hex(), a.moves, a.cap_hit) == (b.route, b.length.hex(), b.moves, b.cap_hit)


# Mean strip + 2-opt tour length over fixed seeds, recorded (as float.hex)
# from the first-improvement kernel that scanned all pairs, which the
# neighbour-list kernel replaced: n -> (trials, mean of lengths)
FULL_SCAN_MEANS = {
    31: (40, "0x1.3309314d44dadp+2"),
    500: (6, "0x1.314b5509b4979p+4"),
    2000: (2, "0x1.31652ef646906p+5"),
}


def improving_two_opt_pairs(result, ps, tol=1e-9):
    """Every pair of tour edges whose 2-opt exchange shortens the tour by more than tol."""
    order = result.route.order
    t = len(order)
    pts = ps.coords[list(order)]

    def d(i, j):
        return math.dist(pts[i % t], pts[j % t])

    return [
        (i, j)
        for i in range(t)
        for j in range(i + 2, t)
        if (j + 1) % t != i and d(i, j) + d(i + 1, j + 1) - d(i, i + 1) - d(j, j + 1) < -tol
    ]


def improving_candidate_moves(result, ps, tol=1e-9):
    """The 2-opt moves of the kernel's neighbourhood that shorten the tour by
    more than tol: (a, b), (c, d) -> (a, c), (b, d), where b follows a and d
    follows c in one direction, c is among a's K nearest and closer to a
    than b is."""
    order = result.route.order
    t = len(order)
    pts = ps.coords[list(order)]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    found = []
    for a in range(t):
        for c in np.lexsort((np.arange(t), d2[a]))[: min(NEIGHBORS, t - 1)]:
            for s in (1, -1):
                b, d = (a + s) % t, (c + s) % t
                dab, dac = math.dist(pts[a], pts[b]), math.dist(pts[a], pts[c])
                if c == b or d == a or dac >= dab:
                    continue
                if dac + math.dist(pts[b], pts[d]) - dab - math.dist(pts[c], pts[d]) < -tol:
                    found.append((a, int(c), s))
    return found


class TestTwoOptKernel:
    def test_move_counters(self):
        ps = PointSet.from_points(UNIT_CORNERS)
        kept = two_opt(ps, Route((0, 1, 2, 3), closed=True))
        assert (kept.moves, kept.cap_hit) == (0, False)
        fixed = two_opt(ps, Route((0, 2, 1, 3), closed=True))
        assert fixed.moves >= 1 and not fixed.cap_hit
        strip = strip_tour(ps)
        assert (strip.moves, strip.cap_hit) == (0, False)
        assert (tsp_exact(ps).moves, tsp_exact(ps).cap_hit) == (0, False)

    def test_moves_within_cap(self):
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(4, 200))
            ps = sample_points(d, n, RandomSeed(604, trial))
            # a random start needs many more moves than a strip tour
            result = two_opt(ps, Route(tuple(rng.permutation(n)), closed=True))
            assert 0 <= result.moves <= 50 * n
            assert not result.cap_hit
            assert sorted(result.route.order) == list(range(n))
            assert result.length == pytest.approx(route_length(result.route, ps), rel=1e-12)

    @pytest.mark.parametrize("n", sorted(FULL_SCAN_MEANS))
    def test_mean_length_no_worse_than_full_scan(self, n):
        trials, recorded = FULL_SCAN_MEANS[n]
        d = GridDensity.uniform(1)
        lengths = [strip_two_opt(sample_points(d, n, RandomSeed(710, n * 1000 + i))).length for i in range(trials)]
        assert sum(lengths) / trials <= float.fromhex(recorded)

    def test_no_improving_pair_when_lists_are_complete(self):
        # with t <= K + 1 every other point is a candidate, so the result
        # is 2-opt optimal
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(4, NEIGHBORS + 2))
            ps = sample_points(d, n, RandomSeed(605, trial))
            result = two_opt(ps, Route(tuple(rng.permutation(n)), closed=True))
            assert improving_two_opt_pairs(result, ps) == []

    def test_no_improving_candidate_move(self):
        # on these inputs no point finds a 2-opt move to a candidate nearer
        # than its own tour neighbour, in either direction; that is not
        # guaranteed, since a reversal can flip the direction in which a
        # candidate runs relative to a point without queuing the point again
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(15)
        for trial in range(6):
            n = int(rng.integers(150, 400))
            ps = sample_points(d, n, RandomSeed(608, trial))
            result = two_opt(ps, Route(tuple(rng.permutation(n)), closed=True))
            assert improving_candidate_moves(result, ps) == []

    @pytest.mark.parametrize("n", [12, 60, 300])
    def test_equivariant_under_translation_and_scaling(self, n):
        ps = sample_points(GridDensity.uniform(1), n, RandomSeed(606, n))
        square = Square((-3.5, 2.25), 8.0)
        moved = PointSet(np.array(square.origin) + square.side * ps.coords, square)
        start = strip_tour(ps).route
        here, there = two_opt(ps, start), two_opt(moved, start)
        assert here.route == there.route
        assert there.length == pytest.approx(square.side * here.length, rel=1e-12)

    def test_deterministic(self):
        ps = sample_points(GridDensity.uniform(1), 400, RandomSeed(607))
        copy = PointSet(ps.coords.copy(), ps.square)
        first, second = strip_two_opt(ps), strip_two_opt(copy)
        assert first.route.order == second.route.order
        assert first.length == second.length
        assert first.moves == second.moves

    def test_lattice_ties(self):
        # many equal distances: results stay deterministic valid tours, and
        # some start reaches an optimal tour of the grid (20 unit steps)
        pts = [(i / 4, j / 4) for i in range(5) for j in range(4)]
        ps = PointSet.from_points(pts)
        rng = np.random.default_rng(13)
        starts = [Route(tuple(rng.permutation(len(pts))), closed=True) for _ in range(20)]
        for start in starts:
            result = two_opt(ps, start)
            assert result.route == two_opt(ps, start).route
            assert sorted(result.route.order) == list(range(len(pts)))
            assert result.length <= route_length(start, ps) + 1e-12
        assert min(two_opt(ps, s).length for s in starts) == pytest.approx(5.0)

    def test_candidate_lists_match_brute_force(self):
        rng = np.random.default_rng(14)
        cases = []
        for trial in range(186):
            # the lattice and cluster kinds at this size take the dense fallback
            t = int(rng.integers(4, 400) if trial < 150 else rng.integers(400, 1001))
            kind = trial % 6
            if kind == 0:
                pts = rng.random((t, 2))
            elif kind == 1:  # lattice: many ties and duplicates
                pts = np.round(rng.random((t, 2)) * 5) / 5
            elif kind == 2:  # half the points in one tight cluster
                pts = np.vstack([rng.random((t // 2, 2)) * 0.01, rng.random((t - t // 2, 2))])
            elif kind == 3:  # a thin strip
                pts = rng.random((t, 2)) * [1.0, 0.001]
            elif kind == 4:  # dense middle, sparse rim
                pts = np.clip(rng.normal(0.5, 0.15, (t, 2)), 0.0, 1.0)
            else:  # density falling across the square
                pts = rng.random((t, 2)) ** [4.0, 1.0]
            cases.append(pts)
        # 2000 points on 36 lattice sites: every row takes the dense fallback
        cases.append(np.round(rng.random((2000, 2)) * 5) / 5)
        for pts in cases:
            t = len(pts)
            k = min(NEIGHBORS, t - 1)
            nbr, cands = _neighbor_lists(pts, k)
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            np.fill_diagonal(d2, np.inf)
            expected = np.lexsort((np.broadcast_to(np.arange(t), d2.shape), d2), axis=1)[:, :k].tolist()
            assert nbr.tolist() == expected
            for i, row in enumerate(cands):
                assert [c for c, _ in row] == expected[i]
                assert [dc for _, dc in row] == pytest.approx([math.dist(pts[i], pts[c]) for c, _ in row], rel=1e-15)


def test_nearest_kernel_matches_brute_force():
    # the one selection kernel of the grid windows and the dense fallback:
    # per row, the first k columns of a stable sort by (distance, candidate)
    rng = np.random.default_rng(15)
    ties = short = 0
    for trial in range(240):
        rows, cols = int(rng.integers(1, 25)), int(rng.integers(2, 40))
        cand = np.stack([rng.permutation(10 * cols)[:cols] for _ in range(rows)])
        off = rng.integers(-2, 3, (rows, cols, 2))
        d2 = (off**2).sum(axis=2).astype(float)  # lattice windows: few distinct distances
        if trial % 3 == 1:
            d2 += rng.random((rows, cols))
        pad = rng.random((rows, cols)) < (trial % 4) / 4  # padding: candidate -1 at infinity
        cand[pad], d2[pad] = -1, np.inf
        for k in sorted({1, cols - 1, int(rng.integers(1, cols))}):
            got_cand, got_d2 = _nearest(d2, cand, k)
            assert got_cand.shape == got_d2.shape == (rows, k)
            for i in range(rows):
                sel = np.lexsort((cand[i], d2[i]))[:k]
                assert got_cand[i].tolist() == cand[i, sel].tolist()
                assert got_d2[i].tolist() == d2[i, sel].tolist()
                srt = np.sort(d2[i])
                ties += bool(srt[k - 1] == srt[k])
                short += bool(np.count_nonzero(np.isfinite(d2[i])) < k)
    assert ties > 100 and short > 100  # the cases the kernel must break by index


def crowded_cell_points(t, k, rng):
    """t points of the unit square whose fullest cell in the candidate-list
    grid (isqrt(t / 2) cells per side) holds exactly 4k points, so the
    candidate lists of the cells around it are long."""
    g = math.isqrt(t // 2)
    crowded = (np.array([g // 2, g // 2]) + 0.1 + 0.8 * rng.random((4 * k, 2))) / g
    rest = rng.random((3 * t, 2))
    rest = rest[np.any(np.floor(rest * g) != g // 2, axis=1)][: t - 4 * k - 2]
    return np.vstack([[(0.0, 0.0), (1.0, 1.0)], crowded, rest])  # the corners fix the grid's span


@pytest.mark.parametrize(
    "kind, t",
    [("uniform", 5000), ("uniform", 20000), ("clustered", 3000), ("crowded", 2000), ("lattice", 2000), ("clump", 2033)],
)
def test_candidate_lists_across_many_blocks(kind, t):
    # inputs of many blocks of rows; the grid settles nearly every row, of
    # a lattice of 36 evenly filled sites or one small clump in uniform
    # points too, and all but 51 of the clustered one's (half its points
    # in one cell)
    k = NEIGHBORS
    rng = np.random.default_rng(t)
    if kind == "uniform":
        pts = rng.random((t, 2))
    elif kind == "clustered":
        pts = np.vstack([rng.random((t // 2, 2)) * 0.01, rng.random((t - t // 2, 2))])
    elif kind == "lattice":
        sites = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(36, 2) / 5
        pts = sites[rng.permutation(t) % 36]
    elif kind == "clump":
        pts = np.vstack([rng.random((2000, 2)), 0.5 + 0.001 * rng.random((t - 2000, 2))])
    else:
        pts = crowded_cell_points(t, k, rng)
        g = math.isqrt(t // 2)
        cells = np.minimum(np.floor(pts * g).astype(int), g - 1)
        assert np.unique(cells, axis=0, return_counts=True)[1].max() == 4 * k
    unsettled = tsp._grid_neighbors(pts, k, np.empty((t, k), dtype=np.int64), np.empty((t, k)))
    assert len(unsettled) < (t / 50 if kind == "clustered" else t / 100)
    nbr, cands = _neighbor_lists(pts, k)
    rows = rng.choice(t, 200, replace=False)
    if kind == "crowded":
        rows = np.concatenate([rows, np.arange(2, 2 + 4 * k)])  # every point of the fullest cell
    for i in rows.tolist():
        d2 = (pts[i, 0] - pts[:, 0]) ** 2 + (pts[i, 1] - pts[:, 1]) ** 2
        d2[i] = np.inf
        expected = np.argsort(d2, kind="stable")[:k]  # nearest first, ties to the lower index
        assert nbr[i].tolist() == expected.tolist()
        assert cands[i] == list(zip(expected.tolist(), np.sqrt(d2[expected]).tolist()))


def test_candidate_lists_memory_is_output_plus_one_block():
    # Beyond the lists it returns (`kept`: the index array and the
    # (index, distance) pairs), _neighbor_lists may hold five arrays or
    # lists of t * k entries at 8 bytes (the distances, their roots, the
    # flat lists the pairs are zipped from, and the flat list of pairs)
    # and one block of _KNN_BLOCK candidates at 128 bytes each: 6.9 MB
    # here.  Building every point's list at once holds about 52 MB more,
    # and blocks of whole cells around a 700-point clump hold 9.3 MB.
    t, k = 20000, NEIGHBORS
    rng = np.random.default_rng(16)
    uniform = rng.random((t, 2))
    clump = np.vstack([rng.random((t - 700, 2)), 0.5 + 0.001 * rng.random((700, 2))])
    for pts in (uniform, clump):
        tracemalloc.start()
        try:
            nbr, cands = _neighbor_lists(pts, k)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cands) == t and nbr.shape == (t, k)
        assert peak - kept <= 5 * 8 * t * k + 128 * tsp._KNN_BLOCK


def test_candidate_lists_on_a_rounded_lattice():
    # uniform points rounded to 36 lattice sites: rounding fills the inner
    # sites about twice as full as the edge ones (the fullest holds 96 of
    # the 2000 points), which the grid still settles nearly all of
    t, k = 2000, NEIGHBORS
    pts = np.round(np.random.default_rng(2000).random((t, 2)) * 5) / 5
    unsettled = tsp._grid_neighbors(pts, k, np.empty((t, k), dtype=np.int64), np.empty((t, k)))
    assert len(unsettled) < t / 100
    nbr, cands = _neighbor_lists(pts, k)
    for i in range(t):
        d2 = (pts[i, 0] - pts[:, 0]) ** 2 + (pts[i, 1] - pts[:, 1]) ** 2
        d2[i] = np.inf
        expected = np.argsort(d2, kind="stable")[:k]  # nearest first, ties to the lower index
        assert nbr[i].tolist() == expected.tolist()
        assert cands[i] == list(zip(expected.tolist(), np.sqrt(d2[expected]).tolist()))


def test_stale_matches_numpy_formula():
    # the Python scan of small tours and the arrays of larger ones against
    # the rule as numpy arrays: the latest change in the ring of +-3 tour
    # positions or among the candidates, against the last examination
    for t in range(4, 41):
        rng = np.random.default_rng(t)
        k = min(NEIGHBORS, t - 1)
        for _ in range(20):
            tour = rng.permutation(t).tolist()
            pos = np.argsort(tour).tolist()
            touched = rng.integers(0, 40, t).tolist()
            examined = rng.integers(-1, 40, t).tolist()
            nbr = np.array([rng.permutation(np.delete(np.arange(t), i))[:k] for i in range(t)])
            tour_a, touched_a = np.array(tour), np.array(touched)
            ring = touched_a[np.concatenate([tour_a[-3:], tour_a, tour_a[:3]])]
            latest = np.maximum.reduce([ring[j : j + t] for j in range(7)])[pos]
            latest = np.maximum(latest, touched_a[nbr].max(axis=1))
            expected = tour_a[(latest > np.array(examined))[tour_a]].tolist()
            stale = tsp._stale(tour, pos, nbr, examined, touched)
            assert stale == expected and all(type(v) is int for v in stale)


def golden_instance(name):
    """The point set and start route of one :class:`TestTwoOptGolden` case,
    named ``<kind>-<n>``."""
    kind, n = name.rsplit("-", 1)
    n = int(n)
    rng = np.random.default_rng(n)
    if kind == "strip":
        ps = sample_points(GridDensity.uniform(1), n, RandomSeed(620, n))
        return ps, strip_tour(ps).route
    if kind == "random":
        ps = sample_points(GridDensity.uniform(1), n, RandomSeed(621, n))
    elif kind == "lattice":  # many equal distances
        side = math.isqrt(n)
        ps = PointSet.from_points([(i / side, j / side) for i in range(side) for j in range(side)])
    elif kind == "clustered":  # half the points in one tight cluster
        ps = PointSet(np.vstack([rng.random((n // 2, 2)) * 0.01, rng.random((n - n // 2, 2))]))
    else:  # thin: a strip 1000 times longer than wide
        ps = PointSet(rng.random((n, 2)) * [1.0, 0.001])
    return ps, Route(tuple(rng.permutation(len(ps))), closed=True)


# two_opt on fixed inputs, recorded before the candidate gather and the
# Or-opt scan were reworked: case -> (sha256 of the route order, length as
# float.hex, moves, cap_hit)
TWO_OPT_GOLDEN = {
    "strip-5": ("da23ff6a22c1124e536e7c3e7e6bd96d87f8f0b81cad5d7aeaa12b20dfc21e40", "0x1.5ec0b8d7743cdp+1", 0, False),
    "strip-31": ("5b529b3e30f8f0813727802008affa2d6993ebb63a85fe7d7548debeb0a44daa", "0x1.0ea4d1c45301bp+2", 16, False),
    "strip-100": ("334b42c8412efcb42d361b23fef78a1fc6f7cb8c18919edad9ac1e118f6fc28e", "0x1.eec4401041f21p+2", 62, False),
    "strip-500": ("1698ec741a6420ea5c7ddc7e1985af4c65659d64be01dde2e5e91f22842a8892", "0x1.308f755c8647cp+4", 313, False),
    "strip-2000": ("53c42405561e8ba08f179f8b2adf06eec2f7eaf4991dd4ee1c8d030df5bb3b3e", "0x1.196f186326057p+5", 1305, False),
    "random-12": ("acf5a5d7ecf93d6681639e6ae0b61b1b52727361175dbbfc4ba20eb41a10d795", "0x1.7d009cd2e0f27p+1", 14, False),
    "random-150": ("b78ec92fd30035e1488b56e9f2197e7df96b42efc77458ba5b7449a6b405fb39", "0x1.41233f5a161f2p+3", 318, False),
    "random-400": ("1bb5504069be944f8a2f4708816f9d7d57b1a685c4279b2ad0d6b9ad0f6be519", "0x1.f632ea607ad45p+3", 1018, False),
    "lattice-400": ("e8e6bcf044c49d53a154c25ae6a7dfe1d0383741c5f2734a88687e323a1f2472", "0x1.454d4b8532963p+4", 837, False),
    "clustered-600": ("ee54f9f5262153f5b7bbfa8129ef2ea8063f5160f50770e7307bf66d1fb89c7f", "0x1.c3ff3646d5860p+3", 1584, False),
    "thin-300": ("f3f2b366f94745bf1b2cc1d91d030a89c673b91bd33fd59dac8a1014e7579dfb", "0x1.00c8230f7e4c2p+1", 1151, False),
}


def sweep_instances():
    """Strip and random starts on uniform, lattice and clustered points, for
    every t from 4 to 40 and t = 60, 150, 500: small tours put the point
    being examined, and the segments an Or-opt move takes, at both ends of
    the tour list.  The lattices, of spacing 1 / side and 1 / (side - 1),
    tie distances that round differently, so a gain summed in another order
    can scan other candidates."""
    for t in [*range(4, 41), 60, 150, 500]:
        rng = np.random.default_rng(t)
        uniform = sample_points(GridDensity.uniform(1), t, RandomSeed(630, t))
        side = math.isqrt(t - 1) + 1
        lattices = [PointSet.from_points([(i % side / s, i // side / s) for i in range(t)]) for s in (side, side - 1)]
        clustered = PointSet(np.vstack([rng.random((t // 2, 2)) * 0.01, rng.random((t - t // 2, 2))]))
        for ps in (uniform, *lattices, clustered):
            yield ps, strip_tour(ps).route
            yield ps, Route(tuple(rng.permutation(t)), closed=True)


# sha256 over the sweep_instances results' (order, length.hex(), moves,
# cap_hit), recorded before the search loop was unrolled
TWO_OPT_SWEEP_SHA256 = "6f31122f2bb05ae6109bd595b378b5fd9f5dbbd9c412ae499d57db083c3d9b47"


class TestTwoOptGolden:
    @pytest.mark.parametrize("name", list(TWO_OPT_GOLDEN))
    def test_bit_identical(self, name):
        ps, start = golden_instance(name)
        result = two_opt(ps, start)
        digest = hashlib.sha256(",".join(map(str, result.route.order)).encode()).hexdigest()
        assert (digest, result.length.hex(), result.moves, result.cap_hit) == TWO_OPT_GOLDEN[name]

    def test_sweep_bitwise(self):
        digest = hashlib.sha256()
        for ps, start in sweep_instances():
            r = two_opt(ps, start)
            digest.update(repr((r.route.order, r.length.hex(), r.moves, r.cap_hit)).encode())
        assert digest.hexdigest() == TWO_OPT_SWEEP_SHA256


class TestExactTour:
    def test_triangle_is_perimeter(self):
        ps = PointSet.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        result = tsp_exact(ps)
        assert result.length == pytest.approx(2 + math.sqrt(2))

    def test_collinear_out_and_back(self):
        from routebench import Square

        ps = PointSet.from_points([(0, 0), (1, 0), (2, 0), (10, 0)], Square((0.0, 0.0), 10.0))
        assert tsp_exact(ps).length == pytest.approx(20.0)

    def test_matches_brute_force(self):
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(10)
        for trial in range(30):
            n = int(rng.integers(3, 8))
            ps = sample_points(d, n, RandomSeed(602, trial))
            assert tsp_exact(ps).length == pytest.approx(brute_force_tour(ps), abs=1e-9)

    def test_capacity_error(self):
        ps = sample_points(GridDensity.uniform(1), 19, RandomSeed(0))
        with pytest.raises(CapacityError):
            tsp_exact(ps)

    def test_budget_cap(self, monkeypatch):
        # the 32 MiB budget takes 17 points after the anchor (17.7 MiB), not 18
        ps = sample_points(GridDensity.uniform(1), 18, RandomSeed(1))
        result = tsp_exact(ps)
        assert sorted(result.route.order) == list(range(18))
        assert result.length == route_length(result.route, ps)

        def no_matrix(ps):
            raise AssertionError("distance matrix built above the cap")

        monkeypatch.setattr(tsp, "_distance_matrix", no_matrix)
        with pytest.raises(CapacityError, match="tsp_exact on 19 points"):
            tsp_exact(sample_points(GridDensity.uniform(1), 19, RandomSeed(1)))

    @pytest.mark.parametrize("n", [2, 5, 12, 18])
    def test_state_index_covers_each_state_once(self, n):
        # column r of size s is the r-th s-point mask in increasing order and
        # entry (j, r) ends at its j-th point; 8 bytes per state of sizes 1
        # to n, the index term of _require_budget
        arrays = []
        below = np.zeros(1, dtype=np.int64)  # the one mask of size 0
        for s in range(1, n + 1):
            scaled, prev = _states(n, s)
            arrays += [scaled, prev]
            layer = np.array(subset_masks(n, s), dtype=np.int64)
            assert scaled.shape == prev.shape == (s, len(layer))
            v, rem = np.divmod(scaled, n)
            mask = np.broadcast_to(layer, v.shape)
            # s increasing points of an s-point mask, all in it: each of its states once
            assert not rem.any() and (np.diff(v, axis=0) > 0).all() and (mask >> v & 1).all()
            assert np.array_equal(below[prev], mask ^ (1 << v))
            below = layer
        assert all(a.dtype == np.int32 and not a.flags.writeable for a in arrays)
        buffers = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
        index_bytes = 8 * sum(s * math.comb(n, s) for s in range(1, n + 1))
        assert sum(a.nbytes for a in arrays) == sum(b.nbytes for b in buffers.values()) == index_bytes

    def test_state_index_cache_holds_the_oracle_sizes(self):
        # the oracle sizes of perfbench's `oracle` workload (tsp_exact on 12
        # to 15 points, trp_exact on 10 to 13, ktsp_exact on 12) index every
        # size over 10 to 14 points: 60 entries, which a second pass finds
        # in the cache
        from routebench import ktsp_exact, trp_exact

        def run():
            for n in range(10, 16):
                ps = sample_points(GridDensity.uniform(1), n, RandomSeed(605, n))
                if n >= 12:
                    tsp_exact(ps)
                if n <= 13:
                    trp_exact(ps)
                if n == 12:
                    ktsp_exact(ps, 4)

        _states.cache_clear()
        run()
        first = _states.cache_info()
        run()
        assert first.misses == first.currsize == 60
        assert _states.cache_info().misses == first.misses

    @pytest.mark.parametrize("kind", ["random", "lattice", "stacked"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n,stop", [(2, 2), (5, 5), (7, 4), (8, 8), (8, 6), (9, 4), (12, 5)])
    def test_kernel_matches_reference(self, kind, weighted, n, stop):
        # every state's cost bit for bit, and every final state's path is
        # the chain of lowest-index parents
        if kind == "random":
            ps = sample_points(GridDensity.uniform(1), n, RandomSeed(604, n))
        elif kind == "lattice":  # integer points, many equal distances
            ps = PointSet([(i % 3, i // 3) for i in range(n)], Square((0.0, 0.0), 3.0))
        else:  # every distance 0, every path tied
            ps = PointSet([(0.25, 0.5)] * n)
        dist = _distance_matrix(ps)
        weights = n + 1 - np.arange(n + 1) if weighted else None
        start = dist[0] + 0.5  # one-point paths of unequal cost
        cost, parent = reference_held_karp(dist, start, stop, weights)
        tables = _held_karp(dist, start, stop, weights)
        assert len(tables) == stop + 1
        for s in range(stop + 1):
            layer = subset_masks(n, s)
            points = [[v for v in range(n) if m >> v & 1] for m in layer]  # each mask's, increasing
            # entry (j, r): the r-th mask ending at its j-th point
            expected = np.array([[cost[m, vs[j]] for m, vs in zip(layer, points)] for j in range(s)])
            expected = expected.reshape(s, len(layer))  # (0, 1) at s = 0
            assert tables[s].shape == expected.shape and tables[s].tobytes() == expected.tobytes()
        for r, m in enumerate(subset_masks(n, stop)):
            for j, v in enumerate(v for v in range(n) if m >> v & 1):
                chain, state = [], (m, v)
                while state[1] is not None:
                    chain.append(state[1])
                    state = (state[0] ^ (1 << state[1]), parent[state])
                assert _path_to(tables, dist, r, j, weights) == chain[::-1]

    def test_method_chain_ordering(self):
        # exact <= strip+2opt <= strip on every instance where all are defined
        d = GridDensity.uniform(1)
        for trial in range(20):
            ps = sample_points(d, 9, RandomSeed(603, trial))
            s = strip_tour(ps)
            s2 = two_opt(ps, s.route)
            ex = tsp_exact(ps)
            assert ex.length <= s2.length + 1e-9
            assert s2.length <= s.length + 1e-12
            for result in (s, s2, ex):
                assert sorted(result.route.order) == list(range(9))


@pytest.mark.parametrize(
    "oracle, n, k",
    [("tsp", 18, 0), ("trp", 17, 0), ("ktsp", 58, 4), ("ktsp", 35, 5), ("ktsp", 26, 6), ("ktsp", 22, 7),
     ("ktsp", 20, 8), ("ktsp", 18, 11)],
)
def test_budget_counts_the_peak(monkeypatch, oracle, n, k):
    # At each oracle's largest accepted n, the most memory one cold call
    # holds at once is no more than _require_budget counts for it.
    from routebench import ktsp_exact, trp_exact

    def require(size):
        if oracle == "tsp":
            tsp._require_budget("tsp_exact", size, size - 1, size - 1)
        elif oracle == "trp":
            tsp._require_budget("trp_exact", size, size, size)
        else:
            tsp._require_budget("ktsp_exact", size, size, k)

    require(n)
    with pytest.raises(CapacityError):
        require(n + 1)
    ps = sample_points(GridDensity.uniform(1), n, RandomSeed(1400 + n, k))
    call = {"tsp": tsp_exact, "trp": trp_exact, "ktsp": lambda ps: ktsp_exact(ps, k)}[oracle]
    tsp._states.cache_clear()
    tracemalloc.start()
    try:
        call(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(tsp, "EXACT_BUDGET", peak - 1)
    with pytest.raises(CapacityError):  # so it counts at least the peak
        require(n)
