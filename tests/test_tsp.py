"""Strip tour, 2-opt, and exact tour oracle tests."""

import hashlib
import itertools
import math

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
from routebench.tsp import _HK_BLOCK, NEIGHBORS, _neighbor_lists, _steps

UNIT_CORNERS = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def brute_force_tour(ps):
    """Exact closed-tour length by enumerating all cyclic orders."""
    n = len(ps)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        best = min(best, route_length(Route(order, closed=True), ps))
    return best


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
            k = min(NEIGHBORS, t - 1)
            nbr, cands = _neighbor_lists(pts, k)
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            np.fill_diagonal(d2, np.inf)
            expected = np.lexsort((np.broadcast_to(np.arange(t), d2.shape), d2), axis=1)[:, :k].tolist()
            assert nbr.tolist() == expected
            for i, row in enumerate(cands):
                assert [c for c, _ in row] == expected[i]
                assert [dc for _, dc in row] == pytest.approx([math.dist(pts[i], pts[c]) for c, _ in row], rel=1e-15)


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


class TestTwoOptGolden:
    @pytest.mark.parametrize("name", list(TWO_OPT_GOLDEN))
    def test_bit_identical(self, name):
        ps, start = golden_instance(name)
        result = two_opt(ps, start)
        digest = hashlib.sha256(",".join(map(str, result.route.order)).encode()).hexdigest()
        assert (digest, result.length.hex(), result.moves, result.cap_hit) == TWO_OPT_GOLDEN[name]


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
        ps = sample_points(GridDensity.uniform(1), 16, RandomSeed(0))
        with pytest.raises(CapacityError):
            tsp_exact(ps)

    def test_step_cache_footprint(self):
        # 9 bytes per (mask, last point) state, about 1.03 MB at n = 14,
        # counting the buffers the cached blocks keep alive
        n = 14
        arrays = [a for layer in _steps(n) for block in layer for a in block]
        buffers = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
        states = n << (n - 1)
        assert sum(a.nbytes for a in arrays) == sum(b.nbytes for b in buffers.values()) <= 9 * states
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_step_blocks_cover_each_state_once(self, n):
        for s, layer in enumerate(_steps(n)):
            assert all(len(state) <= _HK_BLOCK for state, _, _ in layer)
            state, prev, last = (np.concatenate(parts).astype(np.int64) for parts in zip(*layer))
            mask = state // n
            assert np.array_equal(state % n, last)
            assert np.array_equal(prev, mask ^ (1 << last))
            expected = [m * n + v for m in range(1 << n) if bin(m).count("1") == s for v in range(n) if m >> v & 1]
            assert sorted(state.tolist()) == expected

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
