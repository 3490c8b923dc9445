"""Grid scheme, exact subset-path oracle, and analytic bound tests."""

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
    ktsp_exact,
    ktsp_grid_scheme,
    ktsp_nonuniform_scheme,
    ktsp_rate,
    ktsp_tail_bound,
    route_length,
    sample_points,
)
from routebench import ktsp, tsp
from routebench.core import _inside, cell_ids
from routebench.ktsp import _grid_resolution


def brute_force_kpath(ps, k):
    """Exact shortest open path over k points: all subsets, all orders."""
    n = len(ps)
    best = math.inf
    for subset in itertools.combinations(range(n), k):
        for perm in itertools.permutations(subset):
            if perm[0] > perm[-1]:
                continue  # reversal symmetry
            best = min(best, route_length(Route(perm, closed=False), ps))
    return best


def reference_grid_scheme(ps, k):
    """ktsp_grid_scheme with its numpy tail: the lowest cell holding k points
    (by counts), its k members nearest the cell centre (stable, so ties go to
    the lower index), a strip tour plus 2-opt on them opened at its first
    longest edge, and the path's length on ps's own coordinates."""
    n, alpha = len(ps), 0
    while True:
        alpha += 1
        m = _grid_resolution(alpha, k, n, ps.square.area)
        ids = cell_ids(ps.coords, ps.square, m)
        crowded = np.flatnonzero(np.bincount(ids, minlength=m * m) >= k)
        if crowded.size:
            cell = int(crowded[0])
            break
    members = np.flatnonzero(ids == cell)
    cx, cy = ps.square.cell_center(m, cell)
    pts = ps.coords.take(members, axis=0)
    d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
    chosen = members[np.argsort(d2, kind="stable")[:k]]
    sub = ps.subset(chosen, ps.square.cell(m, cell))
    order = np.array(tsp.strip_two_opt(sub).route.order, dtype=np.intp)
    tour = sub.coords.take(order, axis=0)
    gaps = tour - np.concatenate((tour[1:], tour[:1]))
    cut = int(np.argmax(np.hypot(gaps[:, 0], gaps[:, 1]))) + 1
    path = chosen[np.concatenate((order[cut:], order[:cut]))]
    route = Route(tuple(path.tolist()), closed=False)
    return route, route_length(route, ps), alpha, cell


def assert_matches_reference(ps, k):
    result = ktsp_grid_scheme(ps, k)
    route, length, alpha, cell = reference_grid_scheme(ps, k)
    assert result.route.order == route.order and not result.route.closed
    assert result.length.hex() == length.hex()
    assert (result.alpha_used, result.cell_chosen) == (alpha, cell)
    return result


class TestGridResolution:
    def test_formula_example(self):
        assert _grid_resolution(alpha=1, k=2, n=16, area=1.0) == 16

    def test_clamped_to_one(self):
        assert _grid_resolution(alpha=1000, k=2, n=4, area=1.0) == 1

    def test_decreasing_in_alpha(self):
        values = [_grid_resolution(a, 3, 500, 1.0) for a in range(1, 10)]
        assert values == sorted(values, reverse=True)


class TestGridScheme:
    def test_route_has_exactly_k_points(self):
        ps = sample_points(GridDensity.uniform(1), 300, RandomSeed(1))
        for k in (2, 3, 7):
            result = ktsp_grid_scheme(ps, k)
            assert len(result.route) == k
            assert not result.route.closed
            assert len(set(result.route.order)) == k
            assert result.length == pytest.approx(route_length(result.route, ps), rel=1e-12)

    def test_k_equals_n_whole_square(self):
        ps = sample_points(GridDensity.uniform(1), 40, RandomSeed(2))
        result = ktsp_grid_scheme(ps, 40)
        side = ps.square.side
        assert sorted(result.route.order) == list(range(40))
        assert result.length <= (2 * math.sqrt(40) + 4) * side + side

    def test_invalid_k(self):
        ps = sample_points(GridDensity.uniform(1), 10, RandomSeed(3))
        with pytest.raises(ValueError):
            ktsp_grid_scheme(ps, 1)
        with pytest.raises(ValueError):
            ktsp_grid_scheme(ps, 11)

    def test_chosen_points_share_a_cell(self):
        ps = sample_points(GridDensity.uniform(1), 500, RandomSeed(4))
        result = ktsp_grid_scheme(ps, 4)
        m = _grid_resolution(result.alpha_used, 4, 500, 1.0)
        from routebench.core import cell_ids

        ids = cell_ids(ps.coords[list(result.route.order)], ps.square, m)
        assert np.all(ids == result.cell_chosen)

    def test_matches_reference(self):
        d = GridDensity.uniform(1)
        for n in (30, 100, 400, 1600):
            for trial in range(4):
                ps = sample_points(d, n, RandomSeed(702, 10 * n + trial))
                for k in (2, 3, 5, 17, 30, n):
                    assert_matches_reference(ps, k)
        square = Square((-3.5, 2.25), 8.0)
        ps = sample_points(GridDensity.uniform(3, square), 200, RandomSeed(703))
        for k in (2, 3, 5, 17, 30, 200):
            assert_matches_reference(ps, k)

    def test_equidistant_members_lower_index_wins(self):
        # n = 4, k = 3 finds no crowded cell at m = 2 and takes the whole
        # square at m = 1; all four points lie 0.375 from its centre
        ring = [(0.5, 0.875), (0.125, 0.5), (0.5, 0.125), (0.875, 0.5)]
        for perm in itertools.permutations(range(4)):
            ps = PointSet.from_points([ring[i] for i in perm])
            result = assert_matches_reference(ps, 3)
            assert (result.alpha_used, result.cell_chosen) == (2, 0)
            assert sorted(result.route.order) == [0, 1, 2]
        # a lattice: many members at equal distance from many cell centres
        at = np.arange(64)
        ps = PointSet(np.column_stack((at % 8, at // 8)) / 7.0)
        for k in (2, 3, 4, 5, 9, 17, 30, 64):
            assert_matches_reference(ps, k)

    def test_member_an_ulp_outside_its_cell_is_clipped(self):
        # cell_ids and Square.cell round differently: find a point that
        # cell_ids puts in a cell whose square it misses by an ulp, and make
        # it one of the k points of the only crowded cell
        square = Square((-0.7, 0.2), 0.9)
        n, k = 12, 3
        m = _grid_resolution(1, k, n, square.area)  # 5
        h = square.side / m
        y = square.origin[1] + 1.5 * h
        traps = []  # points within 4 ulps of a column line, and their cells
        for j in range(1, m):
            x = square.origin[0] + j * h
            for _ in range(4):
                x = np.nextafter(x, -math.inf)
            for _ in range(9):
                x = np.nextafter(x, math.inf)
                pt = np.array([[x, y]])
                cell = int(cell_ids(pt, square, m)[0])
                if not _inside(pt, square.cell(m, cell)):
                    traps.append(((float(x), y), cell))
        assert traps, "no point near a column line misses its cell's square"
        point, cell = traps[0]
        cx, cy = square.cell_center(m, cell)
        others = [c for c in range(m * m) if c != cell][: n - k]
        pts = [point, (cx, cy), (cx, cy - h / 4)] + [square.cell_center(m, c) for c in others]
        ps = PointSet.from_points(pts, square)
        result = assert_matches_reference(ps, k)
        assert (result.alpha_used, result.cell_chosen) == (1, cell)
        assert 0 in result.route.order

    def test_never_below_exact(self):
        d = GridDensity.uniform(1)
        for trial in range(30):
            ps = sample_points(d, 11, RandomSeed(700, trial))
            k = 2 + trial % 4
            scheme = ktsp_grid_scheme(ps, k)
            exact = ktsp_exact(ps, k)
            assert scheme.length >= exact.length - 1e-9

    def test_beats_naive_rate_smoke(self):
        # subset routing should clearly beat a share of the full tour
        from routebench import strip_tour

        d = GridDensity.uniform(1)
        k, n = 5, 1000
        scheme_lengths, naive = [], []
        for trial in range(60):
            ps = sample_points(d, n, RandomSeed(701, trial))
            scheme_lengths.append(ktsp_grid_scheme(ps, k).length)
            naive.append((k - 1) / n * strip_tour(ps).length)
        assert np.mean(scheme_lengths) < 0.8 * np.mean(naive)


class TestExactOracle:
    def test_k2_is_closest_pair(self):
        ps = sample_points(GridDensity.uniform(1), 60, RandomSeed(5))
        result = ktsp_exact(ps, 2)
        diff = ps.coords[:, None] - ps.coords[None, :]
        dist = np.hypot(diff[..., 0], diff[..., 1]) + np.eye(60) * 1e9
        assert result.length == pytest.approx(float(dist.min()), rel=1e-12)

    def test_collinear_k3(self):
        ps = PointSet.from_points([(0, 0), (1, 0), (2, 0), (10, 0)], Square((0.0, 0.0), 10.0))
        result = ktsp_exact(ps, 3)
        assert result.length == pytest.approx(2.0)
        assert sorted(result.route.order) == [0, 1, 2]

    def test_k_equals_n_open_path_below_tour(self):
        from routebench import tsp_exact

        ps = sample_points(GridDensity.uniform(1), 9, RandomSeed(6))
        path = ktsp_exact(ps, 9)
        tour = tsp_exact(ps)
        assert path.length <= tour.length + 1e-12

    def test_matches_brute_force(self):
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(2, n + 1))
            ps = sample_points(d, n, RandomSeed(702, trial))
            assert ktsp_exact(ps, k).length == pytest.approx(brute_force_kpath(ps, k), abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [30, 60, 120, "lattice"])
    def test_closed_form_matches_dp(self, n, k):
        # k = 2 and 3 skip the dynamic program; run it anyway and compare the
        # lengths bit for bit and, where no two paths tie, the points covered
        if n == "lattice":  # many equal distances: lengths only
            ps = PointSet([(i % 6, i // 6) for i in range(30)], Square((0.0, 0.0), 6.0))
        else:
            ps = sample_points(GridDensity.uniform(1), n, RandomSeed(706, n))
        dist = tsp._distance_matrix(ps)
        cost = tsp._held_karp(dist, np.zeros(len(ps)), k)
        r = int(np.argmin(cost[k].min(axis=0)))
        path = tsp._path_to(cost, dist, r, int(np.argmin(cost[k][:, r])))
        result = ktsp_exact(ps, k)
        assert result.length.hex() == float(cost[k][:, r].min()).hex()
        if n != "lattice":
            assert sorted(result.route.order) == sorted(path)

    def test_monotone_in_k(self):
        ps = sample_points(GridDensity.uniform(1), 10, RandomSeed(7))
        lengths = [ktsp_exact(ps, k).length for k in range(2, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_capacity_error_large_k(self):
        ps = sample_points(GridDensity.uniform(1), 36, RandomSeed(8))
        with pytest.raises(CapacityError):
            ktsp_exact(ps, 5)
        # closed-form paths stay available above the DP cap
        assert ktsp_exact(ps, 2).length > 0
        assert ktsp_exact(ps, 3).length > 0

    def test_capacity_checked_before_distances(self, monkeypatch):
        # n = 59 must fail on its size alone, before any n x n matrix is built
        def no_matrix(ps):
            raise AssertionError("distance matrix built above the cap")

        monkeypatch.setattr(ktsp, "_distance_matrix", no_matrix)
        ps = sample_points(GridDensity.uniform(1), 59, RandomSeed(9))
        with pytest.raises(CapacityError):
            ktsp_exact(ps, 4)

    def test_budget_cap(self, monkeypatch):
        # the 32 MiB budget takes 58 points at k = 4 (31 MiB), 20 at k = 8
        ps = sample_points(GridDensity.uniform(1), 58, RandomSeed(10))
        result = ktsp_exact(ps, 4)
        assert len(result.route) == 4 and not result.route.closed
        assert result.length == route_length(result.route, ps)

        def no_matrix(ps):
            raise AssertionError("distance matrix built above the cap")

        monkeypatch.setattr(ktsp, "_distance_matrix", no_matrix)
        for n, k in ((59, 4), (21, 8)):
            with pytest.raises(CapacityError, match=f"ktsp_exact at k = {k} on {n} points"):
                ktsp_exact(sample_points(GridDensity.uniform(1), n, RandomSeed(10)), k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_closed_form_budget_cap(self, monkeypatch, k):
        # the distance matrix peaks at 24 bytes per pair: 1182 points fit in
        # 32 MiB, 1183 do not; neither matrix is built here
        class Built(Exception):
            pass

        def no_matrix(ps):
            raise Built

        monkeypatch.setattr(ktsp, "_distance_matrix", no_matrix)
        with pytest.raises(Built):
            ktsp_exact(sample_points(GridDensity.uniform(1), 1182, RandomSeed(11)), k)
        with pytest.raises(CapacityError, match="on 1183 points"):
            ktsp_exact(sample_points(GridDensity.uniform(1), 1183, RandomSeed(11)), k)


class TestNonuniformScheme:
    def test_single_cell_density_identical_to_grid(self):
        d = GridDensity.uniform(1)
        ps = sample_points(d, 200, RandomSeed(9))
        plain = ktsp_grid_scheme(ps, 5)
        restricted = ktsp_nonuniform_scheme(ps, d, 5)
        assert restricted.route.order == plain.route.order
        assert restricted.length == plain.length

    def test_two_level_density_uses_supported_cell(self):
        d = GridDensity(2, [2.0, 2.0, 0.0, 0.0])
        for trial in range(10):
            ps = sample_points(d, 200, RandomSeed(703, trial))
            result = ktsp_nonuniform_scheme(ps, d, 5)
            assert result.density_cell in (0, 1)

    def test_fallback_when_cell_underfilled(self):
        # max-density cell holds 4 points; asking for 6 forces the global scheme
        d = GridDensity(2, [3.0, 1.0, 0.0, 0.0])
        pts = [(0.1, 0.1), (0.2, 0.2), (0.3, 0.1), (0.4, 0.3)] + [
            (0.6 + 0.04 * i, 0.1 + 0.03 * i) for i in range(8)
        ]
        ps = PointSet.from_points(pts)
        result = ktsp_nonuniform_scheme(ps, d, 6)
        assert result.density_cell is None
        assert len(result.route) == 6

    def test_concentration_speedup_matches_substitution(self):
        # a level-f_max cell behaves like f_max * n uniform points
        k = 10
        hi = GridDensity(2, [2.5, 0.5, 0.5, 0.5])
        uni = GridDensity.uniform(2)
        ratios = []
        hi_lengths, uni_lengths = [], []
        for trial in range(300):
            ps_hi = sample_points(hi, 2000, RandomSeed(704, trial))
            ps_uni = sample_points(uni, 2000, RandomSeed(705, trial))
            hi_lengths.append(ktsp_nonuniform_scheme(ps_hi, hi, k).length)
            uni_lengths.append(ktsp_nonuniform_scheme(ps_uni, uni, k).length)
        ratio = np.mean(hi_lengths) / np.mean(uni_lengths)
        predicted = 1.0 / math.sqrt(2.5)
        assert abs(ratio - predicted) <= 0.2 * predicted


class TestRateAndTail:
    def test_rate_examples(self):
        assert ktsp_rate(2, 100, 1.0) == pytest.approx(0.01)
        assert ktsp_rate(3, 16, 1.0) == pytest.approx(0.25)

    def test_rate_area_scaling(self):
        for k, n in ((2, 50), (4, 200), (10, 1000)):
            assert ktsp_rate(k, n, 4.0) == pytest.approx(2 * ktsp_rate(k, n, 1.0))

    def test_rate_exponent_limits(self):
        # exponent is 1 at k=2 and tends to 1/2 as k grows
        assert ktsp_rate(2, 100, 1.0) == pytest.approx(1.0 / 100)
        big_k = 200
        value = ktsp_rate(big_k, 10_000, 1.0)
        assert value == pytest.approx((big_k - 1) / 10_000 ** (0.5 * (1 + 1 / (big_k - 1))))
        exponent = 0.5 * (1 + 1 / (big_k - 1))
        assert abs(exponent - 0.5) < 0.003

    def test_rate_invalid_args(self):
        with pytest.raises(ValueError):
            ktsp_rate(1, 10, 1.0)
        with pytest.raises(ValueError):
            ktsp_rate(3, 2, 1.0)

    @pytest.mark.parametrize("k", [2.5, 4.0, np.float64(3.0), "3", None])
    def test_non_integer_k_rejected(self, k):
        # every k-taking entry point shares one check: ValueError, never a
        # truncated k or a TypeError from deep inside
        ps = sample_points(GridDensity.uniform(1), 10, RandomSeed(720))
        calls = [
            lambda: ktsp_rate(k, 10, 1.0),
            lambda: ktsp_tail_bound(k, 10, 1.0, 0.1),
            lambda: ktsp_grid_scheme(ps, k),
            lambda: ktsp_nonuniform_scheme(ps, GridDensity.uniform(2), k),
            lambda: ktsp_exact(ps, k),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="k must be an integer"):
                call()

    def test_numpy_integer_k_accepted(self):
        ps = sample_points(GridDensity.uniform(1), 10, RandomSeed(721))
        assert ktsp_rate(np.int64(3), 16, 1.0) == ktsp_rate(3, 16, 1.0)
        assert ktsp_tail_bound(np.int32(3), 16, 1.0, 0.1) == ktsp_tail_bound(3, 16, 1.0, 0.1)
        assert ktsp_grid_scheme(ps, np.int64(4)) == ktsp_grid_scheme(ps, 4)
        assert ktsp_exact(ps, np.int64(4)) == ktsp_exact(ps, 4)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 10.5, "16", 2])
    def test_n_must_be_a_count_of_at_least_k(self, n):
        # NaN and 10.5 used to give a value, inf a rate of 0.0
        for call in (lambda: ktsp_rate(3, n, 1.0), lambda: ktsp_tail_bound(3, n, 1.0, 0.1)):
            with pytest.raises(ValueError, match="n must be"):
                call()
        assert ktsp_rate(3, 16.0, 1.0) == ktsp_rate(3, 16, 1.0)

    @pytest.mark.parametrize("area", [math.nan, math.inf, -math.inf])
    def test_rate_rejects_non_finite_area(self, area):
        with pytest.raises(ValueError):
            ktsp_rate(4, 100, area)

    @pytest.mark.parametrize("area, threshold", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1), (math.nan, 0.0),
    ])
    def test_tail_bound_rejects_non_finite_args(self, area, threshold):
        with pytest.raises(ValueError):
            ktsp_tail_bound(4, 100, area, threshold)

    def test_tail_bound_zero_threshold(self):
        assert ktsp_tail_bound(2, 10, 1.0, 0.0) == 0.0

    def test_tail_bound_example(self):
        assert ktsp_tail_bound(2, 10, 1.0, 0.05) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_tail_bound_monotone_and_capped(self):
        values = [ktsp_tail_bound(3, 40, 1.0, a) for a in np.linspace(0, 1.0, 30)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_tail_bound_no_overflow(self):
        assert ktsp_tail_bound(400, 1000, 1.0, 1e-6) == 0.0
        assert ktsp_tail_bound(400, 1000, 1.0, 100.0) == 1.0

    def test_log_regime_exponential_tail(self):
        # for k of order log n, short paths are exponentially unlikely
        n, k, trials = 10, 5, 800
        threshold = k / (math.e * math.sqrt(math.pi * n))
        d = GridDensity.uniform(1)
        hits = 0
        for trial in range(trials):
            ps = sample_points(d, n, RandomSeed(706, trial))
            if ktsp_exact(ps, k).length <= threshold:
                hits += 1
        freq = hits / trials
        se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
        assert freq <= math.exp(-k) + 3 * se
