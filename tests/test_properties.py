"""Property tests over arbitrary squares, resolutions and orders.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routebench import (
    FairnessMix,
    GridDensity,
    Point,
    PointSet,
    PopulationGridDensity,
    RandomSeed,
    Route,
    Square,
    UNIT_SQUARE,
    WeightedSubpath,
    density_from_json,
    fair_ktsp_sample,
    fairness_lp,
    geographic_service_map,
    ktsp_exact,
    ktsp_grid_scheme,
    ktsp_nonuniform_scheme,
    route_length,
    sample_points,
    strip_tour,
    subpath_objective,
    total_latency,
    trp_apriori_scheme,
    trp_exact,
    tsp_exact,
    two_opt,
)
from routebench.core import cell_ids, stable_stream
from routebench.ktsp import _grid_resolution

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

squares = st.builds(
    Square,
    st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    st.floats(0.01, 100),
)


def points_in(square: Square, fractions: list[tuple[float, float]]) -> np.ndarray:
    """Points at the given fractions of the square's side; u <= 1 keeps
    origin + u * side inside the closed square under rounding."""
    u = np.array(fractions, dtype=np.float64).reshape(-1, 2)
    return np.asarray(square.origin) + u * square.side


fractions = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=60)


class TestRouteContract:
    @PROPERTY
    @given(st.lists(st.integers(-5, 40), max_size=12), st.booleans())
    def test_accepts_exactly_distinct_nonnegative_ints(self, order, closed):
        valid = all(i >= 0 for i in order) and len(set(order)) == len(order)
        if valid:
            route = Route(tuple(order), closed)
            assert route.order == tuple(order)
        else:
            with pytest.raises(ValueError):
                Route(tuple(order), closed)

    @PROPERTY
    @given(st.permutations(range(12)), st.integers(0, 12), st.sampled_from([np.int32, np.int64, np.uint16, int]))
    def test_prefixes_of_permutations_in_any_int_type(self, perm, size, cast):
        order = [cast(i) for i in perm[:size]]
        route = Route(order, closed=False)
        assert route.order == tuple(perm[:size])
        assert all(type(i) is int for i in route.order)

    @PROPERTY
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True), st.data())
    def test_rejects_any_float_index(self, order, data):
        at = data.draw(st.integers(0, len(order) - 1))
        mixed = list(order)
        mixed[at] = data.draw(st.sampled_from([float, np.float64]))(mixed[at])
        with pytest.raises(ValueError):
            Route(tuple(mixed), closed=False)


def assert_checked(route: Route, n: int, k: int | None = None) -> None:
    """``route`` is what the checked constructor makes of it, of Python
    ints: a permutation of range(n), or k distinct indices below n."""
    assert Route(route.order, route.closed) == route
    assert all(type(i) is int for i in route.order)
    if k is None:
        assert sorted(route.order) == list(range(n))
    else:
        assert len(set(route.order)) == len(route.order) == k and all(0 <= i < n for i in route.order)


class TestLibraryRoutes:
    """Routes the library builds skip the checks of ``Route``; each of them
    would pass those checks."""

    @PROPERTY
    @given(squares, st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=60), st.data())
    def test_tours_are_permutations(self, square, fracs, data):
        ps = PointSet(points_in(square, fracs), square)
        n = len(ps)
        assert_checked(strip_tour(ps).route, n)
        start = Route(tuple(data.draw(st.permutations(range(n)))), closed=True)
        assert_checked(two_opt(ps, start).route, n)
        m = data.draw(st.integers(1, 4))
        assert_checked(trp_apriori_scheme(ps, GridDensity.uniform(m, square)).route, n)
        if n <= 9:
            assert_checked(tsp_exact(ps).route, n)
            assert_checked(trp_exact(ps).route, n)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(squares, st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=60), st.data())
    def test_paths_are_k_subsets(self, square, fracs, data):
        ps = PointSet(points_in(square, fracs), square)
        n = len(ps)
        k = data.draw(st.integers(2, n))
        m = data.draw(st.integers(1, 4))
        raw = np.array(data.draw(st.lists(st.integers(0, 9), min_size=m * m, max_size=m * m)), dtype=np.float64) + 0.5
        d = GridDensity.from_raw(m, raw, square)
        assert_checked(ktsp_grid_scheme(ps, k).route, n, k)
        assert_checked(ktsp_nonuniform_scheme(ps, d, k).route, n, k)
        pop = PopulationGridDensity(m, d.cells[None, :], square)
        mix = FairnessMix(raw / raw.sum(), tuple(range(m * m)), 0.0, 0.0)
        seed = RandomSeed(data.draw(st.integers(0, 2**64 - 1)))
        assert_checked(fair_ktsp_sample(pop, mix, ps, k, seed).route, n, k)
        if n <= 9:
            assert_checked(ktsp_exact(ps, k).route, n, k)


class TestStripBound:
    @PROPERTY
    @given(squares, fractions, st.integers(1, 500), st.integers(0, 2**32 - 1))
    def test_length_within_strip_bound(self, square, fracs, uniform, seed):
        # drawn points plus 1-500 uniform ones; the assert inside
        # strip_tour says the same, but python -O drops it
        u = np.concatenate([np.array(fracs).reshape(-1, 2), np.random.default_rng(seed).random((uniform, 2))])
        n = len(u)
        length = strip_tour(PointSet(points_in(square, u), square)).length
        assert length <= (2 * math.sqrt(n) + 4) * square.side + slack(square)


class TestCellIds:
    @PROPERTY
    @given(squares, st.integers(1, 20), fractions)
    def test_grouped_points_lie_in_their_cell(self, square, m, fracs):
        coords = points_in(square, fracs)
        ids = cell_ids(coords, square, m)
        assert ids.dtype == np.int64 and ids.shape == (len(coords),)
        assert np.all((ids >= 0) & (ids < m * m))
        tol = 1e-9 * (square.side + max(map(abs, square.origin)))
        for cell in np.unique(ids).tolist():
            rect = square.cell(m, cell)
            pts = coords[ids == cell]
            assert np.all(pts >= np.asarray(rect.origin) - tol)
            assert np.all(pts <= np.asarray(rect.origin) + rect.side + tol)


class TestGridScheme:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(squares, st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=80), st.data())
    def test_k_distinct_points_inside_chosen_cell(self, square, fracs, data):
        ps = PointSet(points_in(square, fracs), square)
        n = len(ps)
        k = data.draw(st.integers(2, n))
        result = ktsp_grid_scheme(ps, k)
        order = result.route.order
        assert len(order) == k and len(set(order)) == k
        assert all(0 <= i < n for i in order)
        m = _grid_resolution(result.alpha_used, k, n, square.area)
        assert np.all(cell_ids(ps.coords[list(order)], square, m) == result.cell_chosen)
        assert result.length == route_length(result.route, ps)


class TestSchemeRoutes:
    """Routes visit the right points and move with their square.  The
    equivariance tests use fixed seeds, which keep points off grid lines,
    where rounding could move one across a cell boundary."""

    @PROPERTY
    @given(squares, fractions, st.integers(1, 4))
    def test_trp_scheme_visits_every_point_once(self, square, fracs, m):
        ps = PointSet(points_in(square, fracs), square)
        order = trp_apriori_scheme(ps, GridDensity.uniform(m, square)).route.order
        assert sorted(order) == list(range(len(ps)))

    @pytest.mark.parametrize("n", [60, 500])
    @pytest.mark.parametrize("square", [Square((-3.5, 2.25), 8.0), Square((12.0, -40.0), 0.3)])
    def test_trp_scheme_under_translation_and_scaling(self, n, square):
        ps = sample_points(GridDensity.uniform(1), n, RandomSeed(611, n))
        moved = PointSet(np.asarray(square.origin) + square.side * ps.coords, square)
        for m in (1, 3, 5):
            here = trp_apriori_scheme(ps, GridDensity.uniform(m))
            there = trp_apriori_scheme(moved, GridDensity.uniform(m, square))
            assert there.route == here.route
            assert there.latency == pytest.approx(square.side * here.latency, rel=1e-12)

    @pytest.mark.parametrize("n", [60, 500])
    def test_grid_scheme_under_translation(self, n):
        # not under scaling: the grid resolution divides by the square's
        # area, so a larger square gets a coarser grid.  k >= 3 keeps paths
        # long against the rounding of the shifted coordinates.
        ps = sample_points(GridDensity.uniform(1), n, RandomSeed(611, n))
        square = Square((-3.5, 2.25), 1.0)
        moved = PointSet(np.asarray(square.origin) + ps.coords, square)
        for k in (3, 5, 9):
            here, there = ktsp_grid_scheme(ps, k), ktsp_grid_scheme(moved, k)
            assert there.route == here.route
            assert there.length == pytest.approx(here.length, rel=1e-12)


def exact_sized(min_size: int) -> st.SearchStrategy:
    """Up to 9 points as fractions of the square's side; the corners and
    the centre are drawn often, so points coincide."""
    point = st.one_of(
        st.tuples(st.floats(0, 1), st.floats(0, 1)),
        st.sampled_from([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]),
    )
    return st.lists(point, min_size=min_size, max_size=9)


def slack(square: Square) -> float:
    """1e-9 in units of the side: lengths scale with it."""
    return 1e-9 * max(1.0, square.side)


class TestExactOracles:
    """Each exact oracle is no worse than the heuristic it checks."""

    @PROPERTY
    @given(squares, exact_sized(1))
    def test_tsp_exact_two_opt_strip(self, square, fracs):
        ps = PointSet(points_in(square, fracs), square)
        strip = strip_tour(ps)
        polished = two_opt(ps, strip.route)
        assert tsp_exact(ps).length <= polished.length + slack(square)
        assert polished.length <= strip.length + slack(square)

    @PROPERTY
    @given(squares, exact_sized(2), st.data())
    def test_ktsp_exact_grid_scheme(self, square, fracs, data):
        ps = PointSet(points_in(square, fracs), square)
        k = data.draw(st.integers(2, len(ps)))
        assert ktsp_exact(ps, k).length <= ktsp_grid_scheme(ps, k).length + slack(square)

    @PROPERTY
    @given(squares, exact_sized(1), st.integers(1, 3))
    def test_trp_exact_apriori_scheme(self, square, fracs, m):
        ps = PointSet(points_in(square, fracs), square)
        scheme = trp_apriori_scheme(ps, GridDensity.uniform(m, square))
        assert trp_exact(ps).latency <= scheme.latency + slack(square)

    # Fixed seeds above n = 9, where 2-opt no longer has every point as a
    # candidate of every other, up to the oracles' caps.
    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_tsp_exact_two_opt_strip_beyond_all_candidates(self, n):
        ps = sample_points(GridDensity.uniform(1), n, RandomSeed(1300 + n))
        strip = strip_tour(ps)
        polished = two_opt(ps, strip.route)
        assert tsp_exact(ps).length <= polished.length + slack(UNIT_SQUARE)
        assert polished.length <= strip.length + slack(UNIT_SQUARE)

    def test_trp_exact_apriori_scheme_at_cap(self):
        ps = sample_points(GridDensity.uniform(1), 17, RandomSeed(1317))
        scheme = trp_apriori_scheme(ps, GridDensity.uniform(2))
        assert trp_exact(ps).latency <= scheme.latency + slack(UNIT_SQUARE)

    def test_ktsp_exact_grid_scheme_at_cap(self):
        ps = sample_points(GridDensity.uniform(1), 18, RandomSeed(1318))
        assert ktsp_exact(ps, 4).length <= ktsp_grid_scheme(ps, 4).length + slack(UNIT_SQUARE)


class TestFairnessLp:
    @PROPERTY
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 6), st.sampled_from([0.0, 0.01, 0.2]), st.data())
    def test_optimal_against_the_generating_mixture(self, m, P, k, epsilon, data):
        # small whole-number weights give ties, empty cells and repeated
        # ratio columns; the generating mixture w is feasible, so the
        # optimum costs no more than it does
        weights = st.lists(st.integers(0, 9), min_size=P * m * m, max_size=P * m * m)
        layers = np.array(data.draw(weights), dtype=np.float64).reshape(P, m * m)
        layers[0, 0] += 1.0
        pop = PopulationGridDensity(m, layers * (m * m) / layers.sum())
        f = pop.total.cells
        supported = f > 0
        ratios = pop.layers[:, supported] / f[supported]
        J = ratios.shape[1]
        w = np.array(data.draw(st.lists(st.integers(0, 9), min_size=J, max_size=J)), dtype=np.float64)
        w[0] += 1.0
        w /= w.sum()
        targets = ratios @ w
        mix = fairness_lp(pop, k, targets, epsilon)
        q = mix.q[supported]
        assert np.all(np.abs(ratios @ q - targets) <= epsilon + 1e-9)
        assert abs(q.sum() - 1.0) <= 1e-9 and np.all(mix.q >= 0)
        assert np.all(mix.q[~supported] == 0)
        costs = f[supported] ** (-0.5 * (1.0 + 1.0 / (k - 1)))
        assert mix.objective <= costs @ w + 1e-12
        assert mix.objective == costs @ q
        assert len(mix.support) <= P + (epsilon > 0)


class TestUncheckedConstructors:
    """What the library builds without the public checks equals what the
    checked constructors build from the same values."""

    @PROPERTY
    @given(squares, st.integers(1, 20), st.data())
    def test_cell_equals_checked_square(self, square, m, data):
        k = data.draw(st.integers(0, m * m - 1))
        cell = square.cell(m, k)
        h = square.side / m
        row, col = divmod(k, m)
        checked = Square((square.origin[0] + col * h, square.origin[1] + row * h), h)
        assert cell == checked and hash(cell) == hash(checked)
        assert cell == Square(cell.origin, cell.side)

    @pytest.mark.parametrize("m, k", [(0, 0), (2.0, 1), (None, 0), (2, -1), (2, 1.0), (2, 4), (3, 9), (2, "1")])
    def test_cell_still_checks_m_and_k(self, m, k):
        with pytest.raises(ValueError):
            UNIT_SQUARE.cell(m, k)

    @pytest.mark.parametrize("square, m, k", [(Square((0.0, 0.0), 5e-324), 2, 0), (Square((1.7e308, 0.0), 1.7e308), 2, 1)])
    def test_cell_beyond_float_range_raises(self, square, m, k):
        # a side that underflows to 0, an origin that overflows to inf
        with pytest.raises(ValueError, match="square"):
            square.cell(m, k)

    @PROPERTY
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.lists(st.one_of(st.text(max_size=8), st.integers(-(2**70), 2**70)), max_size=4),
    )
    def test_child_equals_checked_seed(self, master, stream, keys):
        seed = RandomSeed(master, stream)
        child = seed.child(*keys)
        checked = RandomSeed(seed.master_seed, stable_stream(seed.stream_index, *keys))
        assert child == checked and hash(child) == hash(checked)
        assert type(child.master_seed) is int and type(child.stream_index) is int
        assert child.generator().random() == checked.generator().random()

    @PROPERTY
    @given(squares, fractions, st.integers(1, 6), st.data())
    def test_private_subset_equals_public(self, square, fracs, m, data):
        # the selection is taken as a point set of one cell of ``square``:
        # points on the cell's corners moved 0-3 ulps outwards, which the
        # edge clip moves back, and maybe one point too far out for it; the
        # point set's own square is three times as wide, so it holds them all
        outer = Square((square.origin[0] - square.side, square.origin[1] - square.side), 3 * square.side)
        rect = square.cell(m, data.draw(st.integers(0, m * m - 1)))
        lo = np.asarray(rect.origin)
        coords = lo + np.array(fracs, dtype=np.float64).reshape(-1, 2).round() * rect.side
        for _ in range(data.draw(st.integers(0, 3))):
            coords = np.nextafter(coords, np.where(coords > lo + rect.side / 2, np.inf, -np.inf))
        if len(coords) and data.draw(st.booleans()):
            coords[0] = lo - 1e-6 * rect.side
        ps = PointSet(coords, outer)
        n = len(ps)
        chosen = data.draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
        try:
            public = ps.subset(chosen, rect)
        except ValueError:
            with pytest.raises(ValueError, match="inside the bounding square"):
                ps._subset(np.array(chosen, dtype=np.intp), rect)
            return
        private = ps._subset(np.array(chosen, dtype=np.intp), rect)
        assert private.square == public.square == rect
        assert private.coords.dtype == public.coords.dtype == np.float64
        assert private.coords.shape == public.coords.shape == (len(chosen), 2)
        assert private.coords.tobytes() == public.coords.tobytes()
        assert not private.coords.flags.writeable

    def test_private_subset_of_nothing(self):
        ps = PointSet([[0.25, 0.75]])
        empty = ps._subset(np.array([], dtype=np.intp), UNIT_SQUARE.cell(2, 0))
        assert empty.coords.shape == ps.subset([], UNIT_SQUARE.cell(2, 0)).coords.shape == (0, 2)

    @pytest.mark.parametrize("indices", [[True, False], np.array([False, True]), [-1], [0, -2], [0.0], [1.5, 0]])
    def test_public_subset_still_checks_indices(self, indices):
        ps = PointSet([[0.1, 0.1], [0.9, 0.9]])
        with pytest.raises(ValueError, match="indices must be integers"):
            ps.subset(indices)


# entries of an index selection: indices, and the values the index rule rejects
index_entries = st.one_of(
    st.integers(0, 12),
    st.integers(0, 12).map(np.int64),
    st.integers(0, 12).map(np.uint8),
    st.integers(-3, -1),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(0, 12),
    st.integers(2**63, 2**70),
    st.text(max_size=2),
    st.none(),
)

# a coordinate of a pair: finite reals, and the values the pair rule rejects
pair_coords = st.one_of(
    st.floats(-1e6, 1e6),
    st.integers(-1000, 1000),
    st.booleans(),
    st.fractions(-10, 10),
    st.floats(-1e6, 1e6).map(np.float64),
    st.integers(-5, 5).map(np.int32),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    st.decimals(-10, 10, allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.none(),
)

# None is left out as a whole value: as the depot it means "no depot"
pair_likes = st.one_of(
    st.tuples(pair_coords, pair_coords),
    st.lists(pair_coords, max_size=3),
    st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(math.nan)), min_size=1, max_size=3).map(np.array),
    pair_coords.filter(lambda v: v is not None),
)


def is_index(value, n: int) -> bool:
    """The index rule for one entry: a Python or numpy integer, not a bool, in [0, n)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)) and 0 <= value < n


def outcome(call):
    """What ``call`` returns, or ValueError when it raises one."""
    try:
        return call()
    except ValueError:
        return ValueError


class TestIndexAndPairRules:
    """Every caller of one input rule accepts and rejects the same values."""

    @PROPERTY
    @given(st.integers(0, 10), st.data())
    def test_index_selections_follow_one_rule(self, size, data):
        # a permutation of range(size), valid for every caller, with up to three entries swapped out
        values = list(data.draw(st.permutations(range(size))))
        for at, entry in data.draw(st.lists(st.tuples(st.integers(0, 9), index_entries), max_size=3)):
            if at < size:
                values[at] = entry
        distinct = len({int(v) for v in values if is_index(v, 2**63)}) == len(values)
        ps = PointSet(np.linspace(0.05, 0.95, 20).reshape(10, 2))

        route = outcome(lambda: Route(values, closed=False))
        assert (route is not ValueError) == (all(is_index(v, 2**63) for v in values) and distinct)
        if route is not ValueError:
            assert route.order == tuple(int(v) for v in values)

        sub = outcome(lambda: ps.subset(values))
        assert (sub is not ValueError) == all(is_index(v, 10) for v in values)
        if sub is not ValueError:
            assert sub.coords.tolist() == [ps.coords[int(v)].tolist() for v in values]

        if len(values) >= 2:  # k = len(values) served of n = 10 points
            smap = outcome(
                lambda: geographic_service_map(lambda *_: values, GridDensity.uniform(1), len(values), 10, 1, RandomSeed(3))
            )
            assert (smap is not ValueError) == (all(is_index(v, 10) for v in values) and distinct)
            if smap is not ValueError:
                assert smap.served.tolist() == [len(values)]

        if values:  # a permutation of the len(values) subpaths
            paths = [WeightedSubpath(i + 1, 1.0 + i) for i in range(len(values))]
            cost = outcome(lambda: subpath_objective(paths, values))
            assert (cost is not ValueError) == (all(is_index(v, len(values)) for v in values) and distinct)
            if cost is not ValueError:
                assert cost == subpath_objective(paths, [int(v) for v in values])

    @PROPERTY
    @given(pair_likes)
    def test_pairs_follow_one_rule(self, value):
        d = GridDensity.uniform(1)
        ps = sample_points(d, 6, RandomSeed(4))
        square = outcome(lambda: Square(value, 1.0))
        scheme = outcome(lambda: trp_apriori_scheme(ps, d, depot=value))
        spec = outcome(lambda: density_from_json({"kind": "uniform", "square": {"origin": value, "side": 1.0}}))
        assert (square is ValueError) == (scheme is ValueError) == (spec is ValueError)
        if square is not ValueError:
            x, y = map(float, value)
            assert scheme.latency == trp_apriori_scheme(ps, d, depot=Point(x, y)).latency
            assert spec.square == Square((x, y), 1.0) and square.origin == tuple(value)
            assert hash(square) == hash(Square(tuple(value), 1.0))

    # the four answers the hand-written checks gave before the two rules
    def test_route_of_an_index_beyond_64_bits_rejected(self):
        # used to build, then raise OverflowError in route_length and total_latency
        with pytest.raises(ValueError, match="route indices"):
            Route((2**70,), closed=False)

    @pytest.mark.parametrize("indices", [0, np.zeros((2, 1), dtype=np.intp), [[0], [1]]], ids=["scalar", "2-d", "nested"])
    def test_subset_shape_message_names_indices(self, indices):
        # used to say "coords must have shape (n, 2)"
        ps = PointSet([[0.1, 0.1], [0.9, 0.9]])
        with pytest.raises(ValueError, match=r"^indices must be .* shape \(k,\)"):
            ps.subset(indices)

    @pytest.mark.parametrize("flags", [(False, True), (np.False_, np.True_)], ids=["python", "numpy"])
    def test_bools_are_not_indices(self, flags):
        # Route and subpath_objective used to read Python bools as 0 and 1
        paths = [WeightedSubpath(1, 1.0), WeightedSubpath(2, 2.0)]
        with pytest.raises(ValueError, match="route indices must be"):
            Route(flags, closed=False)
        with pytest.raises(ValueError, match="perm must be"):
            subpath_objective(paths, list(flags))

    @pytest.mark.parametrize("origin", [[0.5, 2], np.array([0.5, 2.0])], ids=["list", "array"])
    def test_square_keeps_its_origin_as_a_tuple(self, origin):
        # a list origin used to make the square unhashable, an array one made == raise
        square = Square(origin, 1.0)
        assert square.origin == (0.5, 2.0) and type(square.origin) is tuple
        assert square == Square((0.5, 2.0), 1.0) and hash(square) == hash(Square((0.5, 2.0), 1.0))

    @pytest.mark.parametrize("origin", [["0.5", "1e0"], ["0.5", 0.0], [0.0, "0"]])
    def test_numeric_strings_are_not_origins(self, origin):
        # density_from_json used to read ["0.5", "1e0"] as (0.5, 1.0), though Square rejects "0.5"
        with pytest.raises(ValueError, match="'square.origin' [xy] must be finite"):
            density_from_json({"kind": "uniform", "square": {"origin": origin, "side": 1.0}})
        with pytest.raises(ValueError, match="square origin [xy] must be finite"):
            Square(tuple(origin), 1.0)
