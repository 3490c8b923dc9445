"""Property tests over arbitrary squares, resolutions and orders.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routebench import (
    GridDensity,
    PointSet,
    PopulationGridDensity,
    Route,
    Square,
    fairness_lp,
    ktsp_exact,
    ktsp_grid_scheme,
    route_length,
    strip_tour,
    trp_apriori_scheme,
    trp_exact,
    tsp_exact,
    two_opt,
)
from routebench.core import cell_ids
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
