"""A priori latency scheme, exact oracle, and subpath ordering tests."""

import itertools
import math

import numpy as np
import pytest

from routebench import (
    CapacityError,
    GridDensity,
    Point,
    PointSet,
    RandomSeed,
    Route,
    Square,
    WeightedSubpath,
    last_latency,
    latency_growth_constant,
    optimal_subpath_order,
    sample_points,
    subpath_objective,
    total_latency,
    trp_apriori_scheme,
    trp_exact,
    trp_factor_check,
)
from routebench import trp


def brute_force_latency(ps):
    """Minimum total latency by enumerating all visiting orders."""
    n = len(ps)
    return min(
        total_latency(Route(perm, closed=False), ps)
        for perm in itertools.permutations(range(n))
    )


class TestAprioriScheme:
    def test_uniform_cell_order_is_index_order(self):
        d = GridDensity.uniform(3)
        ps = sample_points(d, 300, RandomSeed(1))
        result = trp_apriori_scheme(ps, d)
        assert list(result.cell_order) == sorted(result.cell_order)
        assert sorted(result.route.order) == list(range(300))
        assert math.isfinite(result.latency)

    def test_two_level_density_order(self):
        d = GridDensity(2, [2.0, 2.0, 0.0, 0.0])
        ps = sample_points(d, 120, RandomSeed(2))
        result = trp_apriori_scheme(ps, d)
        assert list(result.cell_order[:2]) == [0, 1]
        assert sorted(result.route.order) == list(range(120))

    def test_cell_order_is_decreasing_density_sort(self):
        d = GridDensity.from_raw(3, [5, 1, 3, 3, 8, 2, 7, 4, 6])
        ps = sample_points(d, 400, RandomSeed(3))
        result = trp_apriori_scheme(ps, d)
        levels = [d.cells[c] for c in result.cell_order]
        assert levels == sorted(levels, reverse=True)

    def test_latency_matches_metric(self):
        d = GridDensity.uniform(4)
        ps = sample_points(d, 250, RandomSeed(4))
        result = trp_apriori_scheme(ps, d)
        assert result.latency == pytest.approx(total_latency(result.route, ps), rel=1e-12)

    def test_latency_is_the_metric_bit_for_bit(self):
        # the scheme sums its own steps instead of walking the route again
        for m, n in itertools.product((1, 2, 5), (1, 2, 3, 40, 300)):
            d = GridDensity.from_raw(m, np.arange(1, m * m + 1))
            ps = sample_points(d, n, RandomSeed(m, n))
            result = trp_apriori_scheme(ps, d)
            assert result.latency == total_latency(result.route, ps)
            with_depot = trp_apriori_scheme(ps, d, Point(0.3, 0.9))
            assert with_depot.latency == total_latency(with_depot.route, ps) + with_depot.depot_offset

    def test_per_cell_last_latency_is_nondecreasing(self):
        d = GridDensity.uniform(4)
        ps = sample_points(d, 250, RandomSeed(5))
        result = trp_apriori_scheme(ps, d)
        values = list(result.per_cell_last_latency)
        assert len(values) == len(result.cell_order)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(last_latency(result.route, ps), rel=1e-12)

    def test_empty_point_set(self):
        d = GridDensity.uniform(2)
        result = trp_apriori_scheme(PointSet(np.zeros((0, 2))), d)
        assert result.latency == 0.0
        assert result.route.order == ()

    def test_naive_quadratic_bound(self):
        d = GridDensity.uniform(4)
        for trial in range(5):
            ps = sample_points(d, 150, RandomSeed(800, trial))
            result = trp_apriori_scheme(ps, d)
            assert result.latency <= math.sqrt(2) * 150**2 / 2 * ps.square.side

    def test_depot_mode_adds_entry_edge(self):
        d = GridDensity.uniform(2)
        ps = sample_points(d, 50, RandomSeed(6))
        base = trp_apriori_scheme(ps, d)
        depot = Point(0.0, 0.0)
        with_depot = trp_apriori_scheme(ps, d, depot=depot)
        first = ps.coords[with_depot.route.order[0]]
        d0 = math.hypot(first[0] - depot.x, first[1] - depot.y)
        assert with_depot.depot_offset == pytest.approx(50 * d0, rel=1e-12)
        assert with_depot.latency == pytest.approx(
            total_latency(with_depot.route, ps) + 50 * d0, rel=1e-12
        )

    @pytest.mark.parametrize("depot", [Point(math.nan, 0.2), Point(math.inf, 0.2), Point(0.2, -math.inf)])
    def test_non_finite_depot_rejected(self, depot):
        d = GridDensity.uniform(2)
        ps = sample_points(d, 50, RandomSeed(6))
        with pytest.raises(ValueError, match="depot"):
            trp_apriori_scheme(ps, d, depot=depot)

    @pytest.mark.parametrize("depot", [(0.3, 0.9), [0.3, 0.9], np.array([0.3, 0.9])], ids=["tuple", "list", "array"])
    def test_depot_pair_matches_point(self, depot):
        d = GridDensity.uniform(2)
        ps = sample_points(d, 50, RandomSeed(6))
        want = trp_apriori_scheme(ps, d, Point(0.3, 0.9))
        got = trp_apriori_scheme(ps, d, depot)
        assert got.route.order == want.route.order
        assert got.latency.hex() == want.latency.hex()
        assert got.depot_offset.hex() == want.depot_offset.hex() and got.depot_offset > 0

    @pytest.mark.parametrize(
        "depot", [(0.5,), (0.5, 0.5, 0.5), np.array([0.5]), 0.5, "ab"], ids=["one", "three", "array-one", "scalar", "str"]
    )
    def test_depot_not_a_pair_rejected(self, depot):
        d = GridDensity.uniform(2)
        ps = sample_points(d, 50, RandomSeed(6))
        with pytest.raises(ValueError, match="depot"):
            trp_apriori_scheme(ps, d, depot=depot)

    def test_mismatched_square_rejected(self):
        d = GridDensity.uniform(2, Square((0.0, 0.0), 2.0))
        ps = sample_points(GridDensity.uniform(2), 10, RandomSeed(7))
        with pytest.raises(ValueError):
            trp_apriori_scheme(ps, d)


class TestExactOracle:
    def test_three_collinear(self):
        ps = PointSet.from_points([(0, 0), (0, 1), (0, 3)], Square((0.0, 0.0), 3.0))
        result = trp_exact(ps)
        assert result.latency == pytest.approx(4.0)
        assert result.route.order[0] == 0

    def test_two_points(self):
        ps = PointSet.from_points([(0.1, 0.1), (0.7, 0.9)])
        result = trp_exact(ps)
        assert result.latency == pytest.approx(math.hypot(0.6, 0.8))

    def test_matches_brute_force(self):
        d = GridDensity.uniform(1)
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            ps = sample_points(d, n, RandomSeed(801, trial))
            assert trp_exact(ps).latency == pytest.approx(brute_force_latency(ps), abs=1e-9)

    def test_oracle_below_heuristics(self):
        d = GridDensity.uniform(2)
        for trial in range(15):
            ps = sample_points(d, 10, RandomSeed(802, trial))
            exact = trp_exact(ps)
            scheme = trp_apriori_scheme(ps, d)
            assert exact.latency <= scheme.latency + 1e-9

    def test_capacity_error(self):
        ps = sample_points(GridDensity.uniform(1), 18, RandomSeed(8))
        with pytest.raises(CapacityError):
            trp_exact(ps)

    def test_budget_cap(self, monkeypatch):
        # the 32 MiB budget takes 17 points (17.7 MiB), not 18
        ps = sample_points(GridDensity.uniform(1), 17, RandomSeed(9))
        result = trp_exact(ps)
        assert sorted(result.route.order) == list(range(17))
        assert result.latency == total_latency(result.route, ps)

        def no_matrix(ps):
            raise AssertionError("distance matrix built above the cap")

        monkeypatch.setattr(trp, "_distance_matrix", no_matrix)
        with pytest.raises(CapacityError, match="trp_exact on 18 points"):
            trp_exact(sample_points(GridDensity.uniform(1), 18, RandomSeed(9)))


class TestSubpathOrdering:
    EXAMPLE = [WeightedSubpath(5, 1.0), WeightedSubpath(3, 4.0), WeightedSubpath(2, 9.0)]

    def test_example_order_and_objective(self):
        order = optimal_subpath_order(self.EXAMPLE)
        assert order == (2, 1, 0)
        assert subpath_objective(self.EXAMPLE, order) == pytest.approx(77 / 6)

    def test_reversed_order_is_worse(self):
        assert subpath_objective(self.EXAMPLE, (0, 1, 2)) == pytest.approx(28.0)
        assert subpath_objective(self.EXAMPLE, (0, 1, 2)) >= subpath_objective(self.EXAMPLE, (2, 1, 0))

    def test_single_subpath(self):
        single = [WeightedSubpath(4, 2.0)]
        assert optimal_subpath_order(single) == (0,)
        assert subpath_objective(single, (0,)) == 0.0

    def test_equal_densities_stable(self):
        paths = [WeightedSubpath(3, 2.0), WeightedSubpath(9, 2.0), WeightedSubpath(1, 2.0)]
        assert optimal_subpath_order(paths) == (0, 1, 2)
        objs = {
            subpath_objective(paths, perm)
            for perm in itertools.permutations(range(3))
        }
        assert max(objs) - min(objs) <= 1e-12

    @pytest.mark.parametrize("n_visited, density", [
        (math.nan, 1.0), (2.5, 1.0), (0, 1.0), ("3", 1.0), (3, math.inf), (3, math.nan), (3, 0.0),
    ])
    def test_invalid_subpath_rejected(self, n_visited, density):
        # NaN and 2.5 visits used to build and give a NaN objective, an
        # infinite density an objective of 0
        with pytest.raises(ValueError, match="n_visited|density"):
            WeightedSubpath(n_visited, density)

    def test_float_permutation_entries_rejected(self):
        # used to raise TypeError from indexing the subpaths with 0.0
        with pytest.raises(ValueError, match=r"perm\[0\] must be an integer"):
            subpath_objective(self.EXAMPLE[:2], [0.0, 1.0])

    def test_whole_float_visits_stored_as_int(self):
        path = WeightedSubpath(3.0, 4.0)
        assert path.n_visited == 3 and type(path.n_visited) is int
        assert subpath_objective([path, WeightedSubpath(2, 1.0)], (0, 1)) == 3.0

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            subpath_objective(self.EXAMPLE, (0, 0, 1))

    def test_attains_brute_force_minimum(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            size = int(rng.integers(1, 8))
            paths = [
                WeightedSubpath(int(rng.integers(1, 20)), float(rng.uniform(0.1, 9.0)))
                for _ in range(size)
            ]
            best = min(
                subpath_objective(paths, perm)
                for perm in itertools.permutations(range(size))
            )
            assert subpath_objective(paths, optimal_subpath_order(paths)) == pytest.approx(best, abs=1e-9)


class TestFactorCheck:
    def test_uniform_identity(self):
        d = GridDensity.uniform(4)
        ps = sample_points(d, 200, RandomSeed(9))
        ratio = trp_factor_check(ps, d)
        latency = trp_apriori_scheme(ps, d).latency
        assert ratio == pytest.approx(latency / (0.5 * 200 * math.sqrt(200)), rel=1e-12)

    def test_empty_rejected(self):
        d = GridDensity.uniform(2)
        with pytest.raises(ValueError):
            trp_factor_check(PointSet(np.zeros((0, 2))), d)

    def test_matched_density_beats_mismatched(self):
        # serving dense cells first should beat serving them last, on average
        d = GridDensity(2, [2.8, 0.6, 0.4, 0.2])
        mismatched = GridDensity(2, [0.2, 0.4, 0.6, 2.8])
        assert latency_growth_constant(d) == pytest.approx(latency_growth_constant(mismatched))
        matched_vals, mismatched_vals = [], []
        for trial in range(40):
            ps = sample_points(d, 400, RandomSeed(803, trial))
            matched_vals.append(trp_factor_check(ps, d))
            mismatched_vals.append(trp_factor_check(ps, mismatched))
        assert np.mean(matched_vals) <= np.mean(mismatched_vals)


# Recorded with float.hex before cell grouping moved to one stable argsort:
# an m = 8 density with zero cells, 70 sampled points (so many cells stay
# empty) plus stray points in the zero-density cells 3 and 63, which are
# served last.  Keyed by depot.
TRP_GOLDEN = {None: {'cell_order': (0, 9, 27, 1, 2, 4, 5, 8, 11, 12, 13, 14, 16, 18, 21, 22, 23, 26, 28, 29, 30, 31, 32,
                       33, 35, 36, 37, 39, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 58, 60, 3, 63),
        'depot_offset': '0x0.0p+0',
        'latency': '0x1.e67020abc8e39p+8',
        'order': (22, 58, 34, 57, 40, 5, 63, 43, 23, 35, 51, 28, 65, 18, 39, 42, 56, 19, 50, 61, 8, 55, 4, 31,
                  9, 11, 13, 25, 37, 16, 14, 17, 21, 64, 52, 15, 2, 49, 3, 69, 54, 0, 62, 47, 1, 26, 46, 29,
                  20, 24, 45, 38, 68, 30, 44, 60, 53, 27, 41, 36, 33, 6, 59, 10, 32, 66, 67, 7, 48, 12, 71,
                  72, 70, 73),
        'per_cell_last_latency': ('0x1.5306b4b5cf94cp-4', '0x1.a01cc550690fbp-2', '0x1.a5b4f52056f47p-1',
                                  '0x1.58d3160529f00p+0', '0x1.92d21bd0b1ff1p+0', '0x1.cee62bf6ebcf0p+0',
                                  '0x1.fa2412e074b0ap+0', '0x1.4e380fb8452a6p+1', '0x1.707b76701ac8ep+1',
                                  '0x1.87d8c62f196b0p+1', '0x1.9a8aa6249f3bap+1', '0x1.ab8f27e6f5322p+1',
                                  '0x1.0318862af86fcp+2', '0x1.0f1ba7ed59b63p+2', '0x1.2613418feb45dp+2',
                                  '0x1.374e36556b43ep+2', '0x1.42059d99e5757p+2', '0x1.7004187ca30b0p+2',
                                  '0x1.860914974b170p+2', '0x1.8d919c7fda466p+2', '0x1.93a0c1c55968dp+2',
                                  '0x1.a1fca53a26c8cp+2', '0x1.e6180448677f7p+2', '0x1.f55e94e667a46p+2',
                                  '0x1.02f341c8ea2b9p+3', '0x1.067d4bcb5d7cbp+3', '0x1.0af94b44a25c7p+3',
                                  '0x1.149cbdd8bdd08p+3', '0x1.2a2eb341eeda8p+3', '0x1.360a91e61836ep+3',
                                  '0x1.3baf82d7983a9p+3', '0x1.40726cfb3e55bp+3', '0x1.5b2e6afce9693p+3',
                                  '0x1.603bc9277aa65p+3', '0x1.635502f53e1ddp+3', '0x1.6c486d831e25dp+3',
                                  '0x1.6eaf15e274236p+3', '0x1.73c8208487de3p+3', '0x1.8c57ca5b5d013p+3',
                                  '0x1.96f0fbcacc8d9p+3', '0x1.a1f1bd5a29bcfp+3', '0x1.c0d3a42d5bf9cp+3',
                                  '0x1.e457490054491p+3')},
 (0.5, 0.5): {'cell_order': (0, 9, 27, 1, 2, 4, 5, 8, 11, 12, 13, 14, 16, 18, 21, 22, 23, 26, 28, 29, 30, 31,
                             32, 33, 35, 36, 37, 39, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 58, 60, 3,
                             63),
              'depot_offset': '0x1.61842b506f574p+5',
              'latency': '0x1.0a62a683ba437p+9',
              'order': (40, 5, 22, 58, 34, 57, 63, 43, 23, 35, 51, 28, 65, 18, 39, 42, 56, 19, 50, 61, 8, 55,
                        4, 31, 9, 11, 13, 25, 37, 16, 14, 17, 21, 64, 52, 15, 2, 49, 3, 69, 54, 0, 62, 47, 1,
                        26, 46, 29, 20, 24, 45, 38, 68, 30, 44, 60, 53, 27, 41, 36, 33, 6, 59, 10, 32, 66, 67,
                        7, 48, 12, 71, 72, 70, 73),
              'per_cell_last_latency': ('0x1.ba7b9c68940f3p-4', '0x1.bdc954caef8d5p-2',
                                        '0x1.b48b3cdd9a334p-1', '0x1.603e39e3cb8f7p+0',
                                        '0x1.9a3d3faf539e8p+0', '0x1.d6514fd58d6e7p+0',
                                        '0x1.00c79b5f8b280p+1', '0x1.51eda1a795fa0p+1',
                                        '0x1.7431085f6b988p+1', '0x1.8b8e581e6a3aap+1',
                                        '0x1.9e403813f00b4p+1', '0x1.af44b9d64601cp+1',
                                        '0x1.04f34f22a0d79p+2', '0x1.10f670e5021e0p+2',
                                        '0x1.27ee0a8793adap+2', '0x1.3928ff4d13abbp+2',
                                        '0x1.43e066918ddd4p+2', '0x1.71dee1744b72dp+2',
                                        '0x1.87e3dd8ef37edp+2', '0x1.8f6c657782ae3p+2',
                                        '0x1.957b8abd01d0ap+2', '0x1.a3d76e31cf309p+2',
                                        '0x1.e7f2cd400fe74p+2', '0x1.f7395dde100c3p+2',
                                        '0x1.03e0a644be5f7p+3', '0x1.076ab04731b09p+3',
                                        '0x1.0be6afc076905p+3', '0x1.158a225492046p+3',
                                        '0x1.2b1c17bdc30e6p+3', '0x1.36f7f661ec6acp+3',
                                        '0x1.3c9ce7536c6e7p+3', '0x1.415fd17712899p+3',
                                        '0x1.5c1bcf78bd9d1p+3', '0x1.61292da34eda3p+3',
                                        '0x1.644267711251bp+3', '0x1.6d35d1fef259bp+3',
                                        '0x1.6f9c7a5e48574p+3', '0x1.74b585005c121p+3',
                                        '0x1.8d452ed731351p+3', '0x1.97de6046a0c17p+3',
                                        '0x1.a2df21d5fdf0dp+3', '0x1.c1c108a9302dap+3',
                                        '0x1.e544ad7c287cfp+3')}}


def golden_trp_instance():
    levels = np.ones(64)
    levels[[3, 10, 17, 40, 41, 63]] = 0.0
    levels[[0, 9, 27]] = 4.0
    d = GridDensity.from_raw(8, levels)
    sampled = sample_points(d, 70, RandomSeed(2024, 5))
    stray = np.array([[0.40, 0.05], [0.45, 0.12], [0.41, 0.09], [0.99, 0.99]])
    return PointSet(np.vstack([sampled.coords, stray]), d.square), d


class TestAprioriGolden:
    @pytest.mark.parametrize("depot", list(TRP_GOLDEN))
    def test_matches_recorded_route_and_latency(self, depot):
        ps, d = golden_trp_instance()
        result = trp_apriori_scheme(ps, d, None if depot is None else Point(*depot))
        want = TRP_GOLDEN[depot]
        assert result.latency.hex() == want["latency"]
        assert result.depot_offset.hex() == want["depot_offset"]
        assert result.route.order == want["order"]
        assert result.cell_order == want["cell_order"]
        assert tuple(v.hex() for v in result.per_cell_last_latency) == want["per_cell_last_latency"]
        assert result.cell_order[-2:] == (3, 63)  # zero-density cells go last
        assert len(result.cell_order) < 64  # some cells are empty
