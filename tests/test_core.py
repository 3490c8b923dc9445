"""Core geometry, metrics, sampling, and density tests."""

import itertools
import json
import math

import numpy as np
import pytest

from routebench import (
    GridDensity,
    PointSet,
    PopulationGridDensity,
    RandomSeed,
    Route,
    Square,
    UNIT_SQUARE,
    density_from_json,
    density_to_json,
    ktsp_rate,
    last_latency,
    latency_growth_constant,
    load_points_csv,
    route_length,
    sample_points,
    save_points_csv,
    total_latency,
)
from routebench.core import cell_ids


def counts_per_cell(ps, d):
    return np.bincount(cell_ids(ps.coords, d.square, d.m), minlength=d.m * d.m)


def make_ps(points, square=None):
    return PointSet.from_points(points, square or Square((0.0, 0.0), max(10.0, 1.0)))


class TestRouteMetrics:
    def test_single_edge(self):
        ps = make_ps([(0, 0), (3, 4)])
        assert route_length(Route((0, 1), closed=False), ps) == 5.0

    def test_unit_square_perimeter(self):
        ps = PointSet.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert route_length(Route((0, 1, 2, 3), closed=True), ps) == pytest.approx(4.0)

    def test_degenerate_routes(self):
        ps = make_ps([(2, 3)])
        assert route_length(Route((0,), closed=False), ps) == 0.0
        assert route_length(Route((0,), closed=True), ps) == 0.0
        assert route_length(Route((), closed=False), ps) == 0.0

    def test_invalid_index_rejected(self):
        ps = make_ps([(0, 0)])
        with pytest.raises(ValueError):
            route_length(Route((0, 1), closed=False), ps)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            Route((0, 0), closed=False)

    def test_non_integral_indices_rejected(self):
        # floats are rejected, not truncated to (0, 1, 2)
        for order in ((0.7, 1.2, 2.9), (0, 1.0), (np.float64(2.0),), ("0", "1"), (None,)):
            with pytest.raises(ValueError, match="integers"):
                Route(order, closed=False)
        with pytest.raises(ValueError, match="nonnegative"):
            Route((1, -2), closed=True)

    def test_latency_collinear(self):
        ps = make_ps([(0, 0), (1, 0), (3, 0)])
        r = Route((0, 1, 2), closed=False)
        # waits are 0, 1, 3
        assert total_latency(r, ps) == pytest.approx(4.0)
        assert last_latency(r, ps) == pytest.approx(3.0)

    def test_latency_single_point(self):
        ps = make_ps([(5, 5)])
        r = Route((0,), closed=False)
        assert total_latency(r, ps) == 0.0
        assert last_latency(r, ps) == 0.0

    def test_latency_closed_route_rejected(self):
        ps = make_ps([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            total_latency(Route((0, 1), closed=True), ps)
        with pytest.raises(ValueError):
            last_latency(Route((0, 1), closed=True), ps)

    def test_last_latency_empty_rejected(self):
        ps = make_ps([(0, 0)])
        with pytest.raises(ValueError):
            last_latency(Route((), closed=False), ps)

    def test_latency_matches_permutation_minimum(self):
        # brute-force oracle: enumerate all 3! visiting orders
        ps = make_ps([(0, 0), (0, 1), (0, 3)])
        best = min(
            total_latency(Route(perm, closed=False), ps)
            for perm in itertools.permutations(range(3))
        )
        assert best == pytest.approx(4.0)
        assert total_latency(Route((0, 1, 2), closed=False), ps) == pytest.approx(4.0)

    def test_latency_two_forms_agree(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            pts = rng.random((n, 2))
            ps = PointSet(pts)
            r = Route(tuple(rng.permutation(n).tolist()), closed=False)
            # per-point form: each point waits the prefix length before it
            coords = pts[list(r.order)]
            steps = np.hypot(*np.diff(coords, axis=0).T)
            prefix = np.concatenate([[0.0], np.cumsum(steps)])
            by_points = float(prefix.sum())
            by_edges = total_latency(r, ps)
            assert by_edges == pytest.approx(by_points, rel=1e-12)

    def test_total_dominates_last_latency(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            ps = PointSet(rng.random((n, 2)))
            r = Route(tuple(rng.permutation(n).tolist()), closed=False)
            assert total_latency(r, ps) >= last_latency(r, ps) - 1e-12

    def test_last_latency_equals_open_route_length(self):
        rng = np.random.default_rng(5)
        ps = PointSet(rng.random((7, 2)))
        r = Route(tuple(range(7)), closed=False)
        assert last_latency(r, ps) == pytest.approx(route_length(r, ps))


class TestSampling:
    def test_uniform_cell_frequencies(self):
        d = GridDensity.uniform(2)
        ps = sample_points(d, 10_000, RandomSeed(42))
        counts = counts_per_cell(ps, d)
        expect = 10_000 / 4
        sd = math.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) <= 3 * sd)

    def test_zero_cells_never_sampled(self):
        d = GridDensity(2, [2.0, 2.0, 0.0, 0.0])
        ps = sample_points(d, 10_000, RandomSeed(7))
        counts = counts_per_cell(ps, d)
        assert counts[2] == 0 and counts[3] == 0
        assert abs(counts[0] / 10_000 - 0.5) <= 0.02
        assert abs(counts[1] / 10_000 - 0.5) <= 0.02

    def test_seed_reproducibility(self):
        d = GridDensity.uniform(3)
        a = sample_points(d, 500, RandomSeed(11, 3))
        b = sample_points(d, 500, RandomSeed(11, 3))
        c = sample_points(d, 500, RandomSeed(11, 4))
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)
        # each sample owns a read-only array
        assert not a.coords.flags.writeable and not np.shares_memory(a.coords, b.coords)
        assert not np.shares_memory(a.coords, d.cells)

        class Ones:  # a stream of 1.0 puts points past the top and right edges, as rounding could
            def generator(self):
                return self

            def random(self, size):
                return np.ones(size)

        with pytest.raises(ValueError, match="inside"):
            sample_points(d, 5, Ones())

    @pytest.mark.parametrize("m", range(1, 9))
    def test_cell_draw_is_generator_choice(self, m):
        # the reference draws cells with Generator.choice, which sample_points replaced
        def by_choice(d, n, seed):
            rng = seed.generator()
            ids = rng.choice(d.m * d.m, size=n, p=d.cells / d.m**2)
            offsets = rng.random((n, 2))
            h = d.square.side / d.m
            rows, cols = np.divmod(ids, d.m)
            xs = d.square.origin[0] + (cols + offsets[:, 0]) * h
            ys = d.square.origin[1] + (rows + offsets[:, 1]) * h
            return np.column_stack([xs, ys])

        raw = np.random.default_rng(m).random(m * m)
        raw[1::3] = 0.0  # zero cells
        for d in (GridDensity.uniform(m), GridDensity.from_raw(m, raw, Square((-3.5, 2.25), 7.0))):
            for n in (0, 1, 2, 17, 2000):
                for seed in (RandomSeed(0), RandomSeed(5, 3), RandomSeed(2**64 - 1, 2**63)):
                    assert sample_points(d, n, seed).coords.tobytes() == by_choice(d, n, seed).tobytes()

    def test_empty_sample(self):
        d = GridDensity.uniform(2)
        assert len(sample_points(d, 0, RandomSeed(0))) == 0

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, "3", -1])
    def test_sample_size_must_be_a_count(self, n):
        # 2.5 and NaN used to raise TypeError from inside numpy
        with pytest.raises(ValueError, match="n must be"):
            sample_points(GridDensity.uniform(2), n, RandomSeed(0))

    def test_whole_float_sample_size(self):
        d = GridDensity.uniform(2)
        assert np.array_equal(sample_points(d, 5.0, RandomSeed(1)).coords, sample_points(d, 5, RandomSeed(1)).coords)

    @pytest.mark.parametrize("args", [(1.5,), (0, 2.5), (np.float64(3.0),), ("3",), (None,), (-1,), (0, 2**64)])
    def test_seed_must_be_a_64_bit_integer(self, args):
        # 1.5 used to build a seed whose generator() raised TypeError
        with pytest.raises(ValueError, match="master_seed|stream_index"):
            RandomSeed(*args)

    def test_numpy_integer_seed(self):
        seed = RandomSeed(np.int64(9), np.uint64(2**63))
        assert seed == RandomSeed(9, 2**63) and type(seed.master_seed) is int
        assert seed.generator().random() == RandomSeed(9, 2**63).generator().random()

    def test_child_streams_are_stable(self):
        s = RandomSeed(9)
        assert s.child("exp", 1, 2) == s.child("exp", 1, 2)
        assert s.child("exp", 1, 2) != s.child("exp", 1, 3)


class TestBucketCounts:
    def test_empty(self):
        d = GridDensity.uniform(3)
        assert counts_per_cell(PointSet(np.zeros((0, 2))), d).sum() == 0

    def test_center_goes_top_right(self):
        # half-open convention: the shared corner belongs to the upper-right cell
        d = GridDensity.uniform(2)
        ps = PointSet.from_points([(0.5, 0.5)])
        counts = counts_per_cell(ps, d)
        assert counts.tolist() == [0, 0, 0, 1]

    def test_partition_property(self):
        d = GridDensity(4, GridDensity.from_raw(4, np.arange(16) + 1.0).cells)
        ps = sample_points(d, 2000, RandomSeed(3))
        assert counts_per_cell(ps, d).sum() == 2000

    def test_outside_point_rejected(self):
        d = GridDensity.uniform(2)
        ps = PointSet.from_points([(5.0, 5.0)], Square((0.0, 0.0), 10.0))
        with pytest.raises(ValueError):
            counts_per_cell(ps, d)

    @pytest.mark.parametrize("m", [0, -2, 2.5, 2.0, "2", None])
    def test_cell_ids_rejects_bad_resolution(self, m):
        coords = np.array([[0.1, 0.2], [0.9, 0.9]])
        with pytest.raises(ValueError, match="resolution m"):
            cell_ids(coords, UNIT_SQUARE, m)

    def test_cell_ids_numpy_resolution(self):
        coords = np.array([[0.1, 0.3], [0.9, 0.9], [1.0, 0.0]])
        ids = cell_ids(coords, UNIT_SQUARE, np.int64(4))
        assert ids.dtype == np.int64
        assert ids.tolist() == [4, 15, 3]

    def test_cell_ids_rejects_nan(self):
        with pytest.raises(ValueError, match="outside"):
            cell_ids(np.array([[0.5, math.nan]]), UNIT_SQUARE, 2)

    def test_boundary_edges_belong_to_last_cells(self):
        d = GridDensity.uniform(2)
        ps = PointSet.from_points([(1.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
        counts = counts_per_cell(ps, d)
        assert counts.tolist() == [1, 1, 0, 1]

    @pytest.mark.parametrize(
        "origin, side, m", [((0.0, 1.0), 95.5, 3), ((-37.25, 12.5), 0.3, 7), ((1e3, -1e3), 7.0, 5)]
    )
    def test_subset_onto_own_cell(self, origin, side, m):
        # points on every grid line and one ulp to either side; rounding
        # can put a point that cell_ids assigns to a cell just outside that
        # cell's square, and subset moves it onto the edge
        square = Square(origin, side)
        lines = np.asarray(origin)[:, None] + np.arange(m + 1) * (side / m)
        lines = np.concatenate([lines, np.nextafter(lines, -np.inf), np.nextafter(lines, np.inf)], axis=1)
        lines = np.clip(lines, np.asarray(origin)[:, None], np.asarray(origin)[:, None] + side)
        coords = np.array(list(itertools.product(lines[0], lines[1])))
        ps = PointSet(coords, square)
        ids = cell_ids(coords, square, m)
        for cell in np.unique(ids).tolist():
            members = np.flatnonzero(ids == cell)
            sub = ps.subset(members, square.cell(m, cell))
            assert np.all(np.abs(sub.coords - coords[members]) <= 1e-12 * (side + max(map(abs, origin))))

    def test_subset_rejects_point_outside_square(self):
        ps = PointSet.from_points([(0.2, 0.2), (0.7, 0.2)])
        assert ps.subset([0], Square((0.0, 0.0), 0.5)).coords.tolist() == [[0.2, 0.2]]
        with pytest.raises(ValueError, match="inside"):
            ps.subset([1], Square((0.0, 0.0), 0.5))
        # a subset owns a read-only copy of its points
        for sub in (ps.subset([0, 1]), ps.subset([1], Square((0.5, 0.0), 0.5)), ps.subset([])):
            assert not sub.coords.flags.writeable and not np.shares_memory(sub.coords, ps.coords)
        # within 1e-9 of the square's scale a point is moved onto its edge; beyond, it is outside
        assert ps.subset([0], Square((0.0, 0.0), 0.2 - 1e-12)).coords.tolist() == [[0.2 - 1e-12, 0.2 - 1e-12]]
        with pytest.raises(ValueError, match="inside"):
            ps.subset([0], Square((0.0, 0.0), 0.2 - 1e-9))
        with pytest.raises(ValueError, match="shape"):
            ps.subset(0)

    # subset indices: integers in [0, n), no wrap-around, no cast, no mask
    SUBSET_PS = PointSet.from_points([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.4, 0.4), (0.5, 0.5)])

    def test_subset_rejects_negative_index(self):
        # used to return the last point
        with pytest.raises(ValueError, match="indices"):
            self.SUBSET_PS.subset([-1])

    def test_subset_rejects_float_indices(self):
        # used to be cast to points 0 and 1
        with pytest.raises(ValueError, match="indices"):
            self.SUBSET_PS.subset([0.0, 1.0])

    def test_subset_rejects_boolean_mask(self):
        # used to be read as indices 0 and 1, giving all five points
        with pytest.raises(ValueError, match="indices"):
            self.SUBSET_PS.subset(np.array([True, False, True, False, False]))

    def test_subset_rejects_index_past_end(self):
        # used to raise IndexError
        with pytest.raises(ValueError, match="indices"):
            self.SUBSET_PS.subset([99])

    def test_subset_takes_integer_and_empty_selections(self):
        ps = self.SUBSET_PS
        assert ps.subset(np.array([4, 0], dtype=np.uint8)).coords.tolist() == [[0.5, 0.5], [0.1, 0.1]]
        assert len(ps.subset([])) == len(ps.subset(np.array([], dtype=np.intp))) == 0

    @pytest.mark.parametrize("m, k", [(2.5, 1), (2, 1.5)])
    def test_cell_rejects_non_integer_arguments(self, m, k):
        # cell(2.5, 1) used to return Square((0.4, 0.0), 0.4), and cell(2, 1.5)
        # a square offset by half a cell
        for call in (UNIT_SQUARE.cell, UNIT_SQUARE.cell_center):
            with pytest.raises(ValueError, match="m must|k must"):
                call(m, k)


class TestLatencyGrowthConstant:
    def test_uniform_is_half_exactly(self):
        for m in (1, 2, 3, 4, 8):
            assert latency_growth_constant(GridDensity.uniform(m)) == 0.5

    def test_two_level_example(self):
        d = GridDensity(2, [2.0, 2.0, 0.0, 0.0])
        assert latency_growth_constant(d) == pytest.approx(math.sqrt(2) / 4, rel=1e-12)

    def test_invariant_under_cell_permutation(self):
        rng = np.random.default_rng(21)
        cells = GridDensity.from_raw(3, rng.random(9)).cells
        base = latency_growth_constant(GridDensity(3, cells))
        for _ in range(5):
            perm = rng.permutation(9)
            assert latency_growth_constant(GridDensity(3, cells[perm])) == pytest.approx(base, rel=1e-12)

    def test_tie_term_lower_bound(self):
        # the same-level part of the sum dominates half of the f^{3/2} integral term
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            cells = GridDensity.from_raw(m, rng.random(m * m) ** 2).cells
            m2 = m * m
            levels, counts = np.unique(cells[cells > 0], return_counts=True)
            w = counts / m2
            tie_part = float(np.sum(np.sqrt(levels) * w * 0.5 * levels * w))
            reference = 0.5 * (1.0 / (2 * m2)) * float(np.sum(cells**1.5)) / m2
            assert tie_part + 1e-15 >= reference

    def test_scales_linearly_with_side(self):
        cells = [2.0, 2.0, 0.0, 0.0]
        small = latency_growth_constant(GridDensity(2, cells))
        big = latency_growth_constant(GridDensity(2, cells, Square((1.0, -2.0), 3.0)))
        assert big == pytest.approx(3 * small, rel=1e-12)


class TestValidationAndIO:
    def test_density_normalization_enforced(self):
        with pytest.raises(ValueError):
            GridDensity(2, [1.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            GridDensity(2, [-1.0, 3.0, 1.0, 1.0])

    def test_point_outside_square_rejected(self):
        with pytest.raises(ValueError):
            PointSet.from_points([(2.0, 0.5)])

    def test_csv_round_trip_exact(self, tmp_path):
        ps = sample_points(GridDensity.uniform(2), 37, RandomSeed(100))
        path = tmp_path / "pts.csv"
        save_points_csv(ps, path)
        back = load_points_csv(path, ps.square)
        assert np.array_equal(ps.coords, back.coords)

    def test_csv_needs_its_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        for text in ("", "a,b\n0.1,0.2\n", "0.1,0.2\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="header 'x,y'"):
                load_points_csv(path)

    def test_csv_short_row_names_its_line(self, tmp_path):
        # a row with one field used to raise IndexError
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n0.1,0.2\n0.3\n")
        with pytest.raises(ValueError, match="line 3 has fewer than two fields"):
            load_points_csv(path)
        path.write_text("x,y\n0.1,0.2\n\n0.3,0.5\n")  # blank lines are skipped
        back = load_points_csv(path)
        assert back.coords.tolist() == [[0.1, 0.2], [0.3, 0.5]]
        assert back.square == Square((0.1, 0.2), 0.3)

    def test_grid_resolution_is_a_count(self):
        # m = 2.0 used to be stored as a float that every scheme rejected,
        # uniform(2.0) raised TypeError and the JSON reader truncated 2.5 to 2
        for d in (GridDensity(2.0, np.ones(4)), GridDensity.uniform(2.0), GridDensity.from_raw(2.0, np.ones(4))):
            assert d.m == 2 and type(d.m) is int
            assert np.array_equal(d.cells, GridDensity.uniform(2).cells)
        for bad in (2.5, math.nan, "2", 0):
            with pytest.raises(ValueError, match="resolution m"):
                GridDensity(bad, np.ones(4))
            with pytest.raises(ValueError, match="resolution m"):
                GridDensity.uniform(bad)
        with pytest.raises(ValueError, match="whole number"):
            density_from_json({"m": 2.5, "cells": [1.0] * 4})

    def test_ints_beyond_float_range_rejected(self):
        # math.isfinite converts an int to float, which used to raise
        # OverflowError instead of ValueError
        with pytest.raises(ValueError, match="whole number"):
            ktsp_rate(3, 10**400, 1.0)
        with pytest.raises(ValueError, match="resolution m"):
            GridDensity.uniform(10**400)
        with pytest.raises(ValueError, match="area must be finite"):
            ktsp_rate(3, 10, 10**400)

    def test_ints_too_long_to_print_are_named(self):
        # an int of more than 4300 digits has no repr, so formatting it
        # into the message raised Python's own int-to-string ValueError,
        # which named no argument
        huge = 10**5000
        with pytest.raises(ValueError, match="n must be a whole number"):
            ktsp_rate(3, huge, 1.0)
        with pytest.raises(ValueError, match="area must be finite"):
            ktsp_rate(3, 10, -huge)
        with pytest.raises(ValueError, match="n must be at least"):
            ktsp_rate(huge, 10, 1.0)
        with pytest.raises(ValueError, match="master_seed and stream_index must fit"):
            RandomSeed(huge)
        with pytest.raises(ValueError, match=r"got 10{36}\.\.\.$"):
            ktsp_rate(3, 10**400, 1.0)

    def test_density_json_round_trip(self):
        d = GridDensity(2, [2.0, 1.0, 0.5, 0.5], Square((0.5, -1.0), 2.0))
        back = density_from_json(density_to_json(d))
        assert type(back) is GridDensity and back.m == d.m
        assert np.array_equal(back.cells, d.cells)
        assert back.square == d.square
        # a population density writes its total's cells and its layers, no kind
        pop = PopulationGridDensity(2, [[2.0, 0, 0, 1.0], [0, 0.5, 0.5, 0]], Square((0.5, -1.0), 2.0))
        spec = density_to_json(pop)
        assert spec["cells"] == [2.0, 0.5, 0.5, 1.0] and "kind" not in spec
        back = density_from_json(json.dumps(spec))
        assert type(back) is PopulationGridDensity and back.m == pop.m
        assert np.array_equal(back.layers, pop.layers)
        assert back.square == pop.square

    def test_density_spec_kinds(self):
        # without a kind, a spec with layers is a population density, any other a grid density
        layers = [[1.0, 0.0], [0.0, 1.0]]
        assert type(density_from_json({"m": 1, "layers": [[0.5], [0.5]]})) is PopulationGridDensity
        assert type(density_from_json({"m": 1, "cells": [1.0]})) is GridDensity
        assert type(density_from_json({"kind": "grid", "m": 1, "cells": [1.0], "layers": layers})) is GridDensity
        uniform = density_from_json({"kind": "uniform", "m": 3, "square": {"origin": [1, 2], "side": 4}})
        assert uniform.m == 3 and np.array_equal(uniform.cells, np.ones(9)) and uniform.square == Square((1.0, 2.0), 4.0)
        assert density_from_json({"kind": "uniform"}).m == 1
        with pytest.raises(ValueError, match="unknown density spec kind 'hexagon'"):
            density_from_json({"kind": "hexagon", "m": 1})

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"cells": [1.0]}, "m"),
            ({"m": 2}, "cells"),
            ({"kind": "grid", "m": 1}, "cells"),
            ({"kind": "population", "m": 1}, "layers"),
            ({"layers": [[1.0]]}, "m"),
            ({"m": 1, "cells": [1.0], "square": {"side": 1.0}}, "square.origin"),
            ({"m": 1, "cells": [1.0], "square": {"origin": [0, 0]}}, "square.side"),
            ({"kind": "uniform", "square": []}, "square.origin"),
        ],
    )
    def test_density_spec_missing_key(self, spec, key):
        # a missing key used to raise KeyError
        with pytest.raises(ValueError, match=f"density spec lacks '{key}'"):
            density_from_json(spec)

    def test_density_spec_not_an_object(self):
        for spec in ([1, 2], "[1, 2]", 3):
            with pytest.raises(ValueError, match="must be a JSON object"):
                density_from_json(spec)
        with pytest.raises(ValueError):
            density_from_json({"m": 1, "cells": [1.0], "square": {"origin": [0], "side": 1.0}})

    def test_population_spec_cells_must_be_its_total(self):
        # the cells of a population spec used to be ignored: this spec read
        # back as a density whose total is [1.0]
        with pytest.raises(ValueError, match="'cells' must be the cell-wise sum of its 'layers'"):
            density_from_json({"m": 1, "layers": [[1.0]], "cells": [5.0]})
        with pytest.raises(ValueError, match="'cells' must be the cell-wise sum"):
            density_from_json({"m": 2, "layers": [[2.0, 0, 0, 1.0], [0, 0.5, 0.5, 0]], "cells": [2.0, 0.5, 0.5]})
        # within 1e-9 of the sum, and absent, both read
        pop = density_from_json({"m": 1, "layers": [[0.5], [0.5]], "cells": [1.0 + 1e-10]})
        assert np.array_equal(pop.total.cells, [1.0])
        assert type(density_from_json({"m": 1, "layers": [[0.5], [0.5]]})) is PopulationGridDensity

    @pytest.mark.parametrize(
        "origin, side, name",
        [
            ((0.0, 0.0), 10**400, "square side must be finite"),
            ((0.0, 0.0), "1", "square side must be finite"),
            ((0.0, 0.0), math.inf, "square side must be finite"),
            ((math.nan, 0.0), 1.0, "square origin x must be finite"),
            ((0.0, -(10**400)), 1.0, "square origin y must be finite"),
            ((0.0, None), 1.0, "square origin y must be finite"),
            (5, 1.0, "square origin must be a pair"),
            ((0.0, 0.0, 0.0), 1.0, "square origin must be a pair"),
            ((0.0, 0.0), 0.0, "square side must be positive"),
        ],
        ids=["huge-side", "string-side", "inf-side", "nan-x", "huge-y", "none-y", "int-origin", "triple", "zero-side"],
    )
    def test_square_parameters_are_finite_reals(self, origin, side, name):
        # an int beyond float range raised OverflowError, a string side
        # TypeError and an origin that is not a pair TypeError
        with pytest.raises(ValueError, match=name):
            Square(origin, side)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"m": 1, "cells": {"a": 1}}, "cells"),
            ({"m": 1, "cells": [{"a": 1}]}, "cells"),
            ({"m": 1, "layers": {"a": [1.0]}}, "layers"),
            ({"m": 1, "layers": [[{"a": 1}]]}, "layers"),
            ({"m": 1, "layers": [[1.0], [{"a": 1}]]}, "layers"),
            ({"m": 1, "layers": [[1.0]], "cells": [{"a": 1}]}, "cells"),
        ],
        ids=["cells-object", "cells-holds-object", "layers-object", "layers-holds-object", "second-layer-object", "total-holds-object"],
    )
    def test_density_spec_numbers_must_not_be_objects(self, spec, key):
        # a JSON object in place of a number raised TypeError from numpy
        with pytest.raises(ValueError, match=f"density spec '{key}' must be arrays of numbers"):
            density_from_json(spec)

    @pytest.mark.parametrize("origin", [5, [0.0], [0.0, 0.0, 0.0], ["a", 0.0], [None, 0.0]])
    def test_density_spec_origin_must_be_a_pair(self, origin):
        with pytest.raises(ValueError, match="'square.origin' must be a pair of reals"):
            density_from_json({"m": 1, "cells": [1.0], "square": {"origin": origin, "side": 1.0}})

    @pytest.mark.parametrize("side", [None, "1", 10**400, [1.0]], ids=["none", "string", "huge-int", "list"])
    def test_density_spec_side_must_be_a_finite_real(self, side):
        with pytest.raises(ValueError, match="'square.side' must be finite"):
            density_from_json({"m": 1, "cells": [1.0], "square": {"origin": [0, 0], "side": side}})
