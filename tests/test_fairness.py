"""Fairness program, randomized sampler, and service-map tests."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import routebench
from routebench import (
    GridDensity,
    InfeasibleError,
    PointSet,
    PopulationGridDensity,
    RandomSeed,
    Square,
    density_from_json,
    density_to_json,
    deterministic_fairness_ratio,
    fair_ktsp_sample,
    fairness_lp,
    geographic_service_map,
    ktsp_grid_scheme,
    ktsp_nonuniform_scheme,
    sample_points,
)
from routebench.core import cell_ids
from routebench.fairness import _cell_map

SEGREGATED = PopulationGridDensity(2, np.array([[2.0, 0, 0, 0], [0, 2.0, 0, 0]]))


def random_subset_scheme(ps, d, k, rng):
    """Baseline: serve a uniformly random k-subset (fully exchangeable)."""
    return rng.choice(len(ps), size=k, replace=False)


def nonuniform_scheme_handle(ps, d, k, rng):
    return ktsp_nonuniform_scheme(ps, d, k).route.order


def random_feasible_instance(rng):
    """Random population grid plus a target vector feasible by construction."""
    m = int(rng.integers(2, 4))
    P = int(rng.integers(2, 4))
    layers = rng.random((P, m * m)) * rng.integers(0, 2, size=(P, m * m))
    layers[:, 0] += 0.05  # keep at least one supported cell
    layers *= m * m / layers.sum()
    pop = PopulationGridDensity(m, layers)
    f = pop.total.cells
    supported = np.flatnonzero(f > 0)
    mix = rng.random(supported.size)
    mix /= mix.sum()
    ratios = pop.layers[:, supported] / f[supported]
    targets = ratios @ mix
    return pop, targets


def dense_instance(m, P, seed):
    """Every cell holds every population; targets from a random mixture."""
    rng = np.random.default_rng(seed)
    layers = rng.random((P, m * m))
    layers *= m * m / layers.sum()
    pop = PopulationGridDensity(m, layers)
    w = rng.random(m * m)
    return pop, (pop.layers / pop.total.cells) @ (w / w.sum())


def assert_feasible(pop, mix, targets, epsilon):
    served = (pop.layers / pop.total.cells) @ mix.q
    assert np.all(np.abs(served - targets) <= epsilon + 1e-9)
    assert abs(mix.q.sum() - 1.0) <= 1e-9 and np.all(mix.q >= 0)
    assert len(mix.support) <= pop.populations + (epsilon > 0)


class TestFairnessLp:
    def test_segregated_symmetric_exact(self):
        mix = fairness_lp(SEGREGATED, 2, [0.5, 0.5], 0.0)
        assert np.allclose(mix.q, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert mix.support == (0, 1)

    def test_segregated_unequal_densities(self):
        pop = PopulationGridDensity(2, np.array([[3.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        mix = fairness_lp(pop, 2, [0.5, 0.5], 0.0)
        assert np.allclose(mix.q, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_large_epsilon_ignores_fairness(self):
        pop = PopulationGridDensity(2, np.array([[3.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        mix = fairness_lp(pop, 3, [0.5, 0.5], 1.0)
        assert np.allclose(mix.q, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert mix.support == (0,)

    def test_constraints_hold_within_tolerance(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            pop, targets = random_feasible_instance(rng)
            mix = fairness_lp(pop, 4, targets, 0.0)
            f = pop.total.cells
            supported = f > 0
            served = (pop.layers[:, supported] / f[supported]) @ mix.q[supported]
            assert np.all(np.abs(served - targets) <= 1e-9)
            assert abs(mix.q.sum() - 1.0) <= 1e-9
            assert np.all(mix.q >= 0)

    def test_sparse_support_zero_epsilon(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            pop, targets = random_feasible_instance(rng)
            mix = fairness_lp(pop, 3, targets, 0.0)
            assert len(mix.support) <= pop.populations

    @pytest.mark.parametrize("targets", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, -math.inf]])
    def test_non_finite_targets_rejected(self, targets):
        # NaN compared false against the sum-to-one tolerance, so a NaN
        # target once came back with a feasible-looking q = [1, 0, 0, 0]
        with pytest.raises(ValueError):
            fairness_lp(SEGREGATED, 2, targets)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError):
            fairness_lp(SEGREGATED, 2, [0.5, 0.5], epsilon)

    def test_sparse_support_with_tolerance(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            pop, targets = random_feasible_instance(rng)
            mix = fairness_lp(pop, 3, targets, 0.05)
            assert len(mix.support) <= pop.populations + 1

    def test_objective_nonincreasing_in_epsilon(self):
        pop = PopulationGridDensity(2, np.array([[3.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        objectives = [
            fairness_lp(pop, 3, [0.5, 0.5], eps).objective for eps in (0.0, 0.05, 0.1, 0.5, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_infeasible_names_population(self):
        pop = PopulationGridDensity(2, np.array([[0.5] * 4, [0.5] * 4]))
        with pytest.raises(InfeasibleError) as err:
            fairness_lp(pop, 2, [0.9, 0.1], 0.0)
        assert err.value.population == 0

    @pytest.mark.parametrize("m, P, epsilon", [(8, 3, 0.05), (8, 4, 0.0), (16, 2, 0.05), (8, 3, 0.0)])
    def test_grid_sizes_past_the_old_enumeration_cap(self, m, P, epsilon):
        # the vertex enumeration refused the first three (3.6M-11.3M
        # candidate systems) and took about 3 s on the last
        pop, targets = dense_instance(m, P, 7)
        assert_feasible(pop, fairness_lp(pop, 3, targets, epsilon), targets, epsilon)

    def test_jointly_infeasible_targets(self):
        # cells serve populations (1, 0, 0), (0, 1, 0) and (1/2, 0, 1/2):
        # each target lies in its population's range, but a served share of
        # 1/2 for population 2 needs all mass on cell 2, which serves none
        # of population 1
        layers = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]]) * 4 / 3
        pop = PopulationGridDensity(2, layers)
        ratios = pop.layers[:, :3] / pop.total.cells[:3]
        targets = np.array([0.0, 0.5, 0.5])
        assert np.all((ratios.min(axis=1) <= targets) & (targets <= ratios.max(axis=1)))
        with pytest.raises(InfeasibleError):
            fairness_lp(pop, 2, targets, 0.0)

    def test_ill_conditioned_support_is_optimal(self):
        # populations at 1e-3..1e-5 of the first make every square row system
        # on the optimal support nearly singular (|det| <= 1e-12); the vertex
        # enumeration skipped such systems and returned a worse vertex
        # (objective 0.92458), the simplex's own basic solution is the
        # optimum 0.90913 (matched to 1e-14 by an independent LP solver)
        rng = np.random.default_rng(6)
        layers = rng.random((4, 9)) * np.array([[1.0], [1e-3], [1e-4], [1e-5]])
        pop = PopulationGridDensity(3, layers * 9 / layers.sum())
        w = rng.random(9)
        targets = (pop.layers / pop.total.cells) @ (w / w.sum())
        mix = fairness_lp(pop, 3, targets, 0.0)
        assert_feasible(pop, mix, targets, 0.0)
        assert mix.objective == pytest.approx(0.9091293336264831, rel=1e-12)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError):
            fairness_lp(SEGREGATED, k, [0.5, 0.5], 0.0)

    def test_numpy_integer_k_accepted(self):
        mix = fairness_lp(SEGREGATED, np.int64(2), [0.5, 0.5], 0.0)
        assert mix.support == (0, 1)

    def test_solving_does_not_import_scipy(self):
        # scipy may be installed next to the package; the solver must not
        # lean on it, so solve one program in a fresh interpreter and look
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from routebench import PopulationGridDensity, fairness_lp\n"
            "pop = PopulationGridDensity(2, np.array([[2.0, 0, 0, 0], [0, 2.0, 0, 0]]))\n"
            "fairness_lp(pop, 2, [0.5, 0.5], 0.05)\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(routebench.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            fairness_lp(SEGREGATED, 2, [0.7, 0.7], 0.0)
        with pytest.raises(ValueError):
            fairness_lp(SEGREGATED, 1, [0.5, 0.5], 0.0)


class TestFairSampler:
    def test_point_mass_stays_in_cell(self):
        pop = SEGREGATED
        mix = fairness_lp(pop, 2, [1.0, 0.0], 0.0)  # all service from population 1's cell
        assert np.allclose(mix.q, [1.0, 0.0, 0.0, 0.0])
        ps = sample_points(pop.total, 300, RandomSeed(41))
        for trial in range(10):
            result = fair_ktsp_sample(pop, mix, ps, 4, RandomSeed(42, trial))
            assert result.density_cell == 0
            ids = cell_ids(ps.coords[list(result.route.order)], pop.square, pop.m)
            assert np.all(ids == 0)

    def test_served_counts_sum_to_k(self):
        mix = fairness_lp(SEGREGATED, 2, [0.5, 0.5], 0.0)
        ps = sample_points(SEGREGATED.total, 300, RandomSeed(43))
        result = fair_ktsp_sample(SEGREGATED, mix, ps, 6, RandomSeed(44))
        assert sum(result.served_counts) == 6
        assert len(result.route) == 6

    def test_expected_population_fractions(self):
        mix = fairness_lp(SEGREGATED, 2, [0.5, 0.5], 0.0)
        ps = sample_points(SEGREGATED.total, 400, RandomSeed(45))
        k, trials = 4, 3000
        fractions = np.zeros(2)
        for trial in range(trials):
            result = fair_ktsp_sample(SEGREGATED, mix, ps, k, RandomSeed(46, trial))
            fractions += np.array(result.served_counts) / k
        fractions /= trials
        se = math.sqrt(0.25 / trials)  # bernoulli mixture upper bound
        assert abs(fractions[0] - 0.5) <= 4 * se

    def test_underfilled_cell_augments_neighbors(self):
        # nearly-empty supported cell forces the neighbor fallback
        layers = np.array([[3.96, 0.04, 0.0, 0.0]])
        pop = PopulationGridDensity(2, layers)
        ps = sample_points(pop.total, 60, RandomSeed(47))
        mix_q = np.array([0.0, 1.0, 0.0, 0.0])  # point mass on the sparse cell
        from routebench import FairnessMix

        mix = FairnessMix(mix_q, (1,), 0.0, 0.0)
        result = fair_ktsp_sample(pop, mix, ps, 10, RandomSeed(48))
        assert result.density_cell == 1
        assert len(result.route) == 10
        assert len(result.augmented_cells) >= 1

    def test_k_above_n_rejected(self):
        mix = fairness_lp(SEGREGATED, 2, [0.5, 0.5], 0.0)
        ps = sample_points(SEGREGATED.total, 5, RandomSeed(49))
        with pytest.raises(ValueError):
            fair_ktsp_sample(SEGREGATED, mix, ps, 6, RandomSeed(50))

    def test_point_set_on_a_wider_square(self):
        # the sampler reads cells from the population's square, whatever
        # square the point set carries, as long as its points lie in it
        mix = fairness_lp(SEGREGATED, 3, [0.5, 0.5], 0.0)
        ps = sample_points(SEGREGATED.total, 80, RandomSeed(53))
        wide = PointSet(ps.coords, Square((-1.0, -0.5), 3.0))
        for trial in range(20):
            ref = fair_ktsp_sample(SEGREGATED, mix, ps, 3, RandomSeed(54, trial))
            got = fair_ktsp_sample(SEGREGATED, mix, wide, 3, RandomSeed(54, trial))
            assert got.route == ref.route and got.length.hex() == ref.length.hex()
            assert got.served_counts == ref.served_counts
        outside = PointSet(np.vstack([ps.coords, [[1.5, 0.5]]]), wide.square)
        with pytest.raises(ValueError, match="point outside the bounding square"):
            fair_ktsp_sample(SEGREGATED, mix, outside, 3, RandomSeed(54))

    def test_cell_side_lost_to_rounding_rejected(self):
        # at 1e20 a cell's far edge rounds onto its origin: the routing
        # region would have side 0
        pop = PopulationGridDensity(2, SEGREGATED.layers, Square((1e20, 1e20), 1.0))
        mix = fairness_lp(pop, 2, [0.5, 0.5], 0.0)
        ps = sample_points(pop.total, 20, RandomSeed(55))
        with pytest.raises(ValueError, match="square side must be positive"):
            fair_ktsp_sample(pop, mix, ps, 2, RandomSeed(56))

    def test_single_population_matches_plain_scheme(self):
        # one population, one cell: the fair sampler is the plain grid scheme
        pop = PopulationGridDensity(1, np.array([[1.0]]))
        mix = fairness_lp(pop, 4, [1.0], 0.0)
        fair_lengths, plain_lengths = [], []
        for trial in range(200):
            ps = sample_points(pop.total, 150, RandomSeed(51, trial))
            fair_lengths.append(fair_ktsp_sample(pop, mix, ps, 4, RandomSeed(52, trial)).length)
            plain_lengths.append(ktsp_grid_scheme(ps, 4).length)
        a, b = np.array(fair_lengths), np.array(plain_lengths)
        assert np.array_equal(a, b)


class TestServiceMap:
    def test_random_subset_is_geographically_fair(self):
        d = GridDensity.uniform(2)
        smap = geographic_service_map(random_subset_scheme, d, 5, 100, 400, RandomSeed(61))
        assert np.all(np.abs(smap.estimates - 1.0) <= np.maximum(3 * smap.half_widths / 1.96, 0.05))

    def test_zero_density_cells_unsampled(self):
        d = GridDensity(2, [2.0, 2.0, 0.0, 0.0])
        smap = geographic_service_map(nonuniform_scheme_handle, d, 4, 100, 100, RandomSeed(62))
        assert smap.totals[2] == 0 and smap.totals[3] == 0
        assert np.isnan(smap.estimates[2])
        sampled = smap.totals > 0
        assert np.all(smap.estimates[sampled] >= 0.0)

    def test_local_scheme_starves_low_density_cells(self):
        d = GridDensity(2, [3.4, 0.2, 0.2, 0.2])
        smap = geographic_service_map(nonuniform_scheme_handle, d, 20, 1000, 600, RandomSeed(63))
        # the unfairness that motivates the mixture: low cells see almost no service
        for cell in (1, 2, 3):
            assert smap.estimates[cell] < 0.1
        assert smap.min_normalized < 0.1

    @pytest.mark.parametrize("field, value", [("k", 2.5), ("n", 100.5), ("trials", 2.5), ("trials", "3")])
    def test_counts_must_be_whole(self, field, value):
        args = {"k": 5, "n": 100, "trials": 3} | {field: value}
        with pytest.raises(ValueError):
            geographic_service_map(random_subset_scheme, GridDensity.uniform(2), seed=RandomSeed(65), **args)

    @pytest.mark.parametrize("scheme", [random_subset_scheme, nonuniform_scheme_handle], ids=["random", "nonuniform"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_fewer_points_than_k_rejected_before_sampling(self, scheme, n, monkeypatch):
        # used to fail inside the first trial, with numpy's sampling message
        def no_sampling(*args):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(routebench.fairness, "sample_points", no_sampling)
        with pytest.raises(ValueError, match="n must be at least 5"):
            geographic_service_map(scheme, GridDensity.uniform(2), 5, n, 3, RandomSeed(65))

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_z_rejected(self, z):
        # used to return NaN half widths
        with pytest.raises(ValueError, match="z must be finite"):
            geographic_service_map(random_subset_scheme, GridDensity.uniform(2), 5, 100, 3, RandomSeed(65), z=z)

    def test_negative_z_rejected(self):
        # used to return negative half widths
        with pytest.raises(ValueError, match="z must be nonnegative"):
            geographic_service_map(random_subset_scheme, GridDensity.uniform(2), 5, 100, 3, RandomSeed(65), z=-1.96)

    @pytest.mark.parametrize("selection", [[-1, 0], [0, 0], [0, 1, 2], [500, 0], [0.0, 1.0], [True, False]])
    def test_scheme_selection_checked(self, selection):
        # a wrapped, repeated, extra, out-of-range, float or boolean index
        # must not be counted as a served point
        def scheme(ps, d, k, rng):
            return selection

        with pytest.raises(ValueError, match="trial 0: the scheme must serve 2 distinct integer indices"):
            geographic_service_map(scheme, GridDensity.uniform(2), 2, 50, 3, RandomSeed(66))

    def test_occupancy_weighted_sum_is_service_rate(self):
        d = GridDensity.uniform(2)
        k, n = 5, 100
        smap = geographic_service_map(random_subset_scheme, d, k, n, 200, RandomSeed(64))
        weighted = float(np.nansum(smap.estimates * (smap.totals / smap.totals.sum())))
        assert weighted == pytest.approx(1.0, abs=1e-9)  # estimates are already k/n-normalized

    # the three maps above: sha256 over the bytes of estimates, half_widths,
    # served and totals, then float.hex(min_normalized); recorded when the
    # served indicator had its own trial loop, a bit-for-bit regression guard
    SERVICE_MAP_GOLDEN = {
        61: ("3c7264026046eaf1810e0fdb1e664d13fa38f61c3c1920ccabab336c0743fef1", "0x1.f29a99266764ap-1"),
        62: ("820195b2dc6783aa640155b5e7bb60791329af8a95b831520123cc576e5c4c98", "0x0.0p+0"),
        63: ("6332832476d2ae3aa293c39452f8107b9d51519cdae6b2d0564e72a1d4abef97", "0x0.0p+0"),
    }

    @pytest.mark.parametrize(
        "seed, scheme, d, k, n, trials",
        [
            (61, random_subset_scheme, GridDensity.uniform(2), 5, 100, 400),
            (62, nonuniform_scheme_handle, GridDensity(2, [2.0, 2.0, 0.0, 0.0]), 4, 100, 100),
            (63, nonuniform_scheme_handle, GridDensity(2, [3.4, 0.2, 0.2, 0.2]), 20, 1000, 600),
        ],
    )
    def test_matches_recorded(self, seed, scheme, d, k, n, trials):
        smap = geographic_service_map(scheme, d, k, n, trials, RandomSeed(seed))
        fields = (smap.estimates, smap.half_widths, smap.served, smap.totals)
        digest = hashlib.sha256(b"".join(arr.tobytes() for arr in fields)).hexdigest()
        assert (digest, float.hex(smap.min_normalized)) == self.SERVICE_MAP_GOLDEN[seed]


class TestCellMap:
    """The per-cell loop under the service map, fed the x coordinate in place of the served indicator."""

    def test_x_coordinate_cell_means(self):
        d, n, trials, seed = GridDensity.uniform(2), 30, 4, RandomSeed(67)
        seen = []

        def x_of(ps, rng):
            seen.append(ps.coords.copy())
            return ps.coords[:, 0]

        counts, sums = _cell_map(x_of, d, n, trials, seed)
        assert counts.sum() == n * trials
        assert len(seen) == trials
        for t, coords in enumerate(seen):
            assert np.array_equal(coords, sample_points(d, n, seed.child("service-map", t)).coords)
        sampled = np.flatnonzero(counts)
        assert len(sampled) == 4
        for cell in sampled:  # row-major ids: cell % 2 is the column, x in [col / 2, (col + 1) / 2]
            col = cell % 2
            assert col / 2 <= sums[cell] / counts[cell] <= (col + 1) / 2

    @pytest.mark.parametrize(
        "stat", [lambda ps, rng: ps.coords[1:, 0], lambda ps, rng: np.r_[math.nan, ps.coords[1:, 0]]],
        ids=["short", "nan"],
    )
    def test_bad_statistic_names_the_trial(self, stat):
        with pytest.raises(ValueError, match=r"^trial 0: the statistic must give 30 finite values"):
            _cell_map(stat, GridDensity.uniform(2), 30, 2, RandomSeed(68))

    def test_statistic_error_names_the_trial(self):
        def refuse(ps, rng):
            raise ValueError("no statistic here")

        with pytest.raises(ValueError, match=r"^trial 0: no statistic here$"):
            _cell_map(refuse, GridDensity.uniform(2), 30, 2, RandomSeed(68))


class TestDeterministicRatio:
    def test_identical_populations(self):
        for P in (2, 3, 5):
            layers = np.tile(np.ones(4) / P, (P, 1))
            pop = PopulationGridDensity(2, layers)
            assert deterministic_fairness_ratio(pop) == pytest.approx(math.sqrt(P))

    def test_fully_segregated_is_infinite(self):
        assert deterministic_fairness_ratio(SEGREGATED) == math.inf

    def test_single_shared_cell(self):
        layers = np.array([[1.6, 0.8, 0.0, 0.0], [1.6, 0.0, 0.0, 0.0]])
        pop = PopulationGridDensity(2, layers)
        # overlap only in cell 0: ratio set by max f over min-layer there
        assert deterministic_fairness_ratio(pop) == pytest.approx(math.sqrt(3.2 / 1.6))

    def test_single_population_rejected(self):
        pop = PopulationGridDensity(1, np.array([[1.0]]))
        with pytest.raises(ValueError):
            deterministic_fairness_ratio(pop)


class TestPopulationDensity:
    def test_layers_must_normalize(self):
        with pytest.raises(ValueError):
            PopulationGridDensity(2, np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]]))

    def test_total_and_shares(self):
        pop = SEGREGATED
        assert np.allclose(pop.total.cells, [2.0, 2.0, 0.0, 0.0])
        assert np.allclose(pop.population_shares(), [0.5, 0.5])

    def test_resolution_is_a_count(self):
        pop = PopulationGridDensity(2.0, SEGREGATED.layers)
        assert pop.m == 2 and type(pop.m) is int
        with pytest.raises(ValueError, match="whole number"):
            density_from_json(density_to_json(SEGREGATED) | {"m": 2.5})  # used to truncate to 2

    def test_json_round_trip(self):
        back = density_from_json(density_to_json(SEGREGATED))
        assert type(back) is PopulationGridDensity
        assert np.array_equal(back.layers, SEGREGATED.layers)
        assert back.square == SEGREGATED.square

    def test_one_class_in_core(self):
        assert routebench.fairness.PopulationGridDensity is routebench.core.PopulationGridDensity is PopulationGridDensity


# Recorded with float.hex before cell grouping moved to one stable argsort.
# The mixture always draws cell 6, which holds no points, so the sampler
# pulls in the nearest nonempty cells (skipping the empty cells 5 and 7).
FAIR_GOLDEN = {12: {'alpha_used': 1,
      'augmented_cells': (2, 10, 1),
      'cell_chosen': 0,
      'length': '0x1.57dab777e45e4p-1',
      'order': (43, 36, 28, 84, 74, 20, 83, 78, 48, 64, 30, 13),
      'served_counts': (10, 2)},
 30: {'alpha_used': 1,
      'augmented_cells': (2, 10, 1, 11),
      'cell_chosen': 0,
      'length': '0x1.30c8951fc6120p+1',
      'order': (65, 21, 32, 49, 85, 23, 34, 6, 24, 81, 38, 11, 80, 2, 62, 31, 89, 79, 13, 30, 64, 48, 78, 83,
                74, 84, 28, 36, 53, 43),
      'served_counts': (9, 21)}}


class TestFairSamplerGolden:
    @pytest.mark.parametrize("k", list(FAIR_GOLDEN))
    def test_augmented_draw_matches_recorded(self, k):
        from routebench import FairnessMix

        layers = np.zeros((2, 16))
        layers[0, [0, 1, 4, 5]] = [3.0, 2.0, 2.0, 0.05]
        layers[1, [10, 11, 14, 15, 2, 6]] = [2.0, 3.0, 1.5, 2.0, 0.4, 0.05]
        layers *= 16 / layers.sum()
        pop = PopulationGridDensity(4, layers)
        q = np.zeros(16)
        q[6] = 1.0
        ps = sample_points(pop.total, 90, RandomSeed(77, 1))
        assert np.bincount(cell_ids(ps.coords, pop.square, 4), minlength=16)[[5, 6, 7]].tolist() == [0, 0, 0]
        result = fair_ktsp_sample(pop, FairnessMix(q, (6,), 0.0, 0.0), ps, k, RandomSeed(78, k))
        want = FAIR_GOLDEN[k]
        assert result.length.hex() == want["length"]
        assert result.route.order == want["order"]
        assert result.augmented_cells == want["augmented_cells"]
        assert (result.alpha_used, result.cell_chosen) == (want["alpha_used"], want["cell_chosen"])
        assert result.served_counts == want["served_counts"]
        assert result.density_cell == 6


def test_served_point_in_zero_density_cell_rejected():
    # cell 1 has no population; a stray point there cannot get a label
    from routebench import FairnessMix, PointSet

    pop = PopulationGridDensity(2, np.array([[2.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))
    ps = PointSet(np.array([[0.7, 0.1], [0.8, 0.2], [0.9, 0.1], [0.1, 0.1]]))
    mix = FairnessMix(np.array([0.0, 1.0, 0.0, 0.0]), (1,), 0.0, 0.0)
    with pytest.raises(ValueError):
        fair_ktsp_sample(pop, mix, ps, 2, RandomSeed(1))


def test_served_labels_match_per_point_choice():
    # reference: one rng.choice(populations, p=shares) per served point, in
    # route order, after the draw of the cell
    rng = np.random.default_rng(93)
    for trial in range(40):
        m, P = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        layers = rng.random((P, m * m)) + 0.01
        layers *= (m * m) / layers.sum()
        pop = PopulationGridDensity(m, layers)
        mix = fairness_lp(pop, 3, list(pop.population_shares()), 0.0)
        ps = sample_points(pop.total, 60, RandomSeed(94, trial))
        result = fair_ktsp_sample(pop, mix, ps, 3 + trial % 5, RandomSeed(95, trial))
        ref = RandomSeed(95, trial).generator()
        ref.choice(m * m, p=mix.q)
        ids = cell_ids(ps.coords, pop.square, m)
        counts = [0] * P
        for i in result.route.order:
            c = ids[i]
            counts[int(ref.choice(P, p=pop.layers[:, c] / pop.total.cells[c]))] += 1
        assert result.served_counts == tuple(counts)


# Recorded with float.hex from the vertex-enumeration solver fairness_lp's
# simplex replaced.  Instance i is the i-th draw of random_feasible_instance
# from default_rng(2024), solved at epsilon (0.0, 0.05)[i % 2] and
# k = 2 + i % 3; each entry is (support, objective, q on the support).  No
# instance is an equal-cost tie (all supported cells of equal density), where
# the two solvers may pick different optimal vertices.
LP_GOLDEN = [
    ((1, 2, 3), '0x1.0409002bcddc0p+0', ('0x1.0609e5df83222p-1', '0x1.b595d8721899fp-3', '0x1.19214807ed6ecp-2')),
    ((1, 5, 8), '0x1.47579d02d2254p-1', ('0x1.01ffcb80871e4p-3', '0x1.44fd6dd0afdf8p-3', '0x1.6e40b1abb2409p-1')),
    ((0, 3), '0x1.689c28440f4e4p-1', ('0x1.49998a0a96980p-3', '0x1.ad999d7d5a5a0p-1')),
    ((1, 3), '0x1.6b0032b2822efp-1', ('0x1.130e6b15766acp-1', '0x1.d9e329d5132a8p-2')),
    ((2, 3), '0x1.5a1436ef4deb8p-1', ('0x1.dc8d5f0133accp-2', '0x1.11b9507f6629ap-1')),
    ((3, 6), '0x1.3303133d6a438p-1', ('0x1.3ae754f2de210p-1', '0x1.8a31561a43bdfp-2')),
    ((0, 1, 2), '0x1.97af88657aaf8p-1', ('0x1.063eaee0c1c88p-1', '0x1.6492221597559p-2', '0x1.1de10051ca332p-3')),
    ((1, 5), '0x1.518fc7a97a2e7p-1', ('0x1.f71938325a4a0p-3', '0x1.8239b1f3696d8p-1')),
    ((0, 2, 3), '0x1.9de92696c0c75p-1', ('0x1.da535ca1403fcp-3', '0x1.59c848a779b04p-3', '0x1.32f916add1840p-1')),
    ((1, 2), '0x1.fd5db10b3582cp-2', ('0x1.6750852eceee8p-4', '0x1.d315ef5a26223p-1')),
    ((0, 1), '0x1.cc9daaf2f758ap-1', ('0x1.c73236be91a83p-1', '0x1.c66e4a0b72be8p-4')),
    ((0, 2), '0x1.8a889619235b2p-1', ('0x1.3d56cfd31bd3ap-1', '0x1.85526059c858bp-2')),
    ((1, 6), '0x1.421cc0e20ef84p-2', ('0x1.36027e6d9eb98p-2', '0x1.64fec0c930a34p-1')),
    ((1, 3), '0x1.2dd4e0057a14bp+0', ('0x1.56320261ae114p-3', '0x1.aa737f67947bbp-1')),
    ((0, 2, 3), '0x1.b02c344fe8af0p-1', ('0x1.6a4af861a4a03p-2', '0x1.5ad8832425d55p-2', '0x1.3adc847a358a7p-2')),
    ((2, 6, 7), '0x1.3227c1c0cdeffp-1', ('0x1.249a0a3e7ff65p-2', '0x1.129a79e1f28cdp-2', '0x1.c8cb7bdf8d7cep-2')),
    ((2, 3), '0x1.38916ca19f855p-1', ('0x1.3175ff1ab55e8p-1', '0x1.9d1401ca95430p-2')),
    ((4, 5), '0x1.88a44bd4d8775p-1', ('0x1.0aefc8655d288p-2', '0x1.7a881bcd516bcp-1')),
    ((2, 3), '0x1.674117008c94fp-1', ('0x1.36aa08a426590p-3', '0x1.b2557dd6f669cp-1')),
    ((0, 1), '0x1.43f817ab70051p-1', ('0x1.ef321fb5a5a2dp-1', '0x1.0cde04a5a5d34p-5')),
    ((0, 4, 7), '0x1.9c4995be4549cp-1', ('0x1.1e873ad309a06p-2', '0x1.60ca8487e2a26p-1', '0x1.fe3bc1d311ad7p-6')),
    ((0,), '0x1.2a8d24d665d23p-2', ('0x1.0000000000000p+0',)),
    ((0, 2, 3), '0x1.da1fff3961996p-1', ('0x1.e3cd323ed942fp-2', '0x1.6e4da514020d9p-2', '0x1.5bca515a495eep-3')),
    ((1, 2, 3), '0x1.1a80c7a4871e0p+0', ('0x1.28544f5eaa9a1p-1', '0x1.43d80eb85a6ffp-3', '0x1.0d6b59e67d93ep-2')),
    ((3, 6), '0x1.15256f914f36bp-1', ('0x1.80d9c5dce5c0ap-1', '0x1.fc98e88c68fd6p-3')),
    ((3, 6), '0x1.0dbda3bd922c9p-1', ('0x1.ac0feb5290b88p-1', '0x1.4fc052b5bd1dep-3')),
    ((0, 2, 3), '0x1.1a7f7f8df6881p+0', ('0x1.84b301fb8f075p-2', '0x1.fe0e753c8cb1bp-2', '0x1.f4fa231f911c1p-4')),
    ((5, 6), '0x1.c4e90980cfa32p-2', ('0x1.75a1d450bf172p-2', '0x1.452f15d7a0747p-1')),
    ((0, 6), '0x1.93d6b1995cae4p-1', ('0x1.5ab2c37c9729ep-2', '0x1.52a69e41b46b1p-1')),
    ((0, 1), '0x1.99eed8cc641e7p-1', ('0x1.208a671d2e154p-3', '0x1.b7dd6638b47abp-1')),
    ((5, 7), '0x1.1c428b4ba6227p-1', ('0x1.abcf7c2dd7426p-2', '0x1.2a1841e9145edp-1')),
    ((0, 1, 2), '0x1.00ba3b9c46bf4p+0', ('0x1.51140c937035cp-2', '0x1.4403db5309982p-1', '0x1.3721e633e4d01p-5')),
    ((1, 2, 7), '0x1.6cc6891c437acp-1', ('0x1.4f1e73e1b800fp-3', '0x1.708494f6b2471p-3', '0x1.50173dc9e56e0p-1')),
    ((2, 3), '0x1.494bd471d2f14p-1', ('0x1.3984317245590p-2', '0x1.633de746dd538p-1')),
    ((1, 2), '0x1.ec446f0f446f6p-1', ('0x1.90e15bc896630p-3', '0x1.9bc7a90dda674p-1')),
    ((0, 2), '0x1.1734f3195e97cp-1', ('0x1.dd0cc163555a0p-6', '0x1.f11799f4e5553p-1')),
    ((1, 2, 3), '0x1.95e4289861ce2p-1', ('0x1.6e2cc292f968ap-3', '0x1.af5ebf33fa4b3p-2', '0x1.998adf8289007p-2')),
    ((3, 5, 8), '0x1.789047807ecbbp-1', ('0x1.25736b855fc38p-3', '0x1.96e9b56ac73afp-1', '0x1.fb96fb3e0d429p-5')),
    ((1, 6), '0x1.18a457dfb3cc7p-1', ('0x1.31c9f8957bbfcp-1', '0x1.9c6c0ed508809p-2')),
    ((1, 2, 3), '0x1.86c8e87b0a88ep-1', ('0x1.160ab1c9bc4eep-1', '0x1.2ce265f70eb87p-2', '0x1.4e106ceaf153ap-3')),
    ((0, 2, 3), '0x1.cff826001f72ep-1', ('0x1.a1a891765d4d0p-4', '0x1.24aadee6dfaf8p-1', '0x1.4e401dd4a94ddp-2')),
    ((0, 1), '0x1.a1e9f1a499e3cp-1', ('0x1.686a4c3f215d4p-1', '0x1.2f2b6781bd459p-2')),
    ((1, 6), '0x1.30b6665fa8efcp-1', ('0x1.98f48c0566453p-1', '0x1.9c2dcfea66eb3p-3')),
    ((2, 3), '0x1.87607fabb2551p-1', ('0x1.b08d1b2d80ac4p-1', '0x1.3dcb9349fd4efp-3')),
    ((0, 1), '0x1.8d22231a66399p-1', ('0x1.db11772b42734p-2', '0x1.1277446a5ec66p-1')),
    ((0, 2), '0x1.2d69cdc5eec1dp+0', ('0x1.42fd6aa03ad20p-3', '0x1.af40a557f14b8p-1')),
    ((4, 5, 7), '0x1.2f775b7814e95p-1', ('0x1.ca9068bdca9f7p-2', '0x1.1541993b38fc5p-4', '0x1.f01f30f367218p-2')),
    ((0, 1), '0x1.d7ee95d14d2fcp-2', ('0x1.e5db2db0e37e1p-1', '0x1.a24d24f1c81efp-5')),
    ((0, 4, 5), '0x1.4245cb943b879p-1', ('0x1.de96be097cc3ep-2', '0x1.f8aecd19ec3fcp-2', '0x1.45d3a6e4b7e34p-5')),
    ((0, 8), '0x1.5d0aad4ae7273p-1', ('0x1.cc2443bbdfb6cp-2', '0x1.19edde221024ap-1')),
    ((1, 2, 3), '0x1.0ba76032a7b6dp+0', ('0x1.57a4b3776aa0cp-3', '0x1.16ba9da81c977p-1', '0x1.26b86af41180dp-2')),
    ((0, 1, 3), '0x1.fc8b7836e74f8p-1', ('0x1.14007787871f9p-1', '0x1.9d651a10f630ap-2', '0x1.d4cfb6ffdc825p-5')),
    ((0, 1), '0x1.b8318fde86283p-2', ('0x1.c7b7d3c03c500p-6', '0x1.f1c24161fe1d8p-1')),
    ((2, 6, 7), '0x1.7634873f1369ep-1', ('0x1.47e1d2ad76be0p-4', '0x1.3eacade61f038p-1', '0x1.30ae2f8864497p-2')),
    ((0, 6, 8), '0x1.2a31f47217229p-1', ('0x1.9435081974af0p-4', '0x1.bf8945b2bdff4p-3', '0x1.5d970d9021ea5p-1')),
    ((0, 1), '0x1.7c8d24fa41d2fp-1', ('0x1.4c058f1723af2p-1', '0x1.67f4e1d1b8a1dp-2')),
    ((0, 1, 3), '0x1.ff568ec10757fp-1', ('0x1.bf62166a6eebep-2', '0x1.0f60129a33b60p-1', '0x1.0eee23094d413p-5')),
    ((3, 5), '0x1.eded78cd19306p-2', ('0x1.f1a3314ce6500p-3', '0x1.839733acc66c0p-1')),
    ((3, 5, 6), '0x1.73de84aea01ffp-1', ('0x1.3e415a95a68e9p-2', '0x1.fd03df16687c9p-2', '0x1.89758ca7e1e9cp-3')),
    ((6, 8), '0x1.1b682ca6f08d6p-1', ('0x1.0aa4af2f751f2p-1', '0x1.eab6a1a115c1bp-2')),
    ((0, 2), '0x1.a8140fda28c57p-1', ('0x1.1104e72ea9636p-2', '0x1.777d8c68ab4e5p-1')),
    ((2, 3), '0x1.2dff3f9ade1f9p+0', ('0x1.c3e2b72ba24e8p-2', '0x1.1e0ea46a2ed8cp-1')),
    ((0, 3), '0x1.937bc0086c47dp-1', ('0x1.4a0ab778cb0e2p-2', '0x1.5afaa4439a78fp-1')),
    ((0, 2), '0x1.97b5b7d013a76p-1', ('0x1.ebf3a18c27110p-3', '0x1.8503179cf63bcp-1')),
    ((0, 1, 3), '0x1.de2ca68b70fc1p-1', ('0x1.e05e4a809c6cep-2', '0x1.5bba89f9031fdp-3', '0x1.71c47082e2035p-2')),
    ((0, 1), '0x1.f3497ad693ae3p-1', ('0x1.55f1939f351aep-1', '0x1.541cd8c195ca3p-2')),
    ((0, 2, 3), '0x1.98d13600fe0aap-1', ('0x1.1b4aa613c439cp-1', '0x1.bc5485e0a727bp-2', '0x1.a2c5befa0c9d7p-7')),
    ((1, 4), '0x1.4f3a22d784634p-1', ('0x1.50414ddb1bd80p-2', '0x1.57df591272140p-1')),
    ((3, 4, 8), '0x1.9f3f296577ca8p-1', ('0x1.9f45cbd2a1d56p-2', '0x1.4919902e05de6p-2', '0x1.17a0a3ff584c3p-2')),
    ((1, 2), '0x1.3e05c4def8191p-1', ('0x1.019ac2ea708c5p-1', '0x1.fcca7a2b1ee76p-2')),
    ((0, 2, 5), '0x1.1a45396f14426p-1', ('0x1.a85d1e081bc67p-1', '0x1.e0bc3b2e3f5ecp-6', '0x1.22740079c8fa6p-3')),
    ((1, 3), '0x1.ca7dcb6536178p-1', ('0x1.8a174ed25328ap-2', '0x1.3af45896d66bbp-1')),
    ((0, 3), '0x1.36dffdecb9bb7p-1', ('0x1.fee8a079c7facp-2', '0x1.008bafc31c02ap-1')),
    ((1, 2, 3), '0x1.db1217afccdaap-1', ('0x1.a9ca3a0188746p-2', '0x1.b49470e11a492p-2', '0x1.4342aa3aba851p-3')),
    ((7, 8), '0x1.0e2083c3ef1a0p-1', ('0x1.9ddd10aa71032p-1', '0x1.888bbd563bf38p-3')),
    ((5, 6, 7), '0x1.a1dfcac927603p-1', ('0x1.6c2024420bc64p-4', '0x1.9ef2e99451b87p-2', '0x1.030286ad95ab0p-1')),
    ((1, 2, 3), '0x1.34a04ec813f33p-1', ('0x1.c84cb5ce46161p-1', '0x1.338b94bebc5d2p-4', '0x1.141d799e25e4ap-5')),
    ((1, 3), '0x1.f5d45544af260p-1', ('0x1.0b6776afa3316p-1', '0x1.e93112a0b99d4p-2')),
    ((1, 2), '0x1.70a325dad8cb4p-1', ('0x1.d1b9b4b19f7c8p-4', '0x1.c5c8c969cc107p-1')),
    ((1, 2, 3), '0x1.7a1642b13e37ap-1', ('0x1.cd9a1290d9677p-1', '0x1.695cd2d0c413bp-7', '0x1.6603d11f1c423p-4')),
    ((1, 5), '0x1.18ec24b8ede16p-1', ('0x1.6e6102dc654e0p-3', '0x1.a467bf48e6ac8p-1')),
    ((2, 6, 7), '0x1.1185f6abaca99p-1', ('0x1.ab18b2a778205p-3', '0x1.57c0482c9c497p-3', '0x1.3f49c14afae59p-1')),
    ((1, 5, 7), '0x1.4769605eeab59p-1', ('0x1.50a82f1cd4b18p-2', '0x1.cd669fb2bfac0p-3', '0x1.c8a48109cb789p-2')),
    ((5, 6, 7), '0x1.3eaae71ed76acp-1', ('0x1.b0b2aad77abaep-1', '0x1.125b35897e900p-4', '0x1.680f73baab991p-4')),
    ((0, 2), '0x1.6068069761a27p-1', ('0x1.5323164d85bb8p-4', '0x1.d59b9d364f489p-1')),
    ((0,), '0x1.159e8dd475a58p-1', ('0x1.0000000000000p+0',)),
    ((0, 3, 4), '0x1.6f619debcc373p-1', ('0x1.85704daaf3760p-2', '0x1.e6ef82ac7bb5ep-2', '0x1.27405f5121a83p-3')),
    ((0, 5), '0x1.d157fb2ae703ap+0', ('0x1.b90c078690daep-1', '0x1.1bcfe1e5bc949p-3')),
    ((1, 4, 8), '0x1.b144e1796ad67p-1', ('0x1.a03906a4a1ccdp-2', '0x1.24c7e24dede7fp-2', '0x1.3aff170d704b3p-2')),
    ((7, 8), '0x1.955c13250fe5bp-1', ('0x1.44a920c33928ap-1', '0x1.76adbe798daedp-2')),
    ((2, 3), '0x1.bf0a8530cd9a3p-1', ('0x1.b0a21ecc76e80p-5', '0x1.e4f5de1338918p-1')),
    ((0, 1, 3), '0x1.752b3112f9451p-1', ('0x1.9588faeaf39efp-1', '0x1.a4154043eed75p-4', '0x1.afa2e8647430fp-4')),
    ((4, 8), '0x1.7b4c5de2959c2p-1', ('0x1.2b03f73a99addp-1', '0x1.a9f8118acca46p-2')),
    ((0, 2, 3), '0x1.96cccc5397ffep-1', ('0x1.89a4d36d73602p-3', '0x1.a42fc5661e7adp-2', '0x1.96fdd0e327d52p-2')),
    ((0, 5, 8), '0x1.7594ff585677ap-1', ('0x1.eff0bb3629d68p-4', '0x1.3897a2651724ep-1', '0x1.12d48c684740ap-2')),
    ((0, 2), '0x1.1668f4307c11ep+0', ('0x1.3db32cfac0f0bp-1', '0x1.8499a60a7e1eap-2')),
    ((0, 8), '0x1.4693dce89a723p-1', ('0x1.cc9ed3e663b84p-3', '0x1.8cd84b066711fp-1')),
    ((0, 1), '0x1.28a50dfdc5e84p-1', ('0x1.50c2cc693b220p-5', '0x1.eaf3d3396c4dep-1')),
    ((0, 1, 3), '0x1.63da36f99a75fp+1', ('0x1.bea9bf67407b0p-5', '0x1.19888820f8f86p-1', '0x1.9519b7d125ffep-2')),
    ((0, 3), '0x1.8cc1e369a2bedp-2', ('0x1.8049b0744f320p-4', '0x1.cff6c9f17619cp-1')),
    ((0, 7, 8), '0x1.049f84c28294dp+0', ('0x1.08ea53e126a86p-1', '0x1.3d2ad8c72d888p-2', '0x1.6200feed0a4d6p-3')),
    ((0, 1, 3), '0x1.bc2f2a5419656p-1', ('0x1.246fd58e24378p-3', '0x1.12b4edee29c4ap-2', '0x1.2d8993a5620fdp-1')),
    ((1, 2), '0x1.991d2ba02bd88p+0', ('0x1.0f572d1a50c56p-1', '0x1.e151a5cb5e754p-2')),
    ((0, 2), '0x1.556bc109331f4p-1', ('0x1.c662d69ff8210p-2', '0x1.1cce94b003ef8p-1')),
    ((2, 3, 8), '0x1.6c7edbe3f50b8p-1', ('0x1.85d3a3ebf41a8p-2', '0x1.bcf52ecbe8182p-2', '0x1.7a6e5a90479acp-3')),
    ((6, 8), '0x1.227fa0554038cp-1', ('0x1.f94a3a0749f59p-1', '0x1.ad717e2d829bbp-7')),
    ((1, 2, 3), '0x1.6b706ea3f1b54p-1', ('0x1.2290a6913fc72p-2', '0x1.42fa9588757efp-4', '0x1.46585a06516c9p-1')),
    ((1, 2, 3), '0x1.86edea322d018p-1', ('0x1.5694ec83331e0p-5', '0x1.515b98ae14a16p-2', '0x1.41e8e4e0c27d7p-1')),
    ((2, 3), '0x1.91a42ced3788fp-1', ('0x1.5361049f70640p-1', '0x1.593df6c11f37fp-2')),
    ((1, 3), '0x1.702abd92b1411p-1', ('0x1.af33fe3612ba8p-4', '0x1.ca1980393da8bp-1')),
    ((6, 7), '0x1.6e50b7b33dd5fp-1', ('0x1.603738f6c0accp-3', '0x1.a7f231c24fd4dp-1')),
    ((1, 3), '0x1.af79dace0d19bp-1', ('0x1.2464f8d3eb2d4p-1', '0x1.b7360e5829a59p-2')),
    ((0, 1, 2), '0x1.cae53c1fa16abp-1', ('0x1.79a6af3d3267dp-2', '0x1.5a15ba7b9ecbfp-2', '0x1.2c4396472ecc5p-2')),
    ((0, 3, 8), '0x1.32f3966d74ca8p-1', ('0x1.f82a8330292ecp-2', '0x1.0a7a78ba2d39ap-2', '0x1.fab6082b532f3p-3')),
    ((0, 1, 2), '0x1.c36a15fa3b1c5p-1', ('0x1.16ee7cdaafec8p-4', '0x1.2425349b32417p-1', '0x1.71f9f792ef820p-2')),
    ((0, 3), '0x1.6a19aaaa0f8a3p+0', ('0x1.3dbdbbdb8b728p-2', '0x1.612122123a46cp-1')),
    ((0, 2), '0x1.f75955513a632p-1', ('0x1.783b5bb514240p-4', '0x1.d0f894895d7b8p-1')),
    ((2, 3), '0x1.7be6c5db61868p-1', ('0x1.56d95aaef5e00p-1', '0x1.524d4aa214400p-2')),
    ((0, 2, 3), '0x1.2d5248b7b1006p+0', ('0x1.49366826c2f9cp-3', '0x1.02f6bcfe366dep-2', '0x1.2c370777340aap-1')),
    ((4, 6), '0x1.2ec3ab37c5d59p-1', ('0x1.04aeb675c0db8p-4', '0x1.df6a293147e49p-1')),
    ((0, 4, 6), '0x1.58b0901b01068p-1', ('0x1.0e8a91bfbee70p-1', '0x1.697d65ab879f9p-3', '0x1.2e2c29aabe625p-2')),
    ((0, 2, 3), '0x1.170035df141c4p+0', ('0x1.05438d781c4d4p-1', '0x1.0c4d71e0c4a4ep-2', '0x1.d256e65e05814p-3')),
    ((0, 1, 4), '0x1.77ea1347e94a5p-1', ('0x1.1114ac8f51166p-1', '0x1.d085b9231f641p-2', '0x1.aa1db7c7cde44p-7')),
    ((1, 2, 8), '0x1.153b6d75ce284p-1', ('0x1.17e4f146929d0p-4', '0x1.6ae8b8f27a27fp-1', '0x1.c86aa392ce11dp-3')),
    ((1, 4, 8), '0x1.369f8c083e878p-1', ('0x1.d90258d5deefcp-3', '0x1.6b3aefc1660efp-1', '0x1.e847a0922351dp-5')),
    ((2, 6), '0x1.647f394fc56bfp-1', ('0x1.458802360b344p-2', '0x1.5d3bfee4fa65ep-1')),
    ((1, 2, 3), '0x1.3b49c64cd925ap+0', ('0x1.a32128bd0ec40p-8', '0x1.3fd7eab03f817p-2', '0x1.5ccdc8566621cp-1')),
    ((4, 8), '0x1.24e9381edd5e6p-1', ('0x1.545f93b02e334p-3', '0x1.aae81b13f4733p-1')),
    ((0, 1, 2), '0x1.b8118e85a9056p-1', ('0x1.98099826baa4ep-2', '0x1.6f1785025ae1cp-6', '0x1.288277c48fd68p-1')),
    ((0, 6, 7), '0x1.0f9fa44088022p-1', ('0x1.6bde41d3572bep-1', '0x1.175158ae092ffp-5', '0x1.0559514390824p-2')),
    ((0, 6), '0x1.7d5ea8e11f40cp-1', ('0x1.747a324d04500p-1', '0x1.170b9b65f75ffp-2')),
    ((1, 3), '0x1.b3190339e2ed0p-1', ('0x1.8e5ee059ceaffp-1', '0x1.c6847e98c5404p-3')),
    ((3, 8), '0x1.8a3e8dccc1460p-1', ('0x1.dce558353770ap-2', '0x1.118d53e56447bp-1')),
    ((0, 6), '0x1.4823e21fcdc72p-1', ('0x1.525feca3ea5c0p-2', '0x1.56d009ae0ad20p-1')),
    ((0, 2, 3), '0x1.3a278f28b0b75p-1', ('0x1.7914f936c5a78p-3', '0x1.4299d367617f6p-1', '0x1.7c83b92bb45aep-3')),
    ((0, 2, 3), '0x1.9206c8d1a169cp-1', ('0x1.04dd7a4f622aep-3', '0x1.09ce5d0f54fbap-3', '0x1.7c550a2852366p-1')),
    ((0, 1, 2), '0x1.c8a41dd9a0053p-1', ('0x1.339dbd0dacfe2p-2', '0x1.418a55cb5f348p-2', '0x1.8ad7ed26f3cd6p-2')),
    ((2, 3, 5), '0x1.74ffd74d9fc9bp-1', ('0x1.464b13410b515p-1', '0x1.fe6166769a3c9p-3', '0x1.d0e4990a70fc8p-4')),
    ((0, 2), '0x1.a8bf213bfad52p-1', ('0x1.3fa86d032693ap-2', '0x1.602bc97e6cb63p-1')),
    ((0, 1), '0x1.35cfe260743dcp-1', ('0x1.f355ac2912894p-2', '0x1.065529eb76bb6p-1')),
    ((2, 3), '0x1.e475d22008f79p-1', ('0x1.3f860c3c4703cp-1', '0x1.80f3e78771f87p-2')),
    ((1, 2, 3), '0x1.accbe46402329p-1', ('0x1.06ba5d34da896p-2', '0x1.4987736b7310bp-1', '0x1.98daefd0fd551p-4')),
    ((0, 1), '0x1.f7c5de616a232p-1', ('0x1.ae7e74b565a92p-2', '0x1.28c0c5a54d2b7p-1')),
    ((0, 4), '0x1.43d41e7239decp-1', ('0x1.4a5e7ec99da3ap-2', '0x1.5ad0c09b312e3p-1')),
    ((2, 3, 4), '0x1.ada3286c0095cp-1', ('0x1.1c2b4db9619cdp-3', '0x1.ce9adf4ba3a96p-4', '0x1.7f21d0a83323ap-1')),
    ((0, 1, 3), '0x1.017a8a626c9cfp+0', ('0x1.1402b095e94c5p-1', '0x1.bc737ce750e9dp-3', '0x1.f381c0c109e51p-3')),
    ((0, 3), '0x1.8940373cd04bap-1', ('0x1.66d4274c8229cp-2', '0x1.4c95ec59beeb2p-1')),
    ((7, 8), '0x1.008253d244e99p-1', ('0x1.8a11d34db51b4p-1', '0x1.d7b8b2c92b930p-3')),
    ((0, 1), '0x1.83894ea6cf143p-1', ('0x1.d38cbb2454c3cp-3', '0x1.8b1cd136eacf1p-1')),
    ((0, 1, 3), '0x1.b6035eeba73bfp-1', ('0x1.68069fea5629fp-2', '0x1.a0faf34c67581p-2', '0x1.edfcd99284fc2p-3')),
    ((1, 2, 3), '0x1.13f86ebc4238bp+0', ('0x1.e173e07fb289bp-3', '0x1.4a38cbfc71ed9p-3', '0x1.3514d4e0f6e23p-1')),
    ((1, 2), '0x1.8404702d9e488p-1', ('0x1.5cc519b725b86p-1', '0x1.4675cc91b48f3p-2')),
    ((0, 1), '0x1.53d2196e8378ep-1', ('0x1.6b1962365e336p-2', '0x1.4a734ee4d0e65p-1')),
    ((5,), '0x1.ee613c379a2d0p-2', ('0x1.0000000000000p+0',)),
    ((1, 3), '0x1.5b0d1cac25c33p-1', ('0x1.807dcdf39664ap-2', '0x1.3fc1190634cdbp-1')),
    ((2, 3, 5), '0x1.774e5bd9fcacep-1', ('0x1.fbb075cdac2edp-2', '0x1.4b87d1f9c5679p-2', '0x1.718f70711cd35p-3')),
    ((0, 3), '0x1.683ac0009f774p-1', ('0x1.f2fadc399aacdp-1', '0x1.a0a478ccaa652p-6')),
    ((1, 5), '0x1.200d620d2b85ep-1', ('0x1.82e0f867c146cp-3', '0x1.9f47c1e60fae5p-1')),
    ((3, 5, 7), '0x1.6502c8e0cf763p-1', ('0x1.ccf6b96d0b04cp-3', '0x1.10fc44d335b02p-1', '0x1.ef1833461e3adp-3')),
    ((0, 3, 4), '0x1.149ffc7740038p-1', ('0x1.bdde5bd4c600cp-3', '0x1.2709cd093d9a8p-3', '0x1.46c5f5c87f193p-1')),
    ((0, 1, 3), '0x1.aa48851b9ef31p-1', ('0x1.e5bb36d43a887p-2', '0x1.2b55a5dc7736fp-2', '0x1.ddde469e9c815p-3')),
    ((1, 3), '0x1.4c01d5fc75a55p-1', ('0x1.3b5a9c60ede3cp-2', '0x1.6252b1cf890e2p-1')),
    ((2, 6, 7), '0x1.0f9d09692e19bp-1', ('0x1.a21b8ec9b1634p-3', '0x1.7186dc34e9c11p-1', '0x1.2f9200c54f310p-4')),
    ((0, 3), '0x1.4e745fab7ad0fp-1', ('0x1.7cf3d891ed6e0p-1', '0x1.06184edc25241p-2')),
    ((5, 8), '0x1.e7fb60ec18d8fp-2', ('0x1.bb39ea57b0412p-1', '0x1.131856a13efb7p-3')),
    ((0, 1, 2), '0x1.efa2590cc0faap-1', ('0x1.5c06e74d7e29ep-2', '0x1.584ecaf85e2fbp-3', '0x1.f7d1b33652be3p-2')),
    ((0, 2, 3), '0x1.d16eaa90dd477p-1', ('0x1.13571069f4d73p-1', '0x1.081b37831e83ep-2', '0x1.a26d4f51ef9b6p-3')),
    ((0, 1), '0x1.4325ac82fa21cp-1', ('0x1.b4260b5252c94p-2', '0x1.25ecfa56d69b6p-1')),
    ((1, 2, 3), '0x1.e6dab9fdc2fe4p-1', ('0x1.2033458aed749p-3', '0x1.34e0c46d1c3e3p-3', '0x1.6abafd81fd935p-1')),
    ((0, 3), '0x1.7913b60d982e7p-1', ('0x1.7ab709d5d0d0dp-1', '0x1.0a91ec545e5e6p-2')),
    ((0, 2, 3), '0x1.c153e3340686dp-1', ('0x1.6d947a56799e4p-3', '0x1.576f2b58beb98p-3', '0x1.4ebf169431ea1p-1')),
    ((1, 2), '0x1.9cc846c0af817p-1', ('0x1.3fd7271bf3eb2p-1', '0x1.8051b1c81829dp-2')),
    ((0, 7), '0x1.9584d065f39b9p-1', ('0x1.caa48a8442d22p-2', '0x1.1aadbabdde96fp-1')),
    ((4, 6), '0x1.30c9cfc1c7f53p-1', ('0x1.75f83b40c6ec0p-7', '0x1.fa281f12fce45p-1')),
    ((0, 2, 3), '0x1.1f4aa8914677cp+0', ('0x1.7fd893834f8d9p-3', '0x1.6c37f50f77303p-3', '0x1.44fbdddb4e509p-1')),
    ((1, 3), '0x1.80ebc5562cda0p-1', ('0x1.ac23e71ef0d12p-2', '0x1.29ee0c7087977p-1')),
    ((4, 6), '0x1.0b8b5cb79c162p-1', ('0x1.9bc53a58d690ep-1', '0x1.90eb169ca5bcap-3')),
    ((0,), '0x1.3b65c48c7b3abp-2', ('0x1.0000000000000p+0',)),
    ((5, 6), '0x1.246d0a80b1cc8p-1', ('0x1.54e0a9de27169p-1', '0x1.563eac43b1d2ep-2')),
    ((0, 1, 2), '0x1.a3e86a25539bcp-1', ('0x1.63b5bd3f4747bp-2', '0x1.aafbf4c2f1b71p-2', '0x1.e29c9bfb8e029p-3')),
    ((6, 7), '0x1.5cf2f5adeaa53p-2', ('0x1.53e5b4c5351b1p-1', '0x1.5834967595c9ep-2')),
    ((1, 2), '0x1.6b7c69099c33ep-1', ('0x1.5a0aa9c656909p-1', '0x1.4beaac7352deep-2')),
    ((5, 6), '0x1.4b9123546d351p-1', ('0x1.41b4865916f10p-5', '0x1.ebe4b79a6e90fp-1')),
    ((7, 8), '0x1.057ce2ea4bcc1p-1', ('0x1.463057cd55662p-1', '0x1.739f50655533cp-2')),
    ((0, 5, 7), '0x1.0d378c743788ep-1', ('0x1.487c159c6eba1p-2', '0x1.24f430efcc387p-2', '0x1.928fb973c50d8p-2')),
    ((0, 2), '0x1.93eb2f6fd13bfp-1', ('0x1.cd2c83b3ad64cp-2', '0x1.1969be26294dap-1')),
    ((6, 7), '0x1.e29351185a472p-2', ('0x1.f80912b28ac98p-3', '0x1.81fdbb535d4dap-1')),
    ((0, 1), '0x1.b73263ba2ed9dp-1', ('0x1.21eeb41997970p-2', '0x1.6f08a5f334348p-1')),
    ((4, 5), '0x1.74fa1b87e6befp-1', ('0x1.6b1c424cf3e8cp-1', '0x1.29c77b66182e8p-2')),
    ((1, 5), '0x1.0878778327888p-1', ('0x1.537d214b5679fp-1', '0x1.5905bd69530c2p-2')),
    ((0,), '0x1.6a09e667f3bcdp-2', ('0x1.0000000000000p+0',)),
    ((8,), '0x1.da3cddb902762p-2', ('0x1.0000000000000p+0',)),
    ((0, 1, 2), '0x1.52f4b13901383p-1', ('0x1.5c4b96aa92118p-1', '0x1.39d226a1e8c62p-3', '0x1.54ff7eb3cef3bp-3')),
    ((1, 4, 7), '0x1.c428d3dd1b64cp-1', ('0x1.d3df9260db9a8p-3', '0x1.3a74ccf466c55p-1', '0x1.424d39cd89505p-3')),
    ((1, 3, 5), '0x1.4c46374cf5715p-1', ('0x1.1e87c1fa80ee8p-2', '0x1.705dd5fd4a420p-1', '0x1.792415d51b154p-11')),
    ((0, 3), '0x1.9b1cc290ab1acp+0', ('0x1.60e32e2fc3eaep-1', '0x1.3e39a3a0782a4p-2')),
    ((1, 2, 3), '0x1.78f92d49d7b99p+1', ('0x1.9a0c4730994ecp-2', '0x1.3c21388585adcp-2', '0x1.29d28049e1038p-2')),
    ((0, 2), '0x1.acf69b9abc96dp-1', ('0x1.6130dc7ec258ap-1', '0x1.3d9e47027b4ecp-2')),
    ((2, 8), '0x1.03537620975c1p-1', ('0x1.d87c1606d1ca8p-1', '0x1.3c1f4fc971ac4p-4')),
    ((0, 3), '0x1.f28c8984cfba5p-1', ('0x1.96e8321ba60f8p-2', '0x1.348be6f22cf84p-1')),
    ((1, 2, 3), '0x1.37a4a279bdfb7p+0', ('0x1.3adb2458ccfd7p-2', '0x1.a8fc956ac9a4bp-2', '0x1.1c28463c695dep-2')),
    ((0, 2, 7), '0x1.617471ba3f646p-1', ('0x1.aa51b8c8d6844p-3', '0x1.62aefc6060c4cp-1', '0x1.95e4ab6b4cd17p-4')),
    ((0, 1), '0x1.913ff75954d57p-1', ('0x1.622e9fc88ed36p-2', '0x1.4ee8b01bb8965p-1')),
    ((3, 4, 5), '0x1.2c26441f21113p-1', ('0x1.cad8f22dd62b7p-1', '0x1.aaea02c60e1c6p-9', '0x1.9be11e7b1e33ap-4')),
    ((0, 1, 3), '0x1.156906353705ep+0', ('0x1.043ed7928a448p-3', '0x1.10713b54f86d7p-1', '0x1.5cfe1d8cca02ep-2')),
    ((0, 1), '0x1.bc4897a857030p-1', ('0x1.230225f76f90ap-2', '0x1.6e7eed044837bp-1')),
    ((0, 3, 5), '0x1.14ad6e492056ap-1', ('0x1.053fd8b52c5d8p-4', '0x1.a7b4ef3c2a048p-1', '0x1.bd18ad69837e7p-4')),
    ((0, 5), '0x1.10e5098134c3ep-1', ('0x1.aa78b9dcbf8d0p-1', '0x1.561d188d01cbfp-3')),
    ((0, 1), '0x1.053f9d89408cfp+0', ('0x1.05a45aa05e0dap-1', '0x1.f4b74abf43e4dp-2')),
    ((0, 3, 5), '0x1.2fe13dc9c48ebp-1', ('0x1.a92a39f46be50p-5', '0x1.b45feda52c858p-1', '0x1.886b75dc65e19p-4')),
    ((0, 1, 3), '0x1.37725d34038d8p+0', ('0x1.463fa5b9d7e78p-4', '0x1.3c49f20687e53p-1', '0x1.35dc32847a3bbp-2')),
    ((0, 2, 3), '0x1.c2bf754a4594dp-1', ('0x1.5a9a439634c59p-1', '0x1.3c7cf7de5ef83p-5', '0x1.233bd9d7ca95ep-2')),
    ((1, 2, 3), '0x1.0a9da27235aafp+0', ('0x1.56a60982900e4p-3', '0x1.e3f96ebfd74e3p-6', '0x1.9b36b2295d420p-1')),
    ((1, 2, 3), '0x1.0035ae9d0214fp+0', ('0x1.d4023fbd0a319p-2', '0x1.29d9713aa1271p-2', '0x1.02244f0854a76p-2')),
    ((0, 4, 8), '0x1.99d9f2c04a077p-1', ('0x1.49cb0311eda24p-3', '0x1.0373d647f181dp-1', '0x1.5432d1e7262b5p-2')),
    ((4, 6), '0x1.8f72e302b8634p-1', ('0x1.0710dc798a7cep-1', '0x1.f1de470ceb063p-2')),
    ((0, 2, 8), '0x1.e3cea553c239ap-2', ('0x1.763f16d26d4b0p-5', '0x1.1c420f600e715p-1', '0x1.98b3fe6595741p-2')),
    ((4, 5), '0x1.5771838c9b62ap-1', ('0x1.5be2697431116p-1', '0x1.483b2d179ddd3p-2')),
    ((2, 3), '0x1.d6b6f9719ec6ap-1', ('0x1.78680db83e022p-1', '0x1.0f2fe48f83fbbp-2')),
    ((3, 5), '0x1.5a3b530f83cc0p-1', ('0x1.74feb8dcd75cep-1', '0x1.16028e4651463p-2')),
    ((1, 2), '0x1.60c9dd507a89fp-1', ('0x1.04a66877c63aep-1', '0x1.f6b32f10738a4p-2')),
    ((0, 2), '0x1.e5c2c0a80c18dp-1', ('0x1.1f127777182b2p-1', '0x1.c1db1111cfa9bp-2')),
    ((0, 2), '0x1.31badf29b1b48p-1', ('0x1.f236b327bfc20p-3', '0x1.83725336100f8p-1')),
    ((1, 3, 5), '0x1.8030291dded06p-1', ('0x1.951f2e1391308p-3', '0x1.2125a88802e53p-1', '0x1.e64a2fcc633abp-3')),
    ((4, 5, 8), '0x1.451fb257051a7p-1', ('0x1.1639417e85d2cp-2', '0x1.efedb672576d7p-3', '0x1.f1cfe3484e767p-2')),
    ((0, 1, 3), '0x1.844c30a86d367p-1', ('0x1.480daec1f1350p-2', '0x1.5bd6040a2b831p-1', '0x1.1924a6df1358ep-12')),
    ((0, 1, 3), '0x1.da7590e453d1fp-1', ('0x1.6462ed0a352a9p-3', '0x1.9399cb1e77093p-3', '0x1.4200d1f5d4f31p-1')),
    ((0, 2), '0x1.2f62d411bb020p-1', ('0x1.fc2810e822f68p-4', '0x1.c07afde2fba13p-1')),
    ((0, 3), '0x1.0ee6daa8d739ep+1', ('0x1.fda550f98bc38p-1', '0x1.2d57833a1e400p-8')),
    ((0, 6, 8), '0x1.aaaeb1380def0p-1', ('0x1.910090ba7aa74p-4', '0x1.6b0f4bf29cd65p-2', '0x1.185847ef623ffp-1')),
    ((4, 7), '0x1.2c7e442d607d8p-1', ('0x1.a7c64d483bce8p-4', '0x1.cb073656f8863p-1')),
    ((0, 6, 8), '0x1.cb383fdd5a16ap-2', ('0x1.8b7c080971961p-1', '0x1.d937aaeeef1f4p-5', '0x1.5bc1f51e7de00p-3')),
    ((0, 1), '0x1.ab357a5c58f56p-1', ('0x1.9e7af5c2a6b20p-2', '0x1.30c2851eaca70p-1')),
    ((0, 2, 3), '0x1.c2e9fe75f2057p-1', ('0x1.b9b03a9343c61p-1', '0x1.024877dbbfc0dp-3', '0x1.6f69dd7312703p-7')),
    ((1, 6, 8), '0x1.84f63cdb20290p-1', ('0x1.38fbc6ae50d53p-1', '0x1.919b1c5a6d606p-4', '0x1.29a1ab8cc2fd8p-2')),
    ((2, 5, 8), '0x1.1b8af11dee0f9p-1', ('0x1.5c544a9283e58p-3', '0x1.0cba12c14800ep-1', '0x1.3861b5342e0b9p-2')),
    ((0, 3), '0x1.8f79d48246556p-1', ('0x1.4115fc3d6a44ap-2', '0x1.5f7501e14addbp-1')),
    ((0, 1, 3), '0x1.495aa2a85128fp+0', ('0x1.27a746b682e3ap-3', '0x1.05b9419987cabp-2', '0x1.33398d859b61cp-1')),
    ((0, 3), '0x1.4118aef963b23p-1', ('0x1.4c39ad10efd10p-1', '0x1.678ca5de205dfp-2')),
    ((1, 3, 7), '0x1.a5ad5aa5c3beep-1', ('0x1.b094c343e7428p-5', '0x1.42f63dee8922bp-2', '0x1.437b94d47cfa8p-1')),
]

# Indices i of the draws from default_rng(2025) (random_feasible_instance's
# grid, Dirichlet targets, epsilon (0.0, 0.05)[i % 2], k = 3) that the
# vertex-enumeration solver found infeasible; every other draw was feasible.
LP_INFEASIBLE = (0, 3, 4, 6, 7, 8, 10, 11, 20, 26, 28, 35, 42, 43, 47, 48, 50, 56, 60, 61, 67, 71, 75, 77, 85, 88,
                 94, 95, 103, 108, 110, 112)


def _golden_draws(seed, count):
    rng = np.random.default_rng(seed)
    return [random_feasible_instance(rng) for _ in range(count)]


# sha256 over the LP_GOLDEN instances' (support, objective.hex(), q bytes),
# recorded from the simplex itself: a bit-for-bit regression guard
LP_SIMPLEX_SHA256 = "569984bf87ffcc79010d415a8a5cab6457e9a335578f494b9dbf8e3b260ef634"


def _golden_solves():
    for i, (pop, targets) in enumerate(_golden_draws(2024, len(LP_GOLDEN))):
        yield fairness_lp(pop, 2 + i % 3, targets, (0.0, 0.05)[i % 2]), pop, LP_GOLDEN[i]


class TestLpGolden:
    def test_matches_the_enumeration(self):
        # the simplex's own vertex against the enumeration's re-solved q:
        # the same supports, q and objectives within a few ulps
        mismatched = []
        for i, (mix, pop, (support, objective, q)) in enumerate(_golden_solves()):
            want = np.zeros(pop.m * pop.m)
            want[list(support)] = [float.fromhex(v) for v in q]
            objective = float.fromhex(objective)
            if (
                mix.support != support
                or np.max(np.abs(mix.q - want)) > 1e-14
                or abs(mix.objective - objective) > 1e-14 * abs(objective)
            ):
                mismatched.append(i)
        assert mismatched == []

    def test_feasible_bitwise(self):
        digest = hashlib.sha256()
        for mix, _, _ in _golden_solves():
            digest.update(repr(mix.support).encode())
            digest.update(mix.objective.hex().encode())
            digest.update(mix.q.tobytes())
        assert digest.hexdigest() == LP_SIMPLEX_SHA256

    def test_infeasible_verdict(self):
        rng = np.random.default_rng(2025)
        raised = []
        for i in range(120):
            pop, _ = random_feasible_instance(rng)
            targets = rng.dirichlet(np.ones(pop.populations))
            try:
                fairness_lp(pop, 3, targets, (0.0, 0.05)[i % 2])
            except InfeasibleError:
                raised.append(i)
        assert tuple(raised) == LP_INFEASIBLE

    def test_equal_cost_tie(self):
        # every cell has total density 1, so every feasible mixture costs 1;
        # the enumeration returned support (0, 1), the simplex may pick another
        pop = PopulationGridDensity(2, np.array([[0.9, 0.2, 0.5, 0.6], [0.1, 0.8, 0.5, 0.4]]))
        targets = pop.layers @ np.array([0.1, 0.2, 0.3, 0.4])
        mix = fairness_lp(pop, 3, targets, 0.0)
        assert mix.objective == float.fromhex("0x1.0000000000000p+0")
        assert np.all(np.abs(pop.layers @ mix.q - targets) <= 1e-9)
        assert abs(mix.q.sum() - 1.0) <= 1e-9 and np.all(mix.q >= 0)
        assert len(mix.support) <= pop.populations
