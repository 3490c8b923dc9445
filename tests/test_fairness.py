"""Fairness program, randomized sampler, and service-map tests."""

import math

import numpy as np
import pytest

from routebench import (
    GridDensity,
    InfeasibleError,
    PopulationGridDensity,
    RandomSeed,
    deterministic_fairness_ratio,
    fair_ktsp_sample,
    fairness_lp,
    geographic_service_map,
    ktsp_grid_scheme,
    nonuniform_scheme_handle,
    random_subset_scheme,
    sample_points,
)
from routebench.core import cell_ids

SEGREGATED = PopulationGridDensity(2, np.array([[2.0, 0, 0, 0], [0, 2.0, 0, 0]]))


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
            assert result.cell_sampled == 0
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
        assert result.cell_sampled == 1
        assert len(result.route) == 10
        assert len(result.augmented_cells) >= 1

    def test_k_above_n_rejected(self):
        mix = fairness_lp(SEGREGATED, 2, [0.5, 0.5], 0.0)
        ps = sample_points(SEGREGATED.total, 5, RandomSeed(49))
        with pytest.raises(ValueError):
            fair_ktsp_sample(SEGREGATED, mix, ps, 6, RandomSeed(50))

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

    def test_occupancy_weighted_sum_is_service_rate(self):
        d = GridDensity.uniform(2)
        k, n = 5, 100
        smap = geographic_service_map(random_subset_scheme, d, k, n, 200, RandomSeed(64))
        weighted = float(np.nansum(smap.estimates * (smap.totals / smap.totals.sum())))
        assert weighted == pytest.approx(1.0, abs=1e-9)  # estimates are already k/n-normalized


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

    def test_json_round_trip(self):
        back = PopulationGridDensity.from_json(SEGREGATED.to_json())
        assert np.array_equal(back.layers, SEGREGATED.layers)
        assert back.square == SEGREGATED.square


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
        assert result.cell_sampled == 6


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
