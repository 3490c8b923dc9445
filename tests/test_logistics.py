"""Fleet sizing and dispatch calculator tests."""

import math

import numpy as np
import pytest

from routebench import fleet_size_trp, sdd_dispatch_trp, sdd_dispatch_tsp


def wait_cost(m, c, w, N, b=0.0):
    per = N / m
    return c * m + b * per**2 + w * per * math.sqrt(per)


class TestFleetSize:
    def test_closed_form_example(self):
        result = fleet_size_trp(1.0, 1.0, 32)
        assert result.m_real == pytest.approx((3 / 2) ** 0.4 * 8, rel=1e-12)
        assert result.m_real == pytest.approx(9.4086, abs=1e-4)
        assert result.m_int in (9, 10)
        assert result.cost == pytest.approx(wait_cost(result.m_int, 1.0, 1.0, 32))

    def test_integer_matches_exhaustive_scan(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            c = float(rng.uniform(0.05, 5.0))
            w = float(rng.uniform(0.05, 5.0))
            N = int(rng.integers(1, 400))
            result = fleet_size_trp(c, w, N)
            brute = min(range(1, N + 1), key=lambda m: (wait_cost(m, c, w, N), m))
            assert result.m_int == brute

    def test_batching_term_uses_scan(self):
        result = fleet_size_trp(1.0, 1.0, 50, b=0.3)
        brute = min(range(1, 51), key=lambda m: (wait_cost(m, 1.0, 1.0, 50, 0.3), m))
        assert result.m_real is None
        assert result.m_int == brute

    def test_travel_cost_objective_prefers_one_vehicle(self):
        # the square-root travel objective c*m + d*sqrt(N*m) is increasing in m
        rng = np.random.default_rng(72)
        for _ in range(50):
            c = float(rng.uniform(0.0, 3.0))
            d = float(rng.uniform(0.1, 3.0))
            N = int(rng.integers(1, 300))
            best = min(range(1, N + 1), key=lambda m: c * m + d * math.sqrt(N * m))
            assert best == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fleet_size_trp(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            fleet_size_trp(1.0, 1.0, 0)


class TestDispatchTsp:
    def test_worked_example(self):
        plan = sdd_dispatch_tsp(lam=1.0, a=1.0, T=6.0, m=3)
        assert plan.dispatch_times[0] == pytest.approx(4.0, abs=1e-9)
        assert plan.dispatch_times[1] == pytest.approx(5.0, abs=1e-9)
        assert plan.dispatch_times[2] == pytest.approx(5.0 + (3 - math.sqrt(5)) / 2, abs=1e-9)
        assert plan.loads[0] == pytest.approx(4.0, abs=1e-9)
        assert plan.loads[1] == pytest.approx(1.0, abs=1e-9)
        assert plan.loads[2] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)
        assert math.sqrt(plan.dispatch_times[2] - plan.dispatch_times[1]) == pytest.approx(
            (math.sqrt(5) - 1) / 2
        )

    def test_boundary_feasibility(self):
        plan = sdd_dispatch_tsp(lam=1.0, a=1.0, T=6.0, m=1, T_cutoff=4.0)
        assert plan.feasible
        assert plan.slack == pytest.approx(0.0, abs=1e-9)
        assert plan.loads[0] == pytest.approx(4.0)

    def test_zero_travel_time(self):
        plan = sdd_dispatch_tsp(lam=2.0, a=0.0, T=5.0, m=4, T_cutoff=5.0)
        assert all(t == pytest.approx(5.0) for t in plan.dispatch_times)
        assert plan.feasible

    def test_return_equation_residuals(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            lam = float(rng.uniform(0.1, 8.0))
            a = float(rng.uniform(0.0, 3.0))
            T = float(rng.uniform(1.0, 20.0))
            m = int(rng.integers(1, 9))
            plan = sdd_dispatch_tsp(lam=lam, a=a, T=T, m=m)
            prev = 0.0
            for t in plan.dispatch_times:
                residual = t + a * math.sqrt(lam * (t - prev)) - T
                assert abs(residual) <= 1e-9
                prev = t

    def test_times_increase_while_loads_positive(self):
        plan = sdd_dispatch_tsp(lam=1.0, a=0.5, T=10.0, m=6)
        times = plan.dispatch_times
        for i in range(1, len(times)):
            if plan.loads[i] > 1e-12:
                assert times[i] > times[i - 1]

    def test_feasible_loads_sum_to_order_count(self):
        plan = sdd_dispatch_tsp(lam=2.0, a=0.7, T=10.0, m=8, T_cutoff=6.0)
        assert plan.feasible
        assert sum(plan.loads) == pytest.approx(2.0 * 6.0, rel=1e-12)

    def test_cutoff_above_deadline_rejected(self):
        with pytest.raises(ValueError):
            sdd_dispatch_tsp(lam=1.0, a=1.0, T=5.0, m=2, T_cutoff=6.0)


class TestDispatchTrp:
    def test_boundary_example(self):
        plan = sdd_dispatch_trp(lam=10.0, a=1.0, N=100.0, m=4, T=15.0)
        assert plan.dispatch_times == pytest.approx((2.5, 5.0, 7.5, 10.0))
        assert plan.feasible
        assert plan.slack == pytest.approx(0.0, abs=1e-9)
        assert plan.loads == pytest.approx((25.0,) * 4)

    def test_infeasible_below_boundary(self):
        plan = sdd_dispatch_trp(lam=10.0, a=1.0, N=100.0, m=4, T=14.0)
        assert not plan.feasible
        assert plan.slack == pytest.approx(-1.0)

    def test_one_order_per_vehicle(self):
        plan = sdd_dispatch_trp(lam=2.0, a=0.1, N=6.0, m=6, T=10.0)
        assert plan.loads == pytest.approx((1.0,) * 6)
        assert plan.dispatch_times == pytest.approx(tuple((i + 1) / 2 for i in range(6)))

    def test_feasibility_monotone_in_m_and_T(self):
        base = dict(lam=4.0, a=1.0, N=60.0)
        feas_m = [sdd_dispatch_trp(**base, m=m, T=18.0).feasible for m in range(1, 12)]
        assert feas_m == sorted(feas_m)  # once feasible, stays feasible as m grows
        feas_T = [sdd_dispatch_trp(**base, m=4, T=t).feasible for t in np.linspace(10, 30, 15)]
        assert feas_T == sorted(feas_T)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("arg", ["c", "w", "N", "b"])
def test_fleet_size_rejects_non_finite(arg, bad):
    args = dict(c=1.0, w=1.0, N=32, b=0.0)
    args[arg] = bad
    with pytest.raises(ValueError, match=f"{arg} must be finite"):
        fleet_size_trp(**args)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("arg", ["lam", "a", "T", "m", "T_cutoff"])
def test_dispatch_tsp_rejects_non_finite(arg, bad):
    args = dict(lam=1.0, a=1.0, T=6.0, m=3, T_cutoff=4.0)
    args[arg] = bad
    with pytest.raises(ValueError, match=f"{arg} must be finite"):
        sdd_dispatch_tsp(**args)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("arg", ["lam", "a", "N", "m", "T"])
def test_dispatch_trp_rejects_non_finite(arg, bad):
    args = dict(lam=10.0, a=1.0, N=100.0, m=4, T=15.0)
    args[arg] = bad
    with pytest.raises(ValueError, match=f"{arg} must be finite"):
        sdd_dispatch_trp(**args)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fleet_size_trp(1, 1, 2.5),
        lambda: fleet_size_trp(1, 1, 2.5, b=0.3),
        lambda: sdd_dispatch_tsp(1, 1, 1, 2.5),
        lambda: sdd_dispatch_trp(1, 1, 1, 2.5, 1),
    ],
    ids=["fleet-N", "fleet-N-batching", "tsp-m", "trp-m"],
)
def test_fractional_counts_rejected(call):
    with pytest.raises(ValueError, match="whole number"):
        call()


def test_integral_float_counts_accepted():
    # the CLI reads N as a float, so 32.0 must behave like 32
    assert fleet_size_trp(1.0, 1.0, 32.0) == fleet_size_trp(1.0, 1.0, 32)
    assert fleet_size_trp(1.0, 1.0, 50.0, b=0.3) == fleet_size_trp(1.0, 1.0, 50, b=0.3)
    assert sdd_dispatch_tsp(1.0, 1.0, 6.0, 3.0) == sdd_dispatch_tsp(1.0, 1.0, 6.0, 3)
    assert sdd_dispatch_trp(10.0, 1.0, 100.0, 4.0, 15.0) == sdd_dispatch_trp(10.0, 1.0, 100.0, 4, 15.0)
