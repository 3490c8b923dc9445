"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a runnable report.
The Monte Carlo criteria use the default experiment configurations, which
pin grids, trial counts, seeds, and thresholds.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from routebench import (
    ExperimentConfig,
    GridDensity,
    PopulationGridDensity,
    RandomSeed,
    WeightedSubpath,
    default_config,
    fairness_lp,
    fleet_size_trp,
    ktsp_exact,
    last_latency,
    latency_growth_constant,
    optimal_subpath_order,
    run_experiment,
    sample_points,
    sdd_dispatch_trp,
    sdd_dispatch_tsp,
    strip_tour,
    strip_two_opt,
    subpath_objective,
    trp_apriori_scheme,
    trp_exact,
    tsp_exact,
)

MASTER_SEED = 20240901
# The module fixtures' experiments run in this many processes; results are
# the same at every worker count, so only the suite's time depends on it.
WORKERS = min(2, os.cpu_count() or 1)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def ktsp_report(out_root):
    return run_experiment(default_config("ktsp-rate", MASTER_SEED, str(out_root / "ktsp-rate"), WORKERS))


@pytest.fixture(scope="module")
def trp_rate_report(out_root):
    return run_experiment(default_config("trp-rate", MASTER_SEED, str(out_root / "trp-rate"), WORKERS))


@pytest.fixture(scope="module")
def trp_factor_report(out_root):
    return run_experiment(default_config("trp-factor", MASTER_SEED, str(out_root / "trp-factor"), WORKERS))


@pytest.fixture(scope="module")
def tail_report(out_root):
    return run_experiment(default_config("tail-dominance", MASTER_SEED, str(out_root / "tail"), WORKERS))


def test_c01_ktsp_rate_slopes(ktsp_report):
    # k in {2,3,5}, n in {100..1600}, 500 trials: slope within 0.10 of target
    details = []
    ok = True
    for fit in ktsp_report.summary["fits"]:
        k = fit["k"]
        target = -0.5 * (1 + 1 / (k - 1))
        diff = abs(fit["slope"] - target)
        ok &= diff <= 0.10
        details.append(f"k={k} slope={fit['slope']:.4f} target={target:.4f} |diff|={diff:.4f}")
    report("ktsp-rate slopes", ok, "; ".join(details))


def test_c02_ktsp_beats_naive(ktsp_report):
    check = next(c for c in ktsp_report.summary["checks"] if c["name"].startswith("beats-naive"))
    report("ktsp beats naive rate", check["passed"], check["detail"])


def test_c03_tail_dominance(tail_report):
    checks = [c for c in tail_report.summary["checks"] if c["name"].startswith("dominance")]
    ok = all(c["passed"] for c in checks)
    report("tail-bound dominance", ok, "; ".join(f"{c['name']}: {c['detail']}" for c in checks))


def ordered_subsets(n: int, k: int) -> np.ndarray:
    """Every ordering of every k of the points 0 .. n - 1, one per row."""
    return np.array(list(itertools.permutations(range(n), k)), dtype=np.intp).reshape(-1, k)


def leg_lengths(ps, orders: np.ndarray) -> np.ndarray:
    """The lengths of the legs of each row's open path, one column per leg."""
    diff = ps.coords[:, None, :] - ps.coords[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return dist[orders[:, :-1], orders[:, 1:]]


def test_c04_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    d = GridDensity.uniform(1)
    mismatches = 0

    for trial in range(200):  # closed tours vs cyclic permutation enumeration
        n = int(rng.integers(3, 9))
        ps = sample_points(d, n, RandomSeed(MASTER_SEED, 10_000 + trial))
        tours = np.pad(1 + ordered_subsets(n - 1, n - 1), ((0, 0), (1, 1)))  # 0, the others in any order, 0
        brute = leg_lengths(ps, tours).sum(axis=1).min()
        if abs(tsp_exact(ps).length - brute) > 1e-9:
            mismatches += 1

    for trial in range(200):  # k-subset open paths vs subset x order enumeration
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, n + 1))
        ps = sample_points(d, n, RandomSeed(MASTER_SEED, 20_000 + trial))
        brute = leg_lengths(ps, ordered_subsets(n, k)).sum(axis=1).min()
        if abs(ktsp_exact(ps, k).length - brute) > 1e-9:
            mismatches += 1

    for trial in range(200):  # latency vs full permutation enumeration
        n = int(rng.integers(2, 9))
        ps = sample_points(d, n, RandomSeed(MASTER_SEED, 30_000 + trial))
        # leg i of an n-point visiting order delays the n - 1 - i points after it
        brute = (leg_lengths(ps, ordered_subsets(n, n)) @ np.arange(n - 1, 0, -1.0)).min()
        if abs(trp_exact(ps).latency - brute) > 1e-9:
            mismatches += 1

    report("oracle equivalence", mismatches == 0, f"{mismatches} mismatches over 600 instances")


def test_c05_strip_tour_bound():
    rng = np.random.default_rng(MASTER_SEED + 1)
    d = GridDensity.uniform(1)
    violations = 0
    worst_margin = math.inf
    for trial in range(1000):
        n = max(1, int(math.exp(rng.uniform(0.0, math.log(10_000)))))
        ps = sample_points(d, n, RandomSeed(MASTER_SEED, 40_000 + trial))
        bound = (2 * math.sqrt(n) + 4) * ps.square.side
        length = strip_tour(ps).length
        worst_margin = min(worst_margin, bound - length)
        if length > bound + 1e-9:
            violations += 1
    report(
        "strip tour bound",
        violations == 0,
        f"{violations} violations over 1000 instances, min slack {worst_margin:.3f}",
    )


def test_c06_trp_rate_slope(trp_rate_report):
    fit = trp_rate_report.summary["fits"][0]
    ok = 1.4 <= fit["slope"] <= 1.6
    report("trp latency slope", ok, f"slope={fit['slope']:.4f} within [1.4, 1.6]")


def test_c07_trp_factor(trp_factor_report):
    check = trp_factor_report.summary["checks"][0]
    report("trp factor vs growth law", check["passed"], check["detail"])


def test_c08_ordering_lemma():
    rng = np.random.default_rng(MASTER_SEED + 2)
    failures = 0
    for _ in range(500):
        size = int(rng.integers(1, 8))
        paths = [
            WeightedSubpath(int(rng.integers(1, 25)), float(rng.uniform(0.05, 10.0)))
            for _ in range(size)
        ]
        best = min(
            subpath_objective(paths, perm) for perm in itertools.permutations(range(size))
        )
        achieved = subpath_objective(paths, optimal_subpath_order(paths))
        if achieved > best + 1e-9:
            failures += 1
    report("subpath ordering optimal", failures == 0, f"{failures} failures over 500 lists")


def test_c09_growth_constant_values():
    uniform_ok = all(latency_growth_constant(GridDensity.uniform(m)) == 0.5 for m in (1, 2, 4, 8))
    two_level = latency_growth_constant(GridDensity(2, [2.0, 2.0, 0.0, 0.0]))
    two_level_ok = abs(two_level - math.sqrt(2) / 4) <= 1e-12
    report(
        "density growth constant",
        uniform_ok and two_level_ok,
        f"uniform=0.5 exact: {uniform_ok}; two-level={two_level!r} vs sqrt(2)/4",
    )


def test_c10_fairness_lp(out_root):
    # symmetric segregated case is forced exactly
    segregated = PopulationGridDensity(2, np.array([[2.0, 0, 0, 0], [0, 2.0, 0, 0]]))
    mix = fairness_lp(segregated, 2, [0.5, 0.5], 0.0)
    exact_ok = np.allclose(mix.q, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    # support stays sparse on 200 random feasible instances at epsilon = 0
    rng = np.random.default_rng(MASTER_SEED + 3)
    sparse_ok = True
    for _ in range(200):
        m = int(rng.integers(2, 4))
        P = int(rng.integers(2, 4))
        layers = rng.random((P, m * m)) * rng.integers(0, 2, size=(P, m * m))
        layers[:, 0] += 0.05
        layers *= m * m / layers.sum()
        pop = PopulationGridDensity(m, layers)
        f = pop.total.cells
        supported = np.flatnonzero(f > 0)
        weights = rng.random(supported.size)
        weights /= weights.sum()
        targets = (pop.layers[:, supported] / f[supported]) @ weights
        result = fairness_lp(pop, 3, targets, 0.0)
        if len(result.support) > P:
            sparse_ok = False

    # relaxing the tolerance never hurts the objective
    pop = PopulationGridDensity(2, np.array([[3.0, 0, 0, 0], [0, 1.0, 0, 0]]))
    objectives = [fairness_lp(pop, 3, [0.5, 0.5], e).objective for e in (0.0, 0.05, 0.1, 0.5, 1.0)]
    monotone_ok = all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))

    # the randomized sampler realizes the mixture's served fractions
    audit = run_experiment(default_config("fairness-audit", MASTER_SEED, str(out_root / "fairness")))
    audit_ok = audit.passed

    report(
        "fairness lp and sampler",
        exact_ok and sparse_ok and monotone_ok and audit_ok,
        f"exact={exact_ok} sparse={sparse_ok} monotone={monotone_ok} audit={audit_ok}",
    )


def test_c11_maxmin_ratio():
    d = GridDensity.uniform(4)
    ratios = []
    for trial in range(100):
        seed = RandomSeed(MASTER_SEED, 50_000 + trial)
        ps = sample_points(d, 2000, seed)
        scheme = trp_apriori_scheme(ps, d)
        tour = strip_two_opt(ps)
        ratios.append(last_latency(scheme.route, ps) / tour.length)
    mean = float(np.mean(ratios))
    ok = 0.95 <= mean <= 1.30
    report("max-min latency vs tour length", ok, f"mean ratio {mean:.4f} within [0.95, 1.30]")


def test_c12_logistics():
    rng = np.random.default_rng(MASTER_SEED + 4)

    worst_residual = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(0.1, 8.0))
        a = float(rng.uniform(0.0, 3.0))
        T = float(rng.uniform(1.0, 20.0))
        m = int(rng.integers(1, 9))
        plan = sdd_dispatch_tsp(lam=lam, a=a, T=T, m=m)
        prev = 0.0
        for t in plan.dispatch_times:
            worst_residual = max(worst_residual, abs(t + a * math.sqrt(lam * (t - prev)) - T))
            prev = t
    residual_ok = worst_residual <= 1e-9

    example = sdd_dispatch_tsp(lam=1.0, a=1.0, T=6.0, m=3)
    expected = (4.0, 5.0, 5.0 + (3 - math.sqrt(5)) / 2)
    example_ok = all(abs(t - e) <= 1e-6 for t, e in zip(example.dispatch_times, expected))

    fleet_ok = True
    for _ in range(100):
        c = float(rng.uniform(0.05, 5.0))
        w = float(rng.uniform(0.05, 5.0))
        N = int(rng.integers(1, 300))
        result = fleet_size_trp(c, w, N)
        cost = lambda m: c * m + w * (N / m) ** 1.5
        brute = min(range(1, N + 1), key=lambda m: (cost(m), m))
        if result.m_int != brute:
            fleet_ok = False

    boundary = sdd_dispatch_trp(lam=10.0, a=1.0, N=100.0, m=4, T=15.0)
    boundary_ok = boundary.feasible and abs(boundary.slack) <= 1e-9

    report(
        "logistics calculators",
        residual_ok and example_ok and fleet_ok and boundary_ok,
        f"max residual {worst_residual:.2e}; example={example_ok}; fleet scan={fleet_ok}; "
        f"boundary slack {boundary.slack:.2e}",
    )


def test_c13_reproducibility(out_root):
    small = {
        "ktsp-rate": dict(density={"kind": "uniform", "m": 1}, n_grid=(60,), k_grid=(2,), trials=6),
        "trp-rate": dict(density={"kind": "uniform", "m": 2}, n_grid=(100, 200), trials=4),
        "trp-factor": dict(density={"kind": "uniform", "m": 4}, n_grid=(300,), trials=4),
        "tail-dominance": dict(density={"kind": "uniform", "m": 1}, n_grid=(30,), k_grid=(2,), trials=40),
        "fairness-audit": dict(
            density={
                "kind": "population",
                "m": 2,
                "layers": [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
                "square": {"origin": [0.0, 0.0], "side": 1.0},
            },
            n_grid=(120,),
            k_grid=(3,),
            trials=20,
            targets=(0.5, 0.5),
        ),
    }
    ok = True
    details = []
    for kind, spec in small.items():
        payloads = []
        for tag, workers in (("w1", 1), ("w1b", 1), ("w4", 4)):
            cfg = ExperimentConfig(
                experiment=kind,
                master_seed=MASTER_SEED,
                out_dir=str(out_root / f"repro-{kind}-{tag}"),
                workers=workers,
                **spec,
            )
            payloads.append(Path(run_experiment(cfg).csv_path).read_bytes())
        same = payloads[0] == payloads[1] == payloads[2]
        ok &= same
        details.append(f"{kind}: {'identical' if same else 'DIFFERS'}")
    report("reproducibility across reruns and workers", ok, "; ".join(details))
