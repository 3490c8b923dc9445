"""Fairness tooling: service-probability maps, population mixtures, audits.

Two notions are covered.  Geographical fairness is measured empirically as
the per-cell probability of being served, normalized by the global service
rate k/n.  Population-based fairness is enforced in expectation by mixing
over cells: a small linear program picks cell probabilities that hit the
target served proportions per population while favouring dense cells, and
a randomized sampler draws a cell from that mixture before routing.

The program is solved by exact enumeration of basic feasible solutions,
which keeps the guaranteed sparse support observable: at most P cells get
positive probability under hard constraints, P + 1 under a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .core import GridDensity, PointSet, RandomSeed, Route, Square, cell_ids, sample_points
from .core import _group_by_cell, _path_length, _square_from_json
from .errors import InfeasibleError
from .ktsp import KtspResult, ktsp_grid_scheme, ktsp_nonuniform_scheme

__all__ = [
    "PopulationGridDensity",
    "FairnessMix",
    "FairKtspResult",
    "ServiceMap",
    "fairness_lp",
    "fair_ktsp_sample",
    "geographic_service_map",
    "deterministic_fairness_ratio",
    "random_subset_scheme",
    "grid_scheme_handle",
    "nonuniform_scheme_handle",
]

# Candidate basic systems above this count make exact enumeration impractical.
MAX_LP_CANDIDATES = 2_000_000


@dataclass(frozen=True, eq=False)
class PopulationGridDensity:
    """Per-population density layers summing cell-wise to a total density."""

    m: int
    layers: np.ndarray  # (P, m*m), nonnegative
    square: Square = Square((0.0, 0.0), 1.0)

    def __post_init__(self):
        layers = np.asarray(self.layers, dtype=np.float64)
        if layers.ndim != 2 or layers.shape[1] != self.m * self.m:
            raise ValueError(f"layers must have shape (P, {self.m * self.m})")
        if layers.shape[0] < 1:
            raise ValueError("at least one population layer is required")
        if not np.all(np.isfinite(layers)) or np.any(layers < 0):
            raise ValueError("layer values must be finite and nonnegative")
        total = layers.sum(axis=0)
        if abs(total.mean() - 1.0) > 1e-9:
            raise ValueError("layers must sum to a normalized total density")
        layers = layers.copy()
        layers.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_total", GridDensity(self.m, total, self.square))

    @property
    def populations(self) -> int:
        return self.layers.shape[0]

    @property
    def total(self) -> GridDensity:
        """The cell-wise sum of the layers, built once."""
        return self._total

    def population_shares(self) -> np.ndarray:
        """Overall share of each population: the integral of its layer."""
        return self.layers.sum(axis=1) / (self.m * self.m)

    def to_json(self) -> dict:
        total = self.total
        return {
            "m": self.m,
            "cells": [float(v) for v in total.cells],
            "square": {"origin": list(self.square.origin), "side": self.square.side},
            "layers": [[float(v) for v in row] for row in self.layers],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PopulationGridDensity":
        return cls(int(obj["m"]), np.asarray(obj["layers"], dtype=np.float64), _square_from_json(obj))


@dataclass(frozen=True, eq=False)
class FairnessMix:
    """Cell mixture solving the population-fairness program."""

    q: np.ndarray
    support: tuple[int, ...]
    objective: float
    epsilon: float

    def to_json(self) -> dict:
        return {
            "q": [float(v) for v in self.q],
            "support": list(self.support),
            "objective": self.objective,
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class FairKtspResult(KtspResult):
    """Randomized fair route plus audit data.

    ``cell_sampled`` is the density cell drawn from the mixture,
    ``served_counts`` the number of served points per population, and
    ``augmented_cells`` any neighbouring cells pulled in because the drawn
    cell held fewer than k points.
    """

    cell_sampled: int = -1
    served_counts: tuple[int, ...] = ()
    augmented_cells: tuple[int, ...] = ()


def fairness_lp(
    pop: PopulationGridDensity,
    k: int,
    p: Sequence[float],
    epsilon: float = 0.0,
) -> FairnessMix:
    """Optimal cell mixture meeting target served proportions per population.

    Minimizes sum_j q_j * f_j^(-(1/2)(1+1/(k-1))) over the probability
    simplex subject to |sum_j q_j f_ij / f_j - p_i| <= epsilon for every
    population i; zero-density cells are excluded from the variables.

    Solved exactly: every basic feasible solution (vertex) of the polytope
    is enumerated and the best one returned, so the support-size guarantee
    holds by construction.  Raises :class:`InfeasibleError` naming the most
    violated population when no vertex is feasible.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
    targets = np.asarray(p, dtype=np.float64)
    P = pop.populations
    if targets.shape != (P,):
        raise ValueError(f"expected {P} target proportions")
    if not np.all(np.isfinite(targets)) or np.any(targets < 0) or abs(targets.sum() - 1.0) > 1e-9:
        raise ValueError("target proportions must be finite, nonnegative and sum to 1")

    f = pop.total.cells
    supported = np.flatnonzero(f > 0)
    J = supported.size
    ratios = pop.layers[:, supported] / f[supported]  # (P, J)
    beta = 0.5 * (1.0 + 1.0 / (k - 1))
    costs = f[supported] ** (-beta)

    rows = np.vstack([np.ones(J), ratios])  # row 0: simplex; row 1+i: population i

    def candidate_systems(d: int):
        # active-row choices: the simplex row is optional, at most one side
        # of each population band, d rows total
        sides = (0.0,) if epsilon == 0 else (1.0, -1.0)
        for use_simplex in (True, False):
            need = d - (1 if use_simplex else 0)
            if need < 0 or need > P:
                continue
            for pops in combinations(range(P), need):
                for signs in product(sides, repeat=need):
                    idx = ([0] if use_simplex else []) + [1 + i for i in pops]
                    rhs = ([1.0] if use_simplex else []) + [
                        float(targets[i] + s * epsilon) for i, s in zip(pops, signs)
                    ]
                    yield np.array(idx), np.array(rhs)

    max_support = min(J, P if epsilon == 0 else P + 1)
    tol = 1e-9

    best: tuple[float, int, tuple, np.ndarray] | None = None
    least_violation: tuple[float, int] | None = None  # (violation, population)

    n_candidates = sum(
        math.comb(J, d) * (math.comb(P, d - 1) * (1 if epsilon == 0 else 2) ** (d - 1) + math.comb(P, d) * (1 if epsilon == 0 else 2) ** d)
        for d in range(1, max_support + 1)
    )
    if n_candidates > MAX_LP_CANDIDATES:
        raise ValueError(
            f"vertex enumeration would examine {n_candidates} systems; "
            "reduce the grid resolution or the number of populations"
        )

    for d in range(1, max_support + 1):
        supports = np.array(list(combinations(range(J), d)), dtype=np.int64)
        for row_idx, rhs in candidate_systems(d):
            mats = rows[row_idx][:, supports]  # (d, n_s, d)
            mats = np.moveaxis(mats, 1, 0)  # (n_s, d, d)
            dets = np.linalg.det(mats)
            solvable = np.abs(dets) > 1e-12
            if not np.any(solvable):
                continue
            nb = int(solvable.sum())
            b = np.tile(rhs.reshape(1, d, 1), (nb, 1, 1))
            try:
                sols = np.linalg.solve(mats[solvable], b)[..., 0]
            except np.linalg.LinAlgError:
                # a matrix slipped past the determinant filter; solve one by one
                sols = np.full((nb, d), np.nan)
                for r, mat in enumerate(mats[solvable]):
                    try:
                        sols[r] = np.linalg.solve(mat, rhs)
                    except np.linalg.LinAlgError:
                        pass
            for S, q_s in zip(supports[solvable], sols):
                if not np.all(np.isfinite(q_s)) or np.any(q_s < -tol):
                    continue
                q = np.zeros(J)
                q[S] = np.clip(q_s, 0.0, None)
                if abs(q.sum() - 1.0) > tol:
                    continue
                served = ratios @ q
                violation = np.abs(served - targets) - epsilon
                worst = int(np.argmax(violation))
                if least_violation is None or violation[worst] < least_violation[0]:
                    least_violation = (float(violation[worst]), worst)
                if violation[worst] > tol:
                    continue
                obj = float(costs @ q)
                key = (obj, len(S), tuple(S), q)
                if best is None or (obj < best[0] - 1e-12) or (
                    abs(obj - best[0]) <= 1e-12 and (len(S), tuple(S)) < (best[1], best[2])
                ):
                    best = key

    if best is None:
        if least_violation is not None:
            worst = least_violation[1]
        else:
            # no solvable vertex at all: blame the population whose target is
            # farthest outside its attainable served range
            lo = ratios.min(axis=1)
            hi = ratios.max(axis=1)
            gap = np.maximum(lo - targets, targets - hi)
            worst = int(np.argmax(gap))
        raise InfeasibleError(
            f"fairness constraints are infeasible; population {worst} cannot reach "
            f"its target proportion within epsilon={epsilon}",
            population=worst,
        )

    q_full = np.zeros(f.size)
    q_full[supported] = best[3]
    support = tuple(np.flatnonzero(q_full > 1e-12).tolist())
    q_full.setflags(write=False)
    return FairnessMix(q_full, support, best[0], epsilon)


def fair_ktsp_sample(
    pop: PopulationGridDensity,
    mix: FairnessMix,
    ps: PointSet,
    k: int,
    seed: RandomSeed,
) -> FairKtspResult:
    """Draw a cell from the mixture and route k points inside it.

    If the drawn cell holds fewer than k points, the nearest cells by
    center distance are pulled in until enough points are available (a rare
    event when k << n, recorded in ``augmented_cells``).  Each served point
    is assigned a population label from its cell's layer shares so the
    realized served counts can be audited against the mixture's targets.
    """
    n = len(ps)
    if k > n:
        raise ValueError(f"cannot serve k={k} of n={n} points")
    if mix.q.shape[0] != pop.m * pop.m:
        raise ValueError("mixture does not match the population grid")
    rng = seed.generator()
    m = pop.m
    cell = int(rng.choice(m * m, p=mix.q))
    ids = cell_ids(ps.coords, pop.square, m)

    members = np.flatnonzero(ids == cell)
    augmented: list[int] = []
    if members.size < k:
        by_cell, start = _group_by_cell(ids, m * m)
        cx, cy = pop.square.cell_center(m, cell)
        centers = np.array([pop.square.cell_center(m, c) for c in range(m * m)])
        dist = np.hypot(centers[:, 0] - cx, centers[:, 1] - cy)
        total = members.size
        for other in np.lexsort((np.arange(m * m), dist)).tolist():
            if other == cell or start[other] == start[other + 1]:
                continue
            augmented.append(other)
            total += start[other + 1] - start[other]
            if total >= k:
                break
        members = np.sort(np.concatenate([by_cell[start[c] : start[c + 1]] for c in [cell] + augmented]))

    included = [cell] + augmented
    rects = [pop.square.cell(m, c) for c in included]
    x0 = min(r.origin[0] for r in rects)
    y0 = min(r.origin[1] for r in rects)
    x1 = max(r.origin[0] + r.side for r in rects)
    y1 = max(r.origin[1] + r.side for r in rects)
    region = Square((x0, y0), max(x1 - x0, y1 - y0))

    sub = ps.subset(members, region)
    inner = ktsp_grid_scheme(sub, k)
    path = members[np.array(inner.route.order, dtype=np.intp)]
    route = Route(tuple(path.tolist()), closed=False)

    # each served point draws its label from its cell's shares with one
    # uniform, as rng.choice(populations, p=shares) would: the first label
    # whose normalized cumulative share exceeds it
    served = ids.take(path)
    totals = pop.total.cells.take(served)
    if not np.all(totals > 0):
        raise ValueError("a served point lies in a cell of zero total density")
    cdf = np.cumsum(pop.layers[:, served] / totals, axis=0)
    cdf /= cdf[-1]
    labels = np.count_nonzero(cdf <= rng.random(k), axis=0)
    counts = np.bincount(labels, minlength=pop.populations)

    return FairKtspResult(
        route=route,
        length=_path_length(ps.coords.take(path, axis=0), closed=False),
        alpha_used=inner.alpha_used,
        cell_chosen=inner.cell_chosen,
        density_cell=cell,
        cell_sampled=cell,
        served_counts=tuple(counts.tolist()),
        augmented_cells=tuple(augmented),
    )


# --- k-subset scheme handles for the service-probability map ---------------

SchemeHandle = Callable[[PointSet, GridDensity, int, np.random.Generator], Sequence[int]]


def random_subset_scheme(ps: PointSet, d: GridDensity, k: int, rng: np.random.Generator):
    """Baseline: serve a uniformly random k-subset (fully exchangeable)."""
    return rng.choice(len(ps), size=k, replace=False)


def grid_scheme_handle(ps: PointSet, d: GridDensity, k: int, rng: np.random.Generator):
    return ktsp_grid_scheme(ps, k).route.order


def nonuniform_scheme_handle(ps: PointSet, d: GridDensity, k: int, rng: np.random.Generator):
    return ktsp_nonuniform_scheme(ps, d, k).route.order


@dataclass(frozen=True, eq=False)
class ServiceMap:
    """Monte Carlo estimates of P(served | cell), normalized by k/n.

    ``estimates`` is NaN for cells that never received a sample.
    ``min_normalized`` is the smallest estimate over sampled cells: the
    empirical geographical-fairness level.
    """

    estimates: np.ndarray
    half_widths: np.ndarray
    served: np.ndarray
    totals: np.ndarray
    min_normalized: float


def geographic_service_map(
    scheme: SchemeHandle,
    d: GridDensity,
    k: int,
    n: int,
    trials: int,
    seed: RandomSeed,
    z: float = 1.96,
) -> ServiceMap:
    """Estimate per-cell service probabilities for a k-subset scheme."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    m2 = d.m * d.m
    served = np.zeros(m2, dtype=np.int64)
    totals = np.zeros(m2, dtype=np.int64)
    for t in range(trials):
        trial_seed = seed.child("service-map", t)
        ps = sample_points(d, n, trial_seed)
        rng = trial_seed.child("scheme").generator()
        chosen = np.asarray(list(scheme(ps, d, k, rng)), dtype=np.int64)
        ids = cell_ids(ps.coords, d.square, d.m)
        totals += np.bincount(ids, minlength=m2)
        served += np.bincount(ids[chosen], minlength=m2)

    scale = k / n
    with np.errstate(invalid="ignore", divide="ignore"):
        p_hat = np.where(totals > 0, served / np.maximum(totals, 1), np.nan)
        estimates = p_hat / scale
        half_widths = z * np.sqrt(p_hat * (1 - p_hat) / np.maximum(totals, 1)) / scale
    half_widths = np.where(totals > 0, half_widths, np.nan)
    sampled = totals > 0
    min_norm = float(np.min(estimates[sampled])) if np.any(sampled) else math.nan
    for arr in (estimates, half_widths, served, totals):
        arr.setflags(write=False)
    return ServiceMap(estimates, half_widths, served, totals, min_norm)


def deterministic_fairness_ratio(pop: PopulationGridDensity) -> float:
    """Efficiency loss of per-path fairness: sqrt(max f / max min-layer).

    Infinite when the populations share no cell, since a single path then
    cannot serve fixed proportions locally.
    """
    if pop.populations < 2:
        raise ValueError("the fairness ratio needs at least two populations")
    total_max = float(pop.total.cells.max())
    min_layer_max = float(pop.layers.min(axis=0).max())
    if min_layer_max == 0.0:
        return math.inf
    return math.sqrt(total_max / min_layer_max)
