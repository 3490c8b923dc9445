"""Fairness tooling: service-probability maps, population mixtures, audits.

Two notions are covered.  Geographical fairness is measured empirically as
the per-cell probability of being served, normalized by the global service
rate k/n.  Population-based fairness is enforced in expectation by mixing
over cells: a small linear program picks cell probabilities that hit the
target served proportions per population while favouring dense cells, and
a randomized sampler draws a cell from that mixture before routing.

The program is solved by a two-phase simplex with Bland's anti-cycling
rule on a dense tableau, with no size cap.  It returns a basic optimal
solution, which keeps the guaranteed sparse support observable: at most P
cells get positive probability under hard constraints, P + 1 under a
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .core import GridDensity, PointSet, RandomSeed, Route, Square, cell_ids, sample_points
from .core import _group_by_cell, _path_length, _require_count, _require_finite, _require_int, _square_from_json
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
    "nonuniform_scheme_handle",
]

@dataclass(frozen=True, eq=False)
class PopulationGridDensity:
    """Per-population density layers summing cell-wise to a total density.

    ``m`` follows :class:`~routebench.core.GridDensity`: a whole number of
    at least 1, stored as an int.
    """

    m: int
    layers: np.ndarray  # (P, m*m), nonnegative
    square: Square = Square((0.0, 0.0), 1.0)

    def __post_init__(self):
        object.__setattr__(self, "m", _require_count("grid resolution m", self.m, 1))
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
        return cls(obj["m"], np.asarray(obj["layers"], dtype=np.float64), _square_from_json(obj))


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


_TOL = 1e-9


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan step: make ``col`` the unit column of ``row`` in ``T``."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _bland(T: np.ndarray, basis: np.ndarray, columns: int) -> None:
    """Minimize the tableau's last row by Bland's rule over the first ``columns``.

    The entering column is the lowest-index one with negative reduced cost;
    the leaving row has the minimum ratio, the lowest basic index on ties.
    The program is bounded, so an improving column always has a positive
    entry to pivot on.
    """
    while True:
        improving = np.flatnonzero(T[-1, :columns] < -_TOL)
        if improving.size == 0:
            return
        col = int(improving[0])
        rows = np.flatnonzero(T[:-1, col] > _TOL)
        ratio = T[rows, -1] / T[rows, col]
        ties = rows[ratio <= ratio.min() + 1e-12]
        row = int(ties[np.argmin(basis[ties])])
        _pivot(T, row, col)
        basis[row] = col


def _row_systems(targets: np.ndarray, epsilon: float, d: int):
    """Square systems of d active rows, as (row indices, right-hand side).

    Row 0 is the simplex row, row 1 + i population i's band; at most one
    side of a band is active.  Order: with the simplex row first, then
    populations ascending, the upper side before the lower.
    """
    P = targets.size
    sides = (0.0,) if epsilon == 0 else (1.0, -1.0)
    for use_simplex in (True, False):
        need = d - use_simplex
        if not 0 <= need <= P:
            continue
        for pops in combinations(range(P), need):
            for signs in product(sides, repeat=need):
                idx = [0] * use_simplex + [1 + i for i in pops]
                rhs = [1.0] * use_simplex + [float(targets[i] + s * epsilon) for i, s in zip(pops, signs)]
                yield np.array(idx), np.array(rhs)


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

    Solved by a two-phase simplex with Bland's rule, which returns a basic
    optimal solution, so the support-size guarantee holds.  q is then
    re-solved on that support from the active rows, the simplex row first,
    then populations ascending, the upper band side first; the first system
    with the best objective wins.  Among equal-objective vertices (every
    supported cell of the same total density) the one Bland's rule reaches
    is returned.  Raises :class:`InfeasibleError` when Phase I cannot meet
    every row, naming the population with the largest band violation at
    the Phase I point (the lowest index on ties).
    """
    k = _require_int("k", k, 2)
    _require_finite(epsilon=epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
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

    # equality form over [q, band slacks]: one row per population at
    # epsilon = 0, else an upper and a lower band row, each with a slack
    if epsilon == 0:
        A, b = rows, np.concatenate([[1.0], targets])
    else:
        eye = np.eye(P)
        A = np.block([[rows[:1], np.zeros((1, 2 * P))], [ratios, eye, 0 * eye], [ratios, 0 * eye, -eye]])
        b = np.concatenate([[1.0], targets + epsilon, targets - epsilon])
    A = A * np.where(b < 0, -1.0, 1.0)[:, None]
    b = np.abs(b)
    R, N = A.shape

    # Phase I: one artificial per row, minimize their sum
    T = np.zeros((R + 1, N + R + 1))
    T[:R, :N] = A
    T[:R, N : N + R] = np.eye(R)
    T[:R, -1] = b
    T[-1, :N] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = np.arange(N, N + R)
    _bland(T, basis, N + R)
    if -T[-1, -1] > _TOL:
        q = np.zeros(N)
        q[basis[basis < N]] = T[:R, -1][basis < N]
        worst = int(np.argmax(np.abs(ratios @ q[:J] - targets) - epsilon))
        raise InfeasibleError(
            f"fairness constraints are infeasible; population {worst} cannot reach "
            f"its target proportion within epsilon={epsilon}",
            population=worst,
        )

    # an artificial still basic sits at zero: pivot it out, or drop its
    # redundant row (at epsilon = 0 the population rows sum to the simplex row)
    for i in np.flatnonzero(basis >= N):
        col = int(np.argmax(np.abs(T[i, :N])))
        if abs(T[i, col]) > _TOL:
            T[i, -1] = 0.0
            _pivot(T, i, col)
            basis[i] = col
    keep = np.flatnonzero(basis < N)
    T = np.vstack([T[keep][:, np.r_[:N, -1]], np.zeros(N + 1)])
    basis = basis[keep]

    # Phase II: the cost row over the cells, zero on the slacks
    c = np.zeros(N)
    c[:J] = costs
    T[-1, :N] = c
    T[-1] -= c[basis] @ T[:-1]
    _bland(T, basis, N)

    cells = basis < J
    S = np.sort(basis[cells & (T[:-1, -1] > _TOL)])
    best_obj, best_q = math.inf, None
    for row_idx, rhs in _row_systems(targets, epsilon, S.size):
        mat = rows[np.ix_(row_idx, S)]
        if abs(np.linalg.det(mat)) <= 1e-12:
            continue
        q_s = np.linalg.solve(mat, rhs)
        if np.any(q_s < -_TOL):
            continue
        q = np.zeros(J)
        q[S] = np.clip(q_s, 0.0, None)
        if abs(q.sum() - 1.0) > _TOL or np.max(np.abs(ratios @ q - targets)) - epsilon > _TOL:
            continue
        obj = float(costs @ q)
        if obj < best_obj - 1e-12:
            best_obj, best_q = obj, q
    if best_q is None:
        # an ill-conditioned support: every row system on it fails the
        # determinant filter, so keep the simplex's own basic solution
        best_q = np.zeros(J)
        best_q[basis[cells]] = np.clip(T[:-1, -1][cells], 0.0, None)
        best_obj = float(costs @ best_q)

    q_full = np.zeros(f.size)
    q_full[supported] = best_q
    support = tuple(np.flatnonzero(q_full > 1e-12).tolist())
    q_full.setflags(write=False)
    return FairnessMix(q_full, support, best_obj, epsilon)


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
    k = _require_int("k", k, 2)
    _require_count("n", len(ps), k)
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
    """Estimate per-cell service probabilities for a k-subset scheme.

    k is an integer of at least 2, n and trials are whole numbers (trials at
    least 1) and z is finite; anything else raises ``ValueError``.
    """
    k = _require_int("k", k, 2)
    n = _require_count("n", n)
    trials = _require_count("trials", trials, 1)
    _require_finite(z=z)
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
