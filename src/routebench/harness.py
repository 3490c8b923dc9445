"""Experiment harness: seeded Monte Carlo runs, rate fits, CSV/JSON reports.

Experiments are driven by a JSON-serializable config.  Every trial draws
its own random stream from a stable hash of (experiment, n, k, trial), so
reruns are byte-identical regardless of worker count or grid order.  Raw
trial values land in a fixed-schema CSV; a summary JSON carries means,
standard errors, log-log rate fits and pass/fail checks against the
configured thresholds.

Each experiment kind is one entry of ``_KINDS``: its trial function, its
summary checks, its default thresholds and config (with a k grid if it
takes one), the density type it samples, and optional steps that validate
a config and that run once before the trials.  Adding a kind means adding
one entry.  A config is checked against its entry when it is built, so an
unknown threshold key, a k the kind cannot run or a density spec of the
wrong type raises ``ValueError`` there, not inside a worker.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import os
import pickle
import traceback
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    GridDensity,
    PopulationGridDensity,
    RandomSeed,
    _brief,
    _require_count,
    density_from_json,
    sample_points,
    stable_stream,
)
from .fairness import FairnessMix, _require_targets, fair_ktsp_sample, fairness_lp
from .ktsp import _exact_budget, ktsp_exact, ktsp_grid_scheme, ktsp_rate, ktsp_tail_bound
from .trp import trp_apriori_scheme, trp_factor_check
from .tsp import strip_tour

__all__ = [
    "RateFit",
    "ExperimentConfig",
    "ExperimentReport",
    "fit_loglog_slope",
    "run_experiment",
    "default_config",
    "EXPERIMENT_KINDS",
]

CSV_COLUMNS = ("experiment", "n", "k", "trial", "seed", "value")


@dataclass(frozen=True)
class RateFit:
    """Ordinary least squares fit of log(value) against log(n)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "points": [list(p) for p in self.points],
        }


def fit_loglog_slope(samples: Sequence[tuple[float, float]]) -> RateFit:
    """Fit value ~ C * n^slope by least squares in log-log coordinates."""
    ns = np.array([s[0] for s in samples], dtype=np.float64)
    vals = np.array([s[1] for s in samples], dtype=np.float64)
    if not np.all(np.isfinite(ns) & np.isfinite(vals) & (ns > 0) & (vals > 0)):
        raise ValueError("log-log fit requires positive finite n and values")
    if len(set(ns.tolist())) < 2:  # np.unique would import numpy.ma
        raise ValueError("need at least two distinct n values")
    x = np.log(ns)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) @ (y - y.mean())))
    r2 = 1.0 if ss_tot == 0 and ss_res < 1e-18 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(r2), tuple(zip(x.tolist(), y.tolist())))


# ---------------------------------------------------------------------------
# Configuration

# each count of a config with its floor
_COUNTS = {"trials": 1, "master_seed": 0, "workers": 1, "alpha_points": 1}
_COUNT_TUPLES = {"n_grid": 1, "k_grid": 2}
# the fields that only some kinds read: those their _Kind.defaults name
_KIND_FIELDS = ("k_grid", "alpha_points", "targets", "epsilon")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run.

    Counts are coerced to int and ``epsilon`` and ``targets`` to float, so a
    config built in code hashes like the same config read back from its
    JSON.  A count that is not a whole number (``trials=2.5``) or is below
    its floor raises ``ValueError``; it is not truncated.  So does a
    ``master_seed`` that does not fit in 64 bits, a kind field (``k_grid``,
    ``alpha_points``, ``targets``, ``epsilon``) set on a kind that does not
    read it, or a ``density`` spec that does not parse or that the kind does
    not sample (a population spec for ``fairness-audit``, a grid one else).
    ``fairness-audit`` checks ``targets`` and ``epsilon`` as ``fairness_lp``
    does.
    """

    experiment: str
    density: dict
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int
    out_dir: str = "out"
    k_grid: tuple[int, ...] = ()
    workers: int = 1
    thresholds: dict = field(default_factory=dict)
    alpha_points: int = 20
    targets: tuple[float, ...] = ()
    epsilon: float = 0.0

    def __post_init__(self):
        kind = _kind(self.experiment)
        for name, least in _COUNTS.items():
            object.__setattr__(self, name, _require_count(name, getattr(self, name), least))
        for name, least in _COUNT_TUPLES.items():
            object.__setattr__(self, name, tuple(_require_count(name, v, least) for v in getattr(self, name)))
        RandomSeed(self.master_seed)  # a seed out of range fails here, not inside the first trial
        with contextlib.suppress(TypeError):  # not a sequence: the kind's check names it
            object.__setattr__(self, "targets", tuple(self.targets))
        for f in fields(self):
            if f.name in _KIND_FIELDS and f.name not in kind.defaults and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.experiment} takes no {f.name}, got {_brief(getattr(self, f.name))}")
        unknown = sorted(set(self.thresholds) - set(kind.thresholds))
        if unknown:
            raise ValueError(f"unknown {self.experiment} thresholds {unknown}; known: {sorted(kind.thresholds)}")
        object.__setattr__(self, "thresholds", {**kind.thresholds, **self.thresholds})
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        density = density_from_json(self.density)
        if not isinstance(density, kind.density):
            raise ValueError(f"{self.experiment} needs a {kind.density.__name__} spec, got a {type(density).__name__}")
        if "k_grid" in kind.defaults and not self.k_grid:
            raise ValueError(f"{self.experiment} needs a k grid")
        if self.k_grid and max(self.k_grid) > min(self.n_grid):
            raise ValueError(f"every k must be at most min(n_grid) = {min(self.n_grid)}, got {self.k_grid}")
        if kind.validate is not None:
            kind.validate(self, density)
        object.__setattr__(self, "targets", tuple(map(float, self.targets)))  # checked: finite reals
        object.__setattr__(self, "epsilon", float(self.epsilon))

    def canonical(self) -> dict:
        """Every field but ``out_dir`` as JSON values, tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}

    def config_hash(self) -> str:
        # workers and out_dir must not change results, so hash neither
        payload = {key: val for key, val in self.canonical().items() if key != "workers"}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_json(cls, obj: dict | str) -> "ExperimentConfig":
        """Config from a JSON object; absent optional fields take their defaults."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})


def default_config(kind: str, master_seed: int = 20240901, out_dir: str = "out", workers: int = 1) -> ExperimentConfig:
    """Config with the documented default grids and thresholds per kind."""
    defaults = copy.deepcopy(_kind(kind).defaults)
    return ExperimentConfig(kind, master_seed=master_seed, out_dir=out_dir, workers=workers, **defaults)


# ---------------------------------------------------------------------------
# Experiment kinds
#
# A trial function maps (density, n, k, seed, context) to (label suffix,
# value) pairs, one CSV row each under the label kind + suffix; k is 0 for
# kinds without a k grid.  A checks function appends to the lists
# summary["fits"] and summary["checks"].  Both call library functions
# through this module's names, so a tracer can wrap them here.


def _check(name: str, ok, detail: str) -> dict:
    return {"name": name, "passed": bool(ok), "detail": detail}


def _ktsp_rate_trial(density, n, k, seed, _context):
    ps = sample_points(density, n, seed)
    return [("", ktsp_grid_scheme(ps, k).length), ("-baseline", strip_tour(ps).length)]


def _ktsp_rate_checks(cfg, density, stats, _context, summary):
    kind, th, checks = cfg.experiment, cfg.thresholds, summary["checks"]
    for cell in summary["cells"]:
        if cell["experiment"] == kind:
            # measured multiplicative constant of the growth law, reported not asserted
            cell["rate_constant"] = cell["mean"] / ktsp_rate(cell["k"], cell["n"], density.square.area)
    fittable = len(set(cfg.n_grid)) >= 2  # a slope needs two n values
    for k in cfg.k_grid if fittable else ():
        fit = fit_loglog_slope([(n, stats[(kind, n, k)]["mean"]) for n in cfg.n_grid])
        target = -0.5 * (1.0 + 1.0 / (k - 1))
        summary["fits"].append({"k": k, **fit.to_json()})
        ok = abs(fit.slope - target) <= th["slope_tol"]
        detail = f"slope {fit.slope:.4f} vs target {target:.4f} +/- {th['slope_tol']}"
        checks.append(_check(f"slope-k{k}", ok, detail))
    k_max, n_max = max(cfg.k_grid), max(cfg.n_grid)
    scheme_mean = stats[(kind, n_max, k_max)]["mean"]
    naive_mean = stats[(kind + "-baseline", n_max, k_max)]["mean"] * (k_max - 1) / n_max
    ok = scheme_mean < th["naive_factor"] * naive_mean
    detail = f"scheme {scheme_mean:.6f} vs {th['naive_factor']} * naive {naive_mean:.6f}"
    checks.append(_check(f"beats-naive-k{k_max}-n{n_max}", ok, detail))


def _trp_rate_trial(density, n, _k, seed, _context):
    return [("", trp_apriori_scheme(sample_points(density, n, seed), density).latency)]


def _trp_rate_checks(cfg, _density, stats, _context, summary):
    if len(set(cfg.n_grid)) < 2:  # a slope needs two n values
        return
    th = cfg.thresholds
    fit = fit_loglog_slope([(n, stats[(cfg.experiment, n, 0)]["mean"]) for n in cfg.n_grid])
    summary["fits"].append(fit.to_json())
    ok = th["slope_min"] <= fit.slope <= th["slope_max"]
    detail = f"slope {fit.slope:.4f} within [{th['slope_min']}, {th['slope_max']}]"
    summary["checks"].append(_check("latency-slope", ok, detail))


def _trp_factor_trial(density, n, _k, seed, _context):
    return [("", trp_factor_check(sample_points(density, n, seed), density))]


def _trp_factor_checks(cfg, _density, stats, _context, summary):
    th = cfg.thresholds
    for n in cfg.n_grid:
        frac = float(np.mean(stats[(cfg.experiment, n, 0)]["values"] <= th["ratio_max"]))
        detail = f"{frac:.3f} of trials <= {th['ratio_max']} (need {th['min_fraction']})"
        summary["checks"].append(_check(f"factor-n{n}", frac >= th["min_fraction"], detail))


def _tail_trial(density, n, k, seed, _context):
    return [("", ktsp_exact(sample_points(density, n, seed), k).length)]


def _tail_validate(cfg, _density):
    for k in cfg.k_grid:  # its trials run ktsp_exact
        _exact_budget(max(cfg.n_grid), k)


def _tail_alpha_grid(k: int, n: int, area: float, points: int) -> np.ndarray:
    # span the transition of the analytic bound: alpha_1 solves bound == 1
    log_alpha1 = 0.5 * (
        math.log(area / (2 * math.pi)) + (math.lgamma(2 * k - 1) - k * math.log(n)) / (k - 1)
    )
    return np.linspace(0.0, 1.5 * math.exp(log_alpha1), points)


def _tail_checks(cfg, density, stats, _context, summary):
    area, mult = density.square.area, cfg.thresholds["se_multiplier"]
    for n in cfg.n_grid:
        for k in cfg.k_grid:
            values = stats[(cfg.experiment, n, k)]["values"]
            curve = []
            violations = 0
            for alpha in _tail_alpha_grid(k, n, area, cfg.alpha_points):
                emp = float(np.mean(values <= alpha))
                se = math.sqrt(emp * (1 - emp) / values.size)
                bound = ktsp_tail_bound(k, n, area, float(alpha))
                violations += emp > bound + mult * se
                curve.append({"alpha": float(alpha), "empirical": emp, "bound": bound, "stderr": se})
            summary["fits"].append({"k": k, "n": n, "curve": curve})
            detail = f"{violations} violations over {cfg.alpha_points} grid points"
            summary["checks"].append(_check(f"dominance-k{k}-n{n}", violations == 0, detail))


def _fairness_validate(cfg, pop):
    if len(cfg.k_grid) != 1:
        raise ValueError(f"fairness-audit solves its mix for one k, got k_grid {cfg.k_grid}")
    _require_targets("targets", _fairness_targets(cfg, pop), cfg.epsilon, pop.populations)


def _fairness_targets(cfg, pop) -> tuple[float, ...]:
    if isinstance(cfg.targets, tuple) and not cfg.targets:  # the default: population shares
        return tuple(pop.population_shares())
    return cfg.targets  # anything else, a falsy scalar too, is checked as given


def _fairness_prepare(cfg, density) -> FairnessMix:
    return fairness_lp(density, cfg.k_grid[0], _fairness_targets(cfg, density), cfg.epsilon)


def _fairness_trial(pop, n, k, seed, mix):
    ps = sample_points(pop.total, n, seed.child("sample"))
    result = fair_ktsp_sample(pop, mix, ps, k, seed.child("route"))
    return [(f"-pop{i}", count / k) for i, count in enumerate(result.served_counts)]


def _fairness_checks(cfg, pop, stats, mix, summary):
    mult, k = cfg.thresholds["se_multiplier"], cfg.k_grid[0]
    for n in cfg.n_grid:
        for i, target in enumerate(_fairness_targets(cfg, pop)):
            s = stats[(f"{cfg.experiment}-pop{i}", n, k)]
            se = max(s["stderr"], 1e-12)
            ok = abs(s["mean"] - target) <= mult * se
            detail = f"mean {s['mean']:.4f} vs target {target:.4f} +/- {mult}*{se:.5f}"
            summary["checks"].append(_check(f"served-fraction-pop{i}-n{n}", ok, detail))
    summary["fits"].append({"mix_q": [float(v) for v in mix.q], "support": list(mix.support)})


@dataclass(frozen=True)
class _Kind:
    """Everything the harness knows about one experiment kind."""

    trial: Callable  # (density, n, k, seed, context) -> [(label suffix, value), ...]
    checks: Callable  # (cfg, density, stats, context, summary): appends fits and checks
    thresholds: dict  # default thresholds, also the only keys a config may set
    defaults: dict  # ExperimentConfig fields of default_config; a kind reads the _KIND_FIELDS they set
    density: type = GridDensity  # the density type its trials sample
    validate: Callable | None = None  # (cfg, density): ValueError for a config the kind cannot run
    prepare: Callable | None = None  # (cfg, density) -> context, once per run, passed to each trial


_KINDS: dict[str, _Kind] = {
    "ktsp-rate": _Kind(
        _ktsp_rate_trial, _ktsp_rate_checks, {"slope_tol": 0.10, "naive_factor": 0.8},
        dict(density={"kind": "uniform", "m": 1}, n_grid=(100, 200, 400, 800, 1600), trials=500, k_grid=(2, 3, 5)),
    ),
    "trp-rate": _Kind(
        _trp_rate_trial, _trp_rate_checks, {"slope_min": 1.4, "slope_max": 1.6},
        # m = 2 keeps m**2 << n over the whole grid; larger m adds enough
        # constant link length to drag the desk-scale slope toward 1.4
        dict(density={"kind": "uniform", "m": 2}, n_grid=(250, 500, 1000, 2000), trials=200),
    ),
    "tail-dominance": _Kind(
        _tail_trial, _tail_checks, {"se_multiplier": 3.0},
        dict(density={"kind": "uniform", "m": 1}, n_grid=(50,), trials=10_000, k_grid=(2, 3), alpha_points=20),
        validate=_tail_validate,
    ),
    "fairness-audit": _Kind(
        _fairness_trial, _fairness_checks, {"se_multiplier": 3.0},
        dict(
            density={
                "kind": "population",
                "m": 2,
                "layers": [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
                "square": {"origin": [0.0, 0.0], "side": 1.0},
            },
            n_grid=(400,), trials=10_000, k_grid=(4,), targets=(0.5, 0.5), epsilon=0.0,
        ),
        density=PopulationGridDensity, validate=_fairness_validate, prepare=_fairness_prepare,
    ),
    "trp-factor": _Kind(
        _trp_factor_trial, _trp_factor_checks, {"ratio_max": 2.5, "min_fraction": 0.95},
        dict(density={"kind": "uniform", "m": 8}, n_grid=(2000,), trials=200),
    ),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise ValueError(f"unknown experiment kind {name!r}")
    return _KINDS[name]


# ---------------------------------------------------------------------------
# Trial execution


def _run_trial(payload) -> list[tuple[str, int, int, int, int, float]]:
    """One Monte Carlo trial; returns rows (label, n, k, trial, seed, value)."""
    kind, density, n, k, trial, master_seed, context = payload
    stream = stable_stream(kind, n, k, trial)
    pairs = _KINDS[kind].trial(density, n, k, RandomSeed._of(master_seed, stream), context)  # the config checked the seed
    return [(kind + suffix, n, k, trial, stream, value) for suffix, value in pairs]


def _run_share(payloads) -> list[tuple[str, int, int, int, int, float]]:
    return [row for payload in payloads for row in _run_trial(payload)]


def _share_child(payloads, conn) -> None:
    """Run one share in a child process and send its rows, or its error, once."""
    try:
        message = (True, _run_share(payloads))
    except BaseException as exc:  # every failure goes back to the caller
        cause = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # it does not survive pickling
            exc = RuntimeError(repr(exc))
        message = (False, (exc, cause))
    conn.send(message)
    conn.close()


def _run_shares(payloads, workers: int) -> list[tuple[str, int, int, int, int, float]]:
    """Rows of all payloads, run in ``workers`` processes, the caller one of them.

    Payload i runs in share i mod ``workers``.  The caller runs share 0; each
    other nonempty share runs in one child process, which gets its share as
    process arguments and sends all its rows back once through a pipe.
    Every child is joined before this returns or raises, and when a share
    fails, the children still running are terminated first.
    """
    import multiprocessing  # only multi-worker runs pay its import

    children = []
    try:
        for i in range(1, min(workers, len(payloads))):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_share_child, args=(payloads[i::workers], send), name=f"share-{i}")
            child.start()
            send.close()  # the child holds the only write end, so its exit ends the pipe
            children.append((child, recv))
        rows = _run_share(payloads[::workers])
        for child, recv in children:
            try:
                ok, result = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"{child.name} exited with code {child.exitcode} before sending its rows") from None
            if not ok:
                exc, cause = result
                raise exc from RuntimeError(f"in {child.name}:\n{cause}")
            rows += result
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return rows


@dataclass(frozen=True)
class ExperimentReport:
    csv_path: str
    summary_path: str
    summary: dict
    passed: bool


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials of an experiment and emit CSV + JSON reports.

    Deterministic for a fixed config: per-trial streams are keyed by
    (experiment, n, k, trial), results are sorted before writing, and the
    worker count affects wall time only.
    """
    cfg = replace(cfg)  # runs the checks again: its density and thresholds dicts may have changed
    density = density_from_json(cfg.density)
    prepare = _KINDS[cfg.experiment].prepare
    context = prepare(cfg, density) if prepare is not None else None

    payloads = [
        (cfg.experiment, density, n, k, trial, cfg.master_seed, context)
        for n in cfg.n_grid
        for k in cfg.k_grid or (0,)
        for trial in range(cfg.trials)
    ]

    rows = sorted(_run_shares(payloads, cfg.workers) if cfg.workers > 1 else _run_share(payloads))

    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for label, n, k, trial, stream, value in rows:
            fh.write(f"{label},{n},{k},{trial},{stream},{value:.17g}\n")

    summary = _summarize(cfg, density, rows, context)
    summary_path = os.path.join(cfg.out_dir, f"{cfg.experiment}_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ExperimentReport(csv_path, summary_path, summary, summary["passed"])


# ---------------------------------------------------------------------------
# Summaries and threshold checks


def _group_stats(rows) -> dict[tuple[str, int, int], dict]:
    groups: dict[tuple[str, int, int], list[float]] = {}
    for label, n, k, _trial, _stream, value in rows:
        groups.setdefault((label, n, k), []).append(value)
    stats = {}
    for key, values in groups.items():
        arr = np.array(values)
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        stats[key] = {"mean": float(arr.mean()), "stderr": stderr, "trials": int(arr.size), "values": arr}
    return stats


def _summarize(cfg: ExperimentConfig, density, rows, context) -> dict:
    stats = _group_stats(rows)
    summary = {
        "experiment": cfg.experiment,
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.master_seed,
        "cells": [
            {"experiment": label, "n": n, "k": k, "mean": s["mean"], "stderr": s["stderr"], "trials": s["trials"]}
            for (label, n, k), s in sorted(stats.items())
        ],
        "fits": [],
        "checks": [],
    }
    _KINDS[cfg.experiment].checks(cfg, density, stats, context, summary)
    summary["passed"] = all(c["passed"] for c in summary["checks"])
    return summary
