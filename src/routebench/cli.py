"""Command-line interface.

Subcommands mirror the library surface: ``sample`` draws points from a
density, ``tsp``/``ktsp``/``trp`` run the tour constructions on a point
CSV, ``fairness`` solves the population mixture, ``dispatch`` evaluates
the logistics calculators, and ``experiment`` runs a Monte Carlo config.

Exit codes: 0 on success, 2 when an experiment fails its acceptance
thresholds, 1 on any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .core import PopulationGridDensity, RandomSeed, density_from_json, load_points_csv, sample_points, save_points_csv
from .fairness import deterministic_fairness_ratio, fair_ktsp_sample, fairness_lp
from .harness import EXPERIMENT_KINDS, ExperimentConfig, default_config, run_experiment
from .ktsp import ktsp_exact, ktsp_grid_scheme, ktsp_nonuniform_scheme
from .logistics import fleet_size_trp, sdd_dispatch_trp, sdd_dispatch_tsp
from .trp import trp_apriori_scheme, trp_exact
from .tsp import strip_tour, strip_two_opt, tsp_exact


def _load_density(path: str):
    with open(path) as fh:
        return density_from_json(fh.read())


def _load_grid_density(path: str | None):
    """The density of a JSON file, the total of a population one; None without a path."""
    density = _load_density(path) if path else None
    return density.total if isinstance(density, PopulationGridDensity) else density


def _emit(obj: dict, args) -> None:
    out = json.dumps(obj, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _cmd_sample(args) -> int:
    ps = sample_points(_load_grid_density(args.density), args.n, RandomSeed(args.seed))
    if args.format == "json":
        _emit({"points": [[float(x), float(y)] for x, y in ps.coords]}, args)
    else:
        save_points_csv(ps, args.out or "/dev/stdout")
    return 0


def _cmd_tsp(args) -> int:
    solve = {"strip": strip_tour, "2opt": strip_two_opt, "exact": tsp_exact}[args.method]
    result = solve(load_points_csv(args.points))
    out = {"length": result.length, "method": result.method, "order": list(result.route.order)}
    _emit({**out, "moves": result.moves, "cap_hit": result.cap_hit}, args)  # 0 and false but for 2opt
    return 0


def _cmd_ktsp(args) -> int:
    density = _load_grid_density(args.density)
    ps = load_points_csv(args.points, density.square if density is not None else None)
    if args.method == "grid":
        result = ktsp_grid_scheme(ps, args.k)
    elif args.method == "nonuniform":
        if density is None:
            raise ValueError("the nonuniform scheme needs --density")
        result = ktsp_nonuniform_scheme(ps, density, args.k)
    else:
        result = ktsp_exact(ps, args.k)
    _emit(result.to_json(), args)
    return 0


def _cmd_trp(args) -> int:
    density = _load_grid_density(args.density)
    ps = load_points_csv(args.points, density.square if density is not None else None)
    if args.method == "apriori":
        if density is None:
            raise ValueError("the a priori scheme needs --density")
        result = trp_apriori_scheme(ps, density)
    else:
        result = trp_exact(ps)
    _emit(result.to_json(), args)
    return 0


def _cmd_fairness(args) -> int:
    pop = _load_density(args.population)
    if not isinstance(pop, PopulationGridDensity):
        raise ValueError("fairness needs a population density JSON with layers")
    if args.deterministic_ratio:
        _emit({"deterministic_fairness_ratio": deterministic_fairness_ratio(pop)}, args)
        return 0
    targets = [float(t) for t in args.targets.split(",")] if args.targets else list(pop.population_shares())
    mix = fairness_lp(pop, args.k, targets, args.epsilon)
    out = mix.to_json()
    if args.sample_from:
        ps = load_points_csv(args.sample_from, pop.square)
        result = fair_ktsp_sample(pop, mix, ps, args.k, RandomSeed(args.seed))
        out["sample"] = {
            **result.to_json(),
            "cell_sampled": result.density_cell,
            "served_counts": list(result.served_counts),
            "augmented_cells": list(result.augmented_cells),
        }
    _emit(out, args)
    return 0


def _cmd_dispatch(args) -> int:
    if args.params:
        with open(args.params) as fh:
            params = json.load(fh)
    else:
        params = {}
    get = lambda key, fallback: params.get(key, fallback)
    if args.mode == "fleet":
        result = fleet_size_trp(get("c", args.c), get("w", args.w), get("N", args.N), get("b", args.b))
        _emit({"m_real": result.m_real, "m_int": result.m_int, "cost": result.cost}, args)
        return 0
    if args.mode == "tsp":
        plan = sdd_dispatch_tsp(
            get("lambda", args.lam), get("a", args.a), get("T", args.T),
            get("m", args.m), get("T_cutoff", args.T_cutoff),
        )
    else:
        plan = sdd_dispatch_trp(
            get("lambda", args.lam), get("a", args.a), get("N", args.N),
            get("m", args.m), get("T", args.T),
        )
    _emit(plan.to_json(), args)
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    elif args.kind:
        cfg = default_config(args.kind)
    else:
        raise ValueError("provide --config or --kind")
    overrides = {"out_dir": args.out or None, "workers": args.workers, "master_seed": args.seed}
    cfg = dataclasses.replace(cfg, **{key: val for key, val in overrides.items() if val is not None})
    report = run_experiment(cfg)
    for check in report.summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")
    print(f"csv: {report.csv_path}")
    print(f"summary: {report.summary_path}")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routebench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"routebench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw points from a density JSON into a CSV")
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("tsp", help="closed tour over a point CSV")
    p.add_argument("--points", required=True)
    p.add_argument("--method", choices=("strip", "2opt", "exact"), default="2opt")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tsp)

    p = sub.add_parser("ktsp", help="open path through k points")
    p.add_argument("--points", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("grid", "nonuniform", "exact"), default="grid")
    p.add_argument("--density")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ktsp)

    p = sub.add_parser("trp", help="latency-minimizing service order")
    p.add_argument("--points", required=True)
    p.add_argument("--method", choices=("apriori", "exact"), default="apriori")
    p.add_argument("--density")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trp)

    p = sub.add_parser("fairness", help="population fairness mixture and sampler")
    p.add_argument("--population", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--targets", help="comma-separated target proportions")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--deterministic-ratio", action="store_true")
    p.add_argument("--sample-from", help="point CSV to route a fair sample on")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("dispatch", help="fleet sizing and dispatch calculators")
    p.add_argument("--mode", choices=("tsp", "trp", "fleet"), required=True)
    p.add_argument("--params", help="JSON file with lambda, a, T, T_cutoff, m, N, c, w, b")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--T-cutoff", dest="T_cutoff", type=float, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--N", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dispatch)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--kind", choices=EXPERIMENT_KINDS, help="run a built-in default config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface errors with a stable exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
