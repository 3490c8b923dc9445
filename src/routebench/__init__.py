"""Probabilistic routing toolkit: subset tours, latency schemes, fairness.

The package provides constructive approximation schemes for two routing
problems on random planar points: the shortest open path through k of n
points, and the minimum-total-latency service order over all n points.
Each scheme ships with exact small-instance oracles, analytic rate and
tail-bound evaluators, fairness tooling, fleet/dispatch calculators, and a
deterministic Monte Carlo experiment harness.
"""

from .core import (
    BETA_TSP_BRACKET,
    GridDensity,
    Point,
    PointSet,
    RandomSeed,
    Route,
    Square,
    UNIT_SQUARE,
    density_from_json,
    density_to_json,
    last_latency,
    latency_growth_constant,
    load_points_csv,
    route_length,
    sample_points,
    save_points_csv,
    total_latency,
)
from .errors import CapacityError, InfeasibleError
from .fairness import (
    FairKtspResult,
    FairnessMix,
    PopulationGridDensity,
    ServiceMap,
    deterministic_fairness_ratio,
    fair_ktsp_sample,
    fairness_lp,
    geographic_service_map,
    nonuniform_scheme_handle,
    random_subset_scheme,
)
from .harness import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ExperimentReport,
    RateFit,
    default_config,
    fit_loglog_slope,
    run_experiment,
)
from .ktsp import (
    KtspResult,
    ktsp_exact,
    ktsp_grid_scheme,
    ktsp_nonuniform_scheme,
    ktsp_rate,
    ktsp_tail_bound,
)
from .logistics import (
    DispatchPlan,
    FleetSize,
    fleet_size_trp,
    sdd_dispatch_trp,
    sdd_dispatch_tsp,
)
from .trp import (
    TrpResult,
    WeightedSubpath,
    optimal_subpath_order,
    subpath_objective,
    trp_apriori_scheme,
    trp_exact,
    trp_factor_check,
)
from .tsp import TspResult, strip_tour, strip_two_opt, tsp_exact, two_opt

__version__ = "0.1.0"

__all__ = [
    "BETA_TSP_BRACKET",
    "CapacityError",
    "DispatchPlan",
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "ExperimentReport",
    "FairKtspResult",
    "FairnessMix",
    "FleetSize",
    "GridDensity",
    "InfeasibleError",
    "KtspResult",
    "Point",
    "PointSet",
    "PopulationGridDensity",
    "RandomSeed",
    "RateFit",
    "Route",
    "ServiceMap",
    "Square",
    "TrpResult",
    "TspResult",
    "UNIT_SQUARE",
    "WeightedSubpath",
    "default_config",
    "density_from_json",
    "density_to_json",
    "deterministic_fairness_ratio",
    "fair_ktsp_sample",
    "fairness_lp",
    "fit_loglog_slope",
    "fleet_size_trp",
    "geographic_service_map",
    "ktsp_exact",
    "ktsp_grid_scheme",
    "ktsp_nonuniform_scheme",
    "ktsp_rate",
    "ktsp_tail_bound",
    "last_latency",
    "latency_growth_constant",
    "load_points_csv",
    "nonuniform_scheme_handle",
    "optimal_subpath_order",
    "random_subset_scheme",
    "route_length",
    "run_experiment",
    "sample_points",
    "save_points_csv",
    "sdd_dispatch_trp",
    "sdd_dispatch_tsp",
    "strip_tour",
    "strip_two_opt",
    "subpath_objective",
    "total_latency",
    "trp_apriori_scheme",
    "trp_exact",
    "trp_factor_check",
    "tsp_exact",
    "two_opt",
]
