"""One finite-real rule at every public entry point, and the config refusals made at build time.

Each real argument is listed once with its bound.  NaN, infinity, a
numeric string, a Decimal and a value just past the bound must each raise
``ValueError`` whose message starts with the argument's name.
"""

import dataclasses
import math
import re
from decimal import Decimal

import pytest

from routebench import (
    EXPERIMENT_KINDS,
    GridDensity,
    PopulationGridDensity,
    RandomSeed,
    Square,
    WeightedSubpath,
    default_config,
    density_from_json,
    fairness_lp,
    fleet_size_trp,
    geographic_service_map,
    ktsp_rate,
    ktsp_tail_bound,
    random_subset_scheme,
    sdd_dispatch_trp,
    sdd_dispatch_tsp,
)
from routebench.core import _require_real

SEGREGATED = PopulationGridDensity(2, [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
FAIR = default_config("fairness-audit")

# (entry point, argument as the message names it, bound, call with the argument set to v)
REALS = [
    ("Square", "square side", "positive", lambda v: Square((0.0, 0.0), v)),
    ("density_from_json", "density spec 'square.side'", "positive",
     lambda v: density_from_json({"kind": "uniform", "square": {"origin": [0, 0], "side": v}})),
    ("ktsp_rate", "area", "positive", lambda v: ktsp_rate(3, 10, v)),
    ("ktsp_tail_bound", "area", "positive", lambda v: ktsp_tail_bound(3, 10, v, 0.1)),
    ("ktsp_tail_bound", "threshold", "nonnegative", lambda v: ktsp_tail_bound(3, 10, 1.0, v)),
    ("WeightedSubpath", "density", "positive", lambda v: WeightedSubpath(1, v)),
    ("fairness_lp", "epsilon", "nonnegative", lambda v: fairness_lp(SEGREGATED, 2, [0.5, 0.5], v)),
    ("fairness_lp", "p[0]", "nonnegative", lambda v: fairness_lp(SEGREGATED, 2, [v, 0.5])),
    ("fairness_lp", "p[1]", "nonnegative", lambda v: fairness_lp(SEGREGATED, 2, [0.5, v])),
    ("geographic_service_map", "z", "nonnegative",
     lambda v: geographic_service_map(random_subset_scheme, GridDensity.uniform(1), 2, 4, 1, RandomSeed(1), z=v)),
    ("fleet_size_trp", "c", "positive", lambda v: fleet_size_trp(v, 1.0, 10)),
    ("fleet_size_trp", "w", "positive", lambda v: fleet_size_trp(1.0, v, 10)),
    ("fleet_size_trp", "b", "nonnegative", lambda v: fleet_size_trp(1.0, 1.0, 10, v)),
    ("sdd_dispatch_tsp", "lam", "positive", lambda v: sdd_dispatch_tsp(v, 1.0, 6.0, 3)),
    ("sdd_dispatch_tsp", "a", "nonnegative", lambda v: sdd_dispatch_tsp(1.0, v, 6.0, 3)),
    ("sdd_dispatch_tsp", "T", "positive", lambda v: sdd_dispatch_tsp(1.0, 1.0, v, 3)),
    ("sdd_dispatch_tsp", "T_cutoff", "nonnegative", lambda v: sdd_dispatch_tsp(1.0, 1.0, 6.0, 3, v)),
    ("sdd_dispatch_trp", "lam", "positive", lambda v: sdd_dispatch_trp(v, 1.0, 100.0, 4, 15.0)),
    ("sdd_dispatch_trp", "a", "nonnegative", lambda v: sdd_dispatch_trp(10.0, v, 100.0, 4, 15.0)),
    ("sdd_dispatch_trp", "N", "positive", lambda v: sdd_dispatch_trp(10.0, 1.0, v, 4, 15.0)),
    ("sdd_dispatch_trp", "T", "positive", lambda v: sdd_dispatch_trp(10.0, 1.0, 100.0, 4, v)),
    ("ExperimentConfig", "epsilon", "nonnegative", lambda v: dataclasses.replace(FAIR, epsilon=v)),
    ("ExperimentConfig", "targets[0]", "nonnegative", lambda v: dataclasses.replace(FAIR, targets=(v, 0.5))),
]

# the largest value each bound rejects
PAST = {"positive": 0.0, "nonnegative": -5e-324}


def test_real_arguments_follow_one_rule():
    # fleet_size_trp and both dispatch calculators named no argument for a
    # value past its bound, and fairness_lp read the target "0.5" as 0.5
    wrong = []
    for entry, name, bound, call in REALS:
        for value in (math.nan, math.inf, "0.5", Decimal("1"), PAST[bound]):
            rule = bound if value == PAST[bound] else "finite"
            try:
                call(value)
                outcome = "no error"
            except ValueError as exc:
                outcome = None if re.match(f"{re.escape(name)} must be {rule}, got ", str(exc)) else repr(exc)
            if outcome:
                wrong.append(f"{entry}({name}={value!r}): {outcome}")
    assert not wrong, "\n".join(wrong)


def test_dispatch_cutoff_past_the_deadline_named():
    with pytest.raises(ValueError, match="^T_cutoff cannot exceed the deadline T"):
        sdd_dispatch_tsp(1.0, 1.0, 6.0, 3, 6.5)


@pytest.mark.parametrize(
    "targets, message",
    [
        ((0.7, 0.7), "targets must sum to 1"),
        ((0.5, 0.25, 0.25), "targets must hold 2 target proportions"),
        (0.5, "targets must hold 2 target proportions"),
        (0, "targets must hold 2 target proportions"),
        (None, "targets must hold 2 target proportions"),
    ],
    ids=["sum", "count", "scalar", "zero", "none"],
)
def test_fairness_targets_checked_at_build(targets, message):
    # used to build, then fail inside run_experiment (or raise TypeError)
    with pytest.raises(ValueError, match=f"^{message}"):
        dataclasses.replace(FAIR, targets=targets)


@pytest.mark.parametrize("p", [{"a": 0.5, "b": 0.5}, 0.5], ids=["dict", "scalar"])
def test_fairness_lp_targets_not_a_sequence(p):
    # used to raise TypeError from numpy
    with pytest.raises(ValueError, match=r"^p(\[0\] must be finite| must hold 2)"):
        fairness_lp(SEGREGATED, 2, p)


@pytest.mark.parametrize(
    "kind, change, message",
    [
        ("trp-factor", {"n_grid": (0,)}, "n_grid must be at least 1, got 0"),
        ("ktsp-rate", {"n_grid": (100, 0)}, "n_grid must be at least 1, got 0"),
        ("ktsp-rate", {"k_grid": (1, 3)}, "k_grid must be at least 2, got 1"),
        ("ktsp-rate", {"trials": 0}, "trials must be at least 1, got 0"),
        ("ktsp-rate", {"workers": 0}, "workers must be at least 1, got 0"),
        ("tail-dominance", {"alpha_points": 0}, "alpha_points must be at least 1, got 0"),
    ],
)
def test_config_floors_follow_the_count_rule(kind, change, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(default_config(kind), **change)


# the kind fields each kind reads; it refuses the others unless they keep their defaults
READS = {
    "ktsp-rate": {"k_grid"},
    "trp-rate": set(),
    "tail-dominance": {"k_grid", "alpha_points"},
    "fairness-audit": {"k_grid", "targets", "epsilon"},
    "trp-factor": set(),
}
CHANGED = {"k_grid": (2,), "alpha_points": 5, "targets": (0.5, 0.5), "epsilon": 0.1}
DEFAULT_ALIKE = {"k_grid": [], "alpha_points": 20.0, "targets": [], "epsilon": 0}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_unread_kind_fields_refused(kind):
    # epsilon=-0.1 on trp-rate used to build, run, and change the config hash
    cfg = default_config(kind)
    unread = [name for name in CHANGED if name not in READS[kind]]
    for name in unread:
        with pytest.raises(ValueError, match=f"^{kind} takes no {name}, got "):
            dataclasses.replace(cfg, **{name: CHANGED[name]})
    # values equal to the defaults (as JSON reads them back) are the defaults
    same = dataclasses.replace(cfg, **{name: DEFAULT_ALIKE[name] for name in unread})
    assert same.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("sign", ["postive", "negative", None])
def test_unknown_sign_rejected(sign):
    # a misspelt bound must not check "nonnegative" under another name
    with pytest.raises(ValueError, match="^sign must be"):
        _require_real("x", 1.0, sign)
