"""Probabilistic routing toolkit: subset tours, latency schemes, fairness.

The package provides constructive approximation schemes for two routing
problems on random planar points: the shortest open path through k of n
points, and the minimum-total-latency service order over all n points.
Each scheme ships with exact small-instance oracles, analytic rate and
tail-bound evaluators, fairness tooling, fleet/dispatch calculators, and a
deterministic Monte Carlo experiment harness.

The public names are those each module lists in its ``__all__``, plus the
two error types.
"""

from . import core, fairness, harness, ktsp, logistics, trp, tsp
from .core import *  # noqa: F403
from .errors import CapacityError, InfeasibleError
from .fairness import *  # noqa: F403
from .harness import *  # noqa: F403
from .ktsp import *  # noqa: F403
from .logistics import *  # noqa: F403
from .trp import *  # noqa: F403
from .tsp import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["CapacityError", "InfeasibleError"] + [
    name for module in (core, fairness, harness, ktsp, logistics, trp, tsp) for name in module.__all__
]
