"""Fleet sizing and same-day-delivery dispatch under travel vs. wait costs.

Closed-form design calculators for the fluid model: travel-cost objectives
(square-root economies of scale) favour consolidating orders on few
vehicles, while wait-cost objectives (n*sqrt(n) diseconomies) favour
spreading orders over a fleet that grows with demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _require_count, _require_finite

__all__ = ["DispatchPlan", "FleetSize", "fleet_size_trp", "sdd_dispatch_tsp", "sdd_dispatch_trp"]

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class DispatchPlan:
    """Vehicle release schedule: nondecreasing times with per-vehicle loads.

    ``slack`` is the margin of the binding feasibility condition (negative
    when infeasible).  ``failing_index`` marks the first dispatch step with
    no valid solution, when the recursion breaks down mid-sequence.
    """

    dispatch_times: tuple[float, ...]
    loads: tuple[float, ...]
    feasible: bool
    slack: float
    failing_index: int | None = None

    def to_json(self) -> dict:
        out = {
            "dispatch_times": list(self.dispatch_times),
            "loads": list(self.loads),
            "feasible": self.feasible,
            "slack": self.slack,
        }
        if self.failing_index is not None:
            out["failing_index"] = self.failing_index
        return out


@dataclass(frozen=True)
class FleetSize:
    """Continuous and integer optimizers of the fleet-cost objective."""

    m_real: float | None
    m_int: int
    cost: float


def _trp_cost(m: float, c: float, w: float, N: float, b: float) -> float:
    per = N / m
    return c * m + b * per * per + w * per * math.sqrt(per)


def fleet_size_trp(c: float, w: float, N: int, b: float = 0.0) -> FleetSize:
    """Fleet size minimizing c*m + w*(N/m)^(3/2) (plus optional b*(N/m)^2).

    With b = 0 the continuous optimum is (3w/(2c))^(2/5) * N^(3/5) and the
    integer optimum is the better of its floor and ceiling; with a batching
    term b > 0 there is no closed form and the integers are scanned.
    """
    _require_finite(c=c, w=w, N=N, b=b)
    N = _require_count("N", N, 1)
    if c <= 0 or w <= 0:
        raise ValueError("cost coefficients must be positive")
    if b < 0:
        raise ValueError("batching coefficient must be nonnegative")
    if b > 0:
        best = min(range(1, N + 1), key=lambda m: (_trp_cost(m, c, w, N, b), m))
        return FleetSize(None, best, _trp_cost(best, c, w, N, b))
    m_real = (3.0 * w / (2.0 * c)) ** 0.4 * N**0.6
    clamped = min(max(m_real, 1.0), float(N))
    candidates = sorted({int(math.floor(clamped)), int(math.ceil(clamped))})
    candidates = [m for m in candidates if 1 <= m <= N]
    best = min(candidates, key=lambda m: (_trp_cost(m, c, w, N, 0.0), m))
    return FleetSize(m_real, best, _trp_cost(best, c, w, N, 0.0))


def sdd_dispatch_tsp(
    lam: float,
    a: float,
    T: float,
    m: int,
    T_cutoff: float | None = None,
) -> DispatchPlan:
    """Deadline-packing dispatch: each vehicle returns exactly at T.

    Solves t_i + a*sqrt(lam*(t_i - t_{i-1})) = T step by step (quadratic in
    sqrt of the gap, keeping its nonnegative root) with t_0 = 0.  The plan
    is feasible when the last dispatch reaches the order cutoff.  Loads are
    the orders accumulated per gap, truncated at the cutoff so a feasible
    plan carries exactly the lam * T_cutoff available orders.
    """
    if T_cutoff is None:
        T_cutoff = T
    _require_finite(lam=lam, a=a, T=T, m=m, T_cutoff=T_cutoff)
    m = _require_count("m", m, 1)
    if lam <= 0 or a < 0 or T <= 0:
        raise ValueError("parameters must be positive (a may be zero)")
    if T_cutoff > T:
        raise ValueError("the order cutoff cannot exceed the deadline")
    if T_cutoff < 0:
        raise ValueError(f"T_cutoff must be nonnegative, got {T_cutoff!r}")

    times: list[float] = []
    loads: list[float] = []
    prev = 0.0
    failing = None
    for i in range(1, m + 1):
        rem = T - prev
        if rem < -_FEAS_TOL:
            failing = i
            break
        rem = max(rem, 0.0)
        disc = a * a * lam + 4.0 * rem
        u = 0.5 * (-a * math.sqrt(lam) + math.sqrt(disc))
        t_i = prev + u * u
        times.append(t_i)
        loads.append(lam * (min(t_i, T_cutoff) - min(prev, T_cutoff)))
        prev = t_i

    if failing is not None:
        return DispatchPlan(tuple(times), tuple(loads), False, -math.inf, failing_index=failing)
    slack = times[-1] - T_cutoff
    return DispatchPlan(tuple(times), tuple(loads), slack >= -_FEAS_TOL, slack)


def sdd_dispatch_trp(lam: float, a: float, N: float, m: int, T: float) -> DispatchPlan:
    """Evenly spaced dispatch minimizing wait: t_i = i*N/(m*lam).

    Feasible when the last vehicle can finish by the deadline, that is when
    N/lam + a*sqrt(N/m) <= T; the slack of that inequality is reported.
    """
    _require_finite(lam=lam, a=a, N=N, m=m, T=T)
    m = _require_count("m", m, 1)
    if lam <= 0 or a < 0 or N <= 0 or T <= 0:
        raise ValueError("parameters must be positive (a may be zero)")
    times = tuple(i * N / (m * lam) for i in range(1, m + 1))
    loads = tuple(N / m for _ in range(m))
    slack = T - (N / lam + a * math.sqrt(N / m))
    return DispatchPlan(times, loads, slack >= -_FEAS_TOL, slack)
