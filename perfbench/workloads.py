"""The benchmark's workloads: seeded inputs, one batch of work, output checks.

Each workload is a fixed input shape; ``--seed`` only picks the random
instances.  A batch is the unit the runner times and repeats: for the
harness workloads one or two ``run_experiment`` calls, for ``oracle`` a list
of small instances solved exactly and heuristically.  Every batch
returns a digest of its outputs, so the runner can require identical output
across repeats and worker counts, and a quality figure that depends only on
the seed.

This module imports ``routebench``; importing it and calling :func:`build`
is what the benchmark reports as ``setup_s``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from routebench import core, harness, ktsp, trp, tsp

# Slack for comparing tour lengths computed along different summation orders.
LENGTH_TOL = 1e-9


@dataclass
class Checks:
    """Output checks attempted and failed; the failures' descriptions."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    @property
    def pass_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted


@dataclass(frozen=True)
class Checked:
    """A checked batch: digest of its outputs and its quality (lower is better)."""

    digest: str
    quality: float


# ---------------------------------------------------------------------------
# Harness workloads


_ROWS_PER_TRIAL = {"ktsp-rate": 2, "trp-factor": 1}


def _rows_per_trial(cfg: harness.ExperimentConfig) -> int:
    if cfg.experiment == "fairness-audit":
        return len(cfg.density["layers"])  # one row per population
    return _ROWS_PER_TRIAL[cfg.experiment]


def _trials(cfg: harness.ExperimentConfig) -> int:
    return len(cfg.n_grid) * max(1, len(cfg.k_grid)) * cfg.trials


def check_report(cfg: harness.ExperimentConfig, summary: dict, csv_text: str, checks: Checks) -> None:
    """Check one experiment's CSV and summary against each other and the config."""
    name = cfg.experiment
    checks.expect(summary["passed"] is True, f"{name}: summary did not pass")
    checks.expect(summary["config_hash"] == cfg.config_hash(), f"{name}: summary config hash differs")
    rows = list(csv.reader(io.StringIO(csv_text)))
    checks.expect(tuple(rows[0]) == harness.CSV_COLUMNS, f"{name}: CSV header {rows[0]}")
    rows = rows[1:]
    checks.expect(len(rows) == _trials(cfg) * _rows_per_trial(cfg), f"{name}: {len(rows)} CSV rows")

    # positive everywhere except served fractions, which may be 0
    low_ok = (lambda v: v >= 0.0) if name == "fairness-audit" else (lambda v: v > 0.0)
    groups: dict[tuple[str, int, int], list[float]] = {}
    bad = 0
    for label, n, k, _trial, _stream, value in rows:
        v = float(value)
        bad += not (math.isfinite(v) and low_ok(v))
        groups.setdefault((label, int(n), int(k)), []).append(v)
    checks.expect(bad == 0, f"{name}: {bad} CSV values not finite or out of range")

    cells = {(c["experiment"], c["n"], c["k"]): c for c in summary["cells"]}
    checks.expect(cells.keys() == groups.keys(), f"{name}: summary cells differ from CSV groups")
    for key, cell in cells.items():
        values = groups.get(key, [])
        mean = math.fsum(values) / len(values) if values else math.nan
        ok = (
            cell["trials"] == cfg.trials == len(values)
            and math.isfinite(cell["mean"])
            and cell["mean"] > 0
            and math.isclose(cell["mean"], mean, rel_tol=1e-12)
        )
        checks.expect(ok, f"{name}: summary cell {key} does not match the CSV")


class ExperimentWorkload:
    """One or more experiment configs run back to back through ``run_experiment``."""

    def __init__(self, name: str, configs: list[harness.ExperimentConfig]):
        self.name = name
        self.configs = configs
        self.trials = sum(_trials(c) for c in configs)

    def run(self, workers: int, out_dir: str) -> list:
        configs = [replace(cfg, workers=workers, out_dir=out_dir) for cfg in self.configs]
        return [(cfg, harness.run_experiment(cfg)) for cfg in configs]

    def check(self, outputs: list, checks: Checks) -> Checked:
        digest = hashlib.sha256()
        for cfg, report in outputs:
            with open(report.csv_path, newline="") as fh:
                text = fh.read()
            digest.update(text.encode())
            check_report(cfg, report.summary, text, checks)
        return Checked(digest.hexdigest(), _quality([report.summary for _, report in outputs]))

    def close(self) -> None:
        pass


def _quality(summaries: list[dict]) -> float:
    """Mean trp-factor ratio, or mean ktsp-rate constant: lower is better."""
    values = [
        c["mean"] if c["experiment"] == "trp-factor" else c["rate_constant"]
        for s in summaries
        for c in s["cells"]
        if c["experiment"] in ("trp-factor", "ktsp-rate")
    ]
    return statistics.fmean(values)


# ---------------------------------------------------------------------------
# Oracle workload


@dataclass(frozen=True)
class Instance:
    family: str  # "tsp", "trp" or "ktsp"
    k: int
    ps: core.PointSet


_UNIT = core.GridDensity.uniform(1)


def solve(inst: Instance) -> tuple:
    """Exact and heuristic answers for one instance (module-level for pickling).

    Returns (family, n, k, exact, heuristic, strip); ``strip`` is the
    unpolished strip tour for TSP instances and NaN otherwise.
    """
    ps, n = inst.ps, len(inst.ps)
    strip = math.nan
    if inst.family == "tsp":
        exact = tsp.tsp_exact(ps).length
        start = tsp.strip_tour(ps)
        strip = start.length
        heuristic = tsp.two_opt(ps, start.route).length
    elif inst.family == "trp":
        exact = trp.trp_exact(ps).latency
        heuristic = trp.trp_apriori_scheme(ps, _UNIT).latency
    else:
        exact = ktsp.ktsp_exact(ps, inst.k).length
        heuristic = ktsp.ktsp_grid_scheme(ps, inst.k).length
    return (inst.family, n, inst.k, exact, heuristic, strip)


class OracleWorkload:
    """Random instances at or below the exact oracles' caps, each paired with its heuristic."""

    def __init__(self, instances: list[Instance]):
        self.name = "oracle"
        self.instances = instances
        self.trials = len(instances)
        self._pool: ProcessPoolExecutor | None = None

    def run(self, workers: int, out_dir: str) -> list[tuple]:
        if workers == 1:
            return [solve(inst) for inst in self.instances]
        if self._pool is None:
            # the platform's default start method, as in run_experiment; on
            # Linux that is fork, which starts no resource-tracker process
            # that could outlive the benchmark
            self._pool = ProcessPoolExecutor(workers)
        return list(self._pool.map(solve, self.instances))

    def check(self, results: list[tuple], checks: Checks) -> Checked:
        return Checked(_digest(results), check_oracle(results, checks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _digest(results: list[tuple]) -> str:
    text = "\n".join(
        ",".join(v.hex() if isinstance(v, float) else str(v) for v in row) for row in results
    )
    return hashlib.sha256(text.encode()).hexdigest()


def check_oracle(results: list[tuple], checks: Checks) -> float:
    """Check exact <= heuristic (and <= strip for TSP); return the quality.

    Quality is the mean heuristic/exact ratio of each family, averaged over
    the families, so the many cheap k-TSP instances do not outweigh the rest.
    """
    ratios: dict[str, list[float]] = {}
    for family, n, k, exact, heuristic, strip in results:
        what = f"oracle {family} n={n} k={k}"
        checks.expect(math.isfinite(exact) and exact > 0, f"{what}: exact value {exact}")
        checks.expect(exact <= heuristic + LENGTH_TOL, f"{what}: exact {exact} > heuristic {heuristic}")
        if family == "tsp":
            checks.expect(heuristic <= strip + LENGTH_TOL, f"{what}: 2-opt {heuristic} > strip {strip}")
        ratios.setdefault(family, []).append(heuristic / exact)
    return statistics.fmean(statistics.fmean(r) for r in ratios.values())


def _oracle_instances(seed: int, tiny: bool) -> list[Instance]:
    if tiny:
        shapes = [("tsp", 0, 7), ("trp", 0, 7), ("ktsp", 4, 8), ("ktsp", 5, 8)]
    else:
        # every oracle at its cap once, then many cheaper instances for a
        # quality mean that does not hinge on a few draws
        shapes = (
            [("tsp", 0, n) for n in (12, 13, 14, 15)]
            + [("trp", 0, n) for n in (12, 13)]
            + [("trp", 0, n) for n in (10, 11) for _ in range(7)]
            + [("ktsp", 4, 12)] * 60
            + [("ktsp", 5, 12)] * 30
        )
    instances = []
    for i, (family, k, n) in enumerate(shapes):
        seed_i = core.RandomSeed(seed, core.stable_stream("perfbench-oracle", i))
        instances.append(Instance(family, k, core.sample_points(_UNIT, n, seed_i)))
    return instances


# ---------------------------------------------------------------------------


def build(name: str, seed: int, tiny: bool = False):
    """The workload ``name`` with its inputs drawn from ``seed``."""
    if name == "trp-dense":
        n = 200 if tiny else 2000
        cfg = harness.ExperimentConfig("trp-factor", {"kind": "uniform", "m": 2}, (n,), 4, seed)
        return ExperimentWorkload(name, [cfg])
    if name == "subset":
        # at least 40 trials per cell even when tiny: at 20 the summary's
        # slope checks fail on about one seed in five
        rate_trials, fair_trials = (40, 40) if tiny else (60, 300)
        rate = harness.ExperimentConfig(
            "ktsp-rate", {"kind": "uniform", "m": 1}, (100, 200, 400, 800, 1600), rate_trials, seed,
            k_grid=(2, 3, 5),
        )
        fair = replace(harness.default_config("fairness-audit", seed), trials=fair_trials)
        return ExperimentWorkload(name, [rate, fair])
    if name == "oracle":
        return OracleWorkload(_oracle_instances(seed, tiny))
    raise ValueError(f"unknown workload {name!r}")


def touch_every_layer(seed: int, out_dir: str) -> None:
    """Call each traced layer once on a tiny input.

    Run under the tracer next to every workload, so that each per-layer
    time is a measurement on every workload, never a constant 0; its share
    of a traced batch is far below 1%.
    """
    ps = core.sample_points(_UNIT, 8, core.RandomSeed(seed, core.stable_stream("perfbench-touch")))
    solve(Instance("tsp", 0, ps))
    solve(Instance("trp", 0, ps))
    solve(Instance("ktsp", 4, ps))
    cfg = harness.default_config("fairness-audit", seed, os.path.join(out_dir, "touch"))
    harness.run_experiment(replace(cfg, n_grid=(20,), trials=1))
