"""Rate fitting, experiment orchestration, and CLI tests."""

import contextlib
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import routebench
from routebench import (
    EXPERIMENT_KINDS,
    CapacityError,
    ExperimentConfig,
    GridDensity,
    RandomSeed,
    default_config,
    fit_loglog_slope,
    load_points_csv,
    run_experiment,
    sample_points,
    save_points_csv,
    strip_two_opt,
)
from routebench import harness
from routebench.cli import main
from routebench.core import stable_stream


class TestRateFit:
    def test_exact_inverse_law(self):
        samples = [(n, 3.0 / n) for n in (10, 100, 1000, 10_000)]
        fit = fit_loglog_slope(samples)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0)

    def test_exact_three_halves_law(self):
        samples = [(n, n**1.5) for n in (10, 20, 50, 400)]
        assert fit_loglog_slope(samples).slope == pytest.approx(1.5, abs=1e-12)

    def test_r_squared_reproducible_from_points(self):
        rng = np.random.default_rng(81)
        samples = [(n, n**-0.7 * float(rng.uniform(0.9, 1.1))) for n in (10, 30, 90, 270)]
        fit = fit_loglog_slope(samples)
        x = np.array([p[0] for p in fit.points])
        y = np.array([p[1] for p in fit.points])
        resid = y - (fit.slope * x + fit.intercept)
        ss_res = float(resid @ resid)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        assert fit.r_squared == pytest.approx(1 - ss_res / ss_tot, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0), (20, -0.5)])


    @pytest.mark.parametrize("samples", [
        [(1, math.nan), (2, 1.0)], [(1, 1.0), (2, math.inf)], [(1, 1.0), (math.inf, 2.0)], [(math.nan, 1.0), (2, 1.0)],
    ])
    def test_non_finite_samples_rejected(self, samples):
        # used to return a NaN fit, or raise LinAlgError after LAPACK wrote to stderr
        with pytest.raises(ValueError, match="finite"):
            fit_loglog_slope(samples)

    def test_fit_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma (1.7 MB resident under numpy 2.4), which
        # counting distinct sizes does not need; fit in a fresh interpreter and look
        code = (
            "import sys\n"
            "from routebench import fit_loglog_slope\n"
            "fit_loglog_slope([(10, 1.0), (20, 2.0), (20, 2.5), (40, 3.0)])\n"
            "assert 'numpy.ma' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy.ma'))\n"
        )
        src = os.path.dirname(os.path.dirname(routebench.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


# a population density spec that names no kind
KINDLESS_POPULATION = {"m": 2, "layers": [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]}


def small_config(tmp_path, name="run", **overrides):
    base = dict(
        experiment="ktsp-rate",
        density={"kind": "uniform", "m": 1},
        n_grid=(50, 100),
        trials=8,
        master_seed=12345,
        out_dir=str(tmp_path / name),
        k_grid=(2,),
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_rerun_is_byte_identical(self, tmp_path):
        r1 = run_experiment(small_config(tmp_path, "a"))
        r2 = run_experiment(small_config(tmp_path, "b"))
        assert Path(r1.csv_path).read_bytes() == Path(r2.csv_path).read_bytes()
        assert Path(r1.summary_path).read_bytes() == Path(r2.summary_path).read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        r1 = run_experiment(small_config(tmp_path, "w1", workers=1))
        r2 = run_experiment(small_config(tmp_path, "w2", workers=2))
        assert Path(r1.csv_path).read_bytes() == Path(r2.csv_path).read_bytes()
        assert r1.summary["config_hash"] == r2.summary["config_hash"]

    def test_csv_schema(self, tmp_path):
        report = run_experiment(small_config(tmp_path))
        lines = Path(report.csv_path).read_text().splitlines()
        assert lines[0] == "experiment,n,k,trial,seed,value"
        parts = lines[1].split(",")
        assert len(parts) == 6
        int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])
        float(parts[5])

    def test_trial_values_invariant_to_grid_order(self, tmp_path):
        r1 = run_experiment(small_config(tmp_path, "g1", n_grid=(50, 100)))
        r2 = run_experiment(small_config(tmp_path, "g2", n_grid=(100, 50)))
        rows1 = set(Path(r1.csv_path).read_text().splitlines()[1:])
        rows2 = set(Path(r2.csv_path).read_text().splitlines()[1:])
        assert rows1 == rows2

    def test_summary_carries_provenance(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_experiment(cfg)
        assert report.summary["config_hash"] == cfg.config_hash()
        assert report.summary["master_seed"] == 12345
        assert report.summary["config"]["n_grid"] == [50, 100]

    def test_threshold_failure_reported(self, tmp_path):
        cfg = small_config(tmp_path, thresholds={"slope_tol": 1e-9})
        report = run_experiment(cfg)
        assert not report.passed

    def test_stable_stream_is_documented_hash(self):
        assert stable_stream("ktsp-rate", 50, 2, 0) == stable_stream("ktsp-rate", 50, 2, 0)
        assert stable_stream("ktsp-rate", 50, 2, 0) != stable_stream("ktsp-rate", 50, 2, 1)

    def test_default_configs_valid(self):
        assert EXPERIMENT_KINDS == ("ktsp-rate", "trp-rate", "tail-dominance", "fairness-audit", "trp-factor")
        for kind in EXPERIMENT_KINDS:
            cfg = default_config(kind)
            assert cfg.experiment == kind

    def test_config_json_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        back = ExperimentConfig.from_json(json.dumps(cfg.canonical()))
        assert back.config_hash() == cfg.config_hash()
        # integer epsilon and trials hash like the floats and ints JSON gives back
        fair = dataclasses.replace(default_config("fairness-audit"), epsilon=0, trials=10.0)
        back = ExperimentConfig.from_json(json.dumps(fair.canonical()))
        assert back.config_hash() == fair.config_hash()
        assert back == fair

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig("nope", {"kind": "uniform", "m": 1}, (10,), 1, 0)


# Small versions of every kind's default config.  The hashes were recorded
# before the harness moved to one registry entry per kind, so they pin the
# CSV and summary bytes, and the default config hashes, across that change.
GOLDEN_SIZES = {
    "ktsp-rate": dict(n_grid=(50, 100), k_grid=(2, 3), trials=8),
    "trp-rate": dict(n_grid=(50, 100), trials=4),
    "trp-factor": dict(n_grid=(200,), trials=4),
    "tail-dominance": dict(n_grid=(30,), k_grid=(2, 3), trials=200),
    "fairness-audit": dict(n_grid=(100,), trials=40),
}

# kind: (CSV sha256, summary sha256, default config_hash)
GOLDEN_HASHES = {
    "ktsp-rate": (
        "2765739cba97edd29b4af567379e77e84afd0ab41b9f7b2068810b3dfdbc21f1",
        "77f49cf2b6043222de0a2934ac0959dd8ff0d71a13b835058430b882fe01497b",
        "114b21612a0e48d24ab987f8ff537b584f2f283faec9895ba1b5bd72815bbdac",
    ),
    "trp-rate": (
        "04d5f3c81bdcbba1bd232c393507fc9c96e3627ee1ba98a48973ece5b4d17ddc",
        "ce3ab152e631d20b3ecf5340c590e6a0538b3bb98c655a774f81c331bf75284e",
        "38341292d4d6312319363d9388c7203c85be4b2fec3a15193e41c0974183a91f",
    ),
    "tail-dominance": (
        "f9458b31305242ab3d4870e447856590f0a48d38d816850baf4734cf5ebc39c2",
        "05584269171655117222c24dc30a8f6246293ff42c2051157c887627ca337fd6",
        "8f4cf24a59c165e329fff59fd19635d7d943193c90cdd43a04e0d81249d60732",
    ),
    "fairness-audit": (
        "b91519bbdcd730b0647273fd42d75e21f49d092678a78d79556f0ccb4616837b",
        "c8a007865b69e7037f85b4eee1df43cd845e50a5130a96c5fbf643b0355e6a94",
        "369a6da3847e741b7f5c063dd6f2e971051fd82795a4f45d19a5f22446b6e421",
    ),
    "trp-factor": (
        "c8b0a32824a0ef4eafbcabd558dd66275776ffea5599f55ce37fd05918e70cd3",
        "18c0b5289d6e0987de9259d2b9bea87b0a1225b99962253950475266d7566f60",
        "3d511505e25b55995d5ac73435282de5ce0b887dccd98086862065630efae686",
    ),
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_golden_outputs_per_kind(kind, tmp_path):
    csv_sha, summary_sha, default_hash = GOLDEN_HASHES[kind]
    assert default_config(kind).config_hash() == default_hash
    cfg = dataclasses.replace(default_config(kind, 7, str(tmp_path)), **GOLDEN_SIZES[kind])
    report = run_experiment(cfg)
    assert hashlib.sha256(Path(report.csv_path).read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(Path(report.summary_path).read_bytes()).hexdigest() == summary_sha


def summary_at_one_worker(report, workers) -> bytes:
    """The summary's bytes with the worker count in its config set to 1."""
    text = Path(report.summary_path).read_bytes()
    assert text.count(b'"workers": ') == 1
    return text.replace(b'"workers": %d' % workers, b'"workers": 1')


@pytest.mark.parametrize("workers", (2, 3))
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_golden_outputs_at_several_workers(kind, workers, tmp_path):
    # the trials of share 0 run in this process and the others in children,
    # so this also shows that fairness-audit's prepared mix reaches them
    csv_sha, summary_sha, _ = GOLDEN_HASHES[kind]
    cfg = dataclasses.replace(default_config(kind, 7, str(tmp_path), workers), **GOLDEN_SIZES[kind])
    report = run_experiment(cfg)
    assert hashlib.sha256(Path(report.csv_path).read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(summary_at_one_worker(report, workers)).hexdigest() == summary_sha


class TestConfigValidation:
    """Config errors surface when the config is built, not inside a worker."""

    def test_unknown_threshold_key(self, tmp_path):
        with pytest.raises(ValueError, match="ratio_mx"):
            small_config(tmp_path, thresholds={"ratio_mx": 0})
        with pytest.raises(ValueError):
            # a trp-factor key is not a ktsp-rate key
            small_config(tmp_path, thresholds={"ratio_max": 2.5})

    def test_fairness_audit_takes_exactly_one_k(self):
        cfg = default_config("fairness-audit")
        for k_grid in ((4, 40), (4, 8)):
            with pytest.raises(ValueError):
                dataclasses.replace(cfg, k_grid=k_grid)

    def test_k_out_of_range(self, tmp_path):
        for k_grid in ((1,), (0, 2), (2, 60)):  # n_grid is (50, 100)
            with pytest.raises(ValueError):
                small_config(tmp_path, k_grid=k_grid)
        with pytest.raises(ValueError):
            dataclasses.replace(default_config("fairness-audit"), n_grid=(3,))
        small_config(tmp_path, k_grid=(2, 50))  # k = min(n) is allowed

    def test_k_grid_on_kind_without_k(self):
        with pytest.raises(ValueError):
            dataclasses.replace(default_config("trp-factor"), k_grid=(2,))

    def test_tail_dominance_beyond_exact_cap(self):
        cfg = default_config("tail-dominance")  # n = 50, above ktsp_exact's cap of 35 at k = 5
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, k_grid=(2, 5))
        dataclasses.replace(cfg, n_grid=(12,), k_grid=(4,))
        dataclasses.replace(cfg, n_grid=(58,), k_grid=(4,))  # at the cap
        with pytest.raises(CapacityError):
            dataclasses.replace(cfg, n_grid=(59,), k_grid=(4,))

    def test_workers_below_one(self, tmp_path):
        for workers in (0, -3):
            with pytest.raises(ValueError):
                small_config(tmp_path, workers=workers)

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_master_seed_out_of_range(self, tmp_path, master_seed):
        # used to build, then fail inside the first trial
        with pytest.raises(ValueError, match="master_seed"):
            small_config(tmp_path, master_seed=master_seed)

    def test_non_finite_fairness_mix(self):
        # used to build, then fail in fairness_lp when the run prepared the mix
        cfg = default_config("fairness-audit")
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                dataclasses.replace(cfg, epsilon=bad)
            with pytest.raises(ValueError, match=r"targets\[1\]"):
                dataclasses.replace(cfg, targets=(0.5, bad))

    def test_fairness_mix_beyond_float_range(self):
        # float() ran before the finiteness check, so these raised
        # OverflowError ("int too large to convert to float")
        cfg = default_config("fairness-audit")
        with pytest.raises(ValueError, match="epsilon"):
            dataclasses.replace(cfg, epsilon=10**400)
        with pytest.raises(ValueError, match=r"targets\[0\]"):
            dataclasses.replace(cfg, targets=(10**400, 0.5))

    def test_k_grid_too_long_to_print(self):
        # the message named no field: the int has no repr past 4300 digits
        cfg = default_config("ktsp-rate")
        with pytest.raises(ValueError, match="k_grid must be a whole number"):
            dataclasses.replace(cfg, k_grid=(2, 10**5000))

    def test_fractional_trials(self, tmp_path):
        for trials in (2.5, 8.000001, math.nan, math.inf, "8"):
            with pytest.raises(ValueError, match="trials"):
                small_config(tmp_path, trials=trials)
        assert small_config(tmp_path, trials=8.0).trials == 8  # a whole float is a count

    def test_fractional_n_grid(self, tmp_path):
        with pytest.raises(ValueError, match="n_grid"):
            small_config(tmp_path, n_grid=(100.7, 200))
        assert small_config(tmp_path, n_grid=(50.0, np.int64(100))).n_grid == (50, 100)

    def test_fractional_k_grid(self, tmp_path):
        with pytest.raises(ValueError, match="k_grid"):
            small_config(tmp_path, k_grid=(2.5,))
        with pytest.raises(ValueError, match="k_grid"):
            dataclasses.replace(default_config("fairness-audit"), k_grid=(4.2,))

    def test_cli_rejects_fractional_counts(self, tmp_path):
        cfg = small_config(tmp_path).canonical() | {"out_dir": str(tmp_path / "run")}
        cfg["n_grid"] = [100.7, 200]
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 1
        assert not (tmp_path / "run").exists()  # rejected before any trial ran

    def test_default_config_unknown_kind(self):
        with pytest.raises(ValueError):
            default_config("nope")

    @pytest.mark.parametrize("kind", ["ktsp-rate", "trp-rate", "trp-factor", "tail-dominance"])
    def test_grid_kind_rejects_a_population_spec(self, kind):
        # a spec with layers and no kind reads as a population density,
        # which these kinds cannot sample: it used to fail inside a trial
        cfg = default_config(kind)
        with pytest.raises(ValueError, match=f"{kind} needs a GridDensity spec, got a PopulationGridDensity"):
            dataclasses.replace(cfg, density=KINDLESS_POPULATION)
        total = {"m": 2, "cells": [2.0, 2.0, 0.0, 0.0]}
        assert dataclasses.replace(cfg, density=total).density == total

    def test_fairness_audit_needs_a_population_spec(self):
        # used to build, then fail when the run prepared the mix
        cfg = default_config("fairness-audit")
        for spec in ({"kind": "uniform", "m": 2}, {"m": 2, "cells": [2.0, 2.0, 0.0, 0.0]}):
            with pytest.raises(ValueError, match="fairness-audit needs a PopulationGridDensity spec, got a GridDensity"):
                dataclasses.replace(cfg, density=spec)
        assert dataclasses.replace(cfg, density=KINDLESS_POPULATION).density == KINDLESS_POPULATION

    def test_density_spec_checked_when_built(self, tmp_path):
        bad = ({"m": 2}, {"kind": "hexagon", "m": 1}, {"kind": "grid", "m": 2, "cells": [1.0, 1.0, 1.0, 2.0]})
        for spec in bad:
            with pytest.raises(ValueError):
                small_config(tmp_path, density=spec)
        cfg = small_config(tmp_path).canonical() | {"density": {"m": 2}, "out_dir": str(tmp_path / "run")}
        path = tmp_path / "no-cells.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 1
        assert not (tmp_path / "run").exists()  # rejected before any trial ran

    def test_spec_changed_after_build_checked_before_trials(self, tmp_path):
        # the config's dicts stay mutable; a population spec put into a
        # trp-factor config after it was built used to fail inside a trial
        # with AttributeError
        cfg = dataclasses.replace(default_config("trp-factor", out_dir=str(tmp_path / "run")), n_grid=(50,), trials=1)
        cfg.density["kind"] = "population"
        cfg.density["layers"] = [[1.0] * 64]
        with pytest.raises(ValueError, match="needs a GridDensity spec"):
            run_experiment(cfg)
        cfg = small_config(tmp_path)
        cfg.thresholds["no_such_threshold"] = 1.0
        with pytest.raises(ValueError, match="unknown .* thresholds"):
            run_experiment(cfg)
        assert not (tmp_path / "run").exists()  # rejected before any trial ran

    def test_kindless_population_spec_runs(self, tmp_path):
        # the default spec without its kind gives the same trials
        cfg = dataclasses.replace(default_config("fairness-audit", 7), n_grid=(60,), trials=6)
        spec = {key: val for key, val in cfg.density.items() if key != "kind"}
        named, kindless = (
            Path(run_experiment(dataclasses.replace(cfg, density=density, out_dir=str(tmp_path / name))).csv_path).read_text()
            for name, density in (("named", cfg.density), ("kindless", spec))
        )
        assert named == kindless

    def test_cli_rejects_bad_config(self, tmp_path, capsys):
        cfg = small_config(tmp_path).canonical()
        cfg["thresholds"]["slope_tl"] = 0.1
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 1
        assert "slope_tl" in capsys.readouterr().err
        assert main(["experiment", "--kind", "ktsp-rate", "--workers", "0"]) == 1


class TestCli:
    def test_pipeline(self, tmp_path):
        density = tmp_path / "density.json"
        density.write_text(json.dumps({"m": 2, "cells": [2, 2, 0, 0], "square": {"origin": [0, 0], "side": 1.0}}))
        points = tmp_path / "points.csv"
        assert main(["sample", "--density", str(density), "--n", "30", "--seed", "5", "--out", str(points)]) == 0
        assert points.read_text().startswith("x,y\n")

        out = tmp_path / "tsp.json"
        assert main(["tsp", "--points", str(points), "--method", "2opt", "--out", str(out)]) == 0
        assert "length" in json.loads(out.read_text())

        out = tmp_path / "ktsp.json"
        assert main(["ktsp", "--points", str(points), "--k", "4", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["k"] == 4 and len(result["order"]) == 4

        out = tmp_path / "trp.json"
        assert main(["trp", "--points", str(points), "--density", str(density), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["n"] == 30 and len(result["order"]) == 30

    def test_dispatch_names_a_bad_argument(self, capsys):
        # used to say "parameters must be positive (a may be zero)"
        assert main(["dispatch", "--mode", "trp", "--N", "0"]) == 1
        assert "N must be positive" in capsys.readouterr().err

    def test_tsp_reports_moves(self, tmp_path):
        # the 2-opt polish reports its moves and cap; the strip tour and the
        # exact oracle report 0 and false
        points = tmp_path / "points.csv"
        save_points_csv(sample_points(GridDensity.uniform(1), 16, RandomSeed(13)), str(points))
        polish = strip_two_opt(load_points_csv(str(points)))
        assert polish.moves > 0
        for method, moves in (("2opt", polish.moves), ("strip", 0), ("exact", 0)):
            out = tmp_path / f"{method}.json"
            assert main(["tsp", "--points", str(points), "--method", method, "--out", str(out)]) == 0
            result = json.loads(out.read_text())
            assert (result["moves"], result["cap_hit"]) == (moves, False)
            if method == "2opt":
                assert result["order"] == list(polish.route.order)

    def test_exact_tour_at_the_budget_cap(self, tmp_path):
        # tsp_exact takes 18 points under its memory budget; above, exit 1
        for n, code in ((18, 0), (19, 1)):
            points = tmp_path / f"points{n}.csv"
            save_points_csv(sample_points(GridDensity.uniform(1), n, RandomSeed(12)), str(points))
            out = tmp_path / f"tsp{n}.json"
            assert main(["tsp", "--points", str(points), "--method", "exact", "--out", str(out)]) == code
            assert out.exists() == (code == 0)

    def test_fairness_and_dispatch(self, tmp_path):
        pop = tmp_path / "pop.json"
        pop.write_text(
            json.dumps(
                {
                    "m": 2,
                    "layers": [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
                    "square": {"origin": [0, 0], "side": 1.0},
                }
            )
        )
        out = tmp_path / "mix.json"
        assert main(["fairness", "--population", str(pop), "--k", "2", "--targets", "0.5,0.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["q"] == [0.5, 0.5, 0.0, 0.0]

        out = tmp_path / "plan.json"
        assert main(["dispatch", "--mode", "trp", "--lambda", "10", "--a", "1", "--N", "100", "--m", "4", "--T", "15", "--out", str(out)]) == 0
        plan = json.loads(out.read_text())
        assert plan["feasible"] and abs(plan["slack"]) < 1e-9

    def test_fairness_on_a_large_population_grid(self, tmp_path):
        # 64 cells and 4 populations: the vertex enumeration refused this
        # size (3.6M candidate systems) and the command exited 1
        layers = np.random.default_rng(8).random((4, 64))
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps({"m": 8, "layers": (layers * 64 / layers.sum()).tolist()}))
        out = tmp_path / "mix.json"
        assert main(["fairness", "--population", str(pop), "--k", "3", "--out", str(out)]) == 0
        mix = json.loads(out.read_text())
        assert abs(sum(mix["q"]) - 1.0) <= 1e-9 and len(mix["support"]) <= 4

    def test_experiment_exit_codes(self, tmp_path):
        cfg_pass = small_config(tmp_path, "cli-pass", thresholds={"slope_tol": 10.0, "naive_factor": 100.0})
        path = tmp_path / "pass.json"
        path.write_text(json.dumps(cfg_pass.canonical() | {"out_dir": cfg_pass.out_dir}))
        assert main(["experiment", "--config", str(path)]) == 0

        cfg_fail = small_config(tmp_path, "cli-fail", thresholds={"slope_tol": 1e-12})
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(cfg_fail.canonical() | {"out_dir": cfg_fail.out_dir}))
        assert main(["experiment", "--config", str(path)]) == 2

    def test_error_exit_code(self):
        assert main(["tsp", "--points", "/nonexistent/file.csv"]) == 1

    def test_density_file_kinds(self, tmp_path):
        density = tmp_path / "uniform.json"
        density.write_text(json.dumps({"kind": "uniform", "m": 2}))
        points = tmp_path / "points.csv"
        assert main(["sample", "--density", str(density), "--n", "5", "--out", str(points)]) == 0
        assert len(points.read_text().splitlines()) == 6

    def test_population_file_without_kind(self, tmp_path):
        # sample, ktsp and trp read a population file as its total density
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps({"m": 2, "layers": [[1.0, 0.5, 0.0, 1.0], [1.0, 0.5, 0.0, 0.0]]}))
        total = tmp_path / "total.json"
        total.write_text(json.dumps({"m": 2, "cells": [2.0, 1.0, 0.0, 1.0]}))

        def outputs(density):
            points = tmp_path / f"{density.stem}.csv"
            assert main(["sample", "--density", str(density), "--n", "40", "--seed", "3", "--out", str(points)]) == 0
            found = [points.read_text()]
            for command in (["ktsp", "--k", "5", "--method", "nonuniform"], ["trp"]):
                out = tmp_path / f"{density.stem}-{command[0]}.json"
                assert main([*command, "--points", str(points), "--density", str(density), "--out", str(out)]) == 0
                found.append(json.loads(out.read_text()))
            return found

        sampled, ktsp, trp = outputs(pop)
        assert [sampled, ktsp, trp] == outputs(total)
        assert len(sampled.splitlines()) == 41 and len(ktsp["order"]) == 5 and trp["n"] == 40

        # fairness reads its layers
        out = tmp_path / "fair.json"
        args = ["fairness", "--population", str(pop), "--k", "3", "--sample-from", str(tmp_path / "pop.csv")]
        assert main([*args, "--out", str(out)]) == 0
        sample = json.loads(out.read_text())["sample"]
        assert sum(sample["served_counts"]) == 3 and len(sample["order"]) == 3

    def test_dispatch_rejects_fractional_counts(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["dispatch", "--mode", "fleet", "--N", "2.5", "--out", str(out)]) == 1
        assert main(["dispatch", "--mode", "fleet", "--N", "3", "--out", str(out)]) == 0
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"m": 2.5}))
        assert main(["dispatch", "--mode", "trp", "--params", str(params), "--N", "10", "--T", "50"]) == 1
        assert main(["dispatch", "--mode", "tsp", "--params", str(params)]) == 1


def replace_trial(monkeypatch, trial):
    """Make each ktsp-rate trial call ``trial(n)`` first."""
    kind = harness._KINDS["ktsp-rate"]

    def wrapped(density, n, k, seed, context):
        trial(n)
        return kind.trial(density, n, k, seed, context)

    monkeypatch.setitem(harness._KINDS, "ktsp-rate", dataclasses.replace(kind, trial=wrapped))


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test if the block runs longer than ``seconds``."""

    def expire(_signum, _frame):
        # pytest.fail, not TimeoutError: multiprocessing's wait for a child
        # swallows an OSError, and TimeoutError is one
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="children see a monkeypatched trial only when forked"
)


class TestShares:
    """Runs at several workers: payload i in share i mod workers, share 0 in this process."""

    # three cells of one trial each on an uneven n grid: fewer trials per
    # cell than workers, so the shares hold different cells
    def uneven(self, tmp_path, workers):
        return small_config(tmp_path, f"w{workers}", n_grid=(50, 100, 200), trials=1, workers=workers)

    @pytest.mark.parametrize("workers", (2, 3, 4))
    def test_same_bytes_at_every_worker_count(self, tmp_path, workers):
        one = run_experiment(self.uneven(tmp_path, 1))
        many = run_experiment(self.uneven(tmp_path, workers))
        assert Path(many.csv_path).read_bytes() == Path(one.csv_path).read_bytes()
        assert summary_at_one_worker(many, workers) == Path(one.summary_path).read_bytes()
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_child_trial_error_reaches_the_caller(self, tmp_path, monkeypatch):
        caller = os.getpid()

        def trial(n):
            if os.getpid() != caller:
                raise ValueError(f"no route at n={n}")

        replace_trial(monkeypatch, trial)
        with deadline(60), pytest.raises(ValueError, match="^no route at n=100$") as info:
            run_experiment(self.uneven(tmp_path, 2))  # share 1 holds only the n = 100 trial
        assert "share-1" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_unpicklable_child_error_comes_back_as_runtime_error(self, tmp_path, monkeypatch):
        caller = os.getpid()

        class Local(Exception):  # a class local to a function does not pickle
            pass

        def trial(n):
            if os.getpid() != caller:
                raise Local("lost in transit")

        replace_trial(monkeypatch, trial)
        with deadline(60), pytest.raises(RuntimeError, match="Local.*lost in transit"):
            run_experiment(self.uneven(tmp_path, 2))
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_child_that_exits_early_is_named(self, tmp_path, monkeypatch):
        caller = os.getpid()

        def trial(n):
            if os.getpid() != caller:
                os._exit(3)

        replace_trial(monkeypatch, trial)
        with deadline(60), pytest.raises(RuntimeError, match="share-1 exited with code 3"):
            run_experiment(self.uneven(tmp_path, 2))
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_caller_error_stops_the_children(self, tmp_path, monkeypatch):
        caller = os.getpid()

        def trial(n):
            if os.getpid() == caller:
                raise ValueError("caller share failed")
            time.sleep(60)

        replace_trial(monkeypatch, trial)
        t0 = time.perf_counter()
        with deadline(30), pytest.raises(ValueError, match="caller share failed"):
            run_experiment(self.uneven(tmp_path, 3))
        assert time.perf_counter() - t0 < 20  # the sleeping children were terminated, not waited for
        assert multiprocessing.active_children() == []

    def test_import_loads_no_process_machinery(self, tmp_path):
        # a one-worker run needs neither module; import and run in a fresh
        # interpreter and look
        code = (
            "import sys\n"
            "from routebench import ExperimentConfig, run_experiment\n"
            f"run_experiment(ExperimentConfig('trp-rate', {{'kind': 'uniform', 'm': 1}}, (20, 40), 1, 3, {str(tmp_path)!r}))\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(routebench.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
