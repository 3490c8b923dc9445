"""routebench benchmark: throughput, set-up, memory and quality per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the per-layer metrics from a traced run at one worker.  The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count output checks, ``metrics`` maps each metric to its value
and unit.  Any failed check makes the exit code 1.  ``--tiny`` shrinks every
workload for the smoke test (``perfbench/smoke.py``).
"""

import os

# One thread per BLAS/OpenMP pool, here and in every process started from
# here, so a run at two workers computes in at most two processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"

# Least number of fresh interpreters timed for set-up.
SETUP_PROBES = 5

# Time of reference_s() on the host the benchmark was built on (Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6); every reported time is scaled to it.
REF_NOMINAL_S = 0.02

_REF_XS, _REF_YS = np.random.default_rng(0).random((2, 1000))

_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import workloads
workloads.build({name!r}, {seed!r}, {tiny!r})
print(time.perf_counter() - t0)
"""


def reference_s() -> float:
    """Shortest of three timings of a fixed unit of work: the host's speed now.

    The unit does not touch routebench: small numpy array operations in an
    interpreter loop, like the row scans of 2-opt, then a pure-Python table
    over subsets, like the exact DPs.
    """
    xs, ys = _REF_XS, _REF_YS
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        hits = 0
        for i in range(len(xs) - 2):
            js = np.arange(i + 2, len(xs))
            hits += np.flatnonzero(np.hypot(xs[i] - xs[js], ys[i] - ys[js]) < 0.1).size
        table = [0] * (1 << 13)
        for m in range(1, len(table)):
            table[m] = table[m & (m - 1)] + (m & -m)
        best = min(best, time.perf_counter() - t0)
    return best


def probe_setup(name: str, seed: int, tiny: bool) -> float:
    code = _PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, tiny=tiny)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha or "unknown (not a git checkout)",
    }


def timed_batch(wl, workers: int, out_dir: str, checks, ref: str) -> float:
    """Run one batch, check its output digest against ``ref``; return its wall time."""
    gc.collect()
    t0 = time.perf_counter()
    out = wl.run(workers, out_dir)
    wall = time.perf_counter() - t0
    got = wl.check(out, checks).digest
    checks.expect(got == ref, f"{wl.name}: workers={workers} output digest {got[:12]} != {ref[:12]}")
    return wall


def measure(wl, seed: int, seconds: float, tiny: bool, out_dir: str, checks) -> dict:
    """End-to-end metrics from rounds of one batch at one worker, two at two, one set-up.

    Each timing is scaled to the reference host speed: multiplied by
    ``REF_NOMINAL_S`` over the mean of the reference unit's times just before
    and just after it.  Other tenants of a shared host slow the CPU by up to
    2x in phases of seconds to minutes, and the scaling takes most of that
    out (see README).  Throughputs and set-up are medians of the scaled times.
    """
    warm = wl.check(wl.run(1, out_dir), checks)  # untimed warm-up; its output is the reference
    one = partial(timed_batch, wl, 1, out_dir, checks, warm.digest)
    two = partial(timed_batch, wl, 2, out_dir, checks, warm.digest)
    # a batch at two workers takes about half the time of one at one worker,
    # so it runs twice a round, for as many samples per second of run
    rounds = (("workers_1_s", one), ("workers_2_s", two), ("workers_2_s", two),
              ("setup_s", partial(probe_setup, wl.name, seed, tiny)))
    walls: dict[str, list[float]] = {key: [] for key, _ in rounds}
    scaled: dict[str, list[float]] = {key: [] for key, _ in rounds}
    refs = [reference_s()]
    deadline = time.perf_counter() + seconds
    while len(scaled["setup_s"]) < SETUP_PROBES or time.perf_counter() < deadline:
        for key, run in rounds:
            wall = run()
            refs.append(reference_s())
            walls[key].append(wall)
            scaled[key].append(wall * REF_NOMINAL_S / statistics.fmean(refs[-2:]))
    samples = {"wall_s": walls, "scaled_s": scaled, "reference_s": refs}
    (OUT / f"samples-{wl.name}-seed{seed}.json").write_text(json.dumps(samples) + "\n")
    return {
        "trials_per_s": wl.trials / statistics.median(scaled["workers_1_s"]),
        "trials_per_s_w2": wl.trials / statistics.median(scaled["workers_2_s"]),
        "setup_s": statistics.median(scaled["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality_ratio": warm.quality,
        "check_pass_rate": checks.pass_rate,
    }


def measure_traced(wl, seed: int, seconds: float, out_dir: str, checks) -> dict:
    """Per-layer metrics from batches alternating between plain and traced, at one worker."""
    import spans
    import workloads

    warm = wl.check(wl.run(1, out_dir), checks)
    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_batch(wl, 1, out_dir, checks, warm.digest))
        with tracer:
            traced.append(timed_batch(wl, 1, out_dir, checks, warm.digest))
            workloads.touch_every_layer(seed, out_dir)
    tracer.write(str(OUT / f"spans-{wl.name}-seed{seed}.jsonl"))
    metrics = spans.layer_metrics(tracer.spans, len(traced))
    # means, like the per-batch self times above
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.overhead_frac"] = statistics.fmean(traced) / statistics.fmean(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "routebench" / "__init__.py").is_file():
        print(f"perfbench: no routebench sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))

    import workloads

    wl = workloads.build(args.workload, args.seed, args.tiny)

    checks = workloads.Checks()
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values = measure_traced(wl, args.seed, args.seconds, str(out_dir), checks)
        else:
            values = measure(wl, args.seed, args.seconds, args.tiny, str(out_dir), checks)
    finally:
        wl.close()
        shutil.rmtree(out_dir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != values.keys():
        raise RuntimeError(f"metrics produced differ from BENCHMARK.json: {sorted(values)}")
    for note in checks.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print("env: " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
