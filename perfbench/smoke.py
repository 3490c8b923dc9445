"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs ``run.py --tiny`` once per workload, untraced and traced, and asserts
that each exits 0 and prints every metric named in ``BENCHMARK.json`` as a
finite number with its unit.  Then it corrupts one CSV row of a harness
batch and one oracle answer and asserts that the checks count each failure,
and that the benchmark refuses to run without the library's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "_out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_metrics(workload: str, trace: int) -> None:
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert result["metrics"].keys() == declared.keys(), sorted(result["metrics"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], (name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (name, metric)
    print(f"ok  {workload:<10} trace={trace}  {result['attempted']} checks")


def check_corruption() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    out_dir = str(OUT / "corrupt")
    wl = workloads.build("trp-dense", SEED, tiny=True)
    checks = workloads.Checks()
    outputs = wl.run(1, out_dir)
    clean = wl.check(outputs, checks)
    assert checks.failed == 0, checks.notes
    csv_path = outputs[0][1].csv_path
    with open(csv_path) as fh:
        lines = fh.readlines()
    *head, value = lines[1].rstrip("\n").split(",")
    lines[1] = ",".join(head + [repr(float(value) * 1.5)]) + "\n"
    with open(csv_path, "w") as fh:
        fh.writelines(lines)
    corrupted = wl.check(outputs, checks)
    assert corrupted.digest != clean.digest
    assert checks.failed > 0 and checks.pass_rate < 1.0, checks
    print(f"ok  altered CSV row: {checks.failed} of {checks.attempted} checks failed")

    wl = workloads.build("oracle", SEED, tiny=True)
    checks = workloads.Checks()
    results = wl.run(1, out_dir)
    wl.check(results, checks)
    assert checks.failed == 0, checks.notes
    family, n, k, exact, heuristic, strip = results[0]
    results[0] = (family, n, k, heuristic * 1.5, heuristic, strip)
    wl.check(results, checks)
    assert checks.failed == 1 and checks.pass_rate < 1.0, checks
    print(f"ok  altered oracle answer: {checks.failed} of {checks.attempted} checks failed")


def check_refuses_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench(bare, "subset", 0)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  refuses to run without src/")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_corruption()
    check_refuses_without_sources()
    shutil.rmtree(OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
