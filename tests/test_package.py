"""The package surface and the README's library quick start."""

import os
import re
import subprocess
import sys
from pathlib import Path

import routebench
from routebench import core, fairness, harness, ktsp, logistics, trp, tsp

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def test_exports_are_the_module_lists():
    modules = (core, fairness, harness, ktsp, logistics, trp, tsp)
    expected = {"CapacityError", "InfeasibleError"}.union(*(m.__all__ for m in modules))
    assert len(routebench.__all__) == len(set(routebench.__all__))
    assert set(routebench.__all__) == expected
    for name in routebench.__all__:
        assert getattr(routebench, name) is not None
    assert routebench.cell_ids is core.cell_ids and routebench.stable_stream is core.stable_stream


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_import_and_service_map_stay_lean():
    # eager numpy.random or numpy.ma imports raise the CLI's start-up time and
    # peak memory; look in a fresh interpreter, where nothing has pulled them in
    code = (
        "import sys\n"
        "import routebench\n"
        "eager = [m for m in ('numpy.random', 'numpy.ma') if m in sys.modules]\n"
        "assert not eager, f'import routebench loaded {eager}'\n"
        "routebench.geographic_service_map(\n"
        "    lambda ps, d, k, rng: [0, 3], routebench.GridDensity.uniform(2), 2, 10, 2, routebench.RandomSeed(1)\n"
        ")\n"
        "assert 'numpy.ma' not in sys.modules, 'the service map loaded numpy.ma'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
