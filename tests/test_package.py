"""The package surface and the README's library quick start."""

import re
from pathlib import Path

import routebench
from routebench import core, fairness, harness, ktsp, logistics, trp, tsp

README = Path(__file__).resolve().parents[1] / "README.md"


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
