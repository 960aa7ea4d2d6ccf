"""The README's self-contained Python examples run against the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def run_block(code, capsys):
    exec(compile(code, str(README), "exec"), {})
    return capsys.readouterr().out.split("\n")


def test_library_quick_start(capsys):
    classified, fitted, rest = run_block(python_blocks()[0], capsys)
    kind, slope = classified.split()
    assert (kind, rest) == ("LinearReal", "")
    assert float(slope) == pytest.approx(-4.0 / 3.0, rel=1e-10)
    assert float(fitted) == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_quantum_scenarios(capsys):
    code = python_blocks()[1]
    assert "spin_chain_scenario" in code and "two_qubit_scenario" in code
    assert run_block(code, capsys) == [""]
