"""Smoke tests for every runnable example.

Each example script is executed in-process (via runpy) with small
durations, and its stdout is checked for the scenario's signature lines —
so documentation drift or API breakage in examples/ fails the suite.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, script: str, *args: str) -> str:
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    return capsys.readouterr().out


def test_examples_directory_contents():
    """README's examples table lists exactly the scripts in examples/."""
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    readme = (EXAMPLES_DIR.parent / "README.md").read_text()
    listed = set(re.findall(r"^\| `examples/([\w.]+\.py)` \|", readme, re.M))
    assert listed == scripts


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart.py", "--seconds", "8")
    assert "Table 1 - update stream" in out
    assert "Baseline comparison" in out
    for name in ("UF", "TF", "SU", "OD"):
        assert name in out


def test_program_trading(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "program_trading.py", "--seconds", "8"
    )
    assert "Program trading" in out
    assert "stale aborts" in out
    assert "Highest value per second" in out


def test_plant_control(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "plant_control.py", "--seconds", "8")
    assert "Plant control" in out
    assert "red lights" in out


def test_telecom_server(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "telecom_server.py", "--seconds", "8")
    assert "Telecom server" in out
    assert "p_success ranking" in out
    # UF's UU hallmark must hold even at a tiny scale.
    assert "UF stale fraction: 0.0000" in out


def test_deterministic_replay(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "deterministic_replay.py")
    assert "recorded" in out
    assert "Identical recorded stream" in out


def test_derived_analytics(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "derived_analytics.py", "--seconds", "12"
    )
    assert "Derived view 'book'" in out
    assert "equals a full recompute: True" in out
    assert "transform cost charged" in out


def test_live_quickstart(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "live_quickstart.py", "--seconds", "1"
    )
    assert "hand-submitted transaction" in out
    assert "final snapshot (simulator-compatible)" in out
    assert "updates: 0 installed" not in out


@pytest.mark.parametrize(
    "script",
    [path.name for path in sorted(EXAMPLES_DIR.glob("*.py"))],
)
def test_every_example_has_help(monkeypatch, capsys, script):
    monkeypatch.setattr(sys, "argv", [script, "--help"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    assert excinfo.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()
