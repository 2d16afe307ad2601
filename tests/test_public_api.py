"""Tests for the package's public API surface."""

import glob
import re
from pathlib import Path

import pytest

import repro
from repro.live.__main__ import build_parser, main as live_main


def test_version():
    assert repro.__version__ == "1.0.1"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_docstring_flow():
    """The flow in the package docstring must actually work."""
    config = repro.baseline_config(duration=3.0).with_updates(
        arrival_rate=40.0, n_low=10, n_high=10
    )
    lines = [
        repro.run_simulation(config, name).summary()
        for name in ("UF", "TF", "SU", "OD")
    ]
    assert len(lines) == 4
    assert all("pMD=" in line for line in lines)


def test_algorithms_registry_exported():
    assert set(repro.ALGORITHMS) >= {"UF", "TF", "SU", "OD"}


def test_simulation_class_exported():
    sim = repro.Simulation(
        repro.baseline_config(duration=2.0).with_updates(
            arrival_rate=20.0, n_low=5, n_high=5
        ),
        "TF",
    )
    result = sim.run()
    assert isinstance(result, repro.SimulationResult)


def test_enums_exported():
    assert repro.StalenessPolicy.MAX_AGE.value == "ma"
    assert repro.QueueDiscipline.LIFO.value == "lifo"
    assert repro.StaleReadAction.ABORT.value == "abort"
    assert repro.UpdatePattern.PERIODIC.value == "periodic"


def test_format_helpers_exported():
    table = repro.format_table(("a",), [(1,)])
    assert "a" in table


# ----------------------------------------------------------------------
# Docs cannot cite what does not exist
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    *(REPO_ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")),
    *sorted((REPO_ROOT / "docs").glob("*.md")),
    REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
#: A path under benchmarks/, or a bare bench file name (not the tail of a
#: longer identifier).
_BENCH_REF = re.compile(r"benchmarks/[\w*<>./-]*|(?<![\w/])bench_[\w*<>.-]*")
_FENCED = re.compile(r"```.*?```", re.DOTALL)
_LIVE_CLI = re.compile(r"(?:repro-live|python -m repro\.live)\s+([a-z|]+)")


def _as_glob(reference: str) -> str:
    """``bench_figN_*.py`` and ``out/<workload>.log`` are patterns."""
    reference = re.sub(r"<[^>]*>", "*", reference.rstrip(".,-"))
    return reference.replace("figN", "fig*")


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_docs_cite_only_benchmarks_and_subcommands_that_exist(doc):
    text = doc.read_text(encoding="utf-8")
    for reference in set(_BENCH_REF.findall(text)):
        pattern = _as_glob(reference)
        if pattern.startswith("benchmarks/spine/out/"):
            continue  # what a spine run leaves behind; .gitignore lists it
        if not pattern.startswith("benchmarks/"):
            pattern = f"benchmarks/**/{pattern}*"
        assert glob.glob(str(REPO_ROOT / pattern), recursive=True), (
            f"{doc.name} cites {reference!r}, which matches no file"
        )
    fenced = _FENCED.findall(text)
    spans = fenced + re.findall(r"`([^`]+)`", _FENCED.sub("", text))
    for span in spans:
        for words in _LIVE_CLI.findall(span):
            for word in words.split("|"):
                # No subcommand needs an argument, so a known word parses.
                build_parser().parse_args([word])


def test_removed_subcommand_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as excinfo:
        live_main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
