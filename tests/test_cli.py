"""Tests for the single-run CLI (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main


def test_default_run(capsys):
    assert main(["--seconds", "5", "--lambda-u", "40"]) == 0
    out = capsys.readouterr().out
    assert "OD under ma" in out
    assert "p_MD" in out


def test_algorithm_and_staleness_selection(capsys):
    assert main([
        "--algorithm", "UF", "--seconds", "5", "--lambda-u", "40",
        "--staleness", "uu",
    ]) == 0
    assert "UF under uu" in capsys.readouterr().out


def test_abort_and_discipline_flags(capsys):
    assert main([
        "--algorithm", "TF", "--seconds", "5", "--lambda-u", "40",
        "--abort-stale", "--discipline", "lifo", "--max-age", "2.0",
    ]) == 0
    assert "TF under ma" in capsys.readouterr().out


def test_fx_fraction(capsys):
    assert main([
        "--algorithm", "FX", "--fraction", "0.3",
        "--seconds", "5", "--lambda-u", "40",
    ]) == 0
    assert "FX under" in capsys.readouterr().out


def test_indexed_queue_flag(capsys):
    assert main([
        "--algorithm", "OD", "--indexed-queue",
        "--seconds", "5", "--lambda-u", "40",
    ]) == 0


def test_replications_mode(capsys):
    assert main([
        "--algorithm", "TF", "--seconds", "4", "--lambda-u", "40",
        "--replications", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "2 replications" in out
    assert "±95% CI" in out


def test_explicit_warmup(capsys):
    assert main([
        "--seconds", "6", "--warmup", "2", "--lambda-u", "40",
    ]) == 0
    assert "(4s simulated" in capsys.readouterr().out


def test_unknown_algorithm_fails_loudly(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--algorithm", "NOPE", "--seconds", "5", "--lambda-u", "40"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "TF-SPLIT" in err  # the registry names are listed
    # The simulator is one pipeline; sharding is the live cluster's.
    with pytest.raises(SystemExit) as excinfo:
        main(["--shards", "2", "--seconds", "5", "--lambda-u", "40"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --shards 2" in err
    assert "Traceback" not in err


def test_algorithm_case_insensitive(capsys):
    assert main(["--algorithm", "tf", "--seconds", "5", "--lambda-u", "40"]) == 0
    assert "TF under ma" in capsys.readouterr().out


def test_parser_help_lists_algorithms():
    from repro.core.algorithms.registry import ALGORITHMS

    parser = build_parser()
    help_text = parser.format_help()
    for name in ALGORITHMS:
        assert name in help_text
    assert "scheduling algorithms:" in help_text  # registry-derived epilog
    assert "--replications" in help_text
