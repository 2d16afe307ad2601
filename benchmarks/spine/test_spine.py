"""Smoke test of the measurement spine (run explicitly — about two minutes):

    PYTHONPATH=src python -m pytest benchmarks/spine/test_spine.py -q

Not part of tier-1's ``testpaths``: it spawns servers and takes real time.
A ``--quick`` pass over all five workloads, with and without ``--trace``,
asserts that every metric named in ``BENCHMARK.json`` is emitted once with
its unit, that names are well formed, and that the counts stay within the
benchmark contract's limits.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)


def _run(*args, timeout=600):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=REPO, capture_output=True,
        text=True, timeout=timeout,
    )


def _result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def test_spec_is_within_the_contract_limits():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(SPEC["workloads"]) == 5 <= 8
    assert len(SPEC["end_to_end"]) == 8 <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_pass_emits_every_named_metric_once(trace, key, tmp_path):
    out = tmp_path / "runs.json"
    done = _run("--workload", "all", "--seed", "7", "--quick",
                "--trace", trace, "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = _result_lines(done.stdout)
    assert len(lines) == len(SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == list(expected)  # each exactly once
        for name, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == expected[name]
            assert isinstance(entry["value"], (int, float))
        if key == "end_to_end":
            assert all(entry["value"] > 0 for entry in line["metrics"].values())
    recorded = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in recorded] == [
        w["name"] for w in SPEC["workloads"]]
    if trace == "1":
        for run in recorded:
            spans = json.load(open(os.path.join(
                HERE, "out", f"{run['workload']}.trace.json")))
            assert spans["spans"] and spans["totals"]
            assert run["per_layer"]["trace.overhead_ratio"] > 0


def test_trace_is_a_function_of_the_seed_alone():
    from trace import WARMUP_RATE, WARMUP_S, build_trace

    phases = [(0.2, WARMUP_RATE), (0.3, 50_000.0)]
    first = build_trace(11, phases)
    again = build_trace(11, phases)
    other = build_trace(12, phases)
    assert first.sha256 == again.sha256 and first.blobs == again.blobs
    assert first.sha256 != other.sha256
    assert first.update_count > 0 and first.txn_count > 0
    assert WARMUP_S > 0


def test_the_seed_never_reaches_the_serve_command_line():
    import live

    server = live.Server("probe", ("--shards", "2"), wal=True)
    server.port = 1
    server.wal_dir = "/nonexistent"
    command = server.command()
    assert "--seed" not in command
    assert command[command.index("--port") + 1] == "1"


def test_compare_says_unresolved_when_the_spread_exceeds_the_bound():
    from compare import verdict

    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [100.2, 99.8, 100.9, 100.1], "lower", 0.10) == "unchanged"
    assert verdict(steady, [120.0, 121.0, 119.5, 120.2], "lower", 0.10) == "worse"
    assert verdict(steady, [80.0, 81.0, 79.5, 80.2], "lower", 0.10) == "better"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert verdict(noisy, [105.0, 135.0, 75.0, 118.0], "lower", 0.10) == "unresolved"
    # ...unless every run of one side beats every run of the other.
    assert verdict(noisy, [50.0, 60.0, 40.0, 55.0], "lower", 0.10) == "better"


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    import shutil

    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "node_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not _result_lines(done.stdout)
