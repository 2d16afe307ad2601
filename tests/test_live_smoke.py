"""Wall-clock smoke tests: the live runtime end to end, in real time.

These run the full stack — WallClock, asyncio dispatcher, load generator,
metrics streamer, TCP ingest, graceful shutdown — for a couple of real
seconds.  Thresholds are deliberately loose (CI machines are slow and
noisy); throughput and latency are measured by benchmarks/spine/run.py
(workloads node_steady / node_saturate), not asserted here.
"""

import asyncio
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import baseline_config
from repro.live import (
    IngestServer,
    LiveRuntime,
    LoadGenerator,
    MetricsStreamer,
)
from repro.live.__main__ import main as live_main
from repro.workload.trace import save_trace, spec_to_dict, synthesize, update_to_dict
from repro.workload.transactions import TransactionSpec
from repro.db.objects import ObjectClass, Update

REPO_ROOT = Path(__file__).resolve().parent.parent


def _smoke_config(update_rate=2000.0):
    config = baseline_config(duration=1.0, seed=7)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=update_rate, mean_age=0.01)
    config = config.with_transactions(arrival_rate=20.0, compute_mean=0.002,
                                      compute_stdev=0.0005)
    return config.with_system(ips=5e8)


def test_live_smoke_end_to_end(tmp_path):
    """~2s of live traffic: metrics flow, accounting holds, drain is clean."""
    metrics_path = tmp_path / "metrics.jsonl"

    async def scenario():
        runtime = LiveRuntime(_smoke_config(), "TF")
        runtime.start()
        generator = LoadGenerator(runtime)
        generator.start()
        streamer = MetricsStreamer(runtime, metrics_path, interval=0.25)
        streamer.start()
        await asyncio.sleep(1.5)
        mid = runtime.snapshot()
        generator.stop()
        await streamer.stop()
        result = await runtime.shutdown()
        return runtime, generator, streamer, mid, result

    runtime, generator, streamer, mid, result = asyncio.run(scenario())

    # Traffic actually flowed, and the mid-run snapshot saw it.
    assert generator.updates_sent > 500
    assert mid.updates_applied > 0
    assert mid.transactions_arrived > 0

    # The final snapshot is non-empty and self-consistent.
    assert result.updates_arrived > 0
    assert result.updates_applied > 0
    assert result.transactions_committed > 0
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
    assert result.extras["install_latency_p99"] is not None

    # Clean shutdown: CPU idle, nothing half-processed, streamer wrote.
    assert runtime.controller.idle
    assert len(runtime.os_queue) == 0
    assert not runtime.accepting
    lines = metrics_path.read_text().strip().splitlines()
    assert len(lines) >= 3
    assert json.loads(lines[-1])["updates_arrived"] > 0
    assert streamer.history


def test_live_server_roundtrip():
    """TCP ingest: updates install, transactions come back with outcomes."""

    async def scenario():
        runtime = LiveRuntime(_smoke_config(update_rate=100.0), "TF")
        runtime.start()
        server = IngestServer(runtime)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)

        update = Update(seq=0, klass=ObjectClass.VIEW_LOW, object_id=1,
                        value=42.0, generation_time=0.0, arrival_time=0.0)
        spec = TransactionSpec(seq=0, arrival_time=0.0, high_value=False,
                               value=1.0, compute_time=0.001, reads=(1,),
                               slack=2.0)
        writer.write(json.dumps(update_to_dict(update)).encode() + b"\n")
        writer.write(json.dumps(spec_to_dict(spec)).encode() + b"\n")
        writer.write(b'{"kind": "snapshot"}\n')
        writer.write(b"not json\n")
        await writer.drain()

        replies = []
        for _ in range(3):
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            replies.append(json.loads(line))
        writer.close()
        await server.stop()
        result = await runtime.shutdown()
        return replies, result, server

    replies, result, server = asyncio.run(scenario())
    kinds = {r["kind"] for r in replies}
    assert kinds == {"snapshot", "outcome", "error"}
    outcome = next(r for r in replies if r["kind"] == "outcome")
    assert outcome["outcome"] == "committed"
    assert outcome["read_stale"] is False
    assert server.records_received == 2
    assert server.errors == 1
    assert result.updates_applied >= 1
    assert result.transactions_committed == 1


@contextlib.contextmanager
def _serve_cli():
    """A `repro-live serve --port 0` process, its port read off the
    banner; SIGINT on the way out.  Yields ``(port, outcome)``, and
    ``outcome`` is filled with ``(returncode, stdout, stderr)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.live", "serve",
         "--port", "0", "--metrics", "none", "--drain-timeout", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    outcome = []
    try:
        # Wait for the "serving on" banner so SIGINT lands after startup.
        deadline = time.monotonic() + 10
        banner = b""
        while b"serving on" not in banner and time.monotonic() < deadline:
            banner += proc.stderr.read1(4096)
        assert b"serving on" in banner
        yield int(re.search(rb"serving on [^ ]+:(\d+)", banner)[1]), outcome
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=15)
        outcome.extend((proc.returncode, out.decode(), err.decode()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_serve_cli_drains_cleanly_on_sigint(tmp_path):
    """`repro-live serve` + SIGINT → exit 0 and a final JSON snapshot."""
    with _serve_cli() as (_, outcome):
        pass
    returncode, out, err = outcome
    assert returncode == 0, err
    snapshot = json.loads(out.strip().splitlines()[-1])
    assert snapshot["algorithm"] == "TF"
    assert snapshot["duration"] > 0


@pytest.mark.parametrize("mode", ["synthesis", "trace"])
def test_loadgen_cli_delivers_every_update_it_sends(tmp_path, mode, capsys):
    """`repro-live loadgen` against a real `serve`, synthesizing or
    replaying a trace file: the server's final snapshot counts every
    update the loadgen sent."""
    config = baseline_config(seed=5).with_updates(arrival_rate=300.0)
    config = config.with_transactions(arrival_rate=5.0)
    argv = ["--seed", "5", "--lambda-u", "300", "--lambda-t", "5",
            "--seconds", "1"]
    items = list(synthesize(config, until=1.0))
    if mode == "trace":
        path = tmp_path / "trace.jsonl"
        items = list(synthesize(config.replace(seed=6), until=0.5))
        save_trace(path, items)
        argv += ["--trace", str(path), "--wire", "binary"]
    with _serve_cli() as (port, outcome):
        assert live_main(["loadgen", "--port", str(port), *argv]) == 0
    returncode, out, err = outcome
    assert returncode == 0, err
    assert "Traceback" not in err
    assert f"sent {len(items)} records" in capsys.readouterr().out
    snapshot = json.loads(out.strip().splitlines()[-1])
    assert snapshot["updates_arrived"] == sum(
        isinstance(item, Update) for item in items
    ) > 0

