"""``sim_paper``: the paper's own artifact, in-process, with no result cache.

Six algorithms x the Tables 1-3 baseline (``baseline_config``: lambda_u=400,
lambda_t=10, ips=50e6) on the discrete-event engine.  ``core.controller``,
``db.update_queue``, ``sim.engine`` and ``metrics.freshness`` do all the
work; codec, wire and asyncio do none.  Counts and the result digest repeat
exactly for a seed; only the wall-clock figures vary.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict

from repro.config import baseline_config
from repro.core.simulator import Simulation
from repro.sim.streams import derive_seed

from hostspeed import host_speed, probe_burst

ALGORITHMS = ("UF", "TF", "SU", "OD", "FX", "TF-SPLIT")

#: Simulated seconds per second of ``--seconds`` (12 -> 360), shared
#: between :data:`SUITES` suites on seeds derived from ``--seed``.
SIM_SECONDS_PER_SECOND = 30.0
SUITES = 3

#: The determinism check reruns the suite twice at this fixed small scale.
QUICK_SIM_SECONDS = 30.0

_COLD_START = (
    "from repro.config import baseline_config\n"
    "from repro.core.simulator import Simulation\n"
    "Simulation(baseline_config(), 'TF')\n"
)


def cold_start(src: str) -> float:
    """Wall seconds for a fresh interpreter to import, configure and wire."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", _COLD_START], env=env, check=True)
    return time.perf_counter() - began


def suite_seed(seed: int, index: int) -> int:
    """The seed of suite ``index``: a function of ``--seed`` alone."""
    return derive_seed(seed, f"spine.suite:{index}")


def digest(results: "list[dict]") -> str:
    """sha256 over the six ``asdict`` results, in suite order."""
    return hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()
    ).hexdigest()


def run_suite(seed: int, sim_seconds: float, tracer=None,
              probed: bool = False) -> dict:
    """Run all six algorithms once.

    Returns the ``asdict`` results, per-algorithm wall seconds, and the
    wall-clock milliseconds the simulator needed to carry each simulated
    transaction from its arrival event to its outcome — the simulator's
    stand-in for client-side latency (the simulated response time itself
    is deterministic, so it cannot show a faster engine).

    With ``probed``, a burst of host-speed probes runs before every
    algorithm; the suite's ``speed`` is their median against the
    reference, and ``probe_s`` the time they took.
    """
    config = baseline_config(duration=sim_seconds, seed=seed)
    results, wall, txn_ms = [], {}, []
    bursts, probe_s = [], 0.0
    for algorithm in ALGORITHMS:
        if probed:
            began = time.perf_counter()
            bursts.append(probe_burst(200))
            probe_s += time.perf_counter() - began
        outer = tracer.begin(f"sim.{algorithm}") if tracer else -1
        began = time.perf_counter()
        inner = tracer.begin("core.wiring") if tracer else -1
        simulation = Simulation(config, algorithm)
        if tracer:
            tracer.end(inner)
        arrived: "dict[int, float]" = {}
        deliver = simulation.transaction_generator.sink

        def on_arrival(spec, _deliver=deliver, _arrived=arrived):
            _arrived[spec.seq] = time.perf_counter()
            _deliver(spec)

        def on_outcome(txn, _arrived=arrived):
            txn_ms.append(
                (time.perf_counter() - _arrived.pop(txn.spec.seq)) * 1e3
            )

        simulation.transaction_generator.sink = on_arrival
        simulation.controller.outcome_listener = on_outcome
        inner = tracer.begin("sim.engine.run") if tracer else -1
        result = simulation.run()
        if tracer:
            tracer.end(inner)
        wall[algorithm] = time.perf_counter() - began
        if tracer:
            tracer.end(outer)
        results.append(asdict(result))
    return {"results": results, "wall": wall, "txn_ms": txn_ms,
            "probe_s": probe_s,
            "speed": host_speed(bursts) if probed else 1.0}
