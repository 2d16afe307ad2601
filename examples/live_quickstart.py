#!/usr/bin/env python3
"""Live quickstart: the paper's scheduler serving real wall-clock traffic.

Hosts the STRIP model on a real clock (``repro.live``), streams Poisson
update/transaction traffic at it for a few seconds, prints the periodic
metric snapshots as they happen, then submits one transaction by hand and
awaits its outcome before draining gracefully — everything the simulator
measures, measured live.

Usage::

    python examples/live_quickstart.py [--seconds 5] [--algorithm OD]
"""

from __future__ import annotations

import argparse
import asyncio

from repro import baseline_config
from repro.core.algorithms.registry import ALGORITHMS
from repro.live import LiveRuntime, LoadGenerator, MetricsStreamer
from repro.workload.transactions import TransactionSpec


async def live_demo(args) -> None:
    config = baseline_config(duration=1.0, seed=args.seed)
    config.warmup = 0.0
    # A modest live load: 300 updates/s and 10 transactions/s against the
    # paper's 50-MIPS cost model leaves visible headroom on any laptop.
    config = config.with_updates(arrival_rate=args.lambda_u)
    config = config.with_transactions(arrival_rate=10.0)

    runtime = LiveRuntime(config, args.algorithm)
    runtime.start()

    generator = LoadGenerator(runtime)
    generator.start()

    streamer = MetricsStreamer(runtime, interval=1.0)
    streamer.start()

    print(f"serving {args.algorithm} live for {args.seconds:g}s "
          f"(lambda_u={args.lambda_u:g}/s) ...")
    end = asyncio.get_running_loop().time() + args.seconds
    while asyncio.get_running_loop().time() < end:
        await asyncio.sleep(1.0)
        if streamer.history:
            print(streamer.format_line(streamer.history[-1]))

    # Stop the traffic, then submit one transaction by hand (the next
    # unused sequence number) and watch it resolve.
    generator.stop()
    spec = TransactionSpec(
        seq=generator.transactions_sent, arrival_time=runtime.clock.now,
        high_value=True, value=2.0, compute_time=0.01, reads=(0, 1), slack=1.0,
    )
    handle = runtime.submit(spec)
    outcome = await handle.wait()
    print(f"hand-submitted transaction #{spec.seq}: {outcome} "
          f"(stale read: {handle.read_stale})")

    await streamer.stop(final_emit=False)
    result = await runtime.shutdown()

    print()
    print("final snapshot (simulator-compatible):")
    print(f"  {result.summary()}")
    print(f"  updates: {result.updates_applied} installed, "
          f"{result.updates_os_dropped} OS-dropped, "
          f"{result.updates_expired} expired")
    extras = result.extras
    p99 = extras["install_latency_p99"]
    print(f"  install latency p99: "
          f"{'n/a' if p99 is None else f'{p99 * 1e3:.2f} ms'}; "
          f"worst dispatch lag: {extras['dispatch_lag_worst'] * 1e3:.2f} ms")
    print(f"  watchdog alerts: {extras['watchdog_alerts']}, "
          f"transactions shed: {extras['transactions_shed']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="wall-clock seconds to serve (default 5)")
    parser.add_argument("--algorithm", default="OD", type=str.upper,
                        choices=sorted(ALGORITHMS), metavar="ALGO",
                        help=", ".join(sorted(ALGORITHMS)) + " (default OD)")
    parser.add_argument("--lambda-u", type=float, default=300.0,
                        help="update arrival rate (default 300/s)")
    parser.add_argument("--seed", type=int, default=1995)
    asyncio.run(live_demo(parser.parse_args()))


if __name__ == "__main__":
    main()
