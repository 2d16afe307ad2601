"""Live runtime command line: ``python -m repro.live`` (or ``repro-live``).

Two subcommands::

    repro-live serve    # host the scheduler behind a TCP ingest socket
    repro-live loadgen  # stream synthesized or recorded traffic at a server

``serve`` runs until SIGINT/SIGTERM (or ``--seconds``), then drains
gracefully — ingest stops, the controller finishes its queue, and the final
metrics snapshot is printed as one JSON line.  ``loadgen`` draws the same
workload a simulator run with the same seed would draw, or replays a
recorded trace file.  Rates and latencies are measured by
``benchmarks/spine/run.py`` (see ``docs/PERFORMANCE.md``), not here.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import signal
import sys
import time
from dataclasses import asdict

from repro.config import SimulationConfig, StalenessPolicy, baseline_config
from repro.core.algorithms.registry import ALGORITHMS
from repro.live.cluster import ShardCluster
from repro.live.durability import FSYNC_POLICIES
from repro.live.loadgen import CrossShardSpreader, DirectClient, WireClient
from repro.live.observe import MetricsStreamer
from repro.live.server import ShardHost
from repro.live.wire import DEFAULT_CONNECT_ATTEMPTS
from repro.sim.streams import StreamFamily
from repro.workload.trace import load_trace, synthesize
from repro.workload.transactions import TransactionSpec


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", default="TF", type=str.upper,
                        choices=sorted(ALGORITHMS), metavar="ALGO",
                        help="scheduling algorithm: "
                        + ", ".join(sorted(ALGORITHMS)) + " (default TF)")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--max-age", type=float, default=None,
                        help="MA staleness threshold alpha (default 7s)")
    parser.add_argument("--mean-age", type=float, default=None,
                        help="mean pre-arrival network age of updates "
                        "(default 1s; 0 means generation order = "
                        "arrival order)")
    parser.add_argument("--staleness", choices=[p.value for p in StalenessPolicy],
                        default=StalenessPolicy.MAX_AGE.value)
    parser.add_argument("--ips", type=float, default=None,
                        help="CPU speed in instructions/second "
                        "(default: the paper's 50e6)")
    parser.add_argument("--indexed-queue", action="store_true", default=None,
                        help="hash-index the update queue (newest per object)")


def _build_config(args) -> SimulationConfig:
    config = baseline_config(
        duration=1.0, seed=args.seed, staleness=StalenessPolicy(args.staleness)
    )
    config.warmup = 0.0
    if args.max_age is not None:
        config = config.with_transactions(max_age=args.max_age)
    if args.mean_age is not None:
        config = config.with_updates(mean_age=args.mean_age)
    if args.ips is not None:
        config = config.with_system(ips=args.ips)
    if args.indexed_queue is not None:
        config = config.with_system(indexed_update_queue=args.indexed_queue)
    # Only a generator draws arrivals, so the rates are loadgen's alone.
    if getattr(args, "lambda_u", None) is not None:
        config = config.with_updates(arrival_rate=args.lambda_u)
    if getattr(args, "lambda_t", None) is not None:
        config = config.with_transactions(arrival_rate=args.lambda_t)
    return config.validate()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-live",
        description="Wall-clock STRIP runtime for the paper's schedulers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="host the scheduler on a TCP socket")
    _add_config_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7995)
    serve.add_argument("--shards", type=int, default=1,
                       help="shard the keyspace over this many worker "
                       "processes behind one ingest socket (default 1)")
    serve.add_argument("--seconds", type=float, default=None,
                       help="exit after this long (default: until SIGINT)")
    serve.add_argument("--metrics", default="-",
                       help="JSONL metrics destination: '-' for stdout, "
                       "a path, or 'none'")
    serve.add_argument("--metrics-interval", type=float, default=1.0)
    serve.add_argument("--drain-timeout", type=float, default=5.0)
    serve.add_argument("--restart-limit", type=int, default=1,
                       help="times the supervisor restarts a crashed shard "
                       "worker before marking the shard down and shedding "
                       "its records (sharded mode; default 1, 0 = never "
                       "restart)")
    serve.add_argument("--fail-shard", type=int, default=None, metavar="INDEX",
                       help="fault injection: SIGKILL this shard worker "
                       "after --fail-after seconds (sharded mode only)")
    serve.add_argument("--fail-after", type=float, default=1.0,
                       metavar="SECONDS",
                       help="delay before --fail-shard fires (default 1)")
    serve.add_argument("--log-dir", default=None, metavar="DIR",
                       help="durability: append admitted updates to a "
                       "per-shard write-ahead log under DIR and snapshot "
                       "periodically, so crashed shard workers restart "
                       "*warm* — snapshot + replay instead of a cold "
                       "empty runtime (default: off, restarts are cold)")
    serve.add_argument("--fsync", choices=list(FSYNC_POLICIES),
                       default="never",
                       help="log fsync policy: 'never' trusts the OS page "
                       "cache (survives process crashes, not power loss), "
                       "'interval' syncs at most every 200ms, 'always' "
                       "syncs every append (default never)")
    serve.add_argument("--snapshot-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="seconds between compacted snapshots; each "
                       "snapshot truncates the log to records newer than "
                       "it (default 5)")
    serve.add_argument("--view", action="append", default=[], metavar="SPEC",
                       help="register a derived view at startup "
                       "(repeatable); SPEC is NAME=KIND:PARTITION with "
                       "options, e.g. 'by8=sum:low,groups=8' or "
                       "'hot=top_k:high,k=4' — sharded mode registers it "
                       "on every worker and merges the per-shard reports")

    loadgen = sub.add_parser("loadgen",
                             help="stream traffic at a running server")
    _add_config_args(loadgen)
    loadgen.add_argument("--lambda-u", type=float, default=None,
                         help="update arrival rate (default 400/s)")
    loadgen.add_argument("--lambda-t", type=float, default=None,
                         help="transaction arrival rate (default 10/s)")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7995)
    loadgen.add_argument("--seconds", type=float, default=10.0)
    loadgen.add_argument("--trace", default=None,
                         help="replay this JSONL trace instead of synthesizing")
    loadgen.add_argument("--connect-attempts", type=int,
                         default=DEFAULT_CONNECT_ATTEMPTS,
                         help="connection attempts per (re)connect, with "
                         "exponential backoff — a restarting server is "
                         f"re-reached transparently (default "
                         f"{DEFAULT_CONNECT_ATTEMPTS})")
    loadgen.add_argument("--cross-shard-frac", type=float, default=0.0,
                         metavar="FRAC",
                         help="rewrite this fraction of multi-read "
                         "transactions to span shard boundaries (exercises "
                         "the cluster's scatter-gather path; needs "
                         "--shards >= 2; default 0 — workload unchanged)")
    loadgen.add_argument("--shards", type=int, default=1,
                         help="shard count of the target deployment, for "
                         "--cross-shard-frac's routing (default 1)")
    loadgen.add_argument("--view", action="append", default=[], metavar="SPEC",
                         help="register a derived view on the server before "
                         "streaming (repeatable); same SPEC syntax as "
                         "serve --view — acks are tallied in the outcome "
                         "counts as 'views_registered'")
    loadgen.add_argument("--direct", action="store_true",
                         help="smart-client mode: fetch the cluster's "
                         "topology record, rebuild the shard map locally "
                         "and stream records straight to the owning "
                         "workers; cross-shard transactions still travel "
                         "via the router (needs a sharded server)")
    return parser


def _install_stop_handlers(stop: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # non-Unix event loops
            signal.signal(sig, lambda *_: stop.set())


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
async def _serve(args) -> int:
    """One public socket, JSONL metric snapshots, SIGINT drains and prints
    the final result as one JSON line — from one :class:`ShardHost` in this
    process, or (``--shards N``) from N of them in worker processes behind
    a :class:`ShardCluster`, whose snapshots and result are the merged
    fleet's.  That choice is the only branch."""
    stop = asyncio.Event()
    _install_stop_handlers(stop)  # before the banner: see it, can signal it
    shared = dict(
        host=args.host, port=args.port, log_dir=args.log_dir,
        fsync=args.fsync, snapshot_interval=args.snapshot_interval,
        views=args.view,
    )
    config = args.config
    single = args.shards <= 1
    if single:
        node = ShardHost(config, args.algorithm, **shared)
        stats = await node.start()
        if stats is not None and stats.resumed:
            print(f"repro-live: warm restart — replayed "
                  f"{stats.replayed_records} logged records in "
                  f"{stats.replay_lag_s:.3f}s", file=sys.stderr, flush=True)
        print(f"repro-live: {args.algorithm} serving on {node.server.host}:"
              f"{node.server.port} (SIGINT drains and exits)",
              file=sys.stderr, flush=True)
        source = node.runtime
    else:
        node = source = ShardCluster(
            config, args.algorithm, shards=args.shards,
            restart_limit=args.restart_limit, **shared,
        )
        host, port = await node.start()
        print(f"repro-live: {args.algorithm} serving on {host}:{port} across "
              f"{args.shards} shard workers (ports {node.ports}; "
              f"SIGINT drains and exits)", file=sys.stderr, flush=True)
        if args.fail_shard is not None:
            print(f"repro-live: fault injection armed — SIGKILL shard "
                  f"{args.fail_shard} after {args.fail_after:.1f}s",
                  file=sys.stderr, flush=True)
            asyncio.get_running_loop().call_later(
                args.fail_after, node.kill_worker, args.fail_shard
            )

    streamer = None
    if args.metrics != "none":
        out = sys.stdout if args.metrics == "-" else args.metrics
        streamer = MetricsStreamer(source, out, interval=args.metrics_interval)
        streamer.start()

    if args.seconds is not None:
        asyncio.get_running_loop().call_later(args.seconds, stop.set)
    await stop.wait()

    print("repro-live: draining ...", file=sys.stderr, flush=True)
    if streamer is not None:
        await streamer.stop(final_emit=False)
    if single:
        result, drained = await node.stop(args.drain_timeout)
    else:
        result, drained = await node.shutdown(args.drain_timeout), True
    print(json.dumps(asdict(result)), flush=True)
    if not drained:
        print("repro-live: drain timed out with work still queued",
              file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# loadgen (TCP client)
# ----------------------------------------------------------------------
async def _loadgen(args) -> int:
    """Stream records at a server through a reconnecting wire client.

    Synthesized traffic and a ``--trace`` file are one time-ordered
    iterator, paced by one loop.  Connection loss mid-stream (a
    restarting shard worker, a bounced server) is absorbed by
    :class:`~repro.live.loadgen.WireClient`: the next record reconnects
    with backoff and the stream resumes — records in the gap are lost
    like any other shed update, and the tally reports how many
    reconnects happened.
    """
    counts: dict[str, int] = {}

    def on_record(record: dict) -> None:
        kind = record.get("kind")
        if kind == "outcome":
            key = record.get("outcome", "?")
            counts[key] = counts.get(key, 0) + 1
            if record.get("fanout"):  # merged cross-shard verdict
                counts["cross_shard"] = counts.get("cross_shard", 0) + 1
        elif kind == "error" and record.get("reason") == "shard_down":
            counts["shed_shard_down"] = counts.get("shed_shard_down", 0) + 1
        elif kind == "view-registered":
            counts["views_registered"] = counts.get("views_registered", 0) + 1

    client_cls = DirectClient if args.direct else WireClient
    client = client_cls(
        args.host, args.port, attempts=args.connect_attempts,
        on_record=on_record,
    )
    try:
        await client.connect()
    except ConnectionError as exc:
        print(f"repro-live loadgen: {exc}", file=sys.stderr)
        return 1
    if args.direct:
        print(f"repro-live loadgen: direct mode — routing over "
              f"{client.router.shards} workers (topology epoch "
              f"{client.epoch})", file=sys.stderr, flush=True)
    config = args.config
    if args.view:
        # Registrations travel in-order ahead of the stream, so every
        # subsequent install is already a delta against the new views.
        from repro.db.views import ViewSpec
        for offset, spec_text in enumerate(args.view):
            await client.send({
                "kind": "register_view",
                "rid": 1_000_000_000 + offset,
                "view": ViewSpec.parse(spec_text).to_record(),
            })
        client.flush()
    streams = StreamFamily(config.seed)
    spreader = None
    if args.cross_shard_frac > 0.0:
        spreader = CrossShardSpreader(
            config.updates.n_low, config.updates.n_high, streams,
            frac=args.cross_shard_frac, shards=args.shards,
        )
    if args.trace is None:
        items = synthesize(config, until=args.seconds, streams=streams)
        end = args.seconds
    else:
        items = sorted(load_trace(args.trace), key=lambda i: i.arrival_time)
        end = math.inf
    sent = 0
    start = time.monotonic()
    for item in items:
        now = time.monotonic() - start
        if now >= end:
            break  # running behind: stop on time all the same
        if item.arrival_time > now:
            await asyncio.sleep(item.arrival_time - now)
        if spreader is not None and isinstance(item, TransactionSpec):
            item = spreader.spread(item)
        try:
            await client.send(item)
        except ConnectionError:
            continue  # retry budget exhausted mid-stream; drop like a shed
        sent += 1
        await client.backpressure()

    with contextlib.suppress(ConnectionError):
        await client.drain()
    # Give in-flight transaction outcomes a moment to come back.
    await asyncio.sleep(0.25)
    await client.aclose()
    elapsed = time.monotonic() - start
    reconnects = (f"; reconnects: {client.reconnects}"
                  if client.reconnects else "")
    direct = ""
    if args.direct:
        direct = (f"; direct: {client.direct_sends} direct, "
                  f"{client.routed_specs} routed, "
                  f"{client.moved_redirects} moved, "
                  f"{client.topology_refreshes} refreshes")
    print(f"repro-live loadgen: sent {sent} records in {elapsed:.2f}s "
          f"({sent / elapsed:.0f}/s); outcomes: {counts or '{}'}"
          f"{reconnects}{direct}")
    return 0


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        if args.shards < 1:
            parser.error(f"--shards must be >= 1, got {args.shards}")
        if args.restart_limit < 0:
            parser.error("--restart-limit must be >= 0, got "
                         f"{args.restart_limit}")
        # A sharded-only flag: refuse it, rather than silently serve a
        # plain node that arms no fault.
        if args.shards < 2 and args.fail_shard is not None:
            parser.error("--fail-shard: need --shards > 1")
        if args.fail_shard is not None and not 0 <= args.fail_shard < args.shards:
            parser.error(f"--fail-shard {args.fail_shard} out of range for "
                         f"{args.shards} shards")
    elif args.cross_shard_frac:
        if not 0.0 <= args.cross_shard_frac <= 1.0:
            parser.error("--cross-shard-frac must be in [0, 1], got "
                         f"{args.cross_shard_frac}")
        if args.shards < 2:
            parser.error("--cross-shard-frac: need --shards >= 2")
    # Refuse a bad config before anything binds or connects.
    try:
        args.config = _build_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    runner = {"serve": _serve, "loadgen": _loadgen}[args.command]
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
