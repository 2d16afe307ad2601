#!/usr/bin/env python3
"""The measurement spine: one command, five workloads, every metric by name.

    python3 benchmarks/spine/run.py --workload <name|all> --seed <int> \
        [--seconds N] [--trace [0|1]] [--quick] [--out FILE]

Each workload run prints every metric with its unit, checks the program's
outputs, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Any violated
check makes the exit status non-zero.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(REPO, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: nothing to measure: {os.path.join(SRC, 'repro')} is missing")
sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from repro.metrics.storage import result_from_dict  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import live  # noqa: E402
import simload  # noqa: E402
from trace import TICK_S, WARMUP_RATE, WARMUP_S, build_trace  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: A run of an open-loop, sub-capacity workload whose generator ran later
#: than this is measuring the harness, not the server.
LATE_P99_LIMIT_MS = 50.0

#: Closed loop: updates the server has not settled yet, kept below OSmax
#: (4000) so that nothing is ever shed.
UNSETTLED_CAP = 3000

#: ``--quick``: 3 s windows (and, through them, 3 x 30 simulated seconds).
QUICK_SECONDS = 3.0

#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 5

#: The window is cut into slices of this many 2 ms ticks (1 s).
SLICE_TICKS = 500


@dataclass(frozen=True)
class LiveWorkload:
    """One traffic mix against one ``serve`` deployment.

    Attributes:
        phases: The measured window as ``(share of --seconds, updates/s)``
            segments.  In a closed loop the rate is only the *ceiling* the
            trace is generated for.
        closed: Closed loop (see :func:`live.drive`) instead of open.
        below_capacity: The offered load is meant to be absorbed in full,
            so generator lateness invalidates the run.
        steady: The window is one regime, so rates and CPU are reported as
            the median over its slices; an episode reports window totals.
        latency_from: Share of the window after which transactions count
            toward ``txn_p50_ms``/``txn_p95_ms`` (0 = the whole window).
    """

    name: str
    phases: "tuple[tuple[float, float], ...]"
    closed: bool = False
    below_capacity: bool = True
    steady: bool = True
    latency_from: float = 0.0
    serve_args: "tuple[str, ...]" = ()
    shards: int = 1
    cross_shard_frac: float = 0.0
    wal: bool = False
    views: "tuple[str, ...]" = ()


CLUSTER_VIEWS = ("by8=sum:low,groups=8", "hot=top_k:high,k=4")

LIVE = {
    workload.name: workload for workload in (
        LiveWorkload("node_steady", phases=((1.0, 20_000.0),)),
        # 140k/s is only the ceiling the trace is generated for: about 1.4x
        # what this host absorbs in its fast mode.
        LiveWorkload("node_saturate", phases=((1.0, 140_000.0),), closed=True,
                     below_capacity=False),
        # A burst at 2-3x capacity, then the same stream back at 20k/s: the
        # collapse is in the first phase, the episode totals stay away from
        # zero, and the latency slots ask whether the server came back
        # (last third of the window).
        LiveWorkload("node_overload",
                     phases=((0.125, 200_000.0), (0.625, 20_000.0)),
                     below_capacity=False, steady=False, latency_from=2.0 / 3.0),
        LiveWorkload(
            "cluster_mixed", phases=((1.0, 15_000.0),), shards=2,
            cross_shard_frac=0.3, wal=True, views=CLUSTER_VIEWS,
            serve_args=("--shards", "2", "--fsync", "never",
                        "--snapshot-interval", "5",
                        "--view", CLUSTER_VIEWS[0], "--view", CLUSTER_VIEWS[1]),
        ),
    )
}
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


def percentile(values: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def conservation(result: dict, who: str) -> "list[str]":
    """Violations of the two conservation laws on one final result."""
    rebuilt = result_from_dict(result)
    gaps = (("update", rebuilt.update_conservation_gap()),
            ("transaction", rebuilt.transaction_conservation_gap()))
    return [f"{who}: {kind} conservation gap {gap}" for kind, gap in gaps if gap]


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------
ABSORBED = ("updates_applied", "updates_skipped", "updates_superseded")


def run_live(workload: LiveWorkload, seed: int, seconds: float,
             traced: bool) -> dict:
    phases = [(WARMUP_S, WARMUP_RATE)] + [
        (share * seconds, rate) for share, rate in workload.phases
    ]
    trace = build_trace(
        seed, phases, shards=workload.shards,
        cross_shard_frac=workload.cross_shard_frac,
        join_txns=not workload.closed,
    )
    warm_ticks = round(WARMUP_S / TICK_S)
    first_phase_end = warm_ticks + round(phases[1][0] / TICK_S)
    total_ticks = len(trace.blobs)
    marks = {first_phase_end: "phase"} if first_phase_end < total_ticks else {}

    def new_server() -> live.Server:
        return live.Server(workload.name, workload.serve_args, wal=workload.wal)

    setups = [live.cold_start(new_server()) for _ in range(COLD_STARTS - 1)]
    server = new_server()
    # The trace is a million small objects: keep the collector from walking
    # them (tens of ms per pass) while the load loop is keeping a schedule.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        setup_s, _ = server.start()
        setups.append(setup_s)
        session = live.Session(server)
        driven = live.drive(
            session, server, trace, warm_ticks=warm_ticks,
            slice_ticks=SLICE_TICKS, marks=marks,
            unsettled_cap=UNSETTLED_CAP if workload.closed else None,
        )
        # Up to 2 s for in-flight outcomes before the drain is requested.
        deadline = time.perf_counter() + 2.0
        while session.due and time.perf_counter() < deadline:
            session.pump(time.perf_counter() + 0.01)
        workers = live.worker_snapshots(driven.polls[-1])
        peak_rss_mb = server.peak_rss_mb()
        log_bytes = server.log_dir_bytes()
        final, tree_cpu_s = server.stop()
        session.close()
    except BaseException:
        server.kill()
        raise
    finally:
        gc.enable()

    first, last = driven.boundaries[0], driven.boundaries[-1]
    start, end = first.snapshot, last.snapshot
    phase = next((mark.snapshot for mark in driven.boundaries
                  if mark.rid == "phase"), end)
    server_window_s = end["duration"] - start["duration"]
    violations = conservation(final, "final result")
    if server_window_s <= 0:
        violations.append("the window has no duration")
    for earlier, later in zip(driven.polls, driven.polls[1:]):
        for key in live.MONOTONE:
            if later[key] < earlier[key]:
                violations.append(f"counter {key} went backwards in the window")

    def delta(key: str, since: dict = start, until: dict = end) -> float:
        return until[key] - since[key]

    def absorbed(since: dict, until: dict) -> float:
        return sum(delta(key, since, until) for key in ABSORBED)

    def records_sent(since: live.Boundary, until: live.Boundary) -> int:
        return (until.updates_sent - since.updates_sent
                + until.txns_sent - since.txns_sent)

    def cpu_s(since: live.Boundary, until: live.Boundary) -> float:
        return sum(until.cpu.get(pid, 0.0) - seconds_then
                   for pid, seconds_then in since.cpu.items())

    def latencies_ms(from_tick: int, to_tick: int) -> "list[float]":
        return [session.answered[seq][0] * 1e3
                for tick, seq in driven.window_txns
                if from_tick <= tick < to_tick and seq in session.answered]

    def fresh_ratio(seqs) -> float:
        fresh = sum(1 for seq in seqs
                    if seq in session.answered
                    and session.answered[seq][1] == "committed"
                    and not session.answered[seq][2])
        return fresh / max(1, len(seqs))

    # One row per 1 s slice of the window.  This host runs the same code in
    # a fast and a slow mode, seconds to minutes at a time (hostspeed.py),
    # and a total over the window inherits whatever mix it happened to get.
    latency_tick = warm_ticks + workload.latency_from * (total_ticks - warm_ticks)
    slices = []
    for since, until in zip(driven.boundaries, driven.boundaries[1:]):
        if until.tick - since.tick < SLICE_TICKS // 2:
            continue
        server_s = until.snapshot["duration"] - since.snapshot["duration"]
        sample = latencies_ms(since.tick, until.tick)
        slices.append({
            "absorbed_per_s":
                absorbed(since.snapshot, until.snapshot) / max(server_s, 1e-9),
            "cpu_us_per_record":
                cpu_s(since, until) * 1e6 / max(1, records_sent(since, until)),
            "txn_p50_ms": percentile(sample, 0.50),
            "txn_p95_ms": percentile(sample, 0.95),
            "speed": hostspeed.host_speed(
                [burst for tick, burst in driven.probes
                 if since.tick <= tick < until.tick]),
            "in_latency_window": since.tick >= latency_tick - 1,
        })
    if not slices:
        raise SystemExit("run.py: the window is shorter than one slice")

    def over_slices(key: str, rows=slices, better: str = "lower") -> float:
        """One number from the slices of a steady window.

        Closed loop: the busy CPU sets rate and latency alike, so each
        slice is scaled to the reference host speed measured in it, and
        the median slice is reported.  Open loop: the probe runs beside
        the load generator, not on the server's core, and does not follow
        the server's speed; the median of the *best quarter* of slices —
        what the program does when the host lets it — repeats best.
        """
        if workload.closed:
            return statistics.median(
                row[key] / row["speed"] if better == "higher"
                else row[key] * row["speed"] for row in rows)
        ordered = sorted((row[key] for row in rows), reverse=better == "higher")
        return statistics.median(ordered[:max(1, len(ordered) // 4)])

    latency_rows = [row for row in slices if row["in_latency_window"]] or slices
    window = [seq for tick, seq in driven.window_txns]
    first_phase = [seq for tick, seq in driven.window_txns if tick < first_phase_end]
    unanswered = len(session.due)
    attempted = driven.updates_sent + driven.txns_sent
    failed = len(session.errors) + unanswered
    if violations:
        failed = attempted  # a broken ledger taints every record of the run
    late_ms = [value * 1e3 for value in driven.late]
    late_p99_ms = percentile(late_ms, 0.99)
    run_speed = statistics.median(row["speed"] for row in slices)
    # `invalid` marks a disturbed *measurement* (the outputs are still
    # correct): it is printed and recorded, and compare.py leaves such runs
    # out — but only output violations fail the run.
    invalid = []
    if workload.below_capacity and late_p99_ms > LATE_P99_LIMIT_MS:
        invalid.append(f"generator ran late (p99 {late_p99_ms:.1f} ms)")
    if workload.closed:
        if delta("updates_os_dropped") or delta("updates_overflowed"):
            violations.append("the closed loop shed updates: invalid, not slow")
        if driven.exhausted:
            invalid.append("the closed loop ran out of trace: raise its ceiling")

    window_records = records_sent(first, last)
    if not workload.steady:
        # An episode: its phases differ, only the totals mean anything.
        absorbed_per_s = absorbed(start, end) / max(server_window_s, 1e-9)
        cpu_us_per_record = cpu_s(first, last) * 1e6 / window_records
    else:
        cpu_us_per_record = over_slices("cpu_us_per_record")
        if workload.closed:
            absorbed_per_s = over_slices("absorbed_per_s", better="higher")
        else:  # pinned by the schedule, not by the host
            absorbed_per_s = statistics.median(
                row["absorbed_per_s"] for row in slices)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "absorbed_per_s": absorbed_per_s,
        "txn_p50_ms": over_slices("txn_p50_ms", latency_rows),
        "txn_p95_ms": over_slices("txn_p95_ms", latency_rows),
        "txn_success_ratio": fresh_ratio(window),
        "cpu_us_per_record": cpu_us_per_record,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - failed / attempted,
    }
    info = {
        "trace_sha256": trace.sha256,
        "slices": len(slices),
        "window_s": server_window_s,
        "whole_run_cpu_us_per_record": tree_cpu_s * 1e6 / attempted,
        "host_speed": run_speed,
        "slice_absorbed_per_s": [round(row["absorbed_per_s"]) for row in slices],
        "slice_speed": [round(row["speed"], 3) for row in slices],
        "outcomes": _tally(session, window),
        "unanswered": unanswered,
        "error_replies": len(session.errors),
    }
    out = {
        "end_to_end": end_to_end, "per_layer": None, "info": info,
        "attempted": attempted, "failed": failed,
        "violations": violations, "invalid": invalid,
    }
    if not traced:
        return out

    # ---- per-layer: counters from the window's wire snapshots ----------
    window_dur = max(server_window_s, 1e-9)
    phase_dur = max(phase["duration"] - start["duration"], 1e-9)

    def windowed(key: str) -> float:
        """A cumulative time-average, restricted to the window."""
        return (end[key] * end["duration"]
                - start[key] * start["duration"]) / window_dur

    extras_start, extras_end = start["extras"], end["extras"]
    gauges = workers or [end]

    def gauge(key: str, combine=max, scale: float = 1.0) -> float:
        values = [(snap["extras"].get(key) or 0.0) for snap in gauges]
        return combine(values) * scale

    def extra_delta(key: str) -> float:
        def total(value):
            return sum(value) if isinstance(value, list) else (value or 0)
        return total(extras_end.get(key)) - total(extras_start.get(key))

    routed = [b - a for a, b in zip(extras_start.get("updates_routed", []),
                                    extras_end.get("updates_routed", []))]
    leader = server.process.pid
    cpu = {pid: last.cpu.get(pid, 0.0) - seconds_then
           for pid, seconds_then in first.cpu.items()}
    appended = gauge("log_records_appended", sum)
    installs = delta("updates_applied") + delta("updates_skipped")
    view_reports = (extras_end.get("views") or {}).values()
    all_latencies = latencies_ms(warm_ticks, total_ticks)
    window_updates = last.updates_sent - first.updates_sent
    layer = dict.fromkeys(PER_LAYER, 0.0)  # layers that do not run here stay 0
    layer.update({
        "loadgen.offered_per_s": window_updates / (last.at - first.at),
        "loadgen.late_p50_ms": percentile(late_ms, 0.50),
        "loadgen.late_p99_ms": late_p99_ms,
        "loadgen.gen_s": trace.gen_s,
        "loadgen.txn_p99_ms": percentile(all_latencies, 0.99),
        "loadgen.txn_samples": len(all_latencies),
        "loadgen.snapshot_polls": len(driven.polls),
        "loadgen.first_phase_absorbed_per_s": absorbed(start, phase) / phase_dur,
        "loadgen.first_phase_success_ratio": fresh_ratio(first_phase),
        "loadgen.host_speed_ratio": run_speed,
        "server.records_received":
            delta("updates_arrived") + delta("transactions_arrived"),
        "server.errors": len(session.errors),
        "server.snapshot_rtt_ms": (
            statistics.median(w["rtt_s"] for w in workers) * 1e3 if workers
            else statistics.median(session.snapshot_rtts) * 1e3),
        "runtime.install_latency_p50_ms": gauge("install_latency_p50", max, 1e3),
        "runtime.install_latency_p99_ms": gauge("install_latency_p99", max, 1e3),
        "runtime.dispatch_lag_worst_ms": gauge("dispatch_lag_worst", max, 1e3),
        "runtime.os_queue_depth_max":
            max(snap["updates_pending_os"] for snap in driven.polls),
        "runtime.update_queue_depth_max":
            max(snap["updates_pending_queue"] for snap in driven.polls),
        "runtime.ingest_rejected": gauge("ingest_rejected", sum),
        "runtime.watchdog_alerts": gauge("watchdog_alerts", sum),
        "runtime.transactions_shed": gauge("transactions_shed", sum),
        "controller.applied_per_s": delta("updates_applied") / window_dur,
        "controller.skipped_ratio": delta("updates_skipped") / max(1, installs),
        "controller.rho_updates": windowed("rho_updates"),
        "controller.rho_transactions": windowed("rho_transactions"),
        "controller.context_switches": delta("context_switches"),
        "controller.preemptions": delta("preemptions"),
        "controller.events_dispatched": delta("events_dispatched"),
        "os_queue.dropped": delta("updates_os_dropped"),
        "os_queue.drop_ratio":
            delta("updates_os_dropped") / max(1, delta("updates_arrived")),
        "update_queue.overflowed": delta("updates_overflowed"),
        "update_queue.expired": delta("updates_expired"),
        "update_queue.superseded": delta("updates_superseded"),
        "update_queue.mean_length": end["mean_update_queue_length"],
        "freshness.fold_low": windowed("fold_low"),
        "freshness.fold_high": windowed("fold_high"),
        "freshness.fold_views": windowed("fold_views"),
        "freshness.stale_read_ratio":
            delta("stale_reads") / max(1, delta("view_reads")),
        "views.refreshes": delta("view_refreshes"),
        "views.pending_deltas":
            sum(report.get("pending_deltas", 0) for report in view_reports),
        "durability.log_records_appended": appended,
        "durability.log_bytes_per_rec": log_bytes / max(1, appended),
        "durability.snapshots_taken": gauge("snapshots_taken", sum),
        "durability.snapshot_errors": gauge("snapshot_errors", sum),
        "sharding.routed_skew":
            max(routed) / (sum(routed) / len(routed)) if sum(routed) else 0.0,
        "cluster.router_cpu_us_per_rec":
            cpu.get(leader, 0.0) * 1e6 / window_records if workers else 0.0,
        "cluster.worker_cpu_us_per_rec":
            sum(v for pid, v in cpu.items() if pid != leader) * 1e6
            / window_records if workers else 0.0,
        "cluster.records_received": extra_delta("records_received"),
        "cluster.cross_shard_submits": extra_delta("cross_shard_submits"),
        "cluster.fanout_sub_reads": extra_delta("fanout_sub_reads"),
        "cluster.sub_read_latency_p99_ms":
            (extras_end.get("sub_read_latency_p99") or 0.0) * 1e3,
        "cluster.sub_read_deadline_misses": extra_delta("sub_read_deadline_misses"),
        "cluster.shed_shard_down": extra_delta("shed_shard_down"),
        "cluster.worker_restarts": extra_delta("worker_restarts"),
        "cluster.snapshot_rtt_ms":
            statistics.median(session.snapshot_rtts) * 1e3 if workers else 0.0,
    })

    # ---- per-layer: the traced replay and the isolated spans -----------
    replayed = layers.traced_replay(workload, seed, phases, live.OUT)
    tracer, traced_run = replayed["tracer"], replayed["traced"]
    raw_ns = layers.decode_raw(tracer, replayed["batches"][:500])
    push_pop_ns = layers.update_queue_push_pop(tracer)
    view_ns = layers.views_delta(tracer, workload.views) if workload.views else 0.0
    wire = layers.wire_loop(tracer)
    tracer.write(os.path.join(live.OUT, f"{workload.name}.trace.json"))
    totals = tracer.totals()

    def spans_ns(name: str) -> float:
        return totals.get(name, {}).get("total_ns", 0)

    n_records = traced_run["updates"] + traced_run["txns"]
    layer.update({
        "codec.encode_ns_per_rec": spans_ns("codec.encode_frames") / n_records,
        "codec.decode_ns_per_rec": spans_ns("codec.decode") / n_records,
        "codec.decode_raw_ns_per_rec": raw_ns,
        "codec.bytes_per_rec": traced_run["bytes"] / n_records,
        "wire.write_ns_per_rec": wire["write_ns_per_rec"],
        "wire.read_ns_per_rec": wire["read_ns_per_rec"],
        "wire.rpc_rtt_us": wire["rpc_rtt_us"],
        "runtime.ingest_ns_per_rec":
            spans_ns("runtime.ingest_batch") / traced_run["updates"],
        "runtime.submit_us_per_txn":
            spans_ns("runtime.submit") / 1e3 / max(1, traced_run["txns"]),
        "runtime.snapshot_ms":
            spans_ns("runtime.snapshot") / 1e6 / max(1, traced_run["snapshots"]),
        "controller.drain_ns_per_install":
            spans_ns("engine.run_until") / max(1, traced_run["installs"]),
        "update_queue.push_pop_ns_per_rec": push_pop_ns,
        "views.delta_ns_per_install": view_ns,
        "durability.append_ns_per_rec":
            spans_ns("durability.append_batch") / traced_run["updates"],
        "durability.capture_state_ms":
            traced_run["capture_state_ms"] if workload.wal else 0.0,
        "sharding.route_ns_per_rec": spans_ns("sharding.route") / n_records,
        "trace.overhead_ratio":
            traced_run["wall_s"] / replayed["untraced"]["wall_s"],
    })
    if traced_run["counts_digest"] != replayed["untraced"]["counts_digest"]:
        violations.append("the replay's counts differ between its two runs")
    info["replay"] = {key: traced_run[key] for key in
                      ("updates", "txns", "applied", "installs", "committed",
                       "counts_digest")}
    out["per_layer"] = layer
    return out


def _tally(session, seqs) -> dict:
    counts: "dict[str, int]" = {}
    for seq in seqs:
        if seq in session.answered:
            _, outcome, stale = session.answered[seq]
            key = outcome + ("+stale" if stale else "")
        else:
            key = "unanswered"
        counts[key] = counts.get(key, 0) + 1
    return counts


# ----------------------------------------------------------------------
# sim_paper
# ----------------------------------------------------------------------
def run_sim(seed: int, seconds: float, traced: bool) -> dict:
    setups = [simload.cold_start(SRC) for _ in range(COLD_STARTS)]
    # Several short suites instead of one long one, each on its own seed
    # derived from --seed: every timing below is the median suite, which
    # sees through the seconds-long dips of this host's speed.
    simulated_s = seconds * simload.SIM_SECONDS_PER_SECOND / simload.SUITES
    suites = []
    for index in range(simload.SUITES):
        cpu_before = self_cpu_s()
        began = time.perf_counter()
        suite = simload.run_suite(simload.suite_seed(seed, index), simulated_s,
                                  probed=True)
        suite["wall_s"] = time.perf_counter() - began - suite["probe_s"]
        suite["cpu_s"] = self_cpu_s() - cpu_before - suite["probe_s"]
        suites.append(suite)
    results = [result for suite in suites for result in suite["results"]]
    violations = []
    for result in results:
        violations += conservation(
            result, f"sim {result['algorithm']} seed {result['seed']}")
    # Determinism: two further runs at a small fixed scale must agree with
    # each other bit for bit; one of them carries the spans.
    tracer = layers.Tracer(enabled=traced)
    began = time.perf_counter()
    quick_a = simload.run_suite(seed, simload.QUICK_SIM_SECONDS, tracer)
    traced_wall = time.perf_counter() - began
    began = time.perf_counter()
    quick_b = simload.run_suite(seed, simload.QUICK_SIM_SECONDS)
    untraced_wall = time.perf_counter() - began
    quick_digest = simload.digest(quick_a["results"])
    if quick_digest != simload.digest(quick_b["results"]):
        violations.append("two runs with one seed gave different result digests")

    def total(key: str, rows=results) -> float:
        return sum(row[key] for row in rows)

    def mean(key: str) -> float:
        return total(key) / len(results)

    def median_suite(value) -> float:
        return statistics.median(value(suite) for suite in suites)

    def records(suite) -> float:
        return (total("updates_arrived", suite["results"])
                + total("transactions_arrived", suite["results"]))

    attempted = total("updates_arrived") + total("transactions_arrived")
    failed = attempted if violations else 0
    # Everything the simulator does is CPU work, so every timing is scaled
    # to the reference host speed (see hostspeed.py).
    end_to_end = {
        "setup_s": statistics.median(setups),
        "absorbed_per_s": median_suite(
            lambda suite: sum(total(key, suite["results"]) for key in ABSORBED)
            / suite["wall_s"] / suite["speed"]),
        "txn_p50_ms": median_suite(
            lambda suite: percentile(suite["txn_ms"], 0.50) * suite["speed"]),
        "txn_p95_ms": median_suite(
            lambda suite: percentile(suite["txn_ms"], 0.95) * suite["speed"]),
        "txn_success_ratio": mean("p_success"),
        "cpu_us_per_record": median_suite(
            lambda suite: suite["cpu_s"] * 1e6 / records(suite) * suite["speed"]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    digest = simload.digest(results)
    txn_ms = [value for suite in suites for value in suite["txn_ms"]]
    info = {
        "sim_digest": digest,
        "quick_digest": quick_digest,
        "suites": len(suites),
        "simulated_s_per_suite": simulated_s,
        "host_speed": statistics.median(suite["speed"] for suite in suites),
        "txn_latency_samples": len(txn_ms),
    }
    out = {
        "end_to_end": end_to_end, "per_layer": None, "info": info,
        "attempted": attempted, "failed": failed,
        "violations": violations, "invalid": [],
    }
    if not traced:
        return out
    tracer.write(os.path.join(live.OUT, "sim_paper.trace.json"))
    installs = total("updates_applied") + total("updates_skipped")
    wall_s = sum(suite["wall_s"] for suite in suites)
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update({
        "loadgen.txn_p99_ms": percentile(txn_ms, 0.99),
        "loadgen.txn_samples": len(txn_ms),
        "loadgen.host_speed_ratio":
            statistics.median(suite["speed"] for suite in suites),
        "controller.applied_per_s": total("updates_applied") / wall_s,
        "controller.skipped_ratio": total("updates_skipped") / max(1, installs),
        "controller.rho_updates": mean("rho_updates"),
        "controller.rho_transactions": mean("rho_transactions"),
        "controller.context_switches": total("context_switches"),
        "controller.preemptions": total("preemptions"),
        "controller.events_dispatched": total("events_dispatched"),
        "os_queue.dropped": total("updates_os_dropped"),
        "os_queue.drop_ratio":
            total("updates_os_dropped") / total("updates_arrived"),
        "update_queue.overflowed": total("updates_overflowed"),
        "update_queue.expired": total("updates_expired"),
        "update_queue.superseded": total("updates_superseded"),
        "update_queue.mean_length": mean("mean_update_queue_length"),
        "update_queue.push_pop_ns_per_rec": layers.update_queue_push_pop(tracer),
        "freshness.fold_low": mean("fold_low"),
        "freshness.fold_high": mean("fold_high"),
        "freshness.stale_read_ratio":
            total("stale_reads") / max(1, total("view_reads")),
        "engine.events_per_s": median_suite(
            lambda suite: total("events_dispatched", suite["results"])
            / suite["wall_s"]),
        "engine.events_dispatched": total("events_dispatched"),
        # 48 bits of the sha256: exact in a double, enough to tell runs apart.
        "sim.digest": int(digest[:12], 16),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    for algorithm in simload.ALGORITHMS:
        layer[f"sim.{algorithm}.wall_s"] = median_suite(
            lambda suite: suite["wall"][algorithm])
    out["per_layer"] = layer
    return out


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def report(name: str, outcome: dict, traced: bool) -> dict:
    """Print one run's tables and its final JSON line; returns that line."""
    correct = not outcome["violations"]
    tables = [("end-to-end", outcome["end_to_end"], END_TO_END)]
    if traced:
        tables.append(("per-layer", outcome["per_layer"], PER_LAYER))
    for title, values, names in tables:
        missing = [key for key in names if key not in values]
        unknown = [key for key in values if key not in names]
        if missing or unknown:
            raise SystemExit(f"run.py: {name} {title} metrics disagree with "
                             f"BENCHMARK.json: missing {missing}, unknown {unknown}")
        print(f"== {name}: {title} ==")
        for key in names:
            print(f"  {key:<40} {values[key]:>18.6f} {UNITS[key]}")
    for key, value in outcome["info"].items():
        print(f"  info {key}: {json.dumps(value)}")
    for message in outcome["violations"]:
        print(f"  VIOLATION: {message}")
    for message in outcome["invalid"]:
        print(f"  INVALID: {message}")
    chosen, names = ((outcome["per_layer"], PER_LAYER) if traced
                     else (outcome["end_to_end"], END_TO_END))
    line = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {key: {"value": chosen[key], "unit": UNITS[key]}
                    for key in names},
    }
    print(json.dumps(line), flush=True)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of every generated input; the server "
                        "never sees it")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of a measured window (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced replay and report the "
                        "per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:.0f} s windows (smoke runs)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append every run to this JSON file "
                        "(input of compare.py)")
    args = parser.parse_args(argv)
    # A terminated harness must still take its server group down: turn
    # SIGTERM into an exception so the kill-the-group handlers run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = QUICK_SECONDS if args.quick else args.seconds
    traced = bool(args.trace)
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    status = 0
    runs = []
    for name in names:
        if name == "sim_paper":
            outcome = run_sim(args.seed, seconds, traced)
        else:
            outcome = run_live(LIVE[name], args.seed, seconds, traced)
        line = report(name, outcome, traced)
        if not line["correct"]:
            status = 1
        runs.append({
            "workload": name, "seed": args.seed, "seconds": seconds,
            "correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"], "end_to_end": outcome["end_to_end"],
            "per_layer": outcome["per_layer"], "info": outcome["info"],
            "violations": outcome["violations"], "invalid": outcome["invalid"],
        })
    if args.out:
        previous = []
        if os.path.exists(args.out):
            with open(args.out) as handle:
                previous = json.load(handle)["runs"]
        with open(args.out, "w") as handle:
            json.dump({"runs": previous + runs}, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
