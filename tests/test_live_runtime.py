"""Tests for the live runtime against a mocked (engine) clock.

The central claim of repro.live is that it hosts the *same* model as the
simulator — same controller, same algorithms, same queues and accounting —
just on a different clock.  These tests pin that down: with an Engine as
the runtime's clock, a recorded trace produces bit-identical results
through either front end.
"""

import asyncio
import math
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

from repro.config import baseline_config
from repro.core.simulator import Simulation
from repro.db.objects import ObjectClass
from repro.live import IngestServer, LiveRuntime, LoadGenerator
from repro.sim.engine import Engine
from repro.workload.codec import encode_lines
from repro.workload.trace import (
    load_trace,
    save_trace,
    split_trace,
    synthesize,
    synthetic_updates,
)
from repro.workload.transactions import TransactionSpec


def _config(**updates_kwargs):
    config = baseline_config(duration=5.0, seed=424242)
    config.warmup = 0.0
    updates_kwargs.setdefault("arrival_rate", 120.0)
    config = config.with_updates(**updates_kwargs)
    config = config.with_transactions(arrival_rate=10.0)
    return config


def _draw_workload(config):
    """Draw a full run's workload up front, using the simulator's draws."""
    return list(synthesize(config, until=config.duration))


def _run_simulator(config, algorithm, items):
    updates, specs = split_trace(items)
    return Simulation(config, algorithm).run_scripted(updates, specs)


def _run_live(config, algorithm, items):
    engine = Engine()
    runtime = LiveRuntime(config, algorithm, clock=engine)
    generator = LoadGenerator(runtime)
    generator.replay(items)
    engine.run_until(config.duration)
    return runtime.finalize(), runtime, generator


# ----------------------------------------------------------------------
# Parity with the simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"])
def test_trace_parity_with_simulator(tmp_path, algorithm):
    """Same recorded trace → identical outcomes through either front end."""
    config = _config()
    path = tmp_path / "trace.jsonl"
    save_trace(path, _draw_workload(config))

    # Load twice: Update objects carry mutable scheduling state, so each
    # run must get its own copies.
    sim_result = _run_simulator(config, algorithm, load_trace(path))
    live_result, _, _ = _run_live(config, algorithm, load_trace(path))

    sim_dict = asdict(sim_result)
    live_dict = asdict(live_result)
    sim_dict.pop("extras")
    live_dict.pop("extras")
    assert live_dict == sim_dict


@pytest.mark.parametrize("algorithm", ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"])
def test_synthesis_parity_with_simulator(algorithm):
    """``LoadGenerator.start()`` on an engine clock delivers what
    ``synthesize`` draws, at the drawn times: the same result as the
    simulator running that stream as a script."""
    config = _config()
    engine = Engine()
    runtime = LiveRuntime(config, algorithm, clock=engine)
    LoadGenerator(runtime).start()
    engine.run_until(config.duration)
    live_dict = asdict(runtime.finalize())
    sim_dict = asdict(_run_simulator(config, algorithm, _draw_workload(config)))
    sim_dict.pop("extras")
    live_dict.pop("extras")
    assert live_dict == sim_dict
    assert live_dict["transactions_arrived"] > 0


def test_a_late_pump_hands_over_everything_due_stamped_like_a_wire_record():
    """One delivery event that fires late hands over every due item —
    updates in batches of at most ``batch_max``, a transaction closing the
    batch before it — and shifts each item's times by its lateness,
    keeping the drawn network age; then it re-arms for what is not due."""

    class LateClock:
        now = 10.0

        def schedule_at(self, when, callback, *args):
            self.armed = (when, callback, args)

    batches, specs = [], []
    runtime = SimpleNamespace(
        clock=LateClock(), config=_config(),
        ingest_batch=lambda batch: batches.append(list(batch)) or len(batch),
        submit=specs.append,
    )
    updates = synthetic_updates([(t, 0.5) for t in (2, 1, 3, 4, 6, 7)],
                                ObjectClass.VIEW_LOW)
    spec = TransactionSpec(seq=0, arrival_time=5.0, high_value=False,
                           value=1.0, compute_time=0.01, reads=(0,), slack=1.0)
    later = TransactionSpec(**{**asdict(spec), "seq": 1, "arrival_time": 12.0})
    generator = LoadGenerator(runtime, batch_max=2)
    assert generator.replay([*updates, later, spec]) == 8
    when, pump, args = runtime.clock.armed
    assert when == 1.0
    pump(*args)

    assert [[u.seq for u in batch] for batch in batches] == [[1, 0], [2, 3], [4, 5]]
    assert all(u.arrival_time == 10.0 and u.generation_time == 9.5
               for u in updates)
    assert specs == [replace(spec, arrival_time=10.0)]
    assert runtime.clock.armed[0] == 12.0  # not due yet
    assert (generator.updates_sent, generator.transactions_sent) == (6, 1)


def test_parity_includes_staleness_counters(tmp_path):
    config = _config(mean_age=2.0)  # old updates → visible staleness
    config = config.with_transactions(max_age=1.0)
    path = tmp_path / "trace.jsonl"
    save_trace(path, _draw_workload(config))
    sim_result = _run_simulator(config, "OD", load_trace(path))
    live_result, _, _ = _run_live(config, "OD", load_trace(path))
    assert live_result.fold_low == sim_result.fold_low
    assert live_result.fold_high == sim_result.fold_high
    assert live_result.stale_reads == sim_result.stale_reads
    assert sim_result.fold_low > 0  # the comparison is not vacuous


# ----------------------------------------------------------------------
# Transaction handles
# ----------------------------------------------------------------------
def test_submitted_transactions_resolve_handles():
    config = _config()
    _, runtime, generator = _run_live(config, "TF", _draw_workload(config))
    assert generator.transactions_sent > 0
    assert len(generator.handles) == generator.transactions_sent
    resolved = [h for h in generator.handles if h.done]
    assert len(resolved) == generator.transactions_sent - runtime.in_flight
    outcomes = generator.outcome_counts()
    assert set(outcomes) <= {"committed", "missed", "aborted-stale"}
    assert outcomes.get("committed", 0) > 0
    committed = next(h for h in generator.handles if h.committed)
    assert committed.finish_time is not None

    async def await_resolved():
        return await committed.wait()

    assert asyncio.run(await_resolved()) == "committed"


def test_handle_counts_match_transaction_log():
    config = _config()
    result, _, generator = _run_live(config, "TF", _draw_workload(config))
    outcomes = generator.outcome_counts()
    assert outcomes.get("committed", 0) == result.transactions_committed
    assert outcomes.get("missed", 0) == result.transactions_missed


def test_submit_while_draining_is_rejected():
    config = _config()
    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    runtime.accepting = False
    spec = TransactionSpec(
        seq=0, arrival_time=0.0, high_value=False, value=1.0,
        compute_time=0.01, reads=(0,), slack=1.0,
    )
    handle = runtime.submit(spec)
    assert handle.outcome == "rejected"
    assert runtime.in_flight == 0


# ----------------------------------------------------------------------
# Backpressure accounting (OSmax / UQmax)
# ----------------------------------------------------------------------
def test_ingest_reports_os_queue_drops():
    config = _config().with_system(os_queue_max=4)
    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    updates = synthetic_updates(
        [(0.0, 0.0)] * 12, ObjectClass.VIEW_LOW, object_id=0
    )
    accepted = [runtime.ingest(u) for u in updates]
    # The first arrival starts a receive burst that takes one update out of
    # the OS queue; everything past the 4-slot kernel buffer is dropped.
    assert sum(accepted) == accepted.count(True)
    assert runtime.os_queue.dropped == accepted.count(False)
    assert runtime.os_queue.dropped > 0
    engine.run_until(config.duration)
    result = runtime.finalize()
    assert result.updates_os_dropped == runtime.os_queue.dropped
    assert result.update_conservation_gap() == 0


def test_update_queue_overflow_and_expiry_accounting():
    config = _config(arrival_rate=400.0).with_system(update_queue_max=16)
    live_result, _, _ = _run_live(config, "OD", _draw_workload(config))
    # OD never installs proactively, so a 16-slot queue must overflow.
    assert live_result.updates_overflowed > 0
    assert live_result.update_conservation_gap() == 0


def test_ma_expiry_is_real_backpressure():
    config = _config(arrival_rate=400.0)
    config = config.with_transactions(max_age=0.5)
    live_result, _, _ = _run_live(config, "OD", _draw_workload(config))
    # Updates older than max_age are expired from the queue, not installed.
    assert live_result.updates_expired > 0
    assert live_result.update_conservation_gap() == 0


def test_ingest_refused_while_draining():
    config = _config()
    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    runtime.accepting = False
    update = synthetic_updates([(0.0, 0.0)], ObjectClass.VIEW_LOW)[0]
    assert runtime.ingest(update) is False
    assert runtime.ingest_rejected == 1
    assert runtime.os_queue.dropped == 0  # refused, not dropped


# ----------------------------------------------------------------------
# Shedding (feasible-deadline discard under overload)
# ----------------------------------------------------------------------
def test_shed_infeasible_discards_doomed_ready_transactions():
    config = _config(arrival_rate=300.0)
    engine = Engine()
    runtime = LiveRuntime(config, "UF", clock=engine)
    generator = LoadGenerator(runtime)
    generator.replay(_draw_workload(config))
    # Under UF the update stream starves transactions, so ready ones blow
    # their deadlines while queued.  Pause mid-run and shed.
    engine.run_until(2.5)
    doomed = [
        t for t in runtime.controller.ready
        if not t.is_feasible(engine.now)
    ]
    shed = runtime.controller.shed_infeasible()
    assert shed == len(doomed)
    assert shed > 0
    assert all(t.is_feasible(engine.now) for t in runtime.controller.ready)
    missed = [h for h in generator.handles if h.outcome == "missed"]
    assert len(missed) >= shed
    engine.run_until(config.duration)
    result = runtime.finalize()
    assert result.transaction_conservation_gap() == 0


# ----------------------------------------------------------------------
# Mid-run snapshots and measurement reset
# ----------------------------------------------------------------------
def test_snapshot_is_nondestructive_and_monotone(tmp_path):
    config = _config()
    path = tmp_path / "trace.jsonl"
    save_trace(path, _draw_workload(config))

    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    LoadGenerator(runtime).replay(load_trace(path))
    engine.run_until(2.0)
    snap = runtime.snapshot()
    assert snap.updates_applied > 0
    assert snap.transactions_arrived > 0
    assert snap.duration == pytest.approx(2.0)
    assert snap.extras["os_queue_depth"] >= 0
    engine.run_until(config.duration)
    interrupted = runtime.finalize()

    baseline, _, _ = _run_live(config, "TF", load_trace(path))
    sim_dict, live_dict = asdict(baseline), asdict(interrupted)
    sim_dict.pop("extras")
    live_dict.pop("extras")
    assert live_dict == sim_dict  # the snapshot changed nothing
    assert interrupted.updates_applied >= snap.updates_applied


def test_snapshot_stale_fraction_matches_final_on_frozen_tail():
    # With traffic stopped, the mid-run staleness snapshot and the final
    # destructive one must agree over the same window.
    config = _config(mean_age=3.0)
    config = config.with_transactions(max_age=1.0)
    engine = Engine()
    runtime = LiveRuntime(config, "OD", clock=engine)
    LoadGenerator(runtime).replay(
        [u for u in _draw_workload(config) if not isinstance(u, TransactionSpec)]
    )
    engine.run_until(config.duration)
    snap = runtime.snapshot()
    final = runtime.finalize()
    assert snap.fold_low == pytest.approx(final.fold_low)
    assert snap.fold_high == pytest.approx(final.fold_high)
    assert final.fold_low > 0


def test_begin_measurement_resets_conservation_laws():
    """TransactionLog.reset keeps arrived == finished + in_flight."""
    config = _config()
    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    generator = LoadGenerator(runtime)
    generator.replay(_draw_workload(config))
    # A long transaction guaranteed to straddle the measurement boundary,
    # so the reset really does happen with live transactions in flight.
    straddler = TransactionSpec(
        seq=10_000, arrival_time=1.9, high_value=True, value=5.0,
        compute_time=0.5, reads=(0, 1), slack=2.0,
    )
    engine.schedule_at(1.9, runtime.submit, straddler)
    engine.run_until(2.0)
    assert runtime.controller.live_transaction_count() > 0
    runtime.begin_measurement()
    live_now = runtime.controller.live_transaction_count()
    snap = runtime.snapshot()
    # Immediately after the reset the log contains exactly the live ones.
    assert snap.transactions_arrived == live_now
    assert snap.transactions_in_flight == live_now
    assert snap.transaction_conservation_gap() == 0
    assert snap.updates_applied == 0
    engine.run_until(config.duration)
    result = runtime.finalize()
    assert result.transaction_conservation_gap() == 0
    assert result.update_conservation_gap() == 0
    assert result.duration == pytest.approx(config.duration - 2.0)
    assert result.transactions_arrived >= live_now


def test_install_latency_tracker_sees_queueing_delay():
    config = _config(arrival_rate=400.0)
    _, runtime, _ = _run_live(config, "UF", _draw_workload(config))
    assert runtime.latency.count > 0
    p50 = runtime.latency.percentile(0.50)
    p99 = runtime.latency.percentile(0.99)
    assert p50 is not None and p99 is not None
    assert 0 <= p50 <= p99 <= runtime.latency.worst


def test_snapshot_readouts_are_one_pass_and_the_same_floats():
    """A snapshot takes its two latency quantiles from one sort and its two
    fold values from one ledger pass; each equals the single readout."""
    config = _config(arrival_rate=400.0, mean_age=3.0)
    config = config.with_transactions(max_age=1.0)
    _, runtime, _ = _run_live(config, "UF", _draw_workload(config))
    latency = runtime.latency
    ordered = sorted(latency._samples)
    assert len(ordered) > 100
    fractions = (0.0, 0.5, 0.99, 1.0)
    assert latency.percentiles(*fractions) == [
        ordered[min(len(ordered) - 1, int(f * len(ordered)))] for f in fractions
    ] == [latency.percentile(f) for f in fractions]
    assert LiveRuntime(config, "TF", clock=Engine()).latency.percentiles(
        0.5, 0.99
    ) == [None, None]

    ledger, now = runtime.ledger, runtime.clock.now
    seconds = ledger.snapshot_stale_seconds(now)
    folds = ledger.snapshot_stale_fractions(now, 2.5)
    assert folds == {
        klass: seconds[klass] / (2.5 * len(runtime.database.partition(klass)))
        for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH)
    }
    assert all(
        ledger.snapshot_stale_fraction(klass, now, 2.5) == fold
        for klass, fold in folds.items()
    )
    assert min(folds.values()) > 0
    assert set(ledger.snapshot_stale_fractions(now, 0.0).values()) == {0.0}


# ----------------------------------------------------------------------
# Batched ingest parity (the wire fast path must not change the model)
# ----------------------------------------------------------------------
def _burst_schedule(config, step=0.02):
    """The drawn workload with update arrivals quantized *up* onto a
    coarse grid, so several updates share one delivery instant — the
    shape a coalesced wire batch produces."""
    updates, specs = split_trace(_draw_workload(config))
    for update in updates:
        update.arrival_time = math.ceil(update.arrival_time / step) * step
    bursts: dict[float, list] = {}
    for update in updates:
        bursts.setdefault(update.arrival_time, []).append(update)
    return bursts, specs


@pytest.mark.parametrize("algorithm", ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"])
def test_ingest_batch_parity_with_per_record(algorithm):
    """Burst delivery via ingest_batch == one ingest() call per record.

    Every record must still hit the controller's per-arrival scheduling
    point: OSmax drops, dispatch-if-idle, and queue accounting may not be
    deferred to a batch boundary.
    """
    config = _config(arrival_rate=300.0)

    def run(batched):
        engine = Engine()
        runtime = LiveRuntime(config, algorithm, clock=engine)
        bursts, specs = _burst_schedule(config)
        multi = sum(1 for burst in bursts.values() if len(burst) > 1)
        assert multi > 20  # the comparison must exercise real bursts
        for at, burst in bursts.items():
            if batched:
                engine.schedule_at(at, runtime.ingest_batch, burst)
            else:
                for update in burst:
                    engine.schedule_at(at, runtime.ingest, update)
        for spec in specs:
            engine.schedule_at(spec.arrival_time, runtime.submit, spec)
        engine.run_until(config.duration)
        result = asdict(runtime.finalize())
        # The clock-event count is the delivery *mechanism*, not the
        # model: batching exists exactly to collapse N wakeups into one.
        result.pop("events_dispatched")
        return result

    per_record = run(batched=False)
    batch = run(batched=True)
    assert batch == per_record
    assert batch["updates_applied"] > 0


@pytest.mark.parametrize("algorithm", ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"])
def test_wire_batch_parity_with_per_record(algorithm):
    """One coalesced N-line client write == N per-record writes + drains.

    Runs the real IngestServer over a real socket with a frozen engine
    clock, so both framings see one delivery instant and the results must
    be asdict-identical — proving the batched wire path changes syscall
    granularity, not outcomes.
    """
    config = _config(arrival_rate=300.0)
    items = _draw_workload(config)
    payload = encode_lines(items)

    async def scenario(chunked):
        engine = Engine()
        engine.run_until(1.0)  # a fixed, shared delivery instant
        runtime = LiveRuntime(config, algorithm, clock=engine)
        server = IngestServer(runtime)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        if chunked:
            writer.write(payload)
            await writer.drain()
        else:
            for line in payload.split(b"\n"):
                if line:
                    writer.write(line + b"\n")
                    await writer.drain()
        while server.records_received < len(items):
            await asyncio.sleep(0.001)
        writer.close()
        await server.stop()
        engine.run_until(60.0)  # let every queued transaction finish
        return asdict(runtime.finalize())

    per_record = asyncio.run(scenario(chunked=False))
    batch = asyncio.run(scenario(chunked=True))
    assert batch == per_record
    assert batch["updates_applied"] > 0
    assert batch["transactions_committed"] > 0
