"""``Controller.on_update_arrivals`` equals the per-record arrival sequence.

The per-record sequence — count the arrival, offer it to the OS queue,
show an admitted update to the algorithm's hook — is written out here as
the reference; ``src/`` keeps only the batch form.  The same bursty trace
goes through the reference, through ``on_update_arrival`` per record and
through ``on_update_arrivals`` in batches of 1, 7 and 256, with an ``OSmax``
small enough that the kernel drop falls *inside* batches, and everything
the run produces must be identical: the full ``asdict`` result and the
list of admitted updates.  UF and SU preempt (``preempts_for``), so they
take the hook for every record; TF, OD, FX and TF-SPLIT never preempt and
admit the rest of a batch in bulk once a burst owns the CPU.

The simulator reaches the same bulk admission from the other side: its
update stream is an engine arrival source, and its run sink
(``Controller.on_update_stream``) offers ``Controller.on_update_run`` every
arrival that precedes the next event of any other kind.  The second half of
this file spies on ``on_update_run`` as that sink and checks what a run may
and may not contain (``tests/test_update_runs.py`` covers the runs UF and SU
take on their own).
"""

import math
from collections import Counter
from dataclasses import asdict

import pytest

from repro.config import StaleReadAction, baseline_config
from repro.core.algorithms import TransactionFirst
from repro.core.simulator import Simulation
from repro.live import LiveRuntime
from repro.sim.engine import Engine
from repro.workload.trace import split_trace, synthesize

ALGORITHMS = ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"]
OS_MAX = 6


def _config(action):
    config = baseline_config(duration=4.0, seed=20)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=400.0)
    config = config.with_transactions(arrival_rate=15.0, stale_read_action=action)
    return config.with_system(os_queue_max=OS_MAX)


def _bursts(config, step=0.05):
    """The drawn workload with update arrivals quantized up onto a coarse
    grid: about twenty updates per delivery instant, over ``OSmax``."""
    updates, specs = split_trace(synthesize(config, until=config.duration))
    bursts: dict[float, list] = {}
    for update in updates:
        update.arrival_time = math.ceil(update.arrival_time / step) * step
        bursts.setdefault(update.arrival_time, []).append(update)
    return bursts, specs


def _reference(controller, burst, admitted):
    """The per-record sequence, written out."""
    for update in burst:
        controller.update_accounting.note_arrival()
        if controller.os_queue.offer(update):
            admitted.append(update)
            controller.algorithm.on_update_arrival(controller, update)


def _per_record(controller, burst, admitted):
    for update in burst:
        dropped = controller.os_queue.dropped
        controller.on_update_arrival(update)
        if controller.os_queue.dropped == dropped:
            admitted.append(update)


def _batches_of(size):
    def deliver(controller, burst, admitted):
        total = 0
        for start in range(0, len(burst), size):
            before = len(admitted)
            count = controller.on_update_arrivals(burst[start:start + size], admitted)
            assert count == len(admitted) - before
            total += count
        return total
    return deliver


def _run(config, algorithm, deliver):
    engine = Engine()
    runtime = LiveRuntime(config, algorithm, clock=engine)
    bursts, specs = _bursts(config)
    assert max(len(burst) for burst in bursts.values()) > OS_MAX
    admitted = []
    for at, burst in bursts.items():
        engine.schedule_at(at, deliver, runtime.controller, burst, admitted)
    for spec in specs:
        engine.schedule_at(spec.arrival_time, runtime.submit, spec)
    engine.run_until(config.duration)
    return asdict(runtime.finalize()), [update.seq for update in admitted]


@pytest.mark.parametrize("action", [StaleReadAction.IGNORE, StaleReadAction.ABORT])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batches_equal_the_per_record_sequence(algorithm, action):
    config = _config(action)
    expected, expected_admitted = _run(config, algorithm, _reference)
    assert expected["updates_os_dropped"] > 0  # drops fall inside batches
    assert expected["updates_applied"] > 0
    assert expected["transactions_committed"] > 0
    assert len(expected_admitted) == (
        expected["updates_arrived"] - expected["updates_os_dropped"]
    )
    for deliver in (_per_record, _batches_of(1), _batches_of(7), _batches_of(256)):
        result, admitted = _run(config, algorithm, deliver)
        assert result == expected
        assert admitted == expected_admitted


def test_bulk_admission_is_taken_only_under_the_base_hook():
    """Which path an algorithm takes is worked out from its class."""
    config = _config(StaleReadAction.IGNORE)
    for algorithm in ALGORITHMS:
        controller = LiveRuntime(config, algorithm, clock=Engine()).controller
        assert controller._bulk_admission == (algorithm not in ("UF", "SU"))


def test_an_overriding_algorithm_sees_every_arrival():
    """A subclass that overrides ``on_update_arrival`` declares nothing
    else, and is shown every admitted update of a batch — also while a
    burst owns the CPU, where the base hook's batches go in bulk."""

    class Watching(TransactionFirst):
        def __init__(self):
            self.seen = []

        def on_update_arrival(self, ctl, update):
            self.seen.append((update.seq, ctl.idle))
            super().on_update_arrival(ctl, update)

    config = _config(StaleReadAction.IGNORE)
    expected, expected_admitted = _run(config, "TF", _reference)
    algorithm = Watching()
    result, admitted = _run(config, algorithm, _batches_of(256))
    assert [seq for seq, _idle in algorithm.seen] == admitted == expected_admitted
    assert any(not idle for _seq, idle in algorithm.seen)
    assert result == expected


# ----------------------------------------------------------------------
# Arrival runs in simulated time
# ----------------------------------------------------------------------
def _run_config():
    """2000 updates/s against 100 ms transactions: a transaction burst
    spans a couple of hundred arrivals, far more than ``OSmax``."""
    config = baseline_config(duration=6.0, seed=31)
    config.warmup = 2.0
    config = config.with_updates(arrival_rate=2000.0)
    config = config.with_transactions(arrival_rate=12.0)
    return config.with_system(os_queue_max=40)


def _spied(config, algorithm):
    """A simulation whose run entry point records, for every call, what it
    was offered, what it took, and when each kind of other event was due."""
    simulation = Simulation(config, algorithm)
    controller, engine = simulation.controller, simulation.engine
    os_queue = controller.os_queue
    admit = controller.on_update_run
    calls = []

    def spy(updates, start, stop):
        busy = controller._busy
        live = list(controller.ready)
        if controller._resume_txn is not None:
            live.append(controller._resume_txn)
        if busy is not None and busy.txn is not None:
            live.append(busy.txn)
        due = {
            "completion": busy.event.time if busy is not None else math.inf,
            "deadline": min((txn.deadline for txn in live), default=math.inf),
            "transaction": simulation.transaction_generator.next_time,
            "warmup": config.warmup if engine.now < config.warmup else math.inf,
            "end": engine.run_end,
        }
        room, dropped = os_queue.capacity - len(os_queue), os_queue.dropped
        taken = admit(updates, start, stop)
        calls.append({
            "bulk": busy is not None and controller._bulk_admission,
            "taken": taken,
            "offered": stop - start,
            "last": updates[start + taken - 1].arrival_time,
            "next": (updates[start + taken].arrival_time
                     if start + taken < len(updates) else None),
            "due": due,
            "room": room,
            "dropped": os_queue.dropped - dropped,
        })
        return taken

    simulation.update_generator.run_sink = spy
    return simulation, calls


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_stops_before_the_next_event_of_any_other_kind(algorithm):
    config = _run_config()
    simulation, calls = _spied(config, algorithm)
    result = simulation.run()
    assert sum(call["taken"] for call in calls) == (
        simulation.update_generator.generated)

    cut_by = Counter()
    for call in calls:
        if not call["bulk"]:
            assert call["taken"] == 1  # UF, SU, an idle CPU
            continue
        assert call["taken"] == call["offered"]
        first_due = min(call["due"].values())
        if call["taken"] > 1:
            assert call["last"] < first_due
        if call["next"] is not None:
            # The run ended because the next arrival is not before ...
            assert call["next"] >= first_due
            cut_by[min(call["due"], key=call["due"].get)] += 1
        # OSmax: the queue takes what it has room for, the tail is dropped.
        assert call["dropped"] == max(0, call["taken"] - call["room"])

    if algorithm in ("UF", "SU"):
        assert not any(call["bulk"] for call in calls)
        return
    assert max(call["taken"] for call in calls) > config.system.os_queue_max
    assert any(call["dropped"] > 0 for call in calls)
    assert result.updates_os_dropped > 0
    for kind in ("completion", "deadline", "transaction", "warmup"):
        assert cut_by[kind] > 0, kind


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runs_change_no_result(algorithm):
    """The same simulation with every arrival delivered on its own."""
    config = _run_config()
    by_the_run = Simulation(config, algorithm)
    one_by_one = Simulation(config, algorithm)
    one_by_one.update_generator.run_sink = None
    assert one_by_one.update_generator.sink == one_by_one.controller.on_update_arrival
    expected = asdict(one_by_one.run())
    assert expected["updates_os_dropped"] > 0 or algorithm in ("UF", "SU")
    assert asdict(by_the_run.run()) == expected
