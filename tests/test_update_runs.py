"""UF, SU and FX take the update stream by the run.

``Controller.on_update_stream`` is the simulator's run sink.  A preempting
algorithm (UF, SU) computes each arrival's preempt → install → resume
cycle in one loop, FX assembles its install streaks, and every completion
left out of the heap still counts as the event it is serially.  Delivering
every arrival on its own (``run_sink = None``, so each one reaches
``Controller.on_update_arrival``) is the reference: over the pinned golden
matrix it must give the pinned digest, ``events_dispatched`` included.

A fast path that always fell back would pass that, so the baseline's heap
traffic is bounded too: the per-arrival path pushes 1.84 (UF), 1.09 (SU)
and 1.04 (FX) heap events per update arrival.
"""

import bisect
import hashlib
import json
from dataclasses import asdict

import pytest

from repro.config import baseline_config
from repro.core.simulator import Simulation
from repro.db.objects import ObjectClass, Update
from repro.sim.engine import Engine
from repro.workload.transactions import TransactionSpec
from tests.test_sim_golden import ALGORITHMS, GOLDEN, VARIANTS


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_one_arrival_at_a_time_gives_the_pinned_result(variant, algorithm):
    simulation = Simulation(VARIANTS[variant](), algorithm)
    simulation.update_generator.run_sink = None
    assert simulation.update_generator.sink == simulation.controller.on_update_arrival
    digest = hashlib.sha256(
        json.dumps(asdict(simulation.run()), sort_keys=True).encode()
    ).hexdigest()
    assert digest == GOLDEN[variant, algorithm]


@pytest.mark.parametrize("algorithm", ["UF", "SU", "FX"])
def test_the_run_leaves_at_most_the_running_burst_on_the_heap(algorithm, monkeypatch):
    pushes = []
    for name in ("schedule", "schedule_at"):
        method = getattr(Engine, name)

        def counted(self, *args, _method=method):
            pushes.append(args[0])
            return _method(self, *args)

        monkeypatch.setattr(Engine, name, counted)
    result = Simulation(baseline_config(duration=20.0, seed=27), algorithm).run()
    assert result.updates_arrived > 7000
    assert len(pushes) / result.updates_arrived <= 0.75


def _tied(one_at_a_time):
    """UF with one transaction and two updates: the first preempts it, and
    the second arrives at exactly the instant the resumed step would end."""
    config = baseline_config(duration=1.0, seed=1)
    config.warmup = 0.0
    system = config.system
    simulation = Simulation(config, "UF")
    spec = TransactionSpec(0, 0.1, False, 1.0, 0.05, (), 1.0)
    first = 0.11
    # The controller's own arithmetic (no switch cost at the baseline):
    # the preempted step's remainder, the install's end, the resumed end.
    remaining = 0.05 - max(0.0, (first - 0.1) - 0.0)
    installed = first + (system.seconds(system.x_lookup + system.x_update) + 0.0)
    tied = installed + (remaining + 0.0)
    updates = [
        Update(0, ObjectClass.VIEW_LOW, 1, 5.0, first - 0.01, first),
        Update(1, ObjectClass.VIEW_LOW, 2, 5.0, tied - 0.01, tied),
    ]
    for generator, items in ((simulation.update_generator, updates),
                             (simulation.transaction_generator, [spec])):
        chunks = iter([[item.arrival_time for item in items]])
        generator._draw_times = lambda after, chunks=chunks: next(chunks, [])
        generator._draw_items = lambda times, items=items: items
    if one_at_a_time:
        simulation.update_generator.run_sink = None
    return asdict(simulation.run())


def test_an_instant_shared_with_the_next_arrival_keeps_the_serial_order():
    expected = _tied(one_at_a_time=True)
    assert expected["updates_arrived"] == 2
    assert expected["preemptions"] == 2  # the arrival came first
    assert _tied(one_at_a_time=False) == expected


def _chains(variant, algorithm):
    """Run one golden cell, check that no assembled chain of installs
    crosses the update stream's next arrival, and count the chains."""
    simulation = Simulation(VARIANTS[variant](), algorithm)
    controller = simulation.controller
    arrivals, chains = [], []
    deliver = simulation.update_generator.run_sink

    def run_sink(updates, start, stop):
        taken = deliver(updates, start, stop)
        arrivals.extend(update.arrival_time for update in updates[start:start + taken])
        return taken

    assemble = controller._start_install_batch

    def spy(first, first_extra, from_queue):
        streak = (from_queue and algorithm == "FX"
                  and controller.has_runnable_transaction())
        status = assemble(first, first_extra, from_queue)
        burst = controller._busy
        if burst.charges is not None and len(burst.charges) > 1:
            # The boundaries, summed exactly as the assembly sums them.
            ends = [burst.start + burst.charges[0]]
            for seconds in burst.charges[1:]:
                ends.append(ends[-1] + seconds)
            chains.append((burst.start, ends[-2] if streak else ends[-1]))
        return status

    simulation.update_generator.run_sink = run_sink
    controller._start_install_batch = spy
    simulation.run()
    for start, last in chains:
        following = bisect.bisect_right(arrivals, start)
        if following < len(arrivals):
            assert last < arrivals[following]
    return len(chains)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_no_assembled_chain_crosses_the_next_arrival(variant, algorithm):
    """A chain of installs ends before the update stream's next arrival:
    outside a delivery the engine shows it, and inside one, where the
    source hides it, nothing is assembled past now.  FX's streak may run
    one install past it (the arrival only joins the OS queue) but never
    starts one after it.  Periodic arrivals never leave UF two installs to
    chain."""
    assert _chains(variant, algorithm) or (variant, algorithm) == ("periodic", "UF")
