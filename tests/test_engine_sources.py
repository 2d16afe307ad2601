"""An arrival source is indistinguishable from the heap events it replaces.

Every schedule below runs twice: once with each arrival stream realised
the old way — a callback that delivers one arrival and schedules the next
as a heap event — and once with the stream attached as an
:class:`~repro.sim.engine.ArrivalSource` (the real
:class:`~repro.workload.arrivals.ChunkedArrivals`, fed a fixed list of
times in small chunks).  All times lie on a quarter-second grid, so exact
ties between an arrival, the other stream's arrival and heap events are
the common case, not the rare one; callbacks cancel events and schedule
new ones at ``now``; ``run_until`` is split at arbitrary segment ends with
``step()`` calls in between.  The two runs must produce the same log:
every dispatch with the ``now``, ``peek_time()`` and ``pending_count()``
it observed, and ``events_dispatched`` at every segment end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.workload.arrivals import ChunkedArrivals

GRID = 4.0
HORIZON = 40  # grid steps


class ListSource(ChunkedArrivals):
    """A fixed list of arrival times, handed out ``chunk`` at a time."""

    def __init__(self, engine, sink, name, times, chunk):
        super().__init__(engine, sink)
        self.name = name
        self._all = times
        self._chunk = chunk
        self._drawn = 0

    def _draw_times(self, after):
        part = self._all[self._drawn:self._drawn + self._chunk]
        self._drawn += len(part)
        return part

    def _draw_items(self, times):
        first = self._drawn - len(times)
        return [(self.name, first + offset) for offset in range(len(times))]


def start_as_heap_events(engine, sink, name, times):
    """The stream as it was before sources: one event per arrival, the
    next one scheduled when the sink has returned."""

    def arrive(index):
        sink((name, index))
        if index + 1 < len(times):
            engine.schedule_at(times[index + 1], arrive, index + 1)

    if times:
        engine.schedule_at(times[0], arrive, 0)


class World:
    """One engine, its pre-scheduled events and the log of what fired."""

    def __init__(self, plan, as_sources, runs=False):
        self.engine = Engine()
        self.log = []
        self.events = []
        self.spawned = 0
        self.busy = False
        self.run_bounds = []
        self.arrival_actions = plan["arrival_actions"]
        early, late = plan["events"][::2], plan["events"][1::2]
        self._preschedule(early)
        for name in ("A", "B"):
            times = [step / GRID for step in plan[name]]
            if as_sources:
                source = ListSource(
                    self.engine, self.deliver, name, times, plan["chunk"]
                )
                if runs:
                    source.run_sink = self.deliver_run
                source.start()
            else:
                start_as_heap_events(self.engine, self.deliver, name, times)
        self._preschedule(late)

    def _preschedule(self, events):
        for step, action in events:
            label = ("event", len(self.events))
            self.events.append(
                self.engine.schedule_at(step / GRID, self.fire, label, action)
            )

    def observe(self, label):
        engine = self.engine
        self.log.append(
            (label, engine.now, engine.peek_time(), engine.pending_count())
        )

    def act(self, action):
        kind, arg = action
        engine = self.engine
        if kind == "spawn":
            label = ("spawned", self.spawned)
            self.spawned += 1
            engine.schedule(arg / GRID, self.fire, label, ("none", 0))
        elif kind == "cancel" and self.events:
            engine.cancel(self.events[arg % len(self.events)])
        elif kind == "toggle":
            self.busy = not self.busy

    def fire(self, label, action):
        self.act(action)
        self.observe(label)

    def deliver(self, label):
        if not self.busy:
            actions = self.arrival_actions
            self.act(actions[(label[1] * 2 + (label[0] == "B")) % len(actions)])
        self.observe(label)

    def deliver_run(self, items, start, stop):
        """Take the whole run while busy (arrivals then do nothing), one
        arrival otherwise — the shape of ``Controller.on_update_run``."""
        if not self.busy:
            self.deliver(items[start])
            return 1
        # The firing source is not pending, so this is the next instant
        # anything *else* is due.
        next_due = self.engine.peek_time()
        bound = self.engine.run_end
        if next_due is not None and next_due < bound:
            bound = next_due
        self.log.extend((label, None, None, None) for label in items[start:stop])
        if stop - start > 1:  # the head itself may tie with another event
            self.run_bounds.append((items[stop - 1], bound))
        return stop - start

    def drive(self, plan):
        engine = self.engine
        marks = []
        for end, steps in plan["segments"]:
            end = max(end / GRID, engine.now)
            engine.run_until(end)
            marks.append((engine.now, engine.events_dispatched,
                          engine.peek_time(), engine.pending_count()))
            for _ in range(steps):
                marks.append((engine.step(), engine.now,
                              engine.events_dispatched))
        engine.run_until(max(HORIZON / GRID + 1.0, engine.now))
        marks.append((engine.now, engine.events_dispatched,
                      engine.peek_time(), engine.pending_count()))
        return marks


steps = st.integers(min_value=0, max_value=HORIZON)
actions = st.one_of(
    st.just(("none", 0)),
    st.tuples(st.just("spawn"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
)
plans = st.fixed_dictionaries({
    "A": st.lists(steps, max_size=30).map(sorted),
    "B": st.lists(steps, max_size=12).map(sorted),
    "chunk": st.integers(min_value=1, max_value=5),
    "events": st.lists(st.tuples(steps, actions), max_size=30),
    "arrival_actions": st.lists(actions, min_size=1, max_size=8),
    "segments": st.lists(
        st.tuples(steps, st.integers(min_value=0, max_value=3)), max_size=5
    ).map(sorted),
})


@given(plans)
@settings(max_examples=300, deadline=None)
def test_sources_dispatch_exactly_like_self_rescheduling_events(plan):
    reference = World(plan, as_sources=False)
    merged = World(plan, as_sources=True)
    assert merged.drive(plan) == reference.drive(plan)
    assert merged.log == reference.log


@given(plans, st.lists(steps, max_size=8))
@settings(max_examples=300, deadline=None)
def test_runs_keep_the_order_and_never_reach_the_next_event(plan, toggles):
    """With a run sink that takes everything it is offered while a busy
    flag is up (flipped only by heap events), the order of deliveries and
    the dispatch count are those of one-at-a-time delivery, and no run
    goes on to an arrival at or after the next instant anything else is
    due."""
    plan = dict(plan)
    plan["events"] = plan["events"] + [(step, ("toggle", 0)) for step in toggles]
    reference = World(plan, as_sources=False)
    merged = World(plan, as_sources=True, runs=True)
    times = {"A": plan["A"], "B": plan["B"]}
    # step() delivers exactly one arrival, so compare run_until only.
    plan["segments"] = [(end, 0) for end, _ in plan["segments"]]
    assert merged.drive(plan) == reference.drive(plan)
    assert [entry[0] for entry in merged.log] == [
        entry[0] for entry in reference.log
    ]
    for (name, index), bound in merged.run_bounds:
        assert times[name][index] / GRID < bound


def test_step_and_peek_see_a_source_with_an_empty_heap():
    engine = Engine()
    seen = []
    source = ListSource(engine, seen.append, "A", [0.5, 0.5, 2.0], chunk=2)
    source.start()
    assert engine.peek_time() == 0.5
    assert engine.pending_count() == 1
    assert engine.step() and engine.step()
    assert engine.now == 0.5 and engine.peek_time() == 2.0
    assert engine.step()
    assert not engine.step()
    assert engine.peek_time() is None and engine.pending_count() == 0
    assert seen == [("A", 0), ("A", 1), ("A", 2)]
    assert engine.events_dispatched == 3 == source.generated


def test_a_source_armed_from_a_callback_joins_the_running_segment():
    engine = Engine()
    seen = []
    source = ListSource(engine, seen.append, "A", [1.0, 1.5], chunk=1)
    engine.schedule_at(0.5, source.start)
    engine.schedule_at(1.25, seen.append, "event")
    engine.run_until(3.0)
    assert seen == [("A", 0), "event", ("A", 1)]
    assert engine.events_dispatched == 4


def test_sink_is_read_at_every_delivery():
    engine = Engine()
    first, second = [], []
    source = ListSource(engine, first.append, "A", [1.0, 2.0], chunk=4)
    source.start()
    engine.run_until(1.5)
    source.sink = second.append
    engine.run_until(3.0)
    assert (first, second) == ([("A", 0)], [("A", 1)])
