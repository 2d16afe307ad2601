"""Derived views against oracles that share no code with them.

* The fixed-point partials (integers in units of 2^-1074) against plain
  :class:`fractions.Fraction` arithmetic, over any finite doubles —
  subnormals, ±max and -0.0 included — split across shards and merged.
* Each view's ``stale_seconds`` against a brute-force observer that, after
  every queue event and install, scans the partition and the queue itself
  for "some member has a newer generation queued than installed, or the
  view's buffer holds deltas" and integrates that, interval by interval.
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QueueDiscipline, baseline_config
from repro.core.algorithms.registry import ALGORITHMS
from repro.db.objects import ObjectClass, Update
from repro.db.views import (
    _AGGREGATES,
    ViewSpec,
    merge_view_reports,
    rational_str,
)
from repro.live import LiveRuntime
from repro.sim.engine import Engine

LOW = ObjectClass.VIEW_LOW
GROUPS = 3
MEMBERS = 12

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
          sys.float_info.max, -sys.float_info.max, 0.1, 1.0 / 3.0]
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGES)
)
# (member gid, new value, retract-and-redo first?)
_OPS = st.lists(st.tuples(st.integers(0, MEMBERS - 1), _VALUES, st.booleans()),
                max_size=40)


def _readout(thunk):
    """A readout, or the overflow both sides must raise past ±max."""
    try:
        return thunk()
    except OverflowError:
        return OverflowError


def _oracle_values(kind, members):
    """The view over ``{gid: value}``, in Fractions: (values, partials);
    the values are OverflowError when any readout overflows."""
    sums = [Fraction(0)] * GROUPS
    counts = [0] * GROUPS
    for gid, value in members.items():
        sums[gid % GROUPS] += Fraction(value)
        counts[gid % GROUPS] += 1
    total, count = sum(sums, Fraction(0)), len(members)
    if kind == "sum":
        values = [_readout(lambda s=s: float(s)) for s in sums]
        partials = {"sums": [rational_str(s) for s in sums]}
    elif kind == "mean":
        values = [_readout(lambda s=s, c=c: float(s / c)) if c else 0.0
                  for s, c in zip(sums, counts)]
        partials = {"sums": [rational_str(s) for s in sums], "counts": counts}
    else:
        values = _readout(lambda: float(total / count)) if count else 0.0
        partials = {"sum": rational_str(total), "count": count}
    if isinstance(values, list) and OverflowError in values:
        values = OverflowError
    return values, partials


def _report(name, aggregate):
    return {name: {"stale": False, "pending_deltas": 0, "refreshes": 0,
                   "stale_seconds": 0.0, **aggregate.spec.to_record(),
                   "values": _readout(lambda: aggregate.values(0.0)),
                   "partials": aggregate.partials()}}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["sum", "mean", "window_avg"]),
       shards=st.integers(1, 3), ops=_OPS)
def test_fixed_point_partials_equal_fraction_arithmetic(kind, shards, ops):
    spec = ViewSpec("v", kind, LOW, groups=GROUPS if kind != "window_avg" else 1,
                    window=1e300)
    aggregates = [_AGGREGATES[kind](spec) for _ in range(shards)]
    members = [{} for _ in range(shards)]  # shard -> {gid: installed value}
    for step, (gid, value, retract) in enumerate(ops):
        shard = gid % shards  # each shard owns its own members
        aggregate, installed = aggregates[shard], members[shard]
        first = gid not in installed
        old = installed.get(gid, 0.0)
        if retract and kind != "window_avg" and not first:
            before = aggregate.partials()
            exact = list(aggregate.sums)
            aggregate.apply(gid, old, value, False, float(step))
            aggregate.apply(gid, value, old, False, float(step))
            assert aggregate.sums == exact  # the same integers, not just values
            assert aggregate.partials() == before
        aggregate.apply(gid, old, value, first, float(step))
        installed[gid] = value
        values, partials = _oracle_values(kind, installed)
        assert _readout(lambda: aggregate.values(float(step))) == values
        assert aggregate.partials() == partials

    union = {gid: value for shard in members for gid, value in shard.items()}
    values, partials = _oracle_values(kind, union)
    reports = [_report("v", aggregate) for aggregate in aggregates]
    merged = _readout(lambda: merge_view_reports(reports))
    if merged is OverflowError:  # a readout of the union overflows
        assert values is OverflowError
        return
    assert merged["v"]["values"] == values
    assert merged["v"]["partials"] == partials


# ----------------------------------------------------------------------
# stale_seconds against a brute-force observer
# ----------------------------------------------------------------------
class _StalenessOracle:
    """Scans, integrates, and knows nothing of the registry's ledger."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.views = {}  # name -> deferred?
        self.seconds = {}
        self.since = {}  # name -> open interval start
        self.closed = {}  # name -> intervals closed
        self.registered_stale = []  # views registered into a stale partition

    def partition_stale(self):
        newest = {}
        for update in self.runtime.update_queue:
            key = update.key
            newest[key] = max(newest.get(key, -math.inf), update.generation_time)
        return any(newest.get(obj.key, -math.inf) > obj.generation_time
                   for obj in self.runtime.database.low)

    def register(self, spec, now):
        assert spec.klass is LOW  # the scan covers the low partition
        self.views[spec.name] = not spec.eager
        self.seconds[spec.name] = 0.0
        self.closed[spec.name] = 0
        if self.partition_stale():
            self.registered_stale.append(spec.name)
        self.observe(now)

    def observe(self, now):
        partition_stale = self.partition_stale()
        for name, deferred in self.views.items():
            stale = partition_stale or (
                deferred and self.runtime.views.pending_deltas(name) > 0)
            since = self.since.get(name)
            if stale and since is None:
                self.since[name] = now
            elif not stale and since is not None:
                self.seconds[name] += now - self.since.pop(name)
                self.closed[name] += 1

    def reset(self, now):
        self.seconds = dict.fromkeys(self.seconds, 0.0)
        self.since = dict.fromkeys(self.since, now)

    def close(self, now):
        self.observe(now)
        for name, since in self.since.items():
            self.seconds[name] += now - since
        self.since.clear()


# UF installs every update as it arrives: with no transactions to defer
# them, its views are never stale, and there is nothing to integrate.
# LIFO service installs a newer generation while an older one is still
# queued: the install, not a queue event, is what freshens that object.
@pytest.mark.parametrize("algorithm,discipline", [
    *((name, "fifo") for name in sorted(set(ALGORITHMS) - {"UF"})),
    ("TF", "lifo"),
])
def test_stale_seconds_equal_a_brute_force_oracle(algorithm, discipline):
    config = baseline_config(duration=3.0, seed=11)
    config.warmup = 0.0
    # ~1 ms per install against ~800 arrivals/s: the queue fills and drains.
    config = config.with_system(ips=config.system.x_update / 0.001,
                                queue_discipline=QueueDiscipline(discipline))
    engine = Engine()
    runtime = LiveRuntime(config, algorithm, clock=engine)
    registry = runtime.views
    oracle = _StalenessOracle(runtime)

    def register(text):
        spec = ViewSpec.parse(text)
        runtime.register_view(text)
        oracle.register(spec, engine.now)

    register("e=sum:low,groups=2")
    observer = runtime.update_queue.observer

    def observe_queue(key, now):
        observer(key, now)
        oracle.observe(now)

    class InstallTap:
        def note_base_install(self, obj, old_value, now):
            registry.note_base_install(obj, old_value, now)
            oracle.observe(now)

    runtime.update_queue.observer = observe_queue
    runtime.database.views = InstallTap()

    rng = random.Random(5)
    at = 0.0
    for seq in range(1500):
        at += rng.expovariate(800.0)
        klass = LOW if rng.random() < 0.8 else ObjectClass.VIEW_HIGH
        generated = at - rng.uniform(0.0, 0.05)
        engine.schedule_at(at, runtime.ingest, Update(
            seq, klass, rng.randrange(40), rng.uniform(-5.0, 5.0),
            generated, at))

    def check(now):
        expected = dict(oracle.seconds)
        for name, since in oracle.since.items():
            expected[name] += now - since
        assert registry.snapshot_stale_seconds(now) == expected

    for t in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8):
        engine.run_until(t)
        check(engine.now)
        if t == 0.6:  # mid-run registrations, into a busy partition
            register("d=mean:low,groups=2,deferred")
            busy_by = engine.now + 0.2
            while not oracle.partition_stale() and engine.now < busy_by:
                engine.run_until(engine.now + 0.0005)
            register("late=count:low")
        if t == 0.9:
            runtime.begin_measurement()
            oracle.reset(engine.now)
        if t in (1.2, 1.5):  # the deferred view's observation point
            runtime.snapshot()
            oracle.observe(engine.now)
        check(engine.now)

    result = runtime.finalize()
    oracle.close(engine.now)
    assert registry.stale_seconds == oracle.seconds
    # Staleness came and went (a deferred view's buffer empties only at
    # a snapshot).
    assert oracle.closed["e"] >= 10 and oracle.closed["late"] >= 10
    assert oracle.closed["d"] >= 2
    assert "late" in oracle.registered_stale  # it joined an open interval
    for name, entry in result.extras["views"].items():
        assert entry["stale_seconds"] == oracle.seconds[name]
