"""The chunked generators draw what the one-record code drew.

Before PR 23 every arrival was a heap event whose callback drew one gap
and one record through the :class:`~repro.sim.streams.RandomStream`
wrappers, each of which ends in one stdlib ``random.Random`` call.  That
code is kept here as the reference (``HeapUpdateStream``,
``reference_update``, ``reference_spec``): it runs on its own engine and
its own ``StreamFamily`` with the same seed, and the generators — which
now draw a chunk of arrivals ahead in one loop over the bound
``random.Random`` methods — must produce the same records, field for
field, across several chunk boundaries, on all three arrival patterns,
with partial updates and with ``mean_age=0`` (whose age is *not drawn*).

The public one-record calls (``next_interarrival``, ``draw_update``,
``draw_spec``) stay on the wrappers and are held to the same reference;
the spine's ``trace.py`` builds every live workload from them, so its
record sequence for one seed is pinned to the digest it had before the
change.
"""

import hashlib
import importlib.util
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.config import UpdatePattern, baseline_config
from repro.db.objects import ObjectClass, Update
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.arrivals import CHUNK
from repro.workload.transactions import TransactionGenerator, TransactionSpec
from repro.workload.updates import UpdateStreamGenerator

UPDATE_FIELDS = ("seq", "klass", "object_id", "value", "generation_time",
                 "arrival_time", "partial", "attribute")


def fields(update):
    return tuple(getattr(update, name) for name in UPDATE_FIELDS)


# ----------------------------------------------------------------------
# The one-record code as it was, on the RandomStream wrappers
# ----------------------------------------------------------------------
def reference_update(shape, params, seq, arrival_time):
    if shape.bernoulli(params.p_low):
        klass = ObjectClass.VIEW_LOW
        object_id = shape.choose_index(params.n_low)
    else:
        klass = ObjectClass.VIEW_HIGH
        object_id = shape.choose_index(params.n_high)
    age = shape.exponential(params.mean_age)
    value = shape.uniform(0.0, 100.0)
    partial = (
        params.partial_probability > 0
        and shape.bernoulli(params.partial_probability)
    )
    attribute = (
        shape.choose_index(params.attributes_per_object) if partial else 0
    )
    return Update(seq, klass, object_id, value,
                  max(0.0, arrival_time - age), arrival_time, partial, attribute)


def reference_spec(shape, params, n_low, n_high, seq, arrival_time):
    low = shape.bernoulli(params.p_low)
    if low:
        value = shape.truncated_normal(params.value_low_mean, params.value_low_stdev)
        pool = n_low
    else:
        value = shape.truncated_normal(params.value_high_mean, params.value_high_stdev)
        pool = n_high
    compute = shape.truncated_normal(params.compute_mean, params.compute_stdev)
    read_count = shape.normal_count(params.reads_mean, params.reads_stdev)
    reads = tuple(shape.choose_index(pool) for _ in range(read_count)) if pool else ()
    slack = shape.uniform(params.slack_min, params.slack_max)
    return TransactionSpec(seq, arrival_time, not low, value, compute, reads, slack)


class HeapUpdateStream:
    """The update stream as one self-rescheduling heap event per arrival."""

    def __init__(self, config, engine, streams):
        self.params = config.updates
        self.engine = engine
        self.arrivals = streams.stream(UpdateStreamGenerator.STREAM_ARRIVALS)
        self.shape = streams.stream(UpdateStreamGenerator.STREAM_SHAPE)
        self.out = []
        self.cursor = 0
        self.in_peak = False
        self.pending = None

    def start(self):
        params, engine = self.params, self.engine
        if params.pattern is UpdatePattern.PERIODIC:
            engine.schedule(1.0 / params.arrival_rate, self.arrive_periodic)
        elif params.pattern is UpdatePattern.BURSTY:
            self.schedule_state_change()
            self.schedule_bursty_arrival()
        else:
            engine.schedule(
                self.arrivals.interarrival(params.arrival_rate), self.arrive
            )

    def arrive(self):
        self.out.append(reference_update(
            self.shape, self.params, len(self.out), self.engine.now))
        self.engine.schedule(
            self.arrivals.interarrival(self.params.arrival_rate), self.arrive
        )

    def arrive_periodic(self):
        params, now = self.params, self.engine.now
        if self.cursor < params.n_low:
            klass, object_id = ObjectClass.VIEW_LOW, self.cursor
        else:
            klass, object_id = ObjectClass.VIEW_HIGH, self.cursor - params.n_low
        self.cursor = (self.cursor + 1) % (params.n_low + params.n_high)
        age = self.shape.exponential(params.mean_age)
        self.out.append(Update(
            len(self.out), klass, object_id, self.shape.uniform(0.0, 100.0),
            max(0.0, now - age), now,
        ))
        self.engine.schedule(1.0 / params.arrival_rate, self.arrive_periodic)

    def schedule_bursty_arrival(self):
        params = self.params
        rate = params.peak_rate if self.in_peak else params.off_peak_rate
        self.pending = None
        if rate > 0:
            self.pending = self.engine.schedule(
                self.arrivals.interarrival(rate), self.arrive_bursty
            )

    def arrive_bursty(self):
        self.out.append(reference_update(
            self.shape, self.params, len(self.out), self.engine.now))
        self.schedule_bursty_arrival()

    def schedule_state_change(self):
        params = self.params
        dwell = params.burst_dwell_mean
        if not self.in_peak:
            dwell *= (1.0 - params.burst_peak_fraction) / params.burst_peak_fraction
        self.engine.schedule(self.arrivals.exponential(dwell), self.flip)

    def flip(self):
        self.in_peak = not self.in_peak
        if self.pending is not None:
            self.pending.cancel()
        self.schedule_bursty_arrival()
        self.schedule_state_change()


# ----------------------------------------------------------------------
# Source output == heap-event output
# ----------------------------------------------------------------------
PATTERNS = {
    "aperiodic": dict(pattern=UpdatePattern.APERIODIC),
    "periodic": dict(pattern=UpdatePattern.PERIODIC, n_low=7, n_high=5),
    "bursty": dict(pattern=UpdatePattern.BURSTY, burst_dwell_mean=0.2),
    # Off-peak silence: rate * (1 - 0.25 * 4) / 0.75 == 0.
    "bursty_silent": dict(pattern=UpdatePattern.BURSTY, burst_dwell_mean=0.2,
                          burst_peak_factor=4.0, burst_peak_fraction=0.25),
}
SHAPES = {
    "table1": {},
    "partial": dict(partial_probability=0.3),
    "in_order": dict(mean_age=0.0),
    "one_class": dict(p_low=1.0, n_high=0),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_update_source_equals_heap_events(pattern, shape):
    overrides = {**PATTERNS[pattern], **SHAPES[shape]}
    if pattern == "periodic" and shape == "one_class":
        overrides.update(n_low=7, n_high=0)
    config = baseline_config(seed=77).with_updates(**overrides)
    horizon = 4.25 * CHUNK / config.updates.arrival_rate

    engine = Engine()
    reference = HeapUpdateStream(config, engine, StreamFamily(config.seed))
    reference.start()
    engine.run_until(horizon)

    engine = Engine()
    delivered = []
    generator = UpdateStreamGenerator(
        config, engine, StreamFamily(config.seed), delivered.append
    )
    generator.start()
    # Segment ends and step() must not disturb the draw-ahead either.
    engine.run_until(horizon / 3)
    engine.step()
    engine.run_until(horizon)

    assert len(delivered) == generator.generated
    if "bursty" not in pattern:
        assert len(delivered) > 3 * CHUNK
    else:
        assert len(delivered) > 100
    assert [fields(u) for u in delivered] == [fields(u) for u in reference.out]


def test_transaction_source_equals_one_record_draws():
    config = baseline_config(seed=78).with_transactions(arrival_rate=500.0)
    horizon = 3.25 * CHUNK / 500.0
    streams = StreamFamily(config.seed)
    arrivals = streams.stream(TransactionGenerator.STREAM_ARRIVALS)
    shape = streams.stream(TransactionGenerator.STREAM_SHAPE)
    expected, time = [], arrivals.interarrival(500.0)
    while time < horizon:
        expected.append(reference_spec(
            shape, config.transactions, config.updates.n_low,
            config.updates.n_high, len(expected), time))
        time += arrivals.interarrival(500.0)

    engine = Engine()
    delivered = []
    generator = TransactionGenerator(
        config, engine, StreamFamily(config.seed), delivered.append
    )
    generator.start()
    engine.run_until(horizon)
    assert len(delivered) > 3 * CHUNK
    assert [astuple(s) for s in delivered] == [astuple(s) for s in expected]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_public_one_record_calls_are_the_same_draws(shape):
    """``next_interarrival`` + ``draw_update`` / ``draw_spec``, called the
    way loadgen and ``trace.py`` call them (no engine, ``params`` replaced
    between phases), against the wrappers."""
    config = baseline_config(seed=79).with_updates(**SHAPES[shape])
    streams = StreamFamily(config.seed)
    arrivals = streams.stream(UpdateStreamGenerator.STREAM_ARRIVALS)
    update_shape = streams.stream(UpdateStreamGenerator.STREAM_SHAPE)
    txn_arrivals = streams.stream(TransactionGenerator.STREAM_ARRIVALS)
    txn_shape = streams.stream(TransactionGenerator.STREAM_SHAPE)

    drawn = StreamFamily(config.seed)
    updates = UpdateStreamGenerator(config, None, drawn, None)
    transactions = TransactionGenerator(config, None, drawn, None)

    time, seq = 0.0, 0
    for rate in (300.0, 5000.0):
        updates.params = config.with_updates(arrival_rate=rate).updates
        for _ in range(400):
            gap = updates.next_interarrival()
            assert gap == arrivals.interarrival(rate)
            time += gap
            expected = reference_update(update_shape, updates.params, seq, time)
            assert fields(updates.draw_update(time)) == fields(expected)
            seq += 1
    for seq in range(200):
        assert transactions.next_interarrival() == txn_arrivals.interarrival(
            config.transactions.arrival_rate)
        expected = reference_spec(
            txn_shape, config.transactions, config.updates.n_low,
            config.updates.n_high, seq, 0.5 * seq)
        assert transactions.draw_spec(0.5 * seq) == expected


@pytest.mark.parametrize("shape", ["table1", "partial", "in_order"])
@pytest.mark.parametrize("pattern", ["aperiodic", "periodic"])
def test_arrivals_are_the_one_record_draws(pattern, shape):
    """``arrivals()`` — the stream without an engine — yields the records
    the one-record code draws, across three chunk boundaries."""
    config = baseline_config(seed=80).with_updates(
        **PATTERNS[pattern], **SHAPES[shape]
    )
    config = config.with_transactions(arrival_rate=500.0)
    count = 3 * CHUNK + 5

    engine = Engine()
    reference = HeapUpdateStream(config, engine, StreamFamily(config.seed))
    reference.start()
    while len(reference.out) < count:
        engine.step()
    streams = StreamFamily(config.seed)
    txn_arrivals = streams.stream(TransactionGenerator.STREAM_ARRIVALS)
    txn_shape = streams.stream(TransactionGenerator.STREAM_SHAPE)
    expected_specs, time = [], 0.0
    for seq in range(count):
        time += txn_arrivals.interarrival(500.0)
        expected_specs.append(reference_spec(
            txn_shape, config.transactions, config.updates.n_low,
            config.updates.n_high, seq, time))

    drawn = StreamFamily(config.seed)
    updates = UpdateStreamGenerator(config, None, drawn, None).arrivals()
    specs = TransactionGenerator(config, None, drawn, None).arrivals()
    chunks = [next(updates) for _ in range(4)]
    assert [len(chunk) for chunk in chunks] == [CHUNK] * 4
    assert [fields(u) for chunk in chunks for u in chunk][:count] == [
        fields(u) for u in reference.out[:count]
    ]
    assert [astuple(s) for _ in range(4) for s in next(specs)][:count] == [
        astuple(s) for s in expected_specs
    ]


def test_bursty_arrivals_need_an_engine():
    config = baseline_config().with_updates(**PATTERNS["bursty"])
    with pytest.raises(ValueError, match="engine events"):
        UpdateStreamGenerator(config, None, StreamFamily(1), None).arrivals()


@pytest.mark.parametrize("overrides, message", [
    (dict(arrival_rate=0.0), "Poisson rate must be > 0"),
    (dict(p_low=1.5), "probability out of range"),
    (dict(mean_age=-1.0), "exponential mean must be >= 0"),
    (dict(n_high=0), "cannot choose from 0 items"),
    (dict(partial_probability=0.5, attributes_per_object=0),
     "cannot choose from 0 items"),
])
def test_chunk_loops_keep_the_parameter_checks(overrides, message):
    from dataclasses import replace

    config = baseline_config()
    generator = UpdateStreamGenerator(config, Engine(), StreamFamily(1), None)
    generator.params = replace(config.updates, **overrides)  # skips validate()
    with pytest.raises(ValueError, match=message):
        generator.start()
        generator.engine.run_until(1.0)


def test_spine_trace_records_are_what_they_were():
    """``benchmarks/spine/trace.py`` ``records()`` for one seed, two phases
    and cross-shard spreading: sha256 over every field of every record,
    recorded on the parent commit (``compare.py`` checks ``trace_sha256``
    across commits too)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks/spine/trace.py"
    spec = importlib.util.spec_from_file_location("spine_trace", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["spine_trace"] = module
    try:
        spec.loader.exec_module(module)
        digest, count = hashlib.sha256(), 0
        for record in module.records(7, [(0.25, 3000.0), (0.25, 12000.0)],
                                     shards=2, cross_shard_frac=0.3):
            row = fields(record) if isinstance(record, Update) else astuple(record)
            digest.update(repr(row).encode())
            count += 1
    finally:
        del sys.modules["spine_trace"]
    assert count == 3979
    assert digest.hexdigest() == (
        "4de2785f4989f848deb79e9dafbb432c0665ae8dd356998a0e77715fc364a447"
    )
