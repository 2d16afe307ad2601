"""Tests for keyspace sharding: router, merge, and sharded simulation.

The load-bearing guarantee is at the bottom: for every registered
algorithm, ``shards=1`` is *asdict-identical* to the pre-refactor single
pipeline (replicated verbatim in :func:`_reference_run`), and multi-shard
runs preserve both conservation laws and every reported invariant.
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import baseline_config
from repro.core.algorithms.registry import ALGORITHMS
from repro.core.sharding import (
    build_shard_set,
    route_spec,
    route_update,
    shard_config,
    split_update_run,
)
from repro.core.simulator import run_simulation
from repro.core.wiring import build_parts, collect_result, reset_measurement
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ROUTER_VERSION, ShardRouter, stable_hash
from repro.metrics.freshness import SampledLedger
from repro.metrics.results import SimulationResult
from repro.metrics.validate import check_invariants
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.codec import (
    _UPDATE_BODY,
    _UPDATE_FRAME,
    TAG_UPDATE,
    BadObjectId,
    encode_frame,
    peek_update_route,
    reroute_update_frame,
)
from repro.workload.trace import synthesize
from repro.workload.transactions import TransactionGenerator, TransactionSpec
from repro.workload.updates import UpdateStreamGenerator


def small_config(**overrides):
    config = baseline_config(duration=4.0, seed=11, **overrides)
    config.warmup = 0.0
    return config.with_updates(arrival_rate=120.0, n_low=30, n_high=30)


# ----------------------------------------------------------------------
# Hash and router
# ----------------------------------------------------------------------
class TestStableHash:
    def test_hard_coded_values_never_change(self):
        """Routing is part of the cache key (ROUTER_VERSION); if these
        change, ROUTER_VERSION must be bumped."""
        assert ROUTER_VERSION == 1
        assert stable_hash(0) == 16294208416658607535
        assert stable_hash(1) == 10451216379200822465
        assert stable_hash(1995) == 9285508217098258303

    def test_deterministic_across_calls(self):
        assert all(stable_hash(v) == stable_hash(v) for v in range(64))


class TestShardRouter:
    def test_partitions_the_whole_keyspace(self):
        router = ShardRouter(30, 20, 4)
        for klass, count in ((ObjectClass.VIEW_LOW, 30), (ObjectClass.VIEW_HIGH, 20)):
            per_shard = {s: [] for s in range(4)}
            for gid in range(count):
                per_shard[router.shard_of(klass, gid)].append(
                    router.local_id(klass, gid)
                )
            # Local ids are dense 0..k-1 on every shard, in gid order.
            for shard, locals_ in per_shard.items():
                assert locals_ == list(range(router.count_for(shard, klass)))
        totals = [router.counts(s) for s in range(4)]
        assert sum(low for low, _ in totals) == 30
        assert sum(high for _, high in totals) == 20

    def test_budgets_cover_the_global_budget(self):
        router = ShardRouter(30, 20, 4)
        os_budgets = [router.os_budget(s, 10) for s in range(4)]
        uq_budgets = [router.uq_budget(s, 100) for s in range(4)]
        assert sum(os_budgets) >= 10
        assert all(b >= 1 for b in os_budgets)
        assert sum(uq_budgets) >= 100
        assert all(b >= 2 for b in uq_budgets)  # PartitionedUpdateQueue floor

    def test_rejects_invalid_topologies(self):
        with pytest.raises(ValueError):
            ShardRouter(30, 20, 0)
        with pytest.raises(ValueError):
            ShardRouter(1, 0, 2)  # fewer objects than shards
        with pytest.raises(ValueError, match="use fewer shards"):
            ShardRouter(1, 1, 2)  # both objects hash to shard 1

    def test_accounting(self):
        router = ShardRouter(30, 20, 2)
        router.note_update_routed(0)
        router.note_update_routed(1)
        router.note_transaction_routed(1)
        router.note_remapped_read()
        acct = router.accounting()
        assert acct["shards"] == 2
        assert acct["router_version"] == ROUTER_VERSION
        assert acct["updates_routed"] == [1, 1]
        assert acct["transactions_routed"] == [0, 1]
        assert acct["remapped_reads"] == 1
        assert acct["routing_errors"] == 0


class TestRouting:
    def _update(self, gid, klass=ObjectClass.VIEW_LOW):
        return Update(0, klass, gid, 1.0, 0.5, 0.6)

    def test_route_update_localizes_without_mutating_original(self):
        router = ShardRouter(30, 20, 4)
        update = self._update(17)
        shard, routed = route_update(router, update)
        assert shard == router.shard_of(ObjectClass.VIEW_LOW, 17)
        assert routed.object_id == router.local_id(ObjectClass.VIEW_LOW, 17)
        assert routed is not update and update.object_id == 17
        assert sum(router.updates_routed) == 1

    def test_route_spec_remaps_cross_shard_reads(self):
        router = ShardRouter(30, 20, 4)
        spec = TransactionSpec(
            seq=1, arrival_time=0.1, high_value=False, value=1.0,
            compute_time=0.01, reads=tuple(range(10)), slack=1.0,
        )
        shard, routed = route_spec(router, spec)
        assert shard == router.shard_of(ObjectClass.VIEW_LOW, 0)
        owned = router.count_for(shard, ObjectClass.VIEW_LOW)
        assert all(0 <= r < owned for r in routed.reads)
        # Owned reads keep their identity; foreign ones are stand-ins.
        for gid, local in zip(spec.reads, routed.reads):
            if router.shard_of(ObjectClass.VIEW_LOW, gid) == shard:
                assert local == router.local_id(ObjectClass.VIEW_LOW, gid)
        assert router.remapped_reads == sum(
            1 for gid in spec.reads
            if router.shard_of(ObjectClass.VIEW_LOW, gid) != shard
        )

    def test_readless_spec_routes_by_sequence(self):
        router = ShardRouter(30, 20, 4)
        spec = TransactionSpec(
            seq=9, arrival_time=0.1, high_value=True, value=1.0,
            compute_time=0.01, reads=(), slack=1.0,
        )
        shard, routed = route_spec(router, spec)
        assert shard == router.hash_shard(9)
        assert routed is spec


# ----------------------------------------------------------------------
# Result merging
# ----------------------------------------------------------------------
class TestMerge:
    def test_merging_a_result_with_itself_doubles_counters(self):
        result = run_simulation(small_config(), "TF")
        merged = SimulationResult.merge([result, result])
        assert merged.updates_arrived == 2 * result.updates_arrived
        assert merged.transactions_committed == 2 * result.transactions_committed
        assert merged.value_earned == pytest.approx(2 * result.value_earned)
        # Utilizations are fractions of aggregate capacity: the mean.
        assert merged.rho_transactions == pytest.approx(result.rho_transactions)
        assert merged.rho_updates == pytest.approx(result.rho_updates)
        assert merged.fold_low == pytest.approx(result.fold_low)
        assert merged.p_md == pytest.approx(result.p_md)
        # Conservation is linear, so zero gaps merge to zero gaps.
        assert merged.update_conservation_gap() == 0
        assert merged.transaction_conservation_gap() == 0

    def test_merge_of_one_is_identity(self):
        result = run_simulation(small_config(), "TF")
        assert SimulationResult.merge([result]) == result

    def test_refuses_mismatched_runs(self):
        a = run_simulation(small_config(), "TF")
        b = run_simulation(small_config(), "UF")
        with pytest.raises(ValueError, match="refusing to merge"):
            SimulationResult.merge([a, b])
        with pytest.raises(ValueError):
            SimulationResult.merge([])


# ----------------------------------------------------------------------
# shards=1 parity against the pre-refactor pipeline
# ----------------------------------------------------------------------
def _reference_run(config, algorithm, **kwargs) -> SimulationResult:
    """The single-pipeline simulation loop exactly as it was wired before
    sharding existed: build_parts + controller-bound generator sinks."""
    engine = Engine()
    parts = build_parts(config, algorithm, engine, **kwargs)
    streams = StreamFamily(config.seed)
    update_generator = UpdateStreamGenerator(
        config, engine, streams, parts.controller.on_update_arrival
    )
    transaction_generator = TransactionGenerator(
        config, engine, streams, parts.controller.on_transaction_arrival
    )
    update_generator.start()
    transaction_generator.start()
    if isinstance(parts.ledger, SampledLedger):
        parts.ledger.start()
    if config.warmup > 0:
        engine.schedule_at(
            config.warmup, lambda: reset_measurement(parts, engine.now)
        )
    engine.run_until(config.duration)
    parts.controller.finalize(config.duration)
    parts.ledger.finalize(config.duration)
    return collect_result(parts, config.duration - config.warmup)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_single_shard_is_bit_identical_to_reference(algorithm):
    config = small_config()
    reference = asdict(_reference_run(config, algorithm))
    assert asdict(run_simulation(config, algorithm)) == reference
    assert asdict(run_simulation(config, algorithm, shards=1)) == reference


# ----------------------------------------------------------------------
# Multi-shard conservation and invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_run_sees_every_arrival(shards):
    """At warmup=0 nothing is recounted at a boundary, so the sharded
    topology must account for exactly the same arrival streams."""
    config = small_config()
    flat = run_simulation(config, "TF")
    sharded = run_simulation(config, "TF", shards=shards)
    assert sharded.updates_arrived == flat.updates_arrived
    assert sharded.transactions_arrived == flat.transactions_arrived
    assert sharded.extras["shards"] == shards
    assert sum(sharded.extras["updates_routed"]) == flat.updates_arrived


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_sharded_run_preserves_conservation_and_invariants(algorithm):
    config = baseline_config(duration=6.0, seed=23)
    config.warmup = 2.0
    config = config.with_updates(arrival_rate=150.0, n_low=30, n_high=30)
    result = run_simulation(config, algorithm, shards=2)
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
    assert check_invariants(result) == []


def test_sharded_config_splits_the_keyspace_and_budgets():
    config = small_config()
    router = ShardRouter(config.updates.n_low, config.updates.n_high, 4)
    configs = [shard_config(config, router, index) for index in range(4)]
    assert sum(c.updates.n_low for c in configs) == config.updates.n_low
    assert sum(c.updates.n_high for c in configs) == config.updates.n_high
    assert sum(c.system.os_queue_max for c in configs) >= config.system.os_queue_max


def test_multi_shard_build_requires_algorithm_name():
    config = small_config()
    algorithm = ALGORITHMS["TF"]()
    engine = Engine()
    with pytest.raises(ValueError, match="algorithm name"):
        build_shard_set(config, algorithm, engine, shards=2)
    # The single-shard path still accepts an instance, as before.
    shard_set = build_shard_set(config, algorithm, engine, shards=1)
    assert len(shard_set) == 1


# ----------------------------------------------------------------------
# The run split: a run of raw update frames, routed as bytes
# ----------------------------------------------------------------------
_FRAMES = st.lists(
    st.tuples(
        st.integers(0, 1 << 40),             # seq
        st.sampled_from([0, 0, 1, 1, 2, 7]),  # low, high, general, unknown
        st.integers(-3, 45),                 # object id, sizes are <= 40
        st.floats(allow_nan=False),          # value
        st.booleans(),                       # partial
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(n_low=st.integers(0, 40), n_high=st.integers(0, 40),
       shards=st.integers(1, 4), fields=_FRAMES)
def test_split_update_run_is_reroute_update_frame_per_record(
    n_low, n_high, shards, fields
):
    """For any well-formed update frames over any router: each shard's
    payload is the in-order concatenation of ``reroute_update_frame`` of
    its records, the routing books agree, and a frame that cannot be
    routed yields its typed error while its neighbours route unchanged."""
    try:
        router = ShardRouter(n_low, n_high, shards)
    except ValueError:
        assume(False)
    frames = [
        _UPDATE_FRAME.pack(TAG_UPDATE, _UPDATE_BODY.size, seq, code, gid,
                           value, 0.0, 0.0, partial, 3)
        for seq, code, gid, value, partial in fields
    ]
    sizes = (n_low, n_high)
    expected: dict = {}
    unroutable = []
    for frame, (_seq, code, gid, _value, _partial) in zip(frames, fields):
        if code in (0, 1) and 0 <= gid < sizes[code]:
            klass, peeked = peek_update_route(frame)
            assert peeked == gid
            expected.setdefault(router.shard_of(klass, gid), []).append(
                reroute_update_frame(frame, router.local_id(klass, gid))
            )
        else:
            unroutable.append((frame, code))

    errors = []
    by_shard = split_update_run(
        router, b"".join(frames),
        on_error=lambda frame, exc: errors.append((frame, exc)),
    )

    assert list(by_shard) == list(expected)  # first-appearance order
    for shard, (payload, count) in by_shard.items():
        assert payload == b"".join(expected[shard])
        assert count == len(expected[shard])
    assert router.updates_routed == [
        len(expected.get(shard, [])) for shard in range(shards)
    ]
    assert router.routing_errors == len(unroutable)
    assert [frame for frame, _ in errors] == [frame for frame, _ in unroutable]
    for (_, exc), (_, code) in zip(errors, unroutable):
        assert isinstance(exc, ValueError)
        # Only a view-class id outside its partition is a *bad object id*;
        # a class the router does not shard, or does not know, says so.
        assert isinstance(exc, BadObjectId) == (code in (0, 1))
        if isinstance(exc, BadObjectId):
            assert f"outside [0, {sizes[code]})" in str(exc)
            assert exc.seq is None  # updates are fire-and-forget


def test_split_update_run_of_one_frame_and_of_none():
    router = ShardRouter(8, 8, 2)
    update = Update(seq=4, klass=ObjectClass.VIEW_HIGH, object_id=5, value=1.0,
                    generation_time=0.0, arrival_time=0.1)
    frame = encode_frame(update)
    shard = router.shard_of(update.klass, 5)
    assert split_update_run(router, frame) == {
        shard: (reroute_update_frame(frame, router.local_id(update.klass, 5)), 1)
    }
    assert split_update_run(router, b"") == {}


# ----------------------------------------------------------------------
# Batched routing parity (route_batch must not change the model)
# ----------------------------------------------------------------------
def _drawn_schedule(config, step=0.02):
    """Draw the workload up front and quantize arrivals *up* onto a grid,
    so several records share one delivery instant — the shape a coalesced
    wire batch produces at the router."""
    import math

    bursts: dict[float, list] = {}
    for item in synthesize(config, until=config.duration):
        at = math.ceil(item.arrival_time / step) * step
        if isinstance(item, Update):
            item.arrival_time = at
        else:
            item = replace(item, arrival_time=at)
        bursts.setdefault(at, []).append(item)
    return bursts


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_route_batch_parity_with_per_record(algorithm, shards):
    """Batched routing == per-record routing, for every algorithm, at one
    shard and two: identical results *and* identical routing accounting."""
    config = small_config()

    def run(batched):
        engine = Engine()
        shard_set = build_shard_set(config, algorithm, engine, shards=shards)
        shard_set.start_ledgers()
        for at, burst in _drawn_schedule(config).items():
            if batched:
                engine.schedule_at(at, shard_set.route_batch, burst)
            else:
                for item in burst:
                    if isinstance(item, Update):
                        engine.schedule_at(at, shard_set.route_update, item)
                    else:
                        engine.schedule_at(at, shard_set.route_spec, item)
        engine.run_until(config.duration)
        shard_set.finalize(config.duration)
        result = asdict(shard_set.collect(config.duration))
        # The clock-event count is the delivery mechanism, not the model.
        result.pop("events_dispatched")
        return result

    per_record = run(batched=False)
    batch = run(batched=True)
    assert batch == per_record
    assert batch["updates_applied"] > 0


def test_route_batch_groups_by_shard_and_amortizes_accounting():
    router = ShardRouter(30, 30, 3)
    from repro.core.sharding import route_batch

    updates = [
        Update(seq=i, klass=ObjectClass.VIEW_LOW, object_id=i, value=1.0,
               generation_time=0.0, arrival_time=0.1)
        for i in range(30)
    ]
    by_shard = route_batch(router, updates)
    assert sorted(by_shard) == [0, 1, 2]
    # Every record landed on its owner, in batch order, localized.
    total = 0
    for shard, routed in by_shard.items():
        seqs = [u.seq for u in routed]
        assert seqs == sorted(seqs)
        for u in routed:
            assert router.shard_of(ObjectClass.VIEW_LOW, u.seq) == shard
            assert u.object_id == router.local_id(ObjectClass.VIEW_LOW, u.seq)
        total += len(routed)
    assert total == 30
    assert router.updates_routed == [len(by_shard.get(s, [])) for s in range(3)]


def test_route_batch_skips_unroutable_records_without_poisoning_neighbors():
    router = ShardRouter(8, 8, 2)
    from repro.core.sharding import route_batch

    good = Update(seq=0, klass=ObjectClass.VIEW_LOW, object_id=1, value=1.0,
                  generation_time=0.0, arrival_time=0.1)
    bad = Update(seq=1, klass=ObjectClass.VIEW_LOW, object_id=999, value=1.0,
                 generation_time=0.0, arrival_time=0.1)
    errors = []
    by_shard = route_batch(router, [good, bad, good],
                           on_error=lambda item, exc: errors.append(item))
    assert sum(len(routed) for routed in by_shard.values()) == 2
    assert errors == [bad]
    assert router.routing_errors == 1
    assert sum(router.updates_routed) == 2
