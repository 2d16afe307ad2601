"""Cross-shard transactions: scatter-gather read-sets, stale-anywhere.

Three layers of evidence that the cluster's cross-shard submit is the
same model as a single shard, just scattered:

* unit — :func:`split_spec` carves a read-set into per-shard sub-specs
  (local ids, parent budget) and :func:`merge_verdicts` folds per-shard
  outcomes back with the paper's MA/UU semantics: stale *anywhere* is
  stale, a missed (or failed) sub-read misses the parent, abort wins
  over everything;
* parity — on a virtual Engine clock, the scripted workload produces
  the *same* per-transaction verdicts through one global LiveRuntime as
  through two shard runtimes fed by the plane's routing
  (:class:`tests.inprocess.EngineCluster`), across all six algorithms
  and both stale-read actions, with both conservation laws holding per
  shard;
* wall clock — a real 2-shard :class:`ShardCluster` answers a
  cross-shard transaction with one merged outcome (``fanout == 2``) and
  full per-shard accounting in ``extras``, and a worker killed with a
  sub-read in flight scores a *typed* deadline miss, never a hang.
"""

import asyncio

import pytest

from repro.config import StaleReadAction, baseline_config
from repro.core.sharding import merge_verdicts, split_spec
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter
from repro.live import CrossShardSpreader, LiveRuntime, ShardCluster
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.transactions import TransactionSpec
from tests.inprocess import EngineCluster, FrameSession

OP_TIMEOUT = 30.0

ALGORITHMS = ["UF", "TF", "SU", "OD", "FX", "TF-SPLIT"]

#: Parity workload geometry: every object starts at generation time 0.0;
#: "fresh" objects get an update at FRESH_AT, transactions read at
#: READ_AT.  With MAX_AGE between the two ages, freshness at read time
#: is decided by margins of 0.3+ seconds — no algorithm's install
#: timing (microseconds at baseline ips) can flip a verdict.
MAX_AGE = 0.5
FRESH_AT = 0.9
READ_AT = 1.0


def _parity_config():
    config = baseline_config(duration=2.0, seed=77)
    config.warmup = 0.0
    config = config.with_updates(n_low=16, n_high=8)
    return config.with_transactions(max_age=MAX_AGE)


def _owned(router, shard, klass=ObjectClass.VIEW_LOW, count=2):
    gids = [
        gid for gid in range(router.count_for(0, klass) + router.count_for(1, klass))
        if router.shard_of(klass, gid) == shard
    ]
    assert len(gids) >= count, "config too small for this shard count"
    return gids[:count]


def _spec(seq, reads, *, compute=1e-4, slack=5.0, arrival=READ_AT):
    return TransactionSpec(
        seq=seq, arrival_time=arrival, high_value=False, value=10.0,
        compute_time=compute, reads=tuple(reads), slack=slack,
    )


# ----------------------------------------------------------------------
# Unit: split_spec
# ----------------------------------------------------------------------
def test_split_spec_localizes_reads_per_shard():
    router = ShardRouter(n_low=16, n_high=8, shards=2)
    g0 = _owned(router, 0)[0]
    g1 = _owned(router, 1)[0]
    spec = _spec(42, (g0, g1), compute=0.25, slack=1.5)

    subs = split_spec(router, spec)
    assert sorted(subs) == [0, 1]
    assert subs[0].reads == (router.local_id(ObjectClass.VIEW_LOW, g0),)
    assert subs[1].reads == (router.local_id(ObjectClass.VIEW_LOW, g1),)
    for sub in subs.values():
        # The parent's identity and budget ride along unchanged.
        assert sub.seq == spec.seq
        assert sub.arrival_time == spec.arrival_time
        assert sub.value == spec.value
        assert sub.compute_time == spec.compute_time
        assert sub.slack == spec.slack


def test_split_spec_single_owner_and_readless():
    router = ShardRouter(n_low=16, n_high=8, shards=2)
    a, b = _owned(router, 1, count=2)

    subs = split_spec(router, _spec(7, (a, b)))
    assert list(subs) == [1]
    assert subs[1].reads == tuple(
        router.local_id(ObjectClass.VIEW_LOW, gid) for gid in (a, b)
    )

    empty = split_spec(router, _spec(7, ()))
    assert list(empty) == [router.hash_shard(7)]
    assert next(iter(empty.values())).reads == ()


# ----------------------------------------------------------------------
# Unit: merge_verdicts
# ----------------------------------------------------------------------
def _sub(outcome, stale=False, finish=1.0, **extra):
    return {"outcome": outcome, "read_stale": stale, "finish_time": finish, **extra}


def test_merge_verdicts_stale_anywhere_is_stale():
    verdict = merge_verdicts([_sub("committed"), _sub("committed", stale=True)])
    assert verdict["outcome"] == "committed"
    assert verdict["read_stale"] is True


def test_merge_verdicts_precedence():
    # One failed sub-read makes the parent a miss …
    assert merge_verdicts([_sub("committed"), _sub("missed")])["outcome"] == "missed"
    # … an RPC failure is a miss too (typed, with a reason) …
    failed = _sub("missed", finish=None, failure="sub_read_deadline")
    assert merge_verdicts([_sub("committed"), failed])["outcome"] == "missed"
    # … abort-on-stale outranks the miss …
    assert (
        merge_verdicts([_sub("aborted-stale", stale=True), _sub("missed")])["outcome"]
        == "aborted-stale"
    )
    # … and rejection outranks plain commit.
    assert merge_verdicts([_sub("rejected"), _sub("committed")])["outcome"] == "rejected"


def test_merge_verdicts_finish_time_is_slowest_shard():
    verdict = merge_verdicts([_sub("committed", finish=1.25), _sub("committed", finish=3.5)])
    assert verdict["finish_time"] == 3.5
    none = merge_verdicts([_sub("missed", finish=None, failure="closed")])
    assert none["finish_time"] is None
    with pytest.raises(ValueError):
        merge_verdicts([])


# ----------------------------------------------------------------------
# Unit: the load generator's cross-shard spreader
# ----------------------------------------------------------------------
def test_spreader_rewrites_second_read_to_foreign_shard():
    config = _parity_config()
    n_low, n_high = config.updates.n_low, config.updates.n_high
    router = ShardRouter(n_low=n_low, n_high=n_high, shards=2)

    def build():
        return CrossShardSpreader(
            n_low, n_high, StreamFamily(config.seed), frac=1.0, shards=2
        )

    a, b = _owned(router, 0, count=2)  # both reads start on shard 0
    spreader = build()
    spec = _spec(3, (a, b))
    spread = spreader.spread(spec)
    assert spreader.spread_count == 1
    assert spread.reads[0] == a
    assert router.shard_of(ObjectClass.VIEW_LOW, spread.reads[1]) == 1
    # Only the second read moves; identity and budget are untouched.
    assert (spread.seq, spread.arrival_time, spread.value) == (
        spec.seq, spec.arrival_time, spec.value,
    )
    # Fewer than two reads: nothing to span, passes through unrewritten.
    single = _spec(4, (a,))
    assert spreader.spread(single) is single
    # Deterministic under the seed: a fresh spreader repeats the rewrite.
    assert build().spread(_spec(3, (a, b))).reads == spread.reads


# ----------------------------------------------------------------------
# Parity: one global runtime vs. two shard runtimes on one Engine clock
# ----------------------------------------------------------------------
def _workload(router):
    """Two fresh and two stale low-view objects, one of each per shard.

    Objects start at generation time 0.0, so at READ_AT every object is
    stale under MAX_AGE unless refreshed; the two "fresh" objects get an
    update at FRESH_AT.  Returns (updates, specs, expected) where
    expected maps seq -> (stale-anywhere flag, set of owning shards).
    """
    fresh = {shard: _owned(router, shard)[0] for shard in (0, 1)}
    stale = {shard: _owned(router, shard)[1] for shard in (0, 1)}
    updates = [
        Update(
            seq=seq, klass=ObjectClass.VIEW_LOW, object_id=fresh[shard],
            value=2.0, generation_time=FRESH_AT, arrival_time=FRESH_AT,
        )
        for seq, shard in enumerate((0, 1))
    ]
    specs = [
        _spec(0, (fresh[0], fresh[1])),   # cross-shard, all fresh
        _spec(1, (fresh[0], stale[1])),   # cross-shard, stale on one side
        _spec(2, (stale[0], stale[1])),   # cross-shard, stale everywhere
        _spec(3, ()),                     # readless, hash-placed
        _spec(4, (fresh[0], stale[0])),   # single-owner multi-read
    ]
    expected = {0: False, 1: True, 2: True, 3: False, 4: True}
    return updates, specs, expected


def _run_single(config, algorithm, updates, specs):
    engine = Engine()
    runtime = LiveRuntime(config, algorithm, clock=engine)
    handles = {}
    for update in updates:
        engine.schedule_at(update.arrival_time, runtime.ingest, update)
    for spec in specs:
        engine.schedule_at(
            spec.arrival_time,
            lambda spec=spec: handles.__setitem__(spec.seq, runtime.submit(spec)),
        )
    engine.run_until(config.duration)
    return runtime.finalize(), handles


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("action", [StaleReadAction.IGNORE, StaleReadAction.ABORT])
def test_cross_shard_verdicts_match_single_shard(algorithm, action):
    """Scatter-gather over two shards reaches the verdict one shard would."""
    config = _parity_config().with_transactions(stale_read_action=action)
    cluster = EngineCluster(config, algorithm, 2)

    updates, specs, expected = _workload(cluster.router)
    # The cluster routes encoded frames, so the updates it was given keep
    # no queue state and the single runtime can take them afterwards.
    cluster.run([*updates, *specs])
    single_result, handles = _run_single(config, algorithm, updates, specs)
    verdicts = cluster.verdicts()
    shard_results = dict(enumerate(cluster.results))

    for seq, stale_anywhere in expected.items():
        assert handles[seq].done, f"seq {seq} unresolved in single-shard run"
        assert verdicts[seq]["outcome"] == handles[seq].outcome, f"seq {seq}"
        assert verdicts[seq]["read_stale"] == handles[seq].read_stale, f"seq {seq}"
        assert verdicts[seq]["read_stale"] == stale_anywhere, f"seq {seq}"
        if action is StaleReadAction.ABORT and stale_anywhere:
            assert verdicts[seq]["outcome"] == "aborted-stale", f"seq {seq}"
        else:
            assert verdicts[seq]["outcome"] == "committed", f"seq {seq}"

    # Commit/miss/abort tallies agree at the merged-verdict level.
    for outcome in ("committed", "missed", "aborted-stale", "rejected"):
        merged = sum(1 for v in verdicts.values() if v["outcome"] == outcome)
        single = sum(1 for h in handles.values() if h.outcome == outcome)
        assert merged == single, outcome

    # Both conservation laws hold on every shard under fan-out.
    for shard, result in shard_results.items():
        assert result.update_conservation_gap() == 0, f"shard {shard}"
        assert result.transaction_conservation_gap() == 0, f"shard {shard}"
    assert single_result.update_conservation_gap() == 0
    assert single_result.transaction_conservation_gap() == 0


# ----------------------------------------------------------------------
# Wall clock: a real 2-shard cluster
# ----------------------------------------------------------------------
def _cluster_config():
    config = baseline_config(duration=1.0, seed=11)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=500.0, mean_age=0.01)
    config = config.with_transactions(arrival_rate=5.0)
    return config.with_system(ips=5e8)


def _shard_gid(router, shard):
    for gid in range(router.n_low):
        if router.shard_of(ObjectClass.VIEW_LOW, gid) == shard:
            return gid
    raise AssertionError("config too small for this shard count")


def test_cluster_cross_shard_round_trip():
    """A spec spanning both shards gets one merged outcome with fanout=2
    and the per-shard scatter-gather accounting lands in extras; the
    routed side of the books accounts for every record the session sent."""

    async def scenario():
        cluster = ShardCluster(_cluster_config(), "TF", shards=2)
        host, port = await cluster.start()
        session = await FrameSession.open(host, port)
        g0 = _shard_gid(cluster.router, 0)
        g1 = _shard_gid(cluster.router, 1)
        for seq in range(8):  # four updates to each shard, then the spec
            session.send(Update(
                seq=seq, klass=ObjectClass.VIEW_LOW, object_id=(g0, g1)[seq % 2],
                value=1.0, generation_time=0.0, arrival_time=0.0,
            ))
        session.send(_spec(7, (g0, g1), slack=2.0, arrival=0.0))
        await session.drain()
        reply = await session.reply(timeout=OP_TIMEOUT)
        session.close()
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=1.0), timeout=OP_TIMEOUT
        )
        return reply, result

    reply, result = asyncio.run(scenario())
    assert reply["kind"] == "outcome"
    assert reply["seq"] == 7
    assert reply["outcome"] == "committed"
    assert reply["fanout"] == 2
    assert result.extras["cross_shard_submits"] == 1
    assert result.extras["fanout_sub_reads"] == [1, 1]
    assert result.extras["sub_read_misses"] == [0, 0]
    assert result.extras["sub_read_aborts"] == [0, 0]
    assert result.extras["sub_read_deadline_misses"] == [0, 0]
    assert result.extras["sub_read_latency_p99"] >= 0.0
    assert result.transactions_committed >= 2  # both sub-reads committed
    assert result.extras["records_received"] == 9
    assert result.extras["updates_routed"] == [4, 4]
    assert result.updates_arrived == 8
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0


def test_killed_sub_read_is_typed_deadline_miss():
    """A worker dying with a sub-read in flight fails that sub-read with
    a typed RPC error — the parent misses, the session never hangs."""

    async def scenario():
        cluster = ShardCluster(
            _cluster_config(), "TF", shards=2, restart_limit=0,
        )
        host, port = await cluster.start()
        session = await FrameSession.open(host, port)
        g0 = _shard_gid(cluster.router, 0)
        g1 = _shard_gid(cluster.router, 1)
        # Long compute keeps the victim's sub-read in flight when it dies.
        session.send(_spec(9, (g0, g1), compute=1.0, slack=1.0, arrival=0.0))
        await session.drain()
        await asyncio.sleep(0.3)
        cluster.kill_worker(1)
        reply = await session.reply(timeout=OP_TIMEOUT)
        session.close()
        result = await asyncio.wait_for(
            cluster.shutdown(drain_timeout=1.0), timeout=OP_TIMEOUT
        )
        return reply, result

    reply, result = asyncio.run(scenario())
    assert reply["kind"] == "outcome"
    assert reply["seq"] == 9
    assert reply["outcome"] == "missed"
    assert reply["fanout"] == 2
    assert result.extras["cross_shard_submits"] == 1
    assert result.extras["fanout_sub_reads"] == [1, 1]
    assert result.extras["sub_read_deadline_misses"] == [0, 1]
    assert result.extras["down_shards"] == [1]
