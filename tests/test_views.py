"""Incremental derived views: delta maintenance, staleness, sharding.

The contract under test is DBSP-style exactness: a view maintained by
per-install deltas must be *value-identical* — not approximately equal —
to a full recomputation from the base partition, after every install,
under every scheduling algorithm, at every shard count.  The registry
keeps its partial aggregates exact (sums as integers in units of
2^-1074), so equality here is exact equality; any divergence is a
maintenance bug.

Staleness rides the same machinery as the paper's unapplied-update
metric: a view is stale exactly while some admitted-but-uninstalled base
update would change it (or, for deferred views, while deltas sit
buffered), and the per-view stale intervals fold into ``fold_views``
next to ``fold_low``/``fold_high``.
"""

import asyncio
import math

import pytest

from repro.config import StalenessPolicy, baseline_config
from repro.core.algorithms.registry import ALGORITHMS
from repro.core.simulator import Simulation, run_simulation
from repro.db.objects import ObjectClass, Update
from repro.db.views import (
    ViewError,
    ViewRegistry,
    ViewSpec,
    merge_view_reports,
    rational_str,
    recompute,
)
from repro.live import LiveRuntime
from repro.metrics.validate import check_invariants
from repro.sim.engine import Engine
from tests.inprocess import EngineCluster, FrameSession, door

ALL_SPECS = (
    "by4=sum:low,groups=4",
    "installed=count:low,groups=2",
    "avg=mean:low,groups=3",
    "hot=top_k:high,k=4",
    "recent=window_avg:low,window=2.0",
)


def _config(**overrides):
    config = baseline_config(duration=4.0, seed=20260808, **overrides)
    config.warmup = 0.0
    config = config.with_updates(arrival_rate=250.0, mean_age=0.5)
    config = config.with_transactions(arrival_rate=10.0)
    return config


# ----------------------------------------------------------------------
# Spec parsing and record round trips
# ----------------------------------------------------------------------
class TestViewSpec:
    def test_parse_full_form(self):
        spec = ViewSpec.parse("by8=sum:low,groups=8")
        assert spec == ViewSpec("by8", "sum", ObjectClass.VIEW_LOW, groups=8)

    def test_parse_options(self):
        spec = ViewSpec.parse("hot=top_k:high,k=3")
        assert spec.kind == "top_k" and spec.k == 3
        assert spec.klass is ObjectClass.VIEW_HIGH
        spec = ViewSpec.parse("w=window_avg:low,window=2.5")
        assert spec.window == 2.5
        spec = ViewSpec.parse("d=mean:low,groups=2,deferred")
        assert spec.eager is False

    def test_record_round_trip(self):
        for text in ALL_SPECS + ("d=mean:low,groups=2,deferred",):
            spec = ViewSpec.parse(text)
            assert ViewSpec.from_record(spec.to_record()) == spec

    @pytest.mark.parametrize("bad", [
        "noequals", "x=badkind:low", "x=sum:nowhere", "x=sum:low,groups=0",
        "x=top_k:low,k=0", "x=window_avg:low,window=0", "x=sum:low,bogus=1",
        "x=window_avg:low,window=nan",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ViewError):
            ViewSpec.parse(bad)

    def test_rational_round_trip(self):
        for value in (0.1, -3.75, 1e9 + 1 / 3, 0.0):
            from fractions import Fraction
            f = Fraction(value)
            assert Fraction(rational_str(f)) == f


# ----------------------------------------------------------------------
# Parity: delta maintenance == full recompute, all six algorithms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("shards", [1, 2])
def test_delta_views_match_recompute(algorithm, shards):
    """Every install's delta leaves the views bit-identical to a full
    recomputation — checked after *every single install* via the
    registry's self-check hook, in the simulator and on every shard of a
    cluster."""
    if shards == 1:
        run = Simulation(_config(), algorithm)
        registries = [run.views]
    else:
        run = EngineCluster(_config(), algorithm, shards)
        registries = [runtime.views for runtime in run.runtimes]
    for registry in registries:
        registry.self_check = True
    for text in ALL_SPECS:
        run.register_view(text)
    result = run.run()

    # The self-check would have raised mid-run on any divergence; make
    # sure it actually exercised installs and reported the views.
    assert result.updates_applied > 0
    assert result.views_registered == len(ALL_SPECS) * shards
    assert result.view_refreshes > 0
    assert set(result.extras["views"]) == {s.split("=")[0] for s in ALL_SPECS}
    # The fold and both conservation laws hold with views registered.
    assert 0.0 <= result.fold_views <= 1.0
    assert result.update_conservation_gap() == 0
    assert result.transaction_conservation_gap() == 0
    assert check_invariants(result) == []


def test_view_registered_on_populated_database_matches_recompute():
    """Registration materializes from what is already installed; object
    ids say nothing about install order, and the windowed average expires
    from the front of *install* order — an old member with a high id must
    still age out behind a fresh member with a low one."""
    config = baseline_config(duration=20.0, seed=7)
    config.warmup = 0.0
    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    for at, object_id, value in ((1.0, 5, 100.0), (9.0, 2, 1.0)):
        engine.run_until(at)
        runtime.ingest(Update(seq=object_id, klass=ObjectClass.VIEW_LOW,
                              object_id=object_id, value=value,
                              generation_time=at, arrival_time=at))
    engine.run_until(9.5)
    for text in ALL_SPECS:
        runtime.register_view(text)
    registry = runtime.views
    registry.assert_parity(engine.now)
    engine.run_until(10.0)  # object 5 (installed at ~1) is out of the window
    registry.assert_parity(engine.now)
    assert registry.report(engine.now)["recent"]["values"] == 1.0


def test_sharded_merge_equals_global_recompute():
    """Per-shard partial aggregates merge to exactly the values a global
    recomputation over the union of shard databases produces."""
    cluster = EngineCluster(_config(), "TF", 2)
    for text in ALL_SPECS:
        cluster.register_view(text)
    result = cluster.run()
    merged = result.extras["views"]

    # Global member list: every shard's objects under their global ids.
    members = {klass: [] for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH)}
    for runtime in cluster.runtimes:
        for klass in members:
            members[klass].extend(runtime.views._members(klass))
    now = cluster.engine.now
    for text in ALL_SPECS:
        spec = ViewSpec.parse(text)
        expected = recompute(spec, members[spec.klass], now)
        assert merged[spec.name]["values"] == expected, spec.name


# ----------------------------------------------------------------------
# Staleness accounting
# ----------------------------------------------------------------------
def test_view_staleness_opens_on_admission_and_closes_on_install():
    """The stale interval opens when a worthy update is admitted and
    closes when the install catches the base up — same worthiness
    condition as the paper's unapplied-update ledger."""
    config = baseline_config(duration=10.0, seed=7)
    config.warmup = 0.0
    # Slow the CPU so the install takes ~0.5s and the in-flight window
    # is wide enough to observe deterministically.
    config = config.with_system(ips=config.system.x_update / 0.5)
    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    runtime.register_view("by2=sum:low,groups=2")
    registry = runtime.views
    runtime.begin_measurement()

    engine.run_until(1.0)
    assert registry.report(engine.now)["by2"]["stale"] is False
    # A burst: the first update goes straight into service; the rest
    # reach the update queue at the next scheduling point (when the
    # first install finishes, ~1.6s) — admitted but uninstalled: stale.
    for seq in range(4):
        assert runtime.ingest(
            Update(seq=seq, klass=ObjectClass.VIEW_LOW, object_id=seq,
                   value=2.5, generation_time=1.0, arrival_time=1.0)
        )
    engine.run_until(2.2)
    assert registry.report(engine.now)["by2"]["stale"] is True

    engine.run_until(9.0)  # the install completes, catching the base up
    assert registry.report(engine.now)["by2"]["stale"] is False
    result = runtime.finalize()
    stale = result.extras["views"]["by2"]["stale_seconds"]
    assert 0.0 < stale < 3.0
    assert result.fold_views == pytest.approx(stale / result.duration)


def test_fold_views_normalizes_over_views_and_duration():
    result = run_simulation(_config(), "TF", views=list(ALL_SPECS))
    report = result.extras["views"]
    total = sum(entry["stale_seconds"] for entry in report.values())
    assert result.fold_views == pytest.approx(
        total / (result.duration * len(ALL_SPECS))
    )
    assert all(
        0.0 <= entry["stale_seconds"] <= result.duration + 1e-9
        for entry in report.values()
    )


def test_deferred_view_buffers_until_refresh():
    config = baseline_config(duration=10.0, seed=7)
    config.warmup = 0.0
    engine = Engine()
    runtime = LiveRuntime(config, "TF", clock=engine)
    runtime.register_view("lazy=sum:low,groups=2,deferred")
    registry = runtime.views
    runtime.begin_measurement()

    for seq in range(5):
        runtime.ingest(Update(seq=seq, klass=ObjectClass.VIEW_LOW,
                              object_id=seq, value=1.0 + seq,
                              generation_time=0.1, arrival_time=0.1))
    engine.run_until(1.0)
    # Installed in the base, still buffered in the view: stale, behind.
    assert registry.pending_deltas("lazy") == 5
    assert registry.report(engine.now)["lazy"]["stale"] is True
    assert (registry._aggregates["lazy"].values(engine.now)
            != registry.expected_values("lazy", engine.now))

    applied = registry.refresh(engine.now)
    assert applied == 5
    assert registry.pending_deltas("lazy") == 0
    assert registry.report(engine.now)["lazy"]["stale"] is False
    registry.assert_parity(engine.now)
    # snapshot() is a documented observation point: it refreshes first.
    runtime.ingest(Update(seq=9, klass=ObjectClass.VIEW_LOW, object_id=9,
                          value=4.0, generation_time=1.1, arrival_time=1.1))
    engine.run_until(2.0)
    assert registry.pending_deltas("lazy") == 1
    runtime.snapshot()
    assert registry.pending_deltas("lazy") == 0


def test_eager_view_refresh_charges_update_cpu():
    """x_view_refresh > 0 makes eager installs cost more update CPU."""
    base = run_simulation(_config(), "TF", views=["by4=sum:low,groups=4"])
    config = _config().with_system(x_view_refresh=20000)
    charged = run_simulation(config, "TF", views=["by4=sum:low,groups=4"])
    assert charged.rho_updates > base.rho_updates


# ----------------------------------------------------------------------
# Registration errors and merge exactness
# ----------------------------------------------------------------------
def test_duplicate_and_unbound_registration_rejected():
    registry = ViewRegistry()
    with pytest.raises(ViewError):
        registry.register(ViewSpec.parse("x=sum:low"))
    sim = Simulation(_config(), "TF")
    sim.register_view("x=sum:low")
    with pytest.raises(ViewError):
        sim.register_view("x=count:low")


def test_key_map_fixed_after_registration():
    sim = Simulation(_config(), "TF")
    sim.register_view("x=sum:low")
    with pytest.raises(ViewError):
        sim.views.set_key_map(lambda klass, local_id: local_id)


def _unfillable_views(n_low):
    """A group count past the partition (every aggregate and report is
    dense in it: 20M groups once stalled a snapshot for 25 s) and a wire
    ``NaN`` window (a view that would read 0.0 forever)."""
    return [
        {"name": "g", "kind": "sum", "partition": "low", "groups": n_low + 1},
        {"name": "w", "kind": "window_avg", "partition": "low",
         "window": math.nan},
    ]


def test_node_door_refuses_unfillable_views_and_keeps_answering():
    config = _config()

    async def scenario():
        served = door("node", config)
        session = await FrameSession.open(*await served.start())
        replies = []
        try:
            for view in _unfillable_views(config.updates.n_low):
                session.send({"kind": "register_view", "rid": view["name"],
                              "view": view})
                replies.append(await session.reply())
            session.send({"kind": "snapshot", "rid": "s"})
            replies.append(await session.reply())
        finally:
            session.close()
            await served.stop()
        return served, replies

    served, (groups, window, snapshot) = asyncio.run(scenario())
    assert (groups["kind"], groups["rid"]) == ("error", "g")
    assert "exceeds the low partition's 500 objects" in groups["message"]
    assert (window["kind"], window["rid"]) == ("error", "w")
    assert (snapshot["kind"], snapshot["rid"]) == ("snapshot", "s")
    assert snapshot["views_registered"] == 0
    assert served.front.errors == 2


def test_routed_door_reports_like_the_cluster():
    """The in-process routed door merges through the cluster's one merge:
    the reply carries the plane's routing counters next to the merged
    view, whose per-group sums are those of the updates sent."""
    config = _config()

    async def scenario():
        served = door("routed", config)
        router = served.router
        session = await FrameSession.open(*await served.start())
        gids = {
            shard: [
                gid for gid in range(router.n_low)
                if router.shard_of(ObjectClass.VIEW_LOW, gid) == shard
            ][:3]
            for shard in (0, 1)
        }
        sent = [gid for shard in (0, 1) for gid in gids[shard]]
        try:
            session.send({"kind": "register_view", "rid": "v", "view": {
                "name": "s", "kind": "sum", "partition": "low", "groups": 2,
            }})
            assert (await session.reply())["kind"] == "view-registered"
            session.send(*(
                Update(seq=seq, klass=ObjectClass.VIEW_LOW, object_id=gid,
                       value=gid + 0.5, generation_time=0.0,
                       arrival_time=0.0)
                for seq, gid in enumerate(sent)
            ))
            for _ in range(1000):  # until every update has installed
                session.send({"kind": "snapshot", "rid": "s"})
                snapshot = await session.reply()
                if snapshot["updates_applied"] == len(sent):
                    break
                await asyncio.sleep(0.01)
        finally:
            session.close()
            await served.stop()
        return gids, sent, snapshot

    gids, sent, snapshot = asyncio.run(scenario())
    assert snapshot["kind"] == "snapshot"
    assert snapshot["updates_applied"] == len(sent)
    extras = snapshot["extras"]
    assert extras["updates_routed"] == [len(gids[0]), len(gids[1])]
    assert extras["views"]["s"]["values"] == [
        sum(gid + 0.5 for gid in sent if gid % 2 == group)
        for group in (0, 1)
    ]


def test_cluster_bounds_groups_by_the_global_partition_on_every_shard():
    """Each shard owns about half the partition, yet a view may use one
    group per *global* object, and no more — refused on every shard."""
    config = _config()
    n_low = config.updates.n_low
    cluster = EngineCluster(config, "TF", 2)
    cluster.register_view(f"whole=sum:low,groups={n_low}")
    for runtime in cluster.runtimes:
        assert len(runtime.database.low) < n_low
        for view in _unfillable_views(n_low):
            with pytest.raises(ViewError):
                runtime.register_view(view)
        assert list(runtime.views.specs) == ["whole"]
    cluster.run()
    merged = merge_view_reports(
        [runtime.views.report(cluster.engine.now) for runtime in cluster.runtimes]
    )
    assert len(merged["whole"]["values"]) == n_low


def test_merge_view_reports_is_exact():
    """Merging shard reports reconstructs values from the rational
    partials — float-exact for sums, and the global top-K is contained
    in the union of shard top-Ks."""
    cluster = EngineCluster(_config(), "TF", 2)
    cluster.register_view("s=sum:low,groups=3")
    cluster.register_view("m=mean:low,groups=3")
    cluster.register_view("hot=top_k:low,k=5")
    cluster.run()
    reports = [runtime.views.report(cluster.engine.now)
               for runtime in cluster.runtimes]
    merged = merge_view_reports(reports)

    from fractions import Fraction
    for group in range(3):
        expected = sum(
            (Fraction(rep["s"]["partials"]["sums"][group])
             for rep in reports), Fraction(0),
        )
        assert merged["s"]["values"][group] == float(expected)
    counts = [sum(rep["m"]["partials"]["counts"][g] for rep in reports)
              for g in range(3)]
    assert merged["m"]["partials"]["counts"] == counts
    union = {tuple(pair) for rep in reports for pair in rep["hot"]["values"]}
    assert set(map(tuple, merged["hot"]["values"])) <= union
    assert merged["s"]["refreshes"] == sum(r["s"]["refreshes"] for r in reports)


# ----------------------------------------------------------------------
# Results plumbing
# ----------------------------------------------------------------------
def test_result_merge_weights_fold_views_by_registration():
    from repro.metrics.results import SimulationResult

    cluster = EngineCluster(_config(), "TF", 2)
    cluster.register_view("by2=sum:low,groups=2")
    cluster.register_view("w=window_avg:low,window=1.0")
    result = cluster.run()
    shards = cluster.results
    registered = [shard.views_registered for shard in shards]
    assert registered == [2, 2]
    assert result.fold_views == pytest.approx(
        sum(s.fold_views * n for s, n in zip(shards, registered))
        / sum(registered)
    )
    assert SimulationResult.merge([result]).fold_views == result.fold_views


def test_no_views_means_zero_overhead_fields():
    result = run_simulation(_config(), "TF")
    assert result.fold_views == 0.0
    assert result.views_registered == 0
    assert result.view_refreshes == 0
    assert "views" not in result.extras
