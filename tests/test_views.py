"""Incremental derived views: delta maintenance, staleness, sharding.

The contract under test is DBSP-style exactness: a view maintained by
per-install deltas must be *value-identical* — not approximately equal —
to a full recomputation from the base partition, after every install,
under every scheduling algorithm, at every shard count.  The registry
keeps its partial aggregates as :class:`fractions.Fraction`, so equality
here is exact equality; any divergence is a maintenance bug.

Staleness rides the same machinery as the paper's unapplied-update
metric: a view is stale exactly while some admitted-but-uninstalled base
update would change it (or, for deferred views, while deltas sit
buffered), and the per-view stale intervals fold into ``fold_views``
next to ``fold_low``/``fold_high``.
"""

import math

import pytest

from repro.config import StalenessPolicy, baseline_config
from repro.core.algorithms.registry import ALGORITHMS
from repro.core.simulator import Simulation, run_simulation
from repro.db.objects import ObjectClass, Update
from repro.db.views import (
    CrossShardViewError,
    ViewError,
    ViewRegistry,
    ViewSpec,
    merge_view_reports,
    parse_rational,
    rational_str,
    recompute,
)
from repro.live import LiveRuntime
from repro.metrics.validate import check_invariants
from repro.sim.engine import Engine

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
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ViewError):
            ViewSpec.parse(bad)

    def test_rational_round_trip(self):
        for value in (0.1, -3.75, 1e9 + 1 / 3, 0.0):
            from fractions import Fraction
            f = Fraction(value)
            assert parse_rational(rational_str(f)) == f


# ----------------------------------------------------------------------
# Parity: delta maintenance == full recompute, all six algorithms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("shards", [1, 2])
def test_delta_views_match_recompute(algorithm, shards):
    """Every install's delta leaves the views bit-identical to a full
    recomputation — checked after *every single install* via the
    registry's self-check hook, on every shard."""
    sim = Simulation(_config(), algorithm, shards=shards)
    for shard in sim.shard_set.shards:
        shard.parts.views.self_check = True
    for text in ALL_SPECS:
        sim.register_view(text)
    result = sim.run()

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
    sim = Simulation(_config(), "TF", shards=2)
    for text in ALL_SPECS:
        sim.register_view(text)
    result = sim.run()
    merged = result.extras["views"]

    # Global member list: every shard's objects under their global ids.
    members = {klass: [] for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH)}
    for shard in sim.shard_set.shards:
        registry = shard.parts.views
        for klass in members:
            members[klass].extend(registry._members(klass))
    now = sim.engine.now
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


def test_table_views_rejected_on_sharded_registries():
    from repro.db.table import Table

    registry = ViewRegistry()
    registry.set_key_map(lambda klass, local_id: local_id)
    table = Table("t", ("k", "v"), key="k")
    with pytest.raises(CrossShardViewError):
        registry.register_table("tv", table, "sum", "v")


def test_key_map_fixed_after_registration():
    sim = Simulation(_config(), "TF")
    sim.register_view("x=sum:low")
    with pytest.raises(ViewError):
        sim.views.set_key_map(lambda klass, local_id: local_id)


def test_merge_view_reports_is_exact():
    """Merging shard reports reconstructs values from the rational
    partials — float-exact for sums, and the global top-K is contained
    in the union of shard top-Ks."""
    sim = Simulation(_config(), "TF", shards=2)
    sim.register_view("s=sum:low,groups=3")
    sim.register_view("m=mean:low,groups=3")
    sim.register_view("hot=top_k:low,k=5")
    sim.run()
    reports = [shard.parts.views.report(sim.engine.now)
               for shard in sim.shard_set.shards]
    merged = merge_view_reports(reports)

    from fractions import Fraction
    for group in range(3):
        expected = sum(
            (parse_rational(rep["s"]["partials"]["sums"][group])
             for rep in reports), Fraction(0),
        )
        assert merged["s"]["values"][group] == float(expected)
    counts = [sum(rep["m"]["partials"]["counts"][g] for rep in reports)
              for g in range(3)]
    assert merged["m"]["partials"]["counts"] == counts
    union = {tuple(pair) for rep in reports for pair in rep["hot"]["values"]}
    assert set(map(tuple, merged["hot"]["values"])) <= union
    assert merged["s"]["refreshes"] == sum(r["s"]["refreshes"] for r in reports)


def test_table_view_tracks_mutations_exactly():
    from repro.db.table import Table

    registry = ViewRegistry()
    table = Table("holdings", ("symbol", "shares", "desk"), key="symbol")
    view = registry.register_table("by_desk", table, "sum", "shares",
                                  group_column="desk")
    for i in range(6):
        table.upsert({"symbol": f"S{i}", "shares": 10.0 * i,
                      "desk": "arb" if i % 2 else "macro"})
    table.update_where(lambda row: row["desk"] == "arb", {"shares": 1.25})
    table.delete("S0")
    assert view.values() == view.expected_values()
    assert view.values()["arb"] == pytest.approx(3 * 1.25)
    report = registry.report(0.0)
    assert report["by_desk"]["source"] == "table"
    assert report["by_desk"]["stale"] is False


# ----------------------------------------------------------------------
# Results plumbing
# ----------------------------------------------------------------------
def test_result_merge_weights_fold_views_by_registration():
    from repro.metrics.results import SimulationResult

    result = run_simulation(_config(), "TF", shards=2,
                            views=["by2=sum:low,groups=2"])
    rebuilt = SimulationResult.merge([result])
    assert rebuilt.fold_views == result.fold_views


def test_no_views_means_zero_overhead_fields():
    result = run_simulation(_config(), "TF")
    assert result.fold_views == 0.0
    assert result.views_registered == 0
    assert result.view_refreshes == 0
    assert "views" not in result.extras
