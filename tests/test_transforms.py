"""Tests for the view-complexity extension (update transformers)."""

import pytest

from repro.config import baseline_config
from repro.core.simulator import Simulation
from repro.db.database import Database
from repro.db.objects import ObjectClass, Update
from repro.db.transforms import clamp, exponential_average, identity, scale
from repro.workload.transactions import TransactionSpec

IPS = 50e6


def make_update(seq, generation, value, object_id=0):
    return Update(seq, ObjectClass.VIEW_LOW, object_id, value,
                  generation, generation + 0.1)


class TestTransformers:
    def test_identity(self):
        assert identity()(5.0, 7.0) == 7.0

    def test_scale(self):
        assert scale(2.0)(0.0, 3.0) == 6.0

    def test_exponential_average(self):
        avg = exponential_average(0.5)
        assert avg(10.0, 20.0) == pytest.approx(15.0)
        with pytest.raises(ValueError):
            exponential_average(0.0)
        with pytest.raises(ValueError):
            exponential_average(1.5)

    def test_clamp(self):
        clamped = clamp(0.0, 10.0)
        assert clamped(5.0, -3.0) == 0.0
        assert clamped(5.0, 30.0) == 10.0
        assert clamped(5.0, 7.0) == 7.0
        with pytest.raises(ValueError):
            clamp(10.0, 0.0)


class TestDatabaseTransform:
    def test_transformer_applied_on_install(self):
        database = Database(2, 2)
        database.set_transformer(ObjectClass.VIEW_LOW, scale(10.0))
        database.install(make_update(0, generation=1.0, value=4.0), now=1.1)
        assert database.view_object(ObjectClass.VIEW_LOW, 0).value == 40.0

    def test_running_average_combines_with_previous(self):
        database = Database(2, 2)
        database.set_transformer(ObjectClass.VIEW_LOW, exponential_average(0.5))
        database.install(make_update(0, generation=1.0, value=10.0), now=1.1)
        database.install(make_update(1, generation=2.0, value=20.0), now=2.1)
        # Start value 0: 0.5*10 + 0.5*0 = 5; then 0.5*20 + 0.5*5 = 12.5.
        assert database.view_object(ObjectClass.VIEW_LOW, 0).value == pytest.approx(12.5)

    def test_other_partition_untouched(self):
        database = Database(2, 2)
        database.set_transformer(ObjectClass.VIEW_LOW, scale(10.0))
        high = Update(0, ObjectClass.VIEW_HIGH, 0, 4.0, 1.0, 1.1)
        database.install(high, now=1.1)
        assert database.view_object(ObjectClass.VIEW_HIGH, 0).value == 4.0

    def test_clear_transformer(self):
        database = Database(2, 2)
        database.set_transformer(ObjectClass.VIEW_LOW, scale(10.0))
        database.set_transformer(ObjectClass.VIEW_LOW, None)
        assert not database.has_transformer(ObjectClass.VIEW_LOW)

    def test_general_partition_rejected(self):
        with pytest.raises(ValueError):
            Database(2, 2).set_transformer(ObjectClass.GENERAL, identity())


class TestTransformCost:
    def test_x_transform_charged_per_applied_install(self):
        config = baseline_config(duration=10.0).with_updates(n_low=4, n_high=4)
        config = config.with_system(x_transform=100_000)
        sim = Simulation(config, "TF")
        sim.database.set_transformer(ObjectClass.VIEW_LOW, scale(1.0))
        sim.run_scripted(updates=[make_update(0, generation=1.0, value=2.0)])
        expected = (4000 + 20000 + 100_000) / IPS
        assert sim.cpu.update_seconds == pytest.approx(expected)

    def test_untransformed_partition_pays_nothing_extra(self):
        config = baseline_config(duration=10.0).with_updates(n_low=4, n_high=4)
        config = config.with_system(x_transform=100_000)
        sim = Simulation(config, "TF")
        sim.database.set_transformer(ObjectClass.VIEW_LOW, scale(1.0))
        high = Update(0, ObjectClass.VIEW_HIGH, 0, 2.0, 1.0, 1.01)
        sim.run_scripted(updates=[high])
        assert sim.cpu.update_seconds == pytest.approx((4000 + 20000) / IPS)

    def test_od_on_demand_apply_pays_transform(self):
        config = baseline_config(duration=20.0).with_updates(n_low=4, n_high=4)
        config = config.with_system(x_transform=100_000)
        sim = Simulation(config, "OD")
        sim.database.set_transformer(ObjectClass.VIEW_LOW, scale(1.0))
        blocker = TransactionSpec(0, 7.4, False, 1.0, 0.7, (), 1.0)
        reader = TransactionSpec(1, 8.0, False, 1.0, 0.05, (0,), 1.0)
        refresh = make_update(0, generation=7.4, value=2.0)
        refresh.arrival_time = 7.5
        sim.run_scripted(updates=[refresh], transactions=[blocker, reader])
        # On-demand apply: x_update + x_transform (lookup already paid by
        # the read itself).
        assert sim.cpu.update_seconds == pytest.approx((20000 + 100_000) / IPS)
