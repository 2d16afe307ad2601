"""Unit tests for the main-memory database."""

import pytest

from repro.config import baseline_config
from repro.db.database import Database
from repro.db.objects import DataObject, ObjectClass, Update


def make_update(seq, generation, object_id=0, klass=ObjectClass.VIEW_LOW, **kwargs):
    return Update(
        seq, klass, object_id, float(seq), generation, generation + 0.05, **kwargs
    )


def test_sizes_from_config():
    config = baseline_config()
    database = Database.from_config(config)
    assert len(database.low) == 500
    assert len(database.high) == 500
    assert database.view_size == 1000


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        Database(0, 0)
    with pytest.raises(ValueError):
        Database(-1, 5)


def test_view_object_routing():
    database = Database(3, 2)
    assert database.view_object(ObjectClass.VIEW_LOW, 2).object_id == 2
    assert database.view_object(ObjectClass.VIEW_HIGH, 1).klass is ObjectClass.VIEW_HIGH
    with pytest.raises(ValueError):
        database.view_object(ObjectClass.GENERAL, 0)


def test_partition_routing():
    database = Database(3, 2)
    assert len(database.partition(ObjectClass.VIEW_LOW)) == 3
    assert len(database.partition(ObjectClass.VIEW_HIGH)) == 2
    with pytest.raises(ValueError):
        database.partition(ObjectClass.GENERAL)


def test_view_objects_iterates_all():
    database = Database(3, 2)
    assert len(list(database.view_objects())) == 5


def test_install_applies_newer_update():
    database = Database(2, 2)
    assert database.install(make_update(0, generation=1.0), now=1.5)
    obj = database.view_object(ObjectClass.VIEW_LOW, 0)
    assert obj.generation_time == 1.0
    assert obj.value == 0.0  # payload of update seq 0
    assert database.installs_applied == 1


def test_install_skips_stale_update():
    database = Database(2, 2)
    database.install(make_update(1, generation=5.0), now=5.5)
    assert not database.install(make_update(2, generation=3.0), now=6.0)
    assert database.installs_skipped == 1
    obj = database.view_object(ObjectClass.VIEW_LOW, 0)
    assert obj.generation_time == 5.0


def test_install_skips_equal_generation():
    database = Database(2, 2)
    database.install(make_update(1, generation=5.0), now=5.5)
    assert not database.install(make_update(2, generation=5.0), now=6.0)


def test_would_apply_matches_install():
    database = Database(2, 2)
    newer = make_update(0, generation=2.0)
    older = make_update(1, generation=1.0)
    assert database.would_apply(newer)
    database.install(newer, now=2.5)
    assert not database.would_apply(older)
    assert not database.install(older, now=3.0)


def test_partial_update_worthiness_is_per_attribute():
    config = baseline_config().with_updates(partial_probability=0.5, n_low=2, n_high=2)
    database = Database.from_config(config)
    first = make_update(0, generation=5.0, partial=True, attribute=0)
    database.install(first, now=5.5)
    # A later partial update to a *different* attribute with an older
    # generation is still worth applying.
    second = make_update(1, generation=3.0, partial=True, attribute=1)
    assert database.would_apply(second)
    assert database.install(second, now=6.0)
    # But a second update to attribute 0 older than 5.0 is worthless.
    third = make_update(2, generation=4.0, partial=True, attribute=0)
    assert not database.would_apply(third)


def test_install_listener_receives_previous_state():
    calls = []

    class Listener:
        def note_install(self, obj, old_gen, old_arrival, old_install, now):
            calls.append((obj.object_id, old_gen, old_arrival, old_install, now))

    database = Database(2, 2, install_listener=Listener())
    database.install(make_update(0, generation=1.0), now=1.5)
    database.install(make_update(1, generation=4.0), now=4.5)
    assert calls[0] == (0, 0.0, 0.0, 0.0, 1.5)
    assert calls[1][1] == 1.0  # previous generation
    assert calls[1][4] == 4.5


def test_listener_not_called_for_skips():
    calls = []

    class Listener:
        def note_install(self, *args):
            calls.append(args)

    database = Database(2, 2, install_listener=Listener())
    database.install(make_update(0, generation=5.0), now=5.5)
    database.install(make_update(1, generation=1.0), now=6.0)
    assert len(calls) == 1

