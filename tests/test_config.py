"""Unit tests for the configuration dataclasses (paper Tables 1-3)."""

import pytest

from repro.config import (
    QueueDiscipline,
    SimulationConfig,
    StaleReadAction,
    StalenessPolicy,
    SystemParams,
    TransactionParams,
    UpdateStreamParams,
    baseline_config,
)


def test_baseline_matches_table_1():
    updates = baseline_config().updates
    assert updates.arrival_rate == 400.0
    assert updates.p_low == 0.5
    assert updates.mean_age == 0.1
    assert updates.n_low == 500
    assert updates.n_high == 500


def test_baseline_matches_table_2():
    txn = baseline_config().transactions
    assert txn.arrival_rate == 10.0
    assert txn.p_low == 0.5
    assert (txn.slack_min, txn.slack_max) == (0.1, 1.0)
    assert (txn.value_low_mean, txn.value_high_mean) == (1.0, 2.0)
    assert (txn.value_low_stdev, txn.value_high_stdev) == (0.5, 0.5)
    assert (txn.reads_mean, txn.reads_stdev) == (2.0, 1.0)
    assert txn.max_age == 7.0
    assert (txn.compute_mean, txn.compute_stdev) == (0.12, 0.01)
    assert txn.p_view == 0.0


def test_baseline_matches_table_3():
    system = baseline_config().system
    assert system.ips == 50e6
    assert system.x_lookup == 4000
    assert system.x_update == 20000
    assert system.x_switch == 0
    assert system.x_queue == 0
    assert system.x_scan == 0
    assert system.os_queue_max == 4000
    assert system.update_queue_max == 5600
    assert system.feasible_deadline is True
    assert system.transaction_preemption is False
    assert system.queue_discipline is QueueDiscipline.FIFO


def test_probability_complements():
    config = baseline_config()
    assert config.updates.p_high == pytest.approx(0.5)
    assert config.transactions.p_high == pytest.approx(0.5)


def test_seconds_conversion():
    system = SystemParams()
    assert system.seconds(50e6) == pytest.approx(1.0)
    assert system.seconds(4000) == pytest.approx(8e-5)


@pytest.mark.parametrize(
    "overrides",
    [
        {"arrival_rate": 0.0},
        {"p_low": 1.5},
        {"mean_age": -1.0},
        {"n_low": 0, "n_high": 0},
        {"n_low": 0, "p_low": 0.5},
        {"n_high": 0, "p_low": 0.5},
        {"partial_probability": 2.0},
        {"attributes_per_object": 0},
    ],
)
def test_update_params_validation(overrides):
    params = UpdateStreamParams(**overrides)
    with pytest.raises(ValueError):
        params.validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"arrival_rate": -1.0},
        {"p_low": -0.1},
        {"slack_min": 0.5, "slack_max": 0.1},
        {"value_low_stdev": -0.5},
        {"reads_mean": -1.0},
        {"max_age": 0.0},
        {"p_view": 1.1},
    ],
)
def test_transaction_params_validation(overrides):
    params = TransactionParams(**overrides)
    with pytest.raises(ValueError):
        params.validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"ips": 0.0},
        {"x_lookup": -1},
        {"os_queue_max": 0},
        {"update_queue_max": 0},
    ],
)
def test_system_params_validation(overrides):
    params = SystemParams(**overrides)
    with pytest.raises(ValueError):
        params.validate()


def test_history_depth_is_an_unknown_field():
    # Historical views were removed; the knob fails like any unknown field.
    with pytest.raises(TypeError):
        baseline_config().with_system(history_depth=4)


def test_duration_must_be_positive():
    with pytest.raises(ValueError):
        SimulationConfig(duration=0.0).validate()


def test_warmup_must_precede_duration():
    with pytest.raises(ValueError):
        SimulationConfig(duration=10.0, warmup=10.0).validate()


def test_copy_is_deep():
    config = baseline_config()
    clone = config.copy()
    clone.updates.arrival_rate = 999.0
    assert config.updates.arrival_rate == 400.0


def test_with_helpers_do_not_mutate_original():
    config = baseline_config()
    changed = config.with_transactions(arrival_rate=25.0)
    assert config.transactions.arrival_rate == 10.0
    assert changed.transactions.arrival_rate == 25.0
    changed = config.with_updates(arrival_rate=600.0)
    assert config.updates.arrival_rate == 400.0
    assert changed.updates.arrival_rate == 600.0
    changed = config.with_system(x_scan=100)
    assert config.system.x_scan == 0
    assert changed.system.x_scan == 100


def test_replace_keeps_nested_values():
    config = baseline_config().with_transactions(arrival_rate=20.0)
    replaced = config.replace(duration=50.0, seed=7)
    assert replaced.duration == 50.0
    assert replaced.seed == 7
    assert replaced.transactions.arrival_rate == 20.0


def test_staleness_policy_flags():
    assert StalenessPolicy.MAX_AGE.uses_max_age
    assert not StalenessPolicy.MAX_AGE.uses_queue
    assert StalenessPolicy.UNAPPLIED_UPDATE.uses_queue
    assert not StalenessPolicy.UNAPPLIED_UPDATE.uses_max_age
    assert StalenessPolicy.COMBINED.uses_max_age
    assert StalenessPolicy.COMBINED.uses_queue


def test_stale_read_action_members():
    assert {a.value for a in StaleReadAction} == {"ignore", "warn", "abort"}
