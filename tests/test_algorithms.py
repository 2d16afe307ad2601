"""Unit tests for the algorithm registry and policy attributes."""

import pytest

from repro.config import baseline_config
from repro.core.algorithms import (
    ALGORITHMS,
    FixedFraction,
    OnDemand,
    SplitQueueTransactionFirst,
    SplitUpdates,
    TransactionFirst,
    UpdateFirst,
    make_algorithm,
)
from repro.core.algorithms.registry import PAPER_ALGORITHMS
from repro.core.simulator import run_simulation
from repro.db.objects import ObjectClass, Update


def test_registry_contains_the_paper_algorithms():
    assert set(PAPER_ALGORITHMS) == {"UF", "TF", "SU", "OD"}
    for name in PAPER_ALGORITHMS:
        assert name in ALGORITHMS


def test_make_algorithm_case_insensitive():
    assert isinstance(make_algorithm("uf"), UpdateFirst)
    assert isinstance(make_algorithm("Od"), OnDemand)
    assert isinstance(make_algorithm("tf-split"), SplitQueueTransactionFirst)


def test_make_algorithm_unknown_name():
    with pytest.raises(KeyError, match="known"):
        make_algorithm("XYZ")


def test_make_algorithm_passes_kwargs():
    fx = make_algorithm("FX", fraction=0.35)
    assert fx.fraction == 0.35


def test_fixed_fraction_validation():
    with pytest.raises(ValueError):
        FixedFraction(fraction=1.5)


@pytest.mark.parametrize("warmup", [0.0, 10.0, 20.0])
def test_fixed_fraction_measures_its_share_from_the_warmup(warmup):
    """With the CPU saturated by transactions FX's updates get exactly
    their fraction of the measured window, however long the warmup: the
    share is of the time the CPU ledger counts, not of the whole run (which
    read 0.125 and 0.150 here at warmups 10 and 20)."""
    config = baseline_config(duration=warmup + 40.0, seed=5)
    config = config.with_transactions(arrival_rate=40.0)
    config.warmup = warmup
    result = run_simulation(config, "FX", fraction=0.1)
    assert result.rho_transactions > 0.85
    assert result.rho_updates == pytest.approx(0.1, abs=0.002)


def test_policy_attributes():
    assert not UpdateFirst.uses_update_queue
    assert TransactionFirst.uses_update_queue
    assert OnDemand.on_demand
    assert not TransactionFirst.on_demand
    assert SplitQueueTransactionFirst.wants_partitioned_queue
    assert not TransactionFirst.wants_partitioned_queue


def test_names_are_unique():
    assert len(ALGORITHMS) == len({cls().name if callable(cls) else cls
                                   for cls in ALGORITHMS})


def test_importance_test():
    algorithm = SplitUpdates()
    high = Update(0, ObjectClass.VIEW_HIGH, 0, 0.0, 1.0, 1.1)
    low = Update(1, ObjectClass.VIEW_LOW, 0, 0.0, 1.0, 1.1)
    assert algorithm.is_high_importance(high)
    assert not algorithm.is_high_importance(low)
