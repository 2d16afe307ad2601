"""The paper's core contribution: update/transaction co-scheduling.

Contains the controller (paper section 3.1's three-process architecture
collapsed onto one simulated CPU), the live-transaction state machine, the
four scheduling algorithms of section 4 (UF, TF, SU, OD) plus the
future-work extensions, and the simulation facade.
"""

from repro.core.algorithms import (
    ALGORITHMS,
    FixedFraction,
    OnDemand,
    SchedulingAlgorithm,
    SplitUpdates,
    TransactionFirst,
    UpdateFirst,
    make_algorithm,
)
from repro.core.controller import Controller
from repro.core.sharding import shard_config
from repro.core.simulator import Simulation, run_simulation
from repro.core.transaction import LiveTransaction, TransactionState

__all__ = [
    "ALGORITHMS",
    "Controller",
    "FixedFraction",
    "LiveTransaction",
    "OnDemand",
    "SchedulingAlgorithm",
    "Simulation",
    "SplitUpdates",
    "TransactionFirst",
    "TransactionState",
    "UpdateFirst",
    "make_algorithm",
    "run_simulation",
    "shard_config",
]
