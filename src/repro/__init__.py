"""repro — reproduction of Adelberg, Garcia-Molina & Kao (SIGMOD 1995),
"Applying Update Streams in a Soft Real-Time Database System".

The library simulates a soft real-time main-memory database that must both
run value/deadline-constrained transactions and install a high-volume
external update stream, and reproduces the paper's comparison of four
scheduling algorithms (UF, TF, SU, OD) under two staleness definitions
(Maximum Age and Unapplied Update).

Quickstart::

    from repro import baseline_config, run_simulation

    config = baseline_config(duration=100.0)
    for name in ("UF", "TF", "SU", "OD"):
        print(run_simulation(config, name).summary())
"""

from repro.config import (
    QueueDiscipline,
    SimulationConfig,
    StaleReadAction,
    StalenessPolicy,
    SystemParams,
    TransactionParams,
    UpdatePattern,
    UpdateStreamParams,
    baseline_config,
)
from repro.core import (
    ALGORITHMS,
    Simulation,
    make_algorithm,
    run_simulation,
)
from repro.metrics import SimulationResult, format_result, format_table

__version__ = "1.0.1"

__all__ = [
    "ALGORITHMS",
    "QueueDiscipline",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "StaleReadAction",
    "StalenessPolicy",
    "SystemParams",
    "TransactionParams",
    "UpdatePattern",
    "UpdateStreamParams",
    "baseline_config",
    "format_result",
    "format_table",
    "make_algorithm",
    "run_simulation",
]
