"""Simulation facade: wire the model together and run it.

:func:`run_simulation` is the library's main entry point::

    from repro import baseline_config, run_simulation

    result = run_simulation(baseline_config(duration=100.0), "OD")
    print(result.summary())

The model itself (controller, queues, ledgers, collectors) is built by
:func:`repro.core.wiring.build_parts` — one pipeline on one virtual clock,
the paper's one CPU.  The wiring is shared with the wall-clock runtime in
:mod:`repro.live`: a Simulation is "the wired pipeline plus a virtual
clock plus the Poisson workload generators".
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.core.algorithms.base import SchedulingAlgorithm
from repro.core.wiring import (
    build_parts,
    collect_result,
    reset_measurement,
)
from repro.metrics.freshness import SampledLedger
from repro.metrics.results import SimulationResult
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.transactions import TransactionGenerator
from repro.workload.updates import UpdateStreamGenerator


class Simulation:
    """A fully wired simulation run.

    Building the object constructs the whole model (engine, database,
    queues, staleness machinery, controller, workload generators);
    calling :meth:`run` executes it and returns the metrics.  A
    Simulation is single-use: running twice raises.
    """

    def __init__(
        self,
        config: SimulationConfig,
        algorithm: str | SchedulingAlgorithm = "TF",
        **algorithm_kwargs,
    ) -> None:
        self.engine = Engine()
        parts = build_parts(config, algorithm, self.engine, **algorithm_kwargs)
        self._parts = parts
        self.config = config
        self.algorithm = parts.algorithm
        self.update_queue = parts.update_queue
        self.checker = parts.checker
        self.ledger = parts.ledger
        self.database = parts.database
        self.os_queue = parts.os_queue
        self.transaction_log = parts.transaction_log
        self.update_accounting = parts.update_accounting
        self.cpu = parts.cpu
        self.controller = parts.controller
        self.views = parts.views

        self.streams = StreamFamily(config.seed)
        self.update_generator = UpdateStreamGenerator(
            config, self.engine, self.streams, self.controller.on_update_arrival
        )
        # The controller takes the update stream by the run.
        self.update_generator.run_sink = self.controller.on_update_stream
        self.transaction_generator = TransactionGenerator(
            config, self.engine, self.streams,
            self.controller.on_transaction_arrival,
        )
        self._ran = False

    def register_view(self, spec) -> None:
        """Register a derived view (a :class:`~repro.db.views.ViewSpec`
        or its CLI string form) before running."""
        from repro.db.views import ViewSpec

        if isinstance(spec, str):
            spec = ViewSpec.parse(spec)
        self.views.register(spec, self.engine.now)

    def run(self) -> SimulationResult:
        """Execute the run and return its metrics."""
        self._begin()
        self.update_generator.start()
        self.transaction_generator.start()
        return self._finish()

    def run_scripted(self, updates=(), transactions=()) -> SimulationResult:
        """Run against explicit workloads instead of the generators.

        Useful for deterministic demos and tests: the given
        :class:`~repro.db.objects.Update` records and
        :class:`~repro.workload.transactions.TransactionSpec` specs are
        delivered at their own arrival times; nothing else arrives.
        """
        self._begin()
        controller = self.controller
        for update in updates:
            self.engine.schedule_at(
                update.arrival_time, controller.on_update_arrival, update
            )
        for spec in transactions:
            self.engine.schedule_at(
                spec.arrival_time, controller.on_transaction_arrival, spec
            )
        return self._finish()

    def _begin(self) -> None:
        if self._ran:
            raise RuntimeError("a Simulation object is single-use; build a new one")
        self._ran = True

    def _finish(self) -> SimulationResult:
        """Run to the end of the configured duration and collect."""
        parts = self._parts
        if isinstance(parts.ledger, SampledLedger):
            parts.ledger.start()
        warmup = self.config.warmup
        if warmup > 0:
            self.engine.schedule_at(warmup, self._warmup_reset)
        duration = self.config.duration
        self.engine.run_until(duration)
        self.controller.finalize(duration)
        self.ledger.finalize(duration)
        self.views.finalize(duration)
        return collect_result(parts, duration - warmup)

    def _warmup_reset(self) -> None:
        """Discard everything measured during warmup (content stays live)."""
        reset_measurement(self._parts, self.engine.now)


def run_simulation(
    config: SimulationConfig,
    algorithm: str | SchedulingAlgorithm = "TF",
    views=(),
    **algorithm_kwargs,
) -> SimulationResult:
    """Build and run one simulation; see :class:`Simulation`.

    Args:
        views: Optional derived views to register before the run —
            :class:`~repro.db.views.ViewSpec` objects or their CLI string
            forms (``NAME=KIND:PARTITION[,opt=...]``).
    """
    simulation = Simulation(config, algorithm, **algorithm_kwargs)
    for spec in views:
        simulation.register_view(spec)
    return simulation.run()
