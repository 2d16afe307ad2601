"""Simulation facade: wire the model together and run it.

:func:`run_simulation` is the library's main entry point::

    from repro import baseline_config, run_simulation

    result = run_simulation(baseline_config(duration=100.0), "OD")
    print(result.summary())

The model itself (controller, queues, ledgers, collectors) is built by
:mod:`repro.core.sharding` — one pipeline per shard on a single virtual
clock, with ``shards=1`` (the default) reproducing the classic single
pipeline bit-for-bit.  The wiring is shared with the wall-clock runtime
in :mod:`repro.live`: a Simulation is "the wired shard set plus a
virtual clock plus the Poisson workload generators".
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import SimulationConfig
from repro.core.algorithms.base import SchedulingAlgorithm
from repro.core.sharding import build_shard_set
from repro.metrics.results import SimulationResult
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.transactions import TransactionGenerator
from repro.workload.updates import UpdateStreamGenerator


class Simulation:
    """A fully wired simulation run.

    Building the object constructs the whole model (engine, databases,
    queues, staleness machinery, controllers, workload generators);
    calling :meth:`run` executes it and returns the metrics.  A
    Simulation is single-use: running twice raises.

    With ``shards > 1`` the keyspace is hash-partitioned over N
    independent pipelines that share the virtual clock (the model of one
    core per shard); the workload generators draw against the *global*
    config — the same arrival sequence as the unsharded run — and the
    shard router delivers each arrival to its owner.  The convenience
    attributes (``controller``, ``database``, ...) refer to shard 0.
    """

    def __init__(
        self,
        config: SimulationConfig,
        algorithm: str | SchedulingAlgorithm = "TF",
        shards: int = 1,
        **algorithm_kwargs,
    ) -> None:
        self.engine = Engine()
        self.shard_set = build_shard_set(
            config, algorithm, self.engine, shards=shards, **algorithm_kwargs
        )
        parts = self.shard_set.shards[0].parts
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
            config, self.engine, self.streams, self.shard_set.route_update
        )
        if shards == 1:
            # One pipeline: the controller takes the stream by the run.  A
            # sharded run routes every record to its owner one at a time.
            self.update_generator.run_sink = self.controller.on_update_stream
        self.transaction_generator = TransactionGenerator(
            config, self.engine, self.streams, self.shard_set.route_spec
        )
        self._ran = False

    def register_view(self, spec) -> None:
        """Register a derived view (a :class:`~repro.db.views.ViewSpec`
        or its CLI string form) on every shard before running."""
        from repro.db.views import ViewSpec

        if isinstance(spec, str):
            spec = ViewSpec.parse(spec)
        self.shard_set.register_view(spec, self.engine.now)

    def run(self) -> SimulationResult:
        """Execute the run and return its metrics."""
        if self._ran:
            raise RuntimeError("a Simulation object is single-use; build a new one")
        self._ran = True
        self.update_generator.start()
        self.transaction_generator.start()
        self.shard_set.start_ledgers()
        if self.config.warmup > 0:
            self.engine.schedule_at(self.config.warmup, self._warmup_reset)
        duration = self.config.duration
        self.engine.run_until(duration)
        self.shard_set.finalize(duration)
        return self._collect(duration - self.config.warmup)

    def run_scripted(self, updates=(), transactions=()) -> SimulationResult:
        """Run against explicit workloads instead of the generators.

        Useful for deterministic demos and tests: the given
        :class:`~repro.db.objects.Update` records and
        :class:`~repro.workload.transactions.TransactionSpec` specs are
        delivered at their own arrival times; nothing else arrives.
        """
        if self._ran:
            raise RuntimeError("a Simulation object is single-use; build a new one")
        self._ran = True
        for update in updates:
            self.engine.schedule_at(
                update.arrival_time, self.shard_set.route_update, update
            )
        for spec in transactions:
            self.engine.schedule_at(
                spec.arrival_time, self.shard_set.route_spec, spec
            )
        self.shard_set.start_ledgers()
        if self.config.warmup > 0:
            self.engine.schedule_at(self.config.warmup, self._warmup_reset)
        duration = self.config.duration
        self.engine.run_until(duration)
        self.shard_set.finalize(duration)
        return self._collect(duration - self.config.warmup)

    def _warmup_reset(self) -> None:
        """Discard everything measured during warmup (content stays live)."""
        self.shard_set.reset_measurement(self.engine.now)

    def _collect(self, duration: float) -> SimulationResult:
        result = self.shard_set.collect(duration)
        if len(self.shard_set) > 1:
            # Every shard shares this engine, so the merge's summed
            # dispatch count overstates by a factor of N; report the
            # engine's true total.
            result = replace(
                result, events_dispatched=self.engine.events_dispatched
            )
        return result


def run_simulation(
    config: SimulationConfig,
    algorithm: str | SchedulingAlgorithm = "TF",
    shards: int = 1,
    views=(),
    **algorithm_kwargs,
) -> SimulationResult:
    """Build and run one simulation; see :class:`Simulation`.

    Args:
        views: Optional derived views to register before the run —
            :class:`~repro.db.views.ViewSpec` objects or their CLI string
            forms (``NAME=KIND:PARTITION[,opt=...]``).
    """
    simulation = Simulation(config, algorithm, shards=shards, **algorithm_kwargs)
    for spec in views:
        simulation.register_view(spec)
    return simulation.run()
