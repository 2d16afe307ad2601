"""The transaction workload (paper sections 3.4 and 5.2).

Transactions arrive as a Poisson process with rate ``lambda_t``.  Each is
low-value (probability ``p_tl``, reading low-importance view objects) or
high-value (reading high-importance objects); its value, computation time,
read-set size, and slack are drawn per Table 2.  The execution pattern is
the paper's three steps: ``p_view`` of the computation, then the view reads
with staleness checks, then the rest of the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import SimulationConfig
from repro.db.objects import ObjectClass
from repro.sim.engine import Engine
from repro.sim.streams import StreamFamily
from repro.workload.arrivals import CHUNK, ChunkedArrivals


@dataclass(frozen=True)
class TransactionSpec:
    """Immutable description of one arriving transaction.

    All stochastic choices are made at generation time so the spec is
    identical across scheduling algorithms under a shared seed.

    Attributes:
        seq: Arrival sequence number.
        arrival_time: Simulated arrival time.
        high_value: True for the high-value class.
        value: Reward for committing before the deadline.
        compute_time: Total computation seconds (general-data access
            included, per the paper's model).
        reads: View objects to read (all from the class's partition).
        slack: Scheduling slack (seconds); the deadline is
            ``arrival + execution_estimate + slack``.
    """

    seq: int
    arrival_time: float
    high_value: bool
    value: float
    compute_time: float
    reads: tuple[int, ...]
    slack: float

    @property
    def view_class(self) -> ObjectClass:
        """Partition this transaction reads from."""
        return ObjectClass.VIEW_HIGH if self.high_value else ObjectClass.VIEW_LOW

    def execution_estimate(self, x_lookup: int, ips: float) -> float:
        """Perfect execution-time estimate (paper section 3.4).

        Computation plus one index probe per view read.  On-demand scan and
        apply costs are excluded: they depend on run-time queue state no
        estimator could know.
        """
        return self.compute_time + len(self.reads) * (x_lookup / ips)

    def deadline(self, x_lookup: int, ips: float) -> float:
        """Firm deadline: arrival + execution estimate + slack."""
        return self.arrival_time + self.execution_estimate(x_lookup, ips) + self.slack


TransactionSink = Callable[[TransactionSpec], None]


class TransactionGenerator(ChunkedArrivals):
    """Feeds the transaction workload into the simulation (an engine
    arrival source, like the update stream)."""

    STREAM_ARRIVALS = "transactions.arrivals"
    STREAM_SHAPE = "transactions.shape"

    def __init__(
        self,
        config: SimulationConfig,
        engine: Engine | None,
        streams: StreamFamily,
        sink: TransactionSink,
    ) -> None:
        super().__init__(engine, sink)
        self.params = config.transactions
        self.n_low = config.updates.n_low
        self.n_high = config.updates.n_high
        self._arrivals = streams.stream(self.STREAM_ARRIVALS)
        self._shape = streams.stream(self.STREAM_SHAPE)
        self._next_seq = 0

    def _draw_times(self, after: float) -> list[float]:
        # Transactions are a few percent of the records: the chunk is the
        # one-record calls in a loop, not a loop of its own.
        time = after
        times = []
        for _ in range(CHUNK):
            time += self.next_interarrival()
            times.append(time)
        return times

    def _draw_items(self, times: Sequence[float]) -> list[TransactionSpec]:
        return [self.draw_spec(time) for time in times]

    def next_interarrival(self) -> float:
        """Draw the next inter-arrival gap (public for loadgen pacing)."""
        return self._arrivals.interarrival(self.params.arrival_rate)

    def draw_spec(self, arrival_time: float) -> TransactionSpec:
        """Draw one transaction per Table 2 (public for trace tooling)."""
        params = self.params
        shape = self._shape
        low = shape.bernoulli(params.p_low)
        if low:
            value = shape.truncated_normal(params.value_low_mean, params.value_low_stdev)
            pool = self.n_low
        else:
            value = shape.truncated_normal(params.value_high_mean, params.value_high_stdev)
            pool = self.n_high
        compute = shape.truncated_normal(params.compute_mean, params.compute_stdev)
        read_count = shape.normal_count(params.reads_mean, params.reads_stdev)
        reads = tuple(shape.choose_index(pool) for _ in range(read_count)) if pool else ()
        slack = shape.uniform(params.slack_min, params.slack_max)
        spec = TransactionSpec(
            seq=self._next_seq,
            arrival_time=arrival_time,
            high_value=not low,
            value=value,
            compute_time=compute,
            reads=reads,
            slack=slack,
        )
        self._next_seq += 1
        return spec
