"""The external update stream (paper section 5.1).

Arrivals form a Poisson process with rate ``lambda_u``.  Each update targets
a uniformly chosen object of the low-importance view (with probability
``p_ul``) or the high-importance view, and has already aged in the network:
its generation timestamp is ``arrival - age`` with ``age ~ Exp(a_update)``.

Two extensions the paper lists as future work are available:

* ``UpdatePattern.PERIODIC`` — every view object is refreshed on a fixed
  period (``(N_l + N_h) / lambda_u``), with phases staggered uniformly; this
  models sensor scan cycles (the plant-control example uses it).
* ``partial_probability > 0`` — an update refreshes a single attribute
  rather than the whole object.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.config import SimulationConfig, UpdatePattern
from repro.db.objects import ObjectClass, Update
from repro.sim.engine import Engine
from repro.sim.streams import (
    StreamFamily,
    check_count,
    check_mean,
    check_probability,
    check_rate,
)
from repro.workload.arrivals import CHUNK, ChunkedArrivals

UpdateSink = Callable[[Update], None]


class UpdateStreamGenerator(ChunkedArrivals):
    """Feeds the update stream into the simulation.

    The generator is an engine arrival source: it draws a chunk of
    arrivals ahead, so memory stays constant for arbitrarily long runs,
    and the draw sequence is independent of anything the scheduler does.
    """

    STREAM_ARRIVALS = "updates.arrivals"
    STREAM_SHAPE = "updates.shape"

    def __init__(
        self,
        config: SimulationConfig,
        engine: Engine | None,
        streams: StreamFamily,
        sink: UpdateSink,
    ) -> None:
        super().__init__(engine, sink)
        self.params = config.updates
        self._arrivals = streams.stream(self.STREAM_ARRIVALS)
        self._shape = streams.stream(self.STREAM_SHAPE)
        self._next_seq = 0
        # Periodic mode state: view objects are visited round-robin.
        self._periodic_cursor = 0
        # Bursty mode state (Markov-modulated Poisson).
        self._in_peak = False

    def start(self) -> None:
        """Hand the stream to the engine."""
        if self.params.pattern is UpdatePattern.BURSTY:
            self._in_peak = False
            self._schedule_state_change()
        super().start()

    def arrivals(self, after: float = 0.0):
        if self.params.pattern is UpdatePattern.BURSTY:
            raise ValueError("bursty rate flips are engine events")
        return super().arrivals(after)

    def _draw_times(self, after: float) -> list[float]:
        params = self.params
        pattern = params.pattern
        if pattern is UpdatePattern.BURSTY:
            # One arrival ahead: a state flip redraws the pending gap.
            rate = params.peak_rate if self._in_peak else params.off_peak_rate
            if rate <= 0:
                return []  # silent until the state flips
            return [after + self._arrivals.interarrival(rate)]
        time = after
        times = []
        append = times.append
        if pattern is UpdatePattern.PERIODIC:
            # Every object is refreshed once per (N_l + N_h) / lambda_u:
            # visit the objects round-robin at the aggregate rate.
            gap = 1.0 / params.arrival_rate
            for _ in range(CHUNK):
                time += gap
                append(time)
        else:
            rate = params.arrival_rate
            check_rate(rate)
            expovariate = self._arrivals.rng.expovariate
            for _ in range(CHUNK):
                time += expovariate(rate)
                append(time)
        return times

    def _draw_items(self, times: Sequence[float]) -> list[Update]:
        return self._draw_updates(
            times, round_robin=self.params.pattern is UpdatePattern.PERIODIC
        )

    # ------------------------------------------------------------------
    # Record draws (Table 1; public one-record calls for trace tooling)
    # ------------------------------------------------------------------
    def next_interarrival(self) -> float:
        """Draw the next aperiodic inter-arrival gap (public for trace
        tooling that changes the rate between phases)."""
        return self._arrivals.interarrival(self.params.arrival_rate)

    def draw_update(self, arrival_time: float) -> Update:
        """Draw one update per Table 1 (public for trace tooling).

        The one-record form of :meth:`_draw_updates`: the same draws from
        the same stream in the same order, through the checked wrappers.
        """
        params = self.params
        shape = self._shape
        if shape.bernoulli(params.p_low):
            klass = ObjectClass.VIEW_LOW
            object_id = shape.choose_index(params.n_low)
        else:
            klass = ObjectClass.VIEW_HIGH
            object_id = shape.choose_index(params.n_high)
        age = shape.exponential(params.mean_age)
        value = shape.uniform(0.0, 100.0)
        partial = (
            params.partial_probability > 0
            and shape.bernoulli(params.partial_probability)
        )
        attribute = (
            shape.choose_index(params.attributes_per_object) if partial else 0
        )
        update = Update(
            self._next_seq, klass, object_id, value,
            max(0.0, arrival_time - age), arrival_time, partial, attribute,
        )
        self._next_seq += 1
        return update

    def _draw_updates(
        self, times: Sequence[float], round_robin: bool = False
    ) -> list[Update]:
        """One update for each arrival time, in order: per Table 1, or —
        the periodic extension — a full update of the next view object in
        round-robin order.

        :meth:`draw_update` for a whole chunk: the loop binds the stream's
        ``random.Random`` methods once and makes the parameter checks of
        the :class:`~repro.sim.streams.RandomStream` wrappers once, ahead
        of the loop, instead of once per record.
        ``tests/test_arrival_draws.py`` holds the two to each other record
        for record.
        """
        params = self.params
        p_low, n_low, n_high = params.p_low, params.n_low, params.n_high
        p_partial = params.partial_probability
        attributes = params.attributes_per_object
        if round_robin:
            p_partial = 0.0
        else:
            check_probability(p_low)
            if p_low > 0.0:
                check_count(n_low)
            if p_low < 1.0:
                check_count(n_high)
            if p_partial > 0:
                check_probability(p_partial)
                check_count(attributes)
        mean_age = params.mean_age
        check_mean(mean_age)
        # An age of exactly zero is not drawn (in-order streams).
        age_rate = 1.0 / mean_age if mean_age else 0.0
        age = 0.0
        partial, attribute = False, 0
        rng = self._shape.rng
        random, randrange = rng.random, rng.randrange
        expovariate, uniform = rng.expovariate, rng.uniform
        low, high = ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH
        cursor, objects = self._periodic_cursor, n_low + n_high
        seq = self._next_seq
        updates = []
        append = updates.append
        for time in times:
            if round_robin:
                if cursor < n_low:
                    klass, object_id = low, cursor
                else:
                    klass, object_id = high, cursor - n_low
                cursor = (cursor + 1) % objects
            else:
                if random() < p_low:
                    klass, object_id = low, randrange(n_low)
                else:
                    klass, object_id = high, randrange(n_high)
            if age_rate:
                age = expovariate(age_rate)
            value = uniform(0.0, 100.0)
            if p_partial > 0:
                partial = random() < p_partial
                attribute = randrange(attributes) if partial else 0
            append(Update(
                seq, klass, object_id, value,
                time - age if age < time else 0.0, time, partial, attribute,
            ))
            seq += 1
        self._periodic_cursor = cursor
        self._next_seq = seq
        return updates

    # ------------------------------------------------------------------
    # Bursty extension (Markov-modulated Poisson)
    # ------------------------------------------------------------------
    def _schedule_state_change(self) -> None:
        # Exponential dwell times; off-peak dwell keeps the long-run peak
        # fraction at burst_peak_fraction.
        params = self.params
        if self._in_peak:
            dwell_mean = params.burst_dwell_mean
        else:
            dwell_mean = params.burst_dwell_mean * (
                (1.0 - params.burst_peak_fraction) / params.burst_peak_fraction
            )
        self.engine.schedule(
            self._arrivals.exponential(dwell_mean), self._flip_state
        )

    def _flip_state(self) -> None:
        self._in_peak = not self._in_peak
        # The exponential clock is memoryless, so dropping the pending
        # arrival and redrawing at the new rate is statistically exact.
        self._refill(self.engine.now)
        self.engine.arm(self)
        self._schedule_state_change()
