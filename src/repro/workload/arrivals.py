"""Workload generators as engine arrival sources.

The paper's update stream and transaction workload (sections 3.1, 5.1 and
5.2) are arrival processes whose draws depend on nothing the scheduler
does.  A generator therefore does not schedule one heap event per arrival:
it draws a chunk of arrivals ahead — times and records, in one loop over
the bound ``random.Random`` methods — and hands them to the engine as an
:class:`~repro.sim.engine.ArrivalSource`.  The named streams are
independent of each other, so drawing ahead moves no draw: each stream
still produces the same values in the same order.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import Callable, Iterator, Sequence

from repro.sim.engine import Engine

#: Arrivals drawn ahead per refill.
CHUNK = 64


class ChunkedArrivals:
    """The source half of a workload generator.

    Subclasses implement :meth:`_draw_times` and :meth:`_draw_items`.

    Attributes:
        sink: Called with each arrival, one at a time.  Read at every
            delivery, so it may be replaced after construction.
        run_sink: Optional ``(items, start, stop) -> taken`` that is
            offered ``items[start:stop]`` — the pending arrival and every
            one after it that precedes the next other event — and takes
            the first one or more of them.  When set it is used instead
            of ``sink``.
        generated: Arrivals delivered so far.
        next_time / next_seq: The pending arrival, as the engine reads it.
    """

    def __init__(self, engine: Engine | None, sink: Callable) -> None:
        self.engine = engine
        self.sink = sink
        self.run_sink: Callable[[Sequence, int, int], int] | None = None
        self.generated = 0
        self.next_time = inf
        self.next_seq = 0
        self._times: list[float] = []
        self._items: list | None = None
        self._cursor = 0

    def start(self) -> None:
        """Draw the first chunk and hand the stream to the engine."""
        self._refill(self.engine.now)
        self.engine.arm(self)

    def arrivals(self, after: float = 0.0) -> Iterator[list]:
        """The stream without an engine: the chunks the source would
        deliver, arrivals following ``after``, lists of records in time
        order.  Endless; the caller decides where to stop."""
        while True:
            times = self._draw_times(after)
            yield self._draw_items(times)
            after = times[-1]

    def _draw_times(self, after: float) -> list[float]:
        """Arrival times of the next chunk, the first one following
        ``after``; empty when the stream is silent for now."""
        raise NotImplementedError

    def _draw_items(self, times: list[float]) -> list:
        """The records arriving at ``times``."""
        raise NotImplementedError

    def _refill(self, after: float) -> None:
        # Only the times are drawn here; the records follow when the
        # chunk's first arrival fires, so a chunk whose pending arrival is
        # redrawn first (the bursty rate flip) has consumed no record draw.
        times = self._times = self._draw_times(after)
        self._items = None
        self._cursor = 0
        self.next_time = times[0] if times else inf

    def fire(self, limit: float) -> int:
        """Deliver the pending arrival (see ``ArrivalSource``)."""
        index = self._cursor
        times = self._times
        items = self._items
        if items is None:
            items = self._items = self._draw_items(times)
        engine = self.engine
        engine.now = times[index]
        self.next_time = inf
        run_sink = self.run_sink
        if run_sink is None:
            self.sink(items[index])
            count = 1
        else:
            count = run_sink(items, index, bisect_left(times, limit, index + 1))
        index += count
        self.generated += count
        engine.now = times[index - 1]
        if index == len(times):
            self._refill(times[-1])
        else:
            self._cursor = index
            self.next_time = times[index]
        return count
