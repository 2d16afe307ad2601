"""Deterministic random-number streams.

The paper compares four scheduling algorithms on the same stochastic
workload.  To make those comparisons noise-free (the *common random numbers*
variance-reduction technique), each stochastic component of the model draws
from its own named stream, seeded by hashing ``(root_seed, name)``.  Two
simulations built from the same root seed therefore see bit-identical update
and transaction streams regardless of which scheduling algorithm runs —
a property the integration tests assert directly.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterator


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed for stream ``name`` from ``root_seed``.

    Uses SHA-256 so that distinct names give statistically independent
    streams and the mapping is stable across Python versions (unlike
    ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def check_mean(mean: float) -> None:
    if mean < 0:
        raise ValueError(f"exponential mean must be >= 0, got {mean}")


def check_rate(rate: float) -> None:
    if rate <= 0:
        raise ValueError(f"Poisson rate must be > 0, got {rate}")


def check_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability out of range: {probability}")


def check_count(count: int) -> None:
    if count <= 0:
        raise ValueError(f"cannot choose from {count} items")


class RandomStream:
    """A named pseudo-random stream with the distributions the model needs.

    Wraps :class:`random.Random` (Mersenne Twister) and exposes exactly the
    draw types Tables 1 and 2 of the paper call for, with the domain
    truncations the model requires (values, times, and counts are
    non-negative).

    Every draw method checks its parameter on every call.  A loop that
    draws many records binds the methods of :attr:`rng` instead and makes
    the same ``check_*`` calls once, ahead of the loop.
    """

    __slots__ = ("name", "rng")

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.rng = random.Random(seed)

    # -- raw draws ------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """U[low, high]."""
        if high < low:
            raise ValueError(f"uniform range inverted: [{low}, {high}]")
        return self.rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential with the given mean (not rate)."""
        check_mean(mean)
        if mean == 0:
            return 0.0
        return self.rng.expovariate(1.0 / mean)

    def normal(self, mean: float, stdev: float) -> float:
        """N(mean, stdev^2)."""
        if stdev < 0:
            raise ValueError(f"normal stdev must be >= 0, got {stdev}")
        if stdev == 0:
            return mean
        return self.rng.gauss(mean, stdev)

    # -- model-shaped draws ----------------------------------------------
    def truncated_normal(self, mean: float, stdev: float, minimum: float = 0.0) -> float:
        """A normal draw clipped below at ``minimum``.

        The paper draws compute times and transaction values from normals
        whose tails cross zero; negative times/values are meaningless, so we
        clip (the probability mass involved is small at the baseline
        parameters and clipping keeps the draw count per entity constant,
        which the common-random-numbers guarantee relies on).
        """
        return max(minimum, self.normal(mean, stdev))

    def normal_count(self, mean: float, stdev: float) -> int:
        """A non-negative integer from a rounded, clipped normal draw."""
        return max(0, round(self.normal(mean, stdev)))

    def interarrival(self, rate: float) -> float:
        """Next gap of a Poisson process with the given rate (events/sec)."""
        check_rate(rate)
        return self.rng.expovariate(rate)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        check_probability(probability)
        return self.rng.random() < probability

    def choose_index(self, count: int) -> int:
        """Uniform integer in [0, count)."""
        check_count(count)
        return self.rng.randrange(count)

    def poisson_arrivals(self, rate: float, until: float) -> Iterator[float]:
        """Yield absolute arrival times of a Poisson process on [0, until)."""
        time = self.rng.expovariate(rate)
        while time < until:
            yield time
            time += self.rng.expovariate(rate)

    def state(self) -> tuple:
        """Opaque state snapshot (for trace record/replay)."""
        return self.rng.getstate()

    def restore(self, state: tuple) -> None:
        """Restore a snapshot taken by :meth:`state`."""
        self.rng.setstate(state)


class StreamFamily:
    """Factory for the named streams of one simulation run.

    Every call to :meth:`stream` with the same name returns the *same*
    object, so a component can re-fetch its stream without perturbing the
    draw sequence.
    """

    def __init__(self, root_seed: int) -> None:
        if not isinstance(root_seed, int):
            raise TypeError(f"root seed must be int, got {type(root_seed).__name__}")
        self.root_seed = root_seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = RandomStream(name, derive_seed(self.root_seed, name))
        self._streams[name] = stream
        return stream

    def spawn(self, replication: int) -> "StreamFamily":
        """A family for an independent replication of the same experiment."""
        return StreamFamily(derive_seed(self.root_seed, f"replication:{replication}"))


def normal_cdf(x: float, mean: float = 0.0, stdev: float = 1.0) -> float:
    """Standard normal CDF helper used by tests for distribution checks."""
    if stdev <= 0:
        raise ValueError("stdev must be positive")
    return 0.5 * (1.0 + math.erf((x - mean) / (stdev * math.sqrt(2.0))))
