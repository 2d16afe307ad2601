"""Seeded, server-blind trace generation for the live workloads.

The harness owns the seed; the server only ever sees bytes.  A trace is
drawn with the simulator's own public draw methods
(:meth:`UpdateStreamGenerator.draw_update`,
:meth:`TransactionGenerator.draw_spec`, :class:`CrossShardSpreader`),
encoded with :func:`encode_frame` and pre-joined into one blob per
:data:`TICK_S` *before* the clock starts, so the generator's cost
(``loadgen.gen_s``) stays out of every measured window.

Same seed and phases -> byte-identical blob stream (``Trace.sha256``);
a different seed -> a different stream.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Iterator

from repro.config import SimulationConfig, baseline_config
from repro.live.loadgen import CrossShardSpreader
from repro.sim.streams import StreamFamily
from repro.workload.codec import encode_frame
from repro.workload.transactions import TransactionGenerator, TransactionSpec
from repro.workload.updates import UpdateStreamGenerator

#: One blob per tick: what a client that coalesces for 2 ms would write.
TICK_S = 0.002

#: Every live run starts with this open-loop warm-up, excluded from the
#: window by differencing two wire snapshots.
WARMUP_S = 2.0
WARMUP_RATE = 20_000.0

#: Transactions are Poisson at this rate on every live workload.
TXN_RATE = 200.0


def trace_config(seed: int) -> SimulationConfig:
    """The draw parameters of the live workloads (ISSUE 11): in-order
    updates over the default 500+500 objects, 1 ms transactions with
    20-200 ms slack and two reads on average."""
    config = baseline_config(seed=seed)
    config = config.with_updates(mean_age=0.0)
    return config.with_transactions(
        arrival_rate=TXN_RATE,
        compute_mean=1e-3,
        compute_stdev=1e-4,
        slack_min=0.02,
        slack_max=0.2,
        reads_mean=2.0,
    )


def _discard(_item) -> None:
    """Sink for generators used purely as draw sources."""


def records(
    seed: int,
    phases: "list[tuple[float, float]]",
    *,
    shards: int = 1,
    cross_shard_frac: float = 0.0,
) -> "Iterator":
    """Yield updates and transaction specs in arrival order.

    Args:
        seed: Root seed of every draw stream.
        phases: ``(seconds, updates_per_second)`` segments, back to back;
            the Poisson update process is memoryless, so each phase
            redraws its first gap at the new rate.
        shards / cross_shard_frac: When ``cross_shard_frac > 0``, that
            share of multi-read transactions is rewritten to span the
            ``shards``-way keyspace split (the scatter-gather path).
    """
    config = trace_config(seed)
    streams = StreamFamily(seed)
    updates = UpdateStreamGenerator(config, None, streams, _discard)
    transactions = TransactionGenerator(config, None, streams, _discard)
    spreader = None
    if cross_shard_frac > 0.0:
        spreader = CrossShardSpreader(
            config.updates.n_low, config.updates.n_high, streams,
            frac=cross_shard_frac, shards=shards,
        )
    draw_update = updates.draw_update
    update_gap = updates.next_interarrival
    next_txn = transactions.next_interarrival()
    start = 0.0
    for seconds, rate in phases:
        updates.params = dataclasses.replace(updates.params, arrival_rate=rate)
        end = start + seconds
        next_update = start + update_gap()
        while True:
            if next_update <= next_txn:
                if next_update >= end:
                    break
                yield draw_update(next_update)
                next_update += update_gap()
            else:
                if next_txn >= end:
                    break
                spec = transactions.draw_spec(next_txn)
                if spreader is not None:
                    spec = spreader.spread(spec)
                yield spec
                next_txn += transactions.next_interarrival()
        start = end


@dataclasses.dataclass
class Trace:
    """A pre-encoded trace, one entry per tick.

    Attributes:
        blobs: Wire bytes due at the end of tick ``i`` (update frames,
            plus the tick's transaction frames when ``joined``).
        updates: Update records in ``blobs[i]``.
        txn_blobs: Transaction frames of tick ``i`` when they are *not*
            joined into ``blobs`` (closed-loop traces send them on their
            own schedule); empty for joined traces.
        txn_seqs: Transaction sequence numbers due at tick ``i``.
        sha256: Digest of the whole byte stream, in send order.
        gen_s: Wall seconds spent generating and encoding.
    """

    blobs: "list[bytes]"
    updates: "list[int]"
    txn_blobs: "dict[int, bytes]"
    txn_seqs: "dict[int, list[int]]"
    sha256: str
    gen_s: float

    @property
    def update_count(self) -> int:
        return sum(self.updates)

    @property
    def txn_count(self) -> int:
        return sum(len(seqs) for seqs in self.txn_seqs.values())


def build_trace(
    seed: int,
    phases: "list[tuple[float, float]]",
    *,
    shards: int = 1,
    cross_shard_frac: float = 0.0,
    join_txns: bool = True,
    tick: float = TICK_S,
) -> Trace:
    """Generate, encode and join the whole trace before the clock starts."""
    began = time.perf_counter()
    ticks = max(1, round(sum(seconds for seconds, _ in phases) / tick))
    blobs: "list[bytes]" = []
    counts: "list[int]" = []
    txn_frames: "dict[int, list[bytes]]" = {}
    txn_seqs: "dict[int, list[int]]" = {}
    digest = hashlib.sha256()
    frames: "list[bytes]" = []
    n_updates = 0
    current = 0

    def close_ticks(upto: int) -> None:
        """Join ticks ``current .. upto-1`` (all but the first are empty)."""
        nonlocal frames, n_updates, current
        while current < upto:
            if join_txns and current in txn_frames:
                frames.extend(txn_frames.pop(current))
            blob = b"".join(frames)
            digest.update(blob)
            if not join_txns and current in txn_frames:
                digest.update(b"".join(txn_frames[current]))
            blobs.append(blob)
            counts.append(n_updates)
            frames = []
            n_updates = 0
            current += 1

    for item in records(
        seed, phases, shards=shards, cross_shard_frac=cross_shard_frac
    ):
        index = min(ticks - 1, int(item.arrival_time / tick))
        if index != current:
            close_ticks(index)
        if type(item) is TransactionSpec:
            txn_frames.setdefault(index, []).append(encode_frame(item))
            txn_seqs.setdefault(index, []).append(item.seq)
        else:
            frames.append(encode_frame(item))
            n_updates += 1
    close_ticks(ticks)
    return Trace(
        blobs=blobs,
        updates=counts,
        txn_blobs={k: b"".join(v) for k, v in txn_frames.items()},
        txn_seqs=txn_seqs,
        sha256=digest.hexdigest(),
        gen_s=time.perf_counter() - began,
    )
