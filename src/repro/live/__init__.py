"""repro.live — the wall-clock STRIP runtime.

The simulator answers "what would the paper's schedulers do"; this package
*runs* them: the same controller and scheduling algorithms (UF, TF, SU, OD,
FX, TF-SPLIT), the same bounded OS queue (``OSmax`` overflow drops) and
generation-ordered update queue (``UQmax`` / MA expiry), but clocked by
``time.monotonic()`` on asyncio instead of a discrete-event calendar.  The
queues stop being bookkeeping and become real backpressure: when the CPU
budget cannot keep up with the ingest rate, the OS queue fills and drops,
exactly as the paper's kernel would.

Layout:

* :class:`WallClock` — real-time implementation of the
  :class:`repro.sim.Clock` contract.
* :class:`LiveRuntime` — the wired model (via :mod:`repro.core.wiring`)
  plus ingest/submission APIs, mid-run metric snapshots, a watchdog, and
  graceful drain.
* :class:`LoadGenerator` — Poisson traffic synthesized from any
  :class:`~repro.config.SimulationConfig`, or bit-for-bit replay of a
  recorded simulator trace.
* :class:`MetricsStreamer` — periodic JSONL snapshots of a running system.
* :class:`IngestServer` — optional TCP ingest: updates and transactions
  as binary frames, control records as JSON (a JSONL session is the
  ``nc``-able control dialect).
* :class:`ShardCluster` — N shard worker processes (one pipeline each)
  behind one ingest router; merged fleet snapshots and final results.
  The router→worker hop is loopback TCP carrying binary frames.
* :class:`DurabilityManager` — per-shard binary write-ahead log
  (:class:`UpdateLog`) plus compacted snapshots (:class:`SnapshotStore`),
  so supervisor restarts come back *warm*: snapshot restore + idempotent
  log replay, with the replay lag surfaced as a staleness gauge.

Run it: ``python -m repro.live serve|loadgen`` (also installed as the
``repro-live`` console script).
"""

from repro.live.clock import WallClock
from repro.live.cluster import ShardCluster, ShardDownError
from repro.live.durability import (
    DurabilityManager,
    ReplayStats,
    SnapshotStore,
    UpdateLog,
    capture_state,
    read_log,
    restore_state,
)
from repro.live.loadgen import (
    CrossShardSpreader,
    DirectClient,
    LoadGenerator,
    WireClient,
)
from repro.live.observe import MetricsStreamer
from repro.live.runtime import LiveRuntime, TransactionHandle
from repro.live.server import IngestServer
from repro.live.wire import (
    PROTOCOL_BINARY,
    PROTOCOL_JSONL,
    RpcChannel,
    RpcClosedError,
    RpcDeadlineError,
    RpcError,
    connect_with_retry,
    negotiate_protocol,
)

__all__ = [
    "CrossShardSpreader",
    "DirectClient",
    "DurabilityManager",
    "IngestServer",
    "LiveRuntime",
    "LoadGenerator",
    "MetricsStreamer",
    "PROTOCOL_BINARY",
    "PROTOCOL_JSONL",
    "ReplayStats",
    "RpcChannel",
    "RpcClosedError",
    "RpcDeadlineError",
    "RpcError",
    "ShardCluster",
    "ShardDownError",
    "SnapshotStore",
    "TransactionHandle",
    "UpdateLog",
    "WallClock",
    "WireClient",
    "capture_state",
    "connect_with_retry",
    "negotiate_protocol",
    "read_log",
    "restore_state",
]
