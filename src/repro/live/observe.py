"""Live observability: periodic JSONL metric snapshots.

A :class:`MetricsStreamer` samples a running :class:`~repro.live.runtime.
LiveRuntime` on a fixed period and writes one JSON line per sample.  Each
line is the full :class:`~repro.metrics.results.SimulationResult` for the
measurement window so far (the same fields the simulator reports, computed
non-destructively mid-run) plus the live gauges the runtime adds in
``extras``: OS/update queue depths, install-latency percentiles, worst
dispatch lag, watchdog counters.

The source can be anything with a ``snapshot()`` returning a
``SimulationResult`` — a runtime, or a
:class:`~repro.live.cluster.ShardCluster` whose (async) snapshot is the
merged view of the whole shard fleet; the sampling task awaits it either
way, so one streamer serves both the single-process and the sharded
deployment.

Lines are self-describing, so the stream can be tailed by a human, plotted
with ``jq``/pandas, or diffed directly against a simulator result.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import logging
from dataclasses import asdict
from pathlib import Path
from typing import IO

logger = logging.getLogger(__name__)


class MetricsStreamer:
    """Periodic JSONL snapshots of a live runtime (or shard cluster).

    Args:
        runtime: The object to sample — anything with a ``snapshot()``
            returning a ``SimulationResult``, sync or async.
        out: Destination — a path (appended to), a file-like object, or
            None to keep samples in memory only.
        interval: Seconds between samples.
        history: In-memory record cap (oldest dropped first); the
            ``history`` attribute always holds the most recent records
            regardless of ``out``.
    """

    def __init__(
        self,
        runtime,
        out: "str | Path | IO[str] | None" = None,
        *,
        interval: float = 1.0,
        history: int = 64,
    ) -> None:
        self.runtime = runtime
        self.interval = interval
        self.history: list[dict] = []
        self.sample_errors = 0
        self.last_error: str | None = None
        self._history_cap = history
        self._task: asyncio.Task | None = None
        self._stream: IO[str] | None = None
        self._owns_stream = False
        if isinstance(out, (str, Path)):
            self._stream = Path(out).open("a", encoding="utf-8")
            self._owns_stream = True
        elif out is not None:
            self._stream = out

    # ------------------------------------------------------------------
    async def emit_async(self) -> dict:
        """Take one snapshot now (awaiting it if the source's
        ``snapshot()`` is async); write it and return the record."""
        snapshot = self.runtime.snapshot()
        if inspect.isawaitable(snapshot):
            snapshot = await snapshot
        return self._record(snapshot)

    def _record(self, snapshot) -> dict:
        record = asdict(snapshot)
        self.history.append(record)
        if len(self.history) > self._history_cap:
            del self.history[: len(self.history) - self._history_cap]
        if self._stream is not None:
            self._stream.write(json.dumps(record) + "\n")
            self._stream.flush()
        return record

    def start(self) -> None:
        """Spawn the periodic sampling task on the running event loop."""
        if self._task is not None:
            raise RuntimeError("metrics streamer is already running")
        self._task = asyncio.ensure_future(self._run())

    async def stop(self, *, final_emit: bool = True) -> None:
        """Stop sampling; by default emit one last snapshot first."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if final_emit:
            try:
                await self.emit_async()
            except Exception as exc:
                self._note_sample_error(exc)
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None

    async def _run(self) -> None:
        """Sample forever; a failed sample must not kill the sampler.

        A cluster-backed source raises while its shards are down or
        restarting — that is exactly when observability matters most, so
        the error is counted (``sample_errors`` / ``last_error``) and the
        next tick tries again.
        """
        while True:
            await asyncio.sleep(self.interval)
            try:
                await self.emit_async()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._note_sample_error(exc)

    def _note_sample_error(self, exc: Exception) -> None:
        self.sample_errors += 1
        self.last_error = repr(exc)
        logger.warning("metrics sample failed: %r", exc)

    @staticmethod
    def format_line(record: dict) -> str:
        """Human-oriented one-line digest of a snapshot record.

        Cluster snapshots append worker liveness: how many shards are
        up, completed supervisor restarts, and records shed on down
        shards (``extras["workers"]``, absent for a plain runtime).
        """
        extras = record.get("extras", {})
        p99 = extras.get("install_latency_p99")
        line = (
            f"[{extras.get('wall_time', 0.0):8.2f}s] "
            f"applied={record['updates_applied']} "
            f"dropped={record['updates_os_dropped']} "
            f"expired={record['updates_expired']} "
            f"osq={extras.get('os_queue_depth', 0)} "
            f"uq={extras.get('update_queue_depth', 0)} "
            f"commit={record['transactions_committed']}/"
            f"{record['transactions_arrived']} "
            f"p99={'n/a' if p99 is None else f'{p99 * 1e3:.2f}ms'} "
            f"alerts={extras.get('watchdog_alerts', 0)}"
        )
        workers = extras.get("workers")
        if workers:
            up = sum(1 for worker in workers if worker["status"] == "up")
            restarts = sum(worker["restarts"] for worker in workers)
            shed = sum(worker["shed_shard_down"] for worker in workers)
            line += (
                f" workers={up}/{len(workers)}up"
                f" restarts={restarts} shed={shed}"
            )
        # Scatter-gather digest: only cluster snapshots that actually saw
        # cross-shard transactions carry these.
        xshard = extras.get("cross_shard_submits")
        if xshard:
            failed = sum(extras.get("sub_read_deadline_misses", ()))
            sub_p99 = extras.get("sub_read_latency_p99")
            line += (
                f" xshard={xshard} subfail={failed}"
                f" subp99={'n/a' if sub_p99 is None else f'{sub_p99 * 1e3:.2f}ms'}"
            )
        # Durability digest: merged cluster snapshots carry per-shard
        # lists, a single durable runtime carries scalars.
        replayed = extras.get("replayed_records")
        if replayed is not None:
            lag = extras.get("replay_lag_s", 0.0)
            if isinstance(replayed, list):
                replayed = sum(replayed)
                lag = max(lag) if lag else 0.0
            if replayed:
                line += f" replayed={replayed} replag={lag * 1e3:.0f}ms"
        snapshot_errors = extras.get("snapshot_errors")
        if isinstance(snapshot_errors, list):
            snapshot_errors = sum(snapshot_errors)
        if snapshot_errors:
            line += f" snaperr={snapshot_errors}"
        # Derived-view digest: count, stale count, applied deltas, fold.
        views = extras.get("views")
        if views:
            stale = sum(1 for entry in views.values() if entry.get("stale"))
            refreshes = sum(
                entry.get("refreshes", 0) for entry in views.values()
            )
            line += (
                f" views={stale}/{len(views)}stale"
                f" vdeltas={refreshes}"
                f" foldv={record.get('fold_views', 0.0):.3f}"
            )
        return line

