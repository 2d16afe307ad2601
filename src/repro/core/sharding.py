"""Shard construction: N independent pipelines over one keyspace.

The unit of execution here is a **shard**: its own
:class:`~repro.db.database.Database` slice, OS queue, update queue,
staleness checker/ledger, collectors, and
:class:`~repro.core.controller.Controller`, all wired by the same
:func:`repro.core.wiring.build_parts` the single pipeline uses — a shard
*is* a ``RuntimeParts``.  :func:`build_shard_set` generalizes that wiring
to N shards behind a :class:`~repro.db.sharding.ShardRouter`:

* ``shards=1`` builds exactly one ``build_parts(config, ...)`` with the
  original config and routes by handing out the controller's own bound
  arrival methods — the single-shard path is the degenerate case of the
  same code, not a fork, and stays bit-identical to the pre-shard wiring.
* ``shards=N`` derives one sub-config per shard (owned object counts,
  per-shard ``OSmax``/``UQmax`` budgets via :func:`shard_config`), builds
  N part sets on the *same* clock, and routes arrivals by stable hash of
  the target object id.

Cross-shard reads: a transaction's read set is drawn against the global
keyspace, but a transaction executes on exactly one shard (the owner of
its first read).  Reads owned by that shard keep their identity; reads
owned elsewhere are approximated by a deterministic stand-in object on
the executing shard and counted in ``router.remapped_reads`` — see
``docs/SCALING.md`` for what this preserves and what it blurs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace as dataclass_replace

from repro.config import SimulationConfig
from repro.core.wiring import (
    RuntimeParts,
    build_parts,
    collect_result,
    reset_measurement,
)
from repro.db.objects import ObjectClass, Update
from repro.db.sharding import ShardRouter
from repro.db.views import ViewSpec, merge_view_reports
from repro.metrics.freshness import SampledLedger
from repro.metrics.results import SimulationResult
from repro.sim.clock import Clock
from repro.workload.codec import (
    CLASS_CODES,
    FRAME_HEADER,
    UPDATE_OBJECT_ID_AT,
    UPDATE_ROUTES,
    check_object_ids,
    peek_update_route,
)
from repro.workload.transactions import TransactionSpec

#: An update frame's object id, and its seq: one little-endian int64.
_INT64 = struct.Struct("<q")


@dataclass
class Shard:
    """One pipeline plus its slice of the keyspace."""

    index: int
    parts: RuntimeParts
    n_low: int
    n_high: int


def shard_config(
    config: SimulationConfig, router: ShardRouter, index: int
) -> SimulationConfig:
    """The sub-config one shard's pipeline is built from.

    Owned object counts replace the global ones; the global OS/update
    queue budgets are split across shards; ``p_low`` is clamped when a
    shard owns only one importance class (the routing happens upstream
    against the global config, so the clamp only keeps validation
    honest).  Everything else — cost model, staleness policy, stale-read
    action, seed — is inherited unchanged.
    """
    k_low, k_high = router.counts(index)
    p_low = config.updates.p_low
    if k_low == 0:
        p_low = 0.0
    elif k_high == 0:
        p_low = 1.0
    shard_cfg = config.with_updates(n_low=k_low, n_high=k_high, p_low=p_low)
    return shard_cfg.with_system(
        os_queue_max=router.os_budget(index, config.system.os_queue_max),
        update_queue_max=router.uq_budget(index, config.system.update_queue_max),
    )


def route_update(router: ShardRouter, update: Update) -> tuple[int, Update]:
    """Resolve an update's owning shard and its shard-local record.

    A fresh record is returned: the original keeps its global id (the
    caller may hold it), and queue state (``queued``) must be shard-local.
    """
    shard = router.shard_of(update.klass, update.object_id)
    router.note_update_routed(shard)
    routed = Update(
        seq=update.seq,
        klass=update.klass,
        object_id=router.local_id(update.klass, update.object_id),
        value=update.value,
        generation_time=update.generation_time,
        arrival_time=update.arrival_time,
        partial=update.partial,
        attribute=update.attribute,
    )
    return shard, routed


def route_spec(
    router: ShardRouter, spec: TransactionSpec
) -> tuple[int, TransactionSpec]:
    """Resolve a transaction's executing shard and its remapped spec.

    The owner of the first read executes the transaction; reads owned by
    that shard keep their identity (shard-local id), cross-shard reads
    are approximated by a deterministic stand-in object there (counted in
    ``router.remapped_reads``).  A readless transaction is placed by a
    stable hash of its sequence number.
    """
    klass = spec.view_class
    if not spec.reads:
        shard = router.hash_shard(spec.seq)
        router.note_transaction_routed(shard)
        return shard, spec
    shard = router.shard_of(klass, spec.reads[0])
    owned = router.count_for(shard, klass)
    local_reads = []
    for gid in spec.reads:
        if router.shard_of(klass, gid) == shard:
            local_reads.append(router.local_id(klass, gid))
        else:
            # owned > 0 because this shard owns reads[0] of the same class.
            router.note_remapped_read()
            local_reads.append(gid % owned)
    router.note_transaction_routed(shard)
    return shard, dataclass_replace(spec, reads=tuple(local_reads))


def split_spec(
    router: ShardRouter, spec: TransactionSpec
) -> "dict[int, TransactionSpec]":
    """Split one global spec into per-shard sub-reads (the scatter half).

    Returns an insertion-ordered mapping ``shard -> sub-spec``.  Each
    sub-spec keeps the parent's seq, arrival time, value, compute time,
    and slack, and carries only the shard-local ids of the reads that
    shard owns — so every shard's local firm deadline
    (``arrival + estimate + slack``) is at or before the parent's, and
    the gathered verdict can only be stricter than a single-shard run,
    never laxer.  A readless spec maps whole onto one shard by stable
    hash of its sequence number.  A single-entry result means the
    transaction is *not* cross-shard and can be forwarded as-is.
    """
    if not spec.reads:
        return {router.hash_shard(spec.seq): spec}
    pieces = router.split_reads(spec.view_class, spec.reads)
    if len(pieces) == 1:
        shard, local = next(iter(pieces.items()))
        return {shard: dataclass_replace(spec, reads=tuple(local))}
    return {
        shard: dataclass_replace(spec, reads=tuple(local))
        for shard, local in pieces.items()
    }


#: Sub-read outcomes that contribute *no* usable read result.  A failed
#: RPC (deadline, closed channel, shard down) is recorded as a miss with
#: its reason in ``failure``.
_FAILED_OUTCOMES = ("missed",)


def merge_verdicts(sub_outcomes: "list[dict]") -> dict:
    """Merge per-shard sub-read outcomes into one parent verdict.

    The gather half of a cross-shard transaction, implementing the
    paper's MA/UU semantics across shards:

    * ``read_stale`` is an *any* — a transaction that read one stale
      object anywhere is a stale read, no matter how fresh the other
      shards were (stale-anywhere = stale).
    * Under ``StaleReadAction.ABORT`` any shard aborting on staleness
      aborts the whole transaction (``aborted-stale``).
    * Otherwise any sub-read that missed its firm deadline — including
      one whose RPC failed (``failure`` key: sub-read deadline, closed
      channel, shard down) — makes the parent a miss: the firm deadline
      is enforced across the *slowest* shard.
    * Otherwise any shard rejecting (draining worker) rejects the parent.
    * Only a transaction every shard committed commits.

    ``finish_time`` is the max over the sub-reads that reported one —
    the slowest shard finishes the transaction.

    Each entry of ``sub_outcomes`` needs ``outcome``, ``read_stale``,
    and ``finish_time`` keys (the wire's outcome-record schema).
    """
    if not sub_outcomes:
        raise ValueError("cannot merge zero sub-read outcomes")
    read_stale = any(sub.get("read_stale") for sub in sub_outcomes)
    outcomes = [sub.get("outcome") for sub in sub_outcomes]
    if "aborted-stale" in outcomes:
        outcome = "aborted-stale"
    elif any(out in _FAILED_OUTCOMES for out in outcomes):
        outcome = "missed"
    elif "rejected" in outcomes:
        outcome = "rejected"
    else:
        outcome = "committed"
    finish_times = [
        sub["finish_time"] for sub in sub_outcomes
        if sub.get("finish_time") is not None
    ]
    return {
        "outcome": outcome,
        "read_stale": read_stale,
        "finish_time": max(finish_times) if finish_times else None,
    }


def route_batch(router: ShardRouter, items, on_error=None) -> "dict[int, list]":
    """Group one decoded arrival batch by owning shard.

    Returns an insertion-ordered mapping ``shard -> routed records``;
    within each shard the records keep their batch order, so a downstream
    that delivers each shard's list in order preserves the wire-order
    semantics of routing record by record.  Updates are the hot path:
    their routing accounting collapses to one
    :meth:`~repro.db.sharding.ShardRouter.note_update_routed` call per
    (shard, batch) instead of one per record.  (Updates still on the wire
    as frames never get here: :func:`split_update_run`.)

    An unroutable record (unknown object, non-view class) is skipped —
    counted in ``router.routing_errors`` and reported through
    ``on_error(item, exc)`` when given — so one bad record never poisons
    its batch neighbors, matching the per-record path's error handling.
    """
    by_shard: dict[int, list] = {}
    update_counts: dict[int, int] = {}
    shard_of = router.shard_of
    local_id = router.local_id
    for item in items:
        try:
            if isinstance(item, Update):
                shard = shard_of(item.klass, item.object_id)
                update_counts[shard] = update_counts.get(shard, 0) + 1
                routed = Update(
                    seq=item.seq,
                    klass=item.klass,
                    object_id=local_id(item.klass, item.object_id),
                    value=item.value,
                    generation_time=item.generation_time,
                    arrival_time=item.arrival_time,
                    partial=item.partial,
                    attribute=item.attribute,
                )
            else:
                shard, routed = route_spec(router, item)
        except (ValueError, IndexError) as exc:
            router.note_routing_error()
            if on_error is not None:
                on_error(item, exc)
            continue
        bucket = by_shard.get(shard)
        if bucket is None:
            by_shard[shard] = [routed]
        else:
            bucket.append(routed)
    for shard, count in update_counts.items():
        router.note_update_routed(shard, count)
    return by_shard


def split_update_run(
    router: ShardRouter, run: bytes, on_error=None
) -> "dict[int, tuple[bytes, int]]":
    """Route a run of raw update frames without building one ``Update``.

    ``run`` is whole update frames back to back, as a binary client sent
    them (:class:`~repro.workload.codec.FrameDecoder` with
    ``raw_updates=True`` has checked every header).  One ``iter_unpack``
    pass reads each frame's class code and global id, range-checks the id
    against its partition, and patches the shard-local id into one copy of
    the run; each shard's payload is the join of its frames' slices of
    that copy, in run order — byte for byte what
    :func:`~repro.workload.codec.reroute_update_frame` gives frame by
    frame, which is this function's one-element case.

    Returns an insertion-ordered ``shard -> (payload, frames)``.  A frame
    that cannot be routed (id outside its partition, unknown or non-view
    class) is left out, counted in ``router.routing_errors`` and reported
    through ``on_error(frame, exc)``; its neighbors route unchanged — the
    error isolation of :func:`route_batch`.
    """
    patched = bytearray(run)
    view = memoryview(patched)
    low = router.tables(ObjectClass.VIEW_LOW)
    high = router.tables(ObjectClass.VIEW_HIGH)
    n_low, n_high = router.n_low, router.n_high
    low_code = CLASS_CODES[ObjectClass.VIEW_LOW]
    high_code = CLASS_CODES[ObjectClass.VIEW_HIGH]
    patch = _INT64.pack_into
    frame_size = UPDATE_ROUTES.size
    pieces: dict[int, list] = {}
    start = -frame_size
    for code, gid in UPDATE_ROUTES.iter_unpack(run):
        start += frame_size
        if code == low_code and 0 <= gid < n_low:
            shards, locals_ = low
        elif code == high_code and 0 <= gid < n_high:
            shards, locals_ = high
        else:
            frame = run[start:start + frame_size]
            try:
                klass, gid = peek_update_route(frame)
                router.tables(klass)  # a non-view class has none
                (seq,) = _INT64.unpack_from(frame, FRAME_HEADER.size)
                check_object_ids("update", seq, klass, (gid,), router.sizes)
            except ValueError as exc:
                router.note_routing_error()
                if on_error is not None:
                    on_error(frame, exc)
            continue
        patch(patched, start + UPDATE_OBJECT_ID_AT, locals_[gid])
        shard = shards[gid]
        frames = pieces.get(shard)
        if frames is None:
            frames = pieces[shard] = []
        frames.append(view[start:start + frame_size])
    by_shard = {}
    for shard, frames in pieces.items():
        router.note_update_routed(shard, len(frames))
        by_shard[shard] = b"".join(frames), len(frames)
    return by_shard


class ShardSet:
    """N wired pipelines plus the routing that feeds them.

    Built by :func:`build_shard_set`; don't construct directly.

    Attributes:
        config: The global (pre-split) configuration.
        router: The keyspace router, or None for the single-shard case.
        shards: The wired :class:`Shard` pipelines, by index.
        route_update / route_spec: Arrival sinks accepting *global* object
            ids — plug them wherever a single controller's
            ``on_update_arrival`` / ``on_transaction_arrival`` went.  With
            one shard they *are* those bound methods.
    """

    def __init__(
        self,
        config: SimulationConfig,
        router: ShardRouter | None,
        shards: list[Shard],
    ) -> None:
        self.config = config
        self.router = router
        self.shards = shards
        if router is None:
            controller = shards[0].parts.controller
            self.route_update = controller.on_update_arrival
            self.route_spec = controller.on_transaction_arrival
        else:
            self.route_update = self._route_update
            self.route_spec = self._route_spec

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    # ------------------------------------------------------------------
    # Routing (multi-shard only; single-shard uses the bound methods)
    # ------------------------------------------------------------------
    def _route_update(self, update: Update) -> None:
        shard, routed = route_update(self.router, update)
        self.shards[shard].parts.controller.on_update_arrival(routed)

    def _route_spec(self, spec: TransactionSpec) -> None:
        shard, routed = route_spec(self.router, spec)
        self.shards[shard].parts.controller.on_transaction_arrival(routed)

    def route_batch(self, items) -> None:
        """Deliver one mixed arrival batch, grouped per shard.

        Each record still hits its controller's own arrival method (the
        per-arrival scheduling point is part of the model); the batch
        amortizes routing table lookups and accounting.  With one shard
        this is a plain in-order delivery loop on the single controller.
        """
        if self.router is None:
            on_update = self.route_update
            on_spec = self.route_spec
            for item in items:
                (on_update if isinstance(item, Update) else on_spec)(item)
            return
        for shard, routed in route_batch(self.router, items).items():
            controller = self.shards[shard].parts.controller
            on_update = controller.on_update_arrival
            on_spec = controller.on_transaction_arrival
            for item in routed:
                (on_update if isinstance(item, Update) else on_spec)(item)

    # ------------------------------------------------------------------
    # Lifecycle fan-out
    # ------------------------------------------------------------------
    def start_ledgers(self) -> None:
        """Start every sampled ledger (no-op for exact ledgers)."""
        for shard in self.shards:
            if isinstance(shard.parts.ledger, SampledLedger):
                shard.parts.ledger.start()

    def reset_measurement(self, now: float) -> None:
        """Warmup boundary on every shard."""
        for shard in self.shards:
            reset_measurement(shard.parts, now)

    def finalize(self, now: float) -> None:
        """End-of-run finalize on every shard's controller and ledger."""
        for shard in self.shards:
            shard.parts.controller.finalize(now)
            shard.parts.ledger.finalize(now)
            shard.parts.views.finalize(now)

    def register_view(self, spec: ViewSpec, now: float = 0.0) -> ViewSpec:
        """Register a derived view on every shard.

        Each shard maintains the view over the members it owns; group keys
        are computed from global ids (the key map installed at build time),
        so :meth:`collect` can merge the per-shard states exactly.
        """
        for shard in self.shards:
            shard.parts.views.register(spec, now)
        return spec

    def collect(
        self,
        duration: float,
        *,
        now: float | None = None,
        final: bool = True,
        extras: dict | None = None,
    ) -> SimulationResult:
        """Collect per-shard results and merge them into one report.

        With one shard this is exactly :func:`collect_result` — bit-
        identical to the unsharded path.  With N, the merge weights the
        staleness folds by owned object counts and stamps the router's
        accounting into ``extras``.
        """
        if self.router is None:
            return collect_result(
                self.shards[0].parts,
                duration,
                now=now,
                final=final,
                extras=extras,
            )
        per_shard = [
            collect_result(shard.parts, duration, now=now, final=final)
            for shard in self.shards
        ]
        merged_extras = dict(self.router.accounting())
        if extras:
            merged_extras.update(extras)
        view_reports = [
            shard.parts.views.report(now)
            for shard in self.shards
            if shard.parts.views.specs
        ]
        if view_reports:
            merged_extras.setdefault("views", merge_view_reports(view_reports))
        return SimulationResult.merge(
            per_shard,
            weights_low=[shard.n_low for shard in self.shards],
            weights_high=[shard.n_high for shard in self.shards],
            extras=merged_extras,
        )


def build_shard_set(
    config: SimulationConfig,
    algorithm,
    clock: Clock,
    shards: int = 1,
    **algorithm_kwargs,
) -> ShardSet:
    """Wire ``shards`` pipelines over one keyspace and one clock.

    Args:
        config: The global configuration (global object counts and queue
            budgets; they are split across shards).
        algorithm: Scheduler name, or an instance (single-shard only — N
            pipelines need N independent scheduler states, so multi-shard
            builds require a registry name).
        clock: Shared clock for every shard (an
            :class:`~repro.sim.engine.Engine` for deterministic sharded
            simulation, a wall clock in a live worker).
        shards: Shard count; 1 reproduces the unsharded wiring exactly.
        **algorithm_kwargs: Constructor args for a named algorithm.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if shards == 1:
        parts = build_parts(config, algorithm, clock, **algorithm_kwargs)
        shard = Shard(
            index=0,
            parts=parts,
            n_low=config.updates.n_low,
            n_high=config.updates.n_high,
        )
        return ShardSet(config, None, [shard])
    if not isinstance(algorithm, str):
        raise ValueError(
            "multi-shard builds need an algorithm name (each shard gets "
            "its own instance), not a shared instance"
        )
    config.validate()
    router = ShardRouter(config.updates.n_low, config.updates.n_high, shards)
    built = []
    for index in range(shards):
        sub_config = shard_config(config, router, index)
        parts = build_parts(sub_config, algorithm, clock, **algorithm_kwargs)
        parts.views.set_key_map(shard_view_key_map(router, index))
        k_low, k_high = router.counts(index)
        built.append(Shard(index=index, parts=parts, n_low=k_low, n_high=k_high))
    return ShardSet(config, router, built)


def shard_view_key_map(router: ShardRouter, index: int):
    """Local→global id map for one shard's view registry."""
    tables = {
        klass: router.global_ids(index, klass)
        for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH)
    }

    def key_map(klass: ObjectClass, local_id: int) -> int:
        return tables[klass][local_id]

    return key_map
