"""The routing plane's pure functions over one sharded keyspace.

A shard of ``repro-live serve --shards N`` is one complete pipeline
(:func:`repro.core.wiring.build_parts`) over its slice of the keyspace,
and the :class:`~repro.db.sharding.ShardRouter` says which slice.  This
module holds what the routing plane, its workers and the benchmark's
replay share, with no I/O:

* :func:`shard_config` / :func:`shard_view_key_map` — what one shard's
  pipeline is built from, and its view registry's local → global id map;
* :func:`split_update_run` — a run of update frames, split per owner as
  bytes;
* :func:`split_spec` / :func:`merge_verdicts` — a transaction's scatter
  and gather: per-shard sub-reads of the real read-set, and the
  stale-anywhere verdict;
* :func:`merge_shard_results` — per-shard results as one fleet result,
  the one merge every sharded harness reports through.

The simulator is one pipeline, the paper's one CPU.  A sharded run on a
virtual clock is N ``LiveRuntime`` instances on one
:class:`~repro.sim.engine.Engine` fed by these functions
(``docs/SCALING.md``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace as dataclass_replace

from repro.config import SimulationConfig
from repro.db.objects import ObjectClass
from repro.db.sharding import ShardRouter
from repro.db.views import merge_view_reports
from repro.metrics.results import SimulationResult
from repro.workload.codec import (
    CLASS_CODES,
    FRAME_HEADER,
    UPDATE_OBJECT_ID_AT,
    UPDATE_ROUTES,
    check_object_ids,
    check_update_value,
    peek_update_route,
)
from repro.workload.transactions import TransactionSpec

#: An update frame's object id, and its seq: one little-endian int64.
_INT64 = struct.Struct("<q")


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


def merge_shard_results(
    router: ShardRouter,
    per_shard: "list[SimulationResult]",
    indices,
    extras: dict,
) -> SimulationResult:
    """Per-shard results as one fleet result (``indices`` names the
    shard each came from).

    ``extras`` is the caller's fleet-level accounting (the plane's
    counters, the worker table), extended in place: each shard's
    smart-client counters (``extras["direct"]``) are summed into it, and
    the shards' view reports are merged exactly into ``extras["views"]``.
    The folds are weighted by the objects each shard owns.
    """
    reports = []
    for result in per_shard:
        shard_extras = result.extras or {}
        for key, count in (shard_extras.get("direct") or {}).items():
            extras[key] = extras.get(key, 0) + count
        if shard_extras.get("views"):
            reports.append(shard_extras["views"])
    if reports:
        extras["views"] = merge_view_reports(reports)
    weights = [router.counts(index) for index in indices]
    return SimulationResult.merge(
        per_shard,
        weights_low=[low for low, _ in weights],
        weights_high=[high for _, high in weights],
        extras=extras,
    )


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
    frame, which is this function's one-element case.  The same pass
    checks each value finite, so the plane refuses what a worker would
    refuse.

    Returns an insertion-ordered ``shard -> (payload, frames)``.  A frame
    that cannot be routed (id outside its partition, unknown or non-view
    class, NaN or infinite value) is left out, counted in
    ``router.routing_errors`` and reported through ``on_error(frame,
    exc)``; its neighbors route unchanged, so one bad frame never poisons
    its run.
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
    inf = math.inf
    start = -frame_size
    for code, gid, value in UPDATE_ROUTES.iter_unpack(run):
        start += frame_size
        if code == low_code and 0 <= gid < n_low and -inf < value < inf:
            shards, locals_ = low
        elif code == high_code and 0 <= gid < n_high and -inf < value < inf:
            shards, locals_ = high
        else:
            frame = run[start:start + frame_size]
            try:
                klass, gid = peek_update_route(frame)
                router.tables(klass)  # a non-view class has none
                (seq,) = _INT64.unpack_from(frame, FRAME_HEADER.size)
                check_object_ids("update", seq, klass, (gid,), router.sizes)
                check_update_value(seq, value)
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


def shard_view_key_map(router: ShardRouter, index: int):
    """Local→global id map for one shard's view registry."""
    tables = {
        klass: router.global_ids(index, klass)
        for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH)
    }

    def key_map(klass: ObjectClass, local_id: int) -> int:
        return tables[klass][local_id]

    return key_map
