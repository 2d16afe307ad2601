"""Keyspace partitioning for sharded pipelines.

A shard owns a hash-partitioned slice of the view keyspace.  The
:class:`ShardRouter` maps every global view object id onto its owning
shard with a *stable* integer hash (splitmix64) — deliberately not
Python's built-in ``hash``, which is randomized per process for strings
and would make routing disagree between the processes of a multi-core
deployment.  The router also precomputes dense shard-local object ids, so
each shard's :class:`~repro.db.database.Database` can be built with plain
``n_low``/``n_high`` counts, and splits the global ``OSmax``/``UQmax``
buffer budgets across shards.

Routing accounting (how many updates/transactions each shard received,
how many records were unroutable) lives here too, so a merged report can
attribute load and drops per shard.

A :class:`Topology` is the one shard map: a router, the workers that
serve its shards and an epoch.  Every door reads its router and shard
count from one, and a standalone server is the one-shard map.
"""

from __future__ import annotations

from repro.db.objects import ObjectClass

#: Version of the routing function.  Rides in every topology record: a
#: smart client whose routing function differs from the cluster's refuses
#: the record (:meth:`Topology.from_record`), so changing the hash or the
#: budget split must bump it.
ROUTER_VERSION = 1

_MASK64 = (1 << 64) - 1


def stable_hash(value: int) -> int:
    """splitmix64 finalizer: a stable, well-mixed 64-bit hash of an int.

    Process- and platform-independent (unlike ``hash(str)`` under hash
    randomization), so every worker of a sharded deployment routes the
    same object to the same shard.
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _class_bit(klass: ObjectClass) -> int:
    if klass is ObjectClass.VIEW_LOW:
        return 0
    if klass is ObjectClass.VIEW_HIGH:
        return 1
    raise ValueError(f"only view objects are sharded, got {klass}")


class ShardRouter:
    """Stable hash partitioning of the view keyspace over N shards.

    Args:
        n_low: Global number of low-importance view objects.
        n_high: Global number of high-importance view objects.
        shards: Number of shards (>= 1).

    Raises:
        ValueError: for a degenerate topology — fewer objects than shards
            or a shard that ends up owning zero view objects (its pipeline
            would have nothing to do and its ``Database`` cannot be built).

    Attributes:
        updates_routed: Per-shard count of updates routed through
            :meth:`note_update_routed`.
        transactions_routed: Per-shard count of routed transactions.
        routing_errors: Records that could not be routed (unknown object).
    """

    def __init__(self, n_low: int, n_high: int, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if n_low < 0 or n_high < 0:
            raise ValueError("object counts must be >= 0")
        if n_low + n_high < shards:
            raise ValueError(
                f"cannot spread {n_low + n_high} view objects over "
                f"{shards} shards"
            )
        self.n_low = n_low
        self.n_high = n_high
        self.shards = shards
        #: Partition sizes by class: what a front door checks ids against.
        self.sizes = {ObjectClass.VIEW_LOW: n_low, ObjectClass.VIEW_HIGH: n_high}

        # Dense global-id -> (shard, local-id) maps, one per view class.
        self._shard_low = [self._hash_shard_of(0, gid) for gid in range(n_low)]
        self._shard_high = [self._hash_shard_of(1, gid) for gid in range(n_high)]
        self._local_low = [0] * n_low
        self._local_high = [0] * n_high
        self._counts_low = [0] * shards
        self._counts_high = [0] * shards
        for gid, shard in enumerate(self._shard_low):
            self._local_low[gid] = self._counts_low[shard]
            self._counts_low[shard] += 1
        for gid, shard in enumerate(self._shard_high):
            self._local_high[gid] = self._counts_high[shard]
            self._counts_high[shard] += 1
        empty = [
            shard for shard in range(shards)
            if self._counts_low[shard] + self._counts_high[shard] == 0
        ]
        if empty:
            raise ValueError(
                f"shards {empty} own no view objects with n_low={n_low}, "
                f"n_high={n_high}; use fewer shards"
            )

        self.updates_routed = [0] * shards
        self.transactions_routed = [0] * shards
        self.routing_errors = 0

    def _hash_shard_of(self, class_bit: int, gid: int) -> int:
        return stable_hash((gid << 1) | class_bit) % self.shards

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def shard_of(self, klass: ObjectClass, object_id: int) -> int:
        """Owning shard of a global view object id."""
        table = self._shard_low if _class_bit(klass) == 0 else self._shard_high
        return table[object_id]

    def local_id(self, klass: ObjectClass, object_id: int) -> int:
        """Dense shard-local id of a global view object id."""
        table = self._local_low if _class_bit(klass) == 0 else self._local_high
        return table[object_id]

    def tables(self, klass: ObjectClass) -> "tuple[list[int], list[int]]":
        """(owning shard, dense local id) of one view class, both indexed
        by global object id — for a caller that routes a whole run."""
        if _class_bit(klass) == 0:
            return self._shard_low, self._local_low
        return self._shard_high, self._local_high

    def counts(self, shard: int) -> tuple[int, int]:
        """(owned low objects, owned high objects) of one shard."""
        return self._counts_low[shard], self._counts_high[shard]

    def count_for(self, shard: int, klass: ObjectClass) -> int:
        """Owned objects of one view class on one shard."""
        low, high = self.counts(shard)
        return low if _class_bit(klass) == 0 else high

    def global_ids(self, shard: int, klass: ObjectClass) -> "list[int]":
        """Global object ids one shard owns, indexed by dense local id.

        Local ids are assigned in global-id order, so the returned list is
        the exact inverse of :meth:`local_id` for this shard: entry ``i``
        is the global id of the shard's local object ``i``.  Used by the
        view registry to compute group keys from global ids, so per-shard
        view states merge without collisions.
        """
        table = self._shard_low if _class_bit(klass) == 0 else self._shard_high
        return [gid for gid, owner in enumerate(table) if owner == shard]

    def hash_shard(self, value: int) -> int:
        """A stable shard choice for values that are not object ids
        (e.g. the sequence number of a transaction with no reads)."""
        return stable_hash(value) % self.shards

    def split_reads(
        self, klass: ObjectClass, reads: "tuple[int, ...]"
    ) -> "dict[int, list[int]]":
        """Group a global read-set by owning shard, as shard-local ids.

        The scatter half of a cross-shard transaction: each entry of the
        returned (insertion-ordered) dict is one shard's slice of the
        read-set, translated to that shard's dense local ids with the
        read order preserved within the slice.
        """
        shard_table, local_table = self.tables(klass)
        by_shard: dict[int, list[int]] = {}
        for gid in reads:
            shard = shard_table[gid]
            bucket = by_shard.get(shard)
            if bucket is None:
                by_shard[shard] = [local_table[gid]]
            else:
                bucket.append(local_table[gid])
        return by_shard

    # ------------------------------------------------------------------
    # Buffer budgets
    # ------------------------------------------------------------------
    def os_budget(self, shard: int, os_queue_max: int) -> int:
        """This shard's slice of the global ``OSmax`` kernel buffer."""
        return max(1, self._split(shard, os_queue_max))

    def uq_budget(self, shard: int, update_queue_max: int) -> int:
        """This shard's slice of the global ``UQmax`` update-queue bound.

        Clamped to 2 across two or more shards, so a partitioned
        (TF-SPLIT) queue can always be built on every shard; one shard
        takes the bound as it is.
        """
        if self.shards == 1:
            return update_queue_max
        return max(2, self._split(shard, update_queue_max))

    def _split(self, shard: int, total: int) -> int:
        base, remainder = divmod(total, self.shards)
        return base + (1 if shard < remainder else 0)

    # ------------------------------------------------------------------
    # Routing accounting
    # ------------------------------------------------------------------
    def note_update_routed(self, shard: int, count: int = 1) -> None:
        self.updates_routed[shard] += count

    def note_transaction_routed(self, shard: int, count: int = 1) -> None:
        self.transactions_routed[shard] += count

    def note_routing_error(self) -> None:
        self.routing_errors += 1

    def accounting(self) -> dict:
        """Routing counters in report/extras form."""
        return {
            "shards": self.shards,
            "router_version": ROUTER_VERSION,
            "updates_routed": list(self.updates_routed),
            "transactions_routed": list(self.transactions_routed),
            "routing_errors": self.routing_errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owned = [self.counts(shard) for shard in range(self.shards)]
        return f"<ShardRouter shards={self.shards} owned={owned}>"


# ----------------------------------------------------------------------
# Topology control records
# ----------------------------------------------------------------------
class Topology:
    """The shard map at one epoch: the routing function and its workers.

    One value describes a deployment to everything that routes by it:
    the :class:`ShardRouter` (``shards`` is its count), the ``epoch``,
    and one ``workers`` entry per shard,
    ``{"shard": i, "host": h, "port": p, "status": s}``.  A standalone
    server is the one-shard map naming itself.  The supervisor owns the
    authoritative instance and moves it with :meth:`publish`; the routing
    plane reads it directly, and shard workers keep their own copy, fed
    by the supervisor's ``topology(epoch, workers)`` pipe broadcast
    through :meth:`apply`.  Routing decisions read :meth:`port_of` /
    :meth:`status_of` at use time, so a refresh takes effect on the very
    next record; :meth:`record` is what smart clients are served, and
    :meth:`from_record` rebuilds the whole map from it.
    """

    def __init__(
        self,
        router: ShardRouter,
        *,
        epoch: int = 0,
        workers: "list[dict] | None" = None,
    ) -> None:
        self.router = router
        self.shards = router.shards
        self.epoch = epoch
        self.workers = workers or [
            {"shard": i, "host": "127.0.0.1", "port": 0, "status": "starting"}
            for i in range(self.shards)
        ]

    def apply(self, epoch: int, workers: "list[dict]") -> None:
        self.epoch = epoch
        self.workers = workers

    def publish(self, workers: "list[dict]") -> bool:
        """Adopt a worker table; the epoch advances exactly when it
        changed.  Returns whether it did."""
        if workers == self.workers:
            return False
        self.apply(self.epoch + 1, workers)
        return True

    def port_of(self, shard: int) -> int:
        return self.workers[shard]["port"]

    def host_of(self, shard: int) -> str:
        return self.workers[shard]["host"]

    def status_of(self, shard: int) -> str:
        return self.workers[shard]["status"]

    def record(self) -> dict:
        """The ``{"kind": "topology"}`` control record served to smart
        clients: everything they need to rebuild the exact routing
        function (it is deterministic from ``n_low`` / ``n_high`` /
        ``shards``), the worker endpoints and the epoch."""
        return {
            "kind": "topology",
            "router_version": ROUTER_VERSION,
            "shards": self.shards,
            "n_low": self.router.n_low,
            "n_high": self.router.n_high,
            "epoch": self.epoch,
            "workers": list(self.workers),
        }

    @classmethod
    def from_record(cls, record: dict) -> "Topology":
        """Rebuild the whole map from a :meth:`record`, refusing records
        produced by an incompatible routing function."""
        if record.get("kind") != "topology":
            raise ValueError(f"not a topology record: {record.get('kind')!r}")
        version = record.get("router_version")
        if version != ROUTER_VERSION:
            raise ValueError(
                f"topology router_version {version} != {ROUTER_VERSION}; "
                "client and cluster disagree on the routing function"
            )
        router = ShardRouter(
            int(record["n_low"]), int(record["n_high"]), int(record["shards"])
        )
        return cls(
            router, epoch=int(record["epoch"]), workers=list(record["workers"])
        )
