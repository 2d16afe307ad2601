"""Incremental derived views maintained by delta application (DBSP-style).

The paper's §3.2 motivates derived data — composite indices, position
tables, "running averages" — kept fresh by the update stream.  This module
supplies that layer: aggregate/group-by views declared over the base view
partitions (or over :class:`~repro.db.table.Table` rows), maintained
*incrementally*: every base install contributes a delta (``new - old``) to
per-group partial aggregates, so a single update touches O(1) view state.
Full recomputation survives only as a parity oracle
(:meth:`ViewRegistry.expected_values`).

Exactness is load-bearing.  Partial sums are kept as
:class:`fractions.Fraction` — every float is a dyadic rational, so
``Fraction(x)`` is exact and Fraction addition is associative — which makes
delta-maintained values *bit-identical* to a full recompute regardless of
the order installs arrived in, per shard and across shard merges
(:func:`merge_view_reports` ships partials as ``"num/den"`` strings).

Views are first-class stale-able objects: a view is stale whenever an
admitted-but-uninstalled base update would change it (the update queue
holds a strictly newer generation than some installed member — exactly the
worthiness condition the UU ledger tracks per object) or, for a deferred
view, while buffered deltas await a refresh.  The registry keeps an exact
per-view stale-interval ledger mirroring
:class:`~repro.metrics.freshness.UnappliedUpdateLedger`, and the fold over
all registered views surfaces as ``SimulationResult.fold_views``.

Sharding: each shard maintains its views over the members it owns, with
group keys computed from *global* object ids (via the key map installed by
the shard set / cluster worker), so shard-local states merge exactly.
Table-sourced views are process-local; registering one on a sharded
registry raises :class:`CrossShardViewError`.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from repro.db.objects import DataObject, ObjectClass
from repro.db.update_queue import ObjectKey

logger = logging.getLogger(__name__)

#: Supported aggregate kinds.
VIEW_KINDS = ("sum", "count", "mean", "top_k", "window_avg")

#: Kinds a Table-sourced view supports (windowing and top-K need install
#: times / the member keyspace, which table rows do not carry).
TABLE_VIEW_KINDS = ("sum", "count", "mean")

_PARTITIONS = {
    "low": ObjectClass.VIEW_LOW,
    "high": ObjectClass.VIEW_HIGH,
}
_PARTITION_NAMES = {klass: name for name, klass in _PARTITIONS.items()}


class ViewError(ValueError):
    """A view declaration or registration problem."""


class CrossShardViewError(ViewError):
    """The view cannot be maintained shard-locally.

    Raised when a Table-sourced view is registered on a sharded registry:
    table rows live in one process and carry no stable global keyspace, so
    their aggregates cannot be merged across shards.  Partition views never
    raise this — their group keys are global object ids and merge exactly.
    """


# ----------------------------------------------------------------------
# Exact rational plumbing
# ----------------------------------------------------------------------
def _rat(value: float) -> Fraction:
    """Exact rational of a float (floats are dyadic rationals)."""
    return Fraction(value)


def rational_str(value: Fraction) -> str:
    """Wire form of an exact partial sum (JSON-safe, lossless)."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`rational_str`."""
    numerator, _, denominator = text.partition("/")
    return Fraction(int(numerator), int(denominator or "1"))


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ViewSpec:
    """Declaration of one aggregate view over a base view partition.

    Attributes:
        name: Unique registry name.
        kind: One of :data:`VIEW_KINDS`.
        klass: Source partition (``VIEW_LOW`` or ``VIEW_HIGH``).
        groups: Group-by fanout; member ``gid`` lands in group
            ``gid % groups`` (sum/count/mean only; top_k and window_avg
            aggregate the whole partition).
        k: Result size for ``top_k``.
        window: Lookback seconds for ``window_avg``.
        eager: True applies deltas inside each base install; False buffers
            them until an explicit :meth:`ViewRegistry.refresh` (the
            refresh-policy axis — cheap installs, stale-until-refreshed
            views).
    """

    name: str
    kind: str
    klass: ObjectClass
    groups: int = 1
    k: int = 8
    window: float = 1.0
    eager: bool = True

    def __post_init__(self) -> None:
        if not self.name or "=" in self.name or "," in self.name:
            raise ViewError(f"bad view name {self.name!r}")
        if self.kind not in VIEW_KINDS:
            raise ViewError(
                f"unknown view kind {self.kind!r}; known: {', '.join(VIEW_KINDS)}"
            )
        if not self.klass.is_view:
            raise ViewError(f"views derive from view partitions, not {self.klass}")
        if self.groups < 1:
            raise ViewError(f"groups must be >= 1, got {self.groups}")
        if self.k < 1:
            raise ViewError(f"k must be >= 1, got {self.k}")
        if self.window <= 0:
            raise ViewError(f"window must be > 0, got {self.window}")

    @property
    def partition(self) -> str:
        return _PARTITION_NAMES[self.klass]

    @classmethod
    def parse(cls, text: str) -> "ViewSpec":
        """Parse the CLI form ``NAME=KIND:PARTITION[,opt=value|deferred]``.

        Examples: ``by8=sum:low,groups=8`` · ``hot=top_k:high,k=4`` ·
        ``ravg=window_avg:low,window=0.5,deferred``.
        """
        name, sep, rest = text.partition("=")
        if not sep or not rest:
            raise ViewError(f"bad view spec {text!r}: want NAME=KIND:PARTITION[,...]")
        head, *options = rest.split(",")
        kind, sep, partition = head.partition(":")
        if not sep or partition not in _PARTITIONS:
            raise ViewError(
                f"bad view spec {text!r}: want KIND:low or KIND:high after '='"
            )
        kwargs: dict = {}
        for option in options:
            key, sep, value = option.partition("=")
            key = key.strip()
            if key == "deferred" and not sep:
                kwargs["eager"] = False
            elif key == "groups":
                kwargs["groups"] = int(value)
            elif key == "k":
                kwargs["k"] = int(value)
            elif key == "window":
                kwargs["window"] = float(value)
            else:
                raise ViewError(f"unknown view option {option!r} in {text!r}")
        return cls(name=name.strip(), kind=kind.strip(),
                   klass=_PARTITIONS[partition], **kwargs)

    def to_record(self) -> dict:
        """Wire/JSON form (for cluster workers and control records)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "partition": self.partition,
            "groups": self.groups,
            "k": self.k,
            "window": self.window,
            "eager": self.eager,
        }

    @classmethod
    def from_record(cls, record: dict) -> "ViewSpec":
        partition = record.get("partition")
        if partition not in _PARTITIONS:
            raise ViewError(f"bad partition {partition!r} in view record")
        return cls(
            name=str(record["name"]),
            kind=str(record["kind"]),
            klass=_PARTITIONS[partition],
            groups=int(record.get("groups", 1)),
            k=int(record.get("k", 8)),
            window=float(record.get("window", 1.0)),
            eager=bool(record.get("eager", True)),
        )


# ----------------------------------------------------------------------
# Aggregates: O(1) delta application + exact state
# ----------------------------------------------------------------------
class _Aggregate:
    """One view's materialized state; subclasses define the algebra."""

    def __init__(self, spec: ViewSpec) -> None:
        self.spec = spec

    def apply(self, gid: int, old_value: float, new_value: float,
              first: bool, install_time: float) -> None:
        raise NotImplementedError

    def values(self, now: float) -> object:
        """Readout (floats/ints, JSON-safe)."""
        raise NotImplementedError

    def state(self, now: float) -> dict:
        """Readout plus exact partials, for reports and shard merges."""
        raise NotImplementedError


class _SumAggregate(_Aggregate):
    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.sums = [Fraction(0)] * spec.groups

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        self.sums[gid % self.spec.groups] += _rat(new_value) - _rat(old_value)

    def values(self, now):
        return [float(total) for total in self.sums]

    def state(self, now):
        return {
            "values": self.values(now),
            "partials": {"sums": [rational_str(total) for total in self.sums]},
        }


class _CountAggregate(_Aggregate):
    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.counts = [0] * spec.groups

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        if first:
            self.counts[gid % self.spec.groups] += 1

    def values(self, now):
        return list(self.counts)

    def state(self, now):
        return {"values": self.values(now), "partials": {"counts": list(self.counts)}}


class _MeanAggregate(_Aggregate):
    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.sums = [Fraction(0)] * spec.groups
        self.counts = [0] * spec.groups

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        group = gid % self.spec.groups
        self.sums[group] += _rat(new_value) - _rat(old_value)
        if first:
            self.counts[group] += 1

    def values(self, now):
        return [
            float(total / count) if count else 0.0
            for total, count in zip(self.sums, self.counts)
        ]

    def state(self, now):
        return {
            "values": self.values(now),
            "partials": {
                "sums": [rational_str(total) for total in self.sums],
                "counts": list(self.counts),
            },
        }


def top_k_of(members: Iterable[tuple[int, float]], k: int) -> list[list]:
    """Top ``k`` of (gid, value) pairs: value desc, ties to the lower gid."""
    largest = heapq.nlargest(k, members, key=lambda item: (item[1], -item[0]))
    return [[gid, value] for gid, value in largest]


class _TopKAggregate(_Aggregate):
    """Partition-wide top-K of installed member values.

    Delta maintenance keeps the member→value map current in O(1) per
    install; the K-row readout materializes lazily (O(n log k)) so base
    installs never pay a sort.
    """

    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.members: dict[int, float] = {}

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        self.members[gid] = new_value

    def values(self, now):
        return top_k_of(self.members.items(), self.spec.k)

    def state(self, now):
        # The global top-K of a union is contained in the union of the
        # shard-local top-Ks, so shipping K rows per shard merges exactly.
        return {"values": self.values(now), "partials": {"top": self.values(now)}}


class _WindowAverageAggregate(_Aggregate):
    """Average over members installed within the last ``window`` seconds.

    Members are kept in an insertion-ordered dict; installs happen at
    non-decreasing times, so expiry only ever pops from the front (lazy,
    at readout).  The running (sum, count) partials stay exact Fractions.
    """

    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.entries: dict[int, tuple[float, float]] = {}  # gid -> (value, t)
        self.total = Fraction(0)
        self.count = 0

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        previous = self.entries.pop(gid, None)
        if previous is not None:
            self.total -= _rat(previous[0])
            self.count -= 1
        self.entries[gid] = (new_value, install_time)
        self.total += _rat(new_value)
        self.count += 1

    def _expire(self, now: float) -> None:
        horizon = now - self.spec.window
        while self.entries:
            gid, (value, installed) = next(iter(self.entries.items()))
            if installed > horizon:
                break
            del self.entries[gid]
            self.total -= _rat(value)
            self.count -= 1

    def values(self, now):
        self._expire(now)
        return float(self.total / self.count) if self.count else 0.0

    def state(self, now):
        self._expire(now)
        return {
            "values": self.values(now),
            "partials": {"sum": rational_str(self.total), "count": self.count},
        }


_AGGREGATES: dict[str, type[_Aggregate]] = {
    "sum": _SumAggregate,
    "count": _CountAggregate,
    "mean": _MeanAggregate,
    "top_k": _TopKAggregate,
    "window_avg": _WindowAverageAggregate,
}


# ----------------------------------------------------------------------
# Parity oracle: full recomputation with the same exact arithmetic
# ----------------------------------------------------------------------
def recompute(
    spec: ViewSpec,
    members: Iterable[tuple[int, DataObject]],
    now: float,
) -> object:
    """Recompute the view from scratch over (global id, object) members.

    The oracle the delta path is checked against: identical Fraction
    arithmetic, so any divergence is a maintenance bug, not float noise.
    """
    if spec.kind == "sum":
        sums = [Fraction(0)] * spec.groups
        for gid, obj in members:
            sums[gid % spec.groups] += _rat(obj.value)
        return [float(total) for total in sums]
    if spec.kind == "count":
        counts = [0] * spec.groups
        for gid, obj in members:
            if obj.installs > 0:
                counts[gid % spec.groups] += 1
        return counts
    if spec.kind == "mean":
        sums = [Fraction(0)] * spec.groups
        counts = [0] * spec.groups
        for gid, obj in members:
            sums[gid % spec.groups] += _rat(obj.value)
            if obj.installs > 0:
                counts[gid % spec.groups] += 1
        return [
            float(total / count) if count else 0.0
            for total, count in zip(sums, counts)
        ]
    if spec.kind == "top_k":
        installed = [(gid, obj.value) for gid, obj in members if obj.installs > 0]
        return top_k_of(installed, spec.k)
    if spec.kind == "window_avg":
        horizon = now - spec.window
        total = Fraction(0)
        count = 0
        for gid, obj in members:
            if obj.installs > 0 and obj.install_time > horizon:
                total += _rat(obj.value)
                count += 1
        return float(total / count) if count else 0.0
    raise ViewError(f"unknown view kind {spec.kind!r}")


# ----------------------------------------------------------------------
# Table-sourced views (process-local)
# ----------------------------------------------------------------------
class TableView:
    """A sum/count/mean group-by over a :class:`~repro.db.table.Table`.

    Maintained by the table's mutation listener: every upsert / delete /
    in-place update contributes an exact delta.  Table rows are general
    data in the paper's model — written by transactions, never stale — so
    table views carry no staleness ledger.
    """

    def __init__(self, name: str, table, kind: str, value_column: str,
                 group_column: str | None = None) -> None:
        if kind not in TABLE_VIEW_KINDS:
            raise ViewError(
                f"table views support {', '.join(TABLE_VIEW_KINDS)}, not {kind!r}"
            )
        self.name = name
        self.table = table
        self.kind = kind
        self.value_column = value_column
        self.group_column = group_column
        self.sums: dict[object, Fraction] = {}
        self.counts: dict[object, int] = {}
        self.refreshes = 0
        for row in table.scan():
            self._add(row)
        table.add_listener(self._on_mutation)

    def _group_of(self, row) -> object:
        return row[self.group_column] if self.group_column else "all"

    def _add(self, row) -> None:
        group = self._group_of(row)
        self.sums[group] = self.sums.get(group, Fraction(0)) + _rat(
            float(row[self.value_column])
        )
        self.counts[group] = self.counts.get(group, 0) + 1

    def _remove(self, row) -> None:
        group = self._group_of(row)
        self.sums[group] -= _rat(float(row[self.value_column]))
        self.counts[group] -= 1
        if self.counts[group] == 0:
            del self.counts[group]
            del self.sums[group]

    def _on_mutation(self, old_row, new_row) -> None:
        if old_row is not None:
            self._remove(old_row)
        if new_row is not None:
            self._add(new_row)
        self.refreshes += 1

    def values(self) -> dict:
        if self.kind == "sum":
            return {str(g): float(total) for g, total in self.sums.items()}
        if self.kind == "count":
            return {str(g): count for g, count in self.counts.items()}
        return {
            str(g): float(self.sums[g] / self.counts[g]) for g in self.counts
        }

    def expected_values(self) -> dict:
        """Full-recompute oracle over a fresh table scan."""
        sums: dict[object, Fraction] = {}
        counts: dict[object, int] = {}
        for row in self.table.scan():
            group = self._group_of(row)
            sums[group] = sums.get(group, Fraction(0)) + _rat(
                float(row[self.value_column])
            )
            counts[group] = counts.get(group, 0) + 1
        if self.kind == "sum":
            return {str(g): float(total) for g, total in sums.items()}
        if self.kind == "count":
            return {str(g): count for g, count in counts.items()}
        return {str(g): float(sums[g] / counts[g]) for g in counts}

    def report(self) -> dict:
        return {
            "source": "table",
            "kind": self.kind,
            "stale": False,
            "refreshes": self.refreshes,
            "values": self.values(),
        }


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class ViewRegistry:
    """Registered views plus their delta maintenance and staleness ledger.

    One registry per pipeline (shard).  Built unconditionally by
    ``build_parts`` but completely passive — the database install hook and
    the update-queue observer are only attached when the first view is
    registered, so unregistered runs pay nothing.
    """

    def __init__(self) -> None:
        self.specs: dict[str, ViewSpec] = {}
        self.table_views: dict[str, TableView] = {}
        self._aggregates: dict[str, _Aggregate] = {}
        self._by_klass: dict[ObjectClass, list[str]] = {}
        self._pending: dict[str, list[tuple[int, float, float, bool, float]]] = {}
        # Per-view exact stale-interval ledger (mirrors UnappliedUpdateLedger).
        self.stale_seconds: dict[str, float] = {}
        self._stale_since: dict[str, float] = {}
        self._stale_keys: dict[ObjectClass, set[ObjectKey]] = {}
        self.measure_start = 0.0
        self._finalized = False
        self._final_now: float | None = None
        # Counters.
        self.refreshes = 0
        self.refresh_counts: dict[str, int] = {}
        self.deltas_buffered = 0
        # Wiring.
        self._database = None
        self._queue = None
        self._controller = None
        self._cpu = None
        self._seconds_per_refresh = 0.0
        self.x_view_refresh = 0
        self._key_map: Callable[[ObjectClass, int], int] | None = None
        self._hooked = False
        self._eager_instructions: dict[ObjectClass, int] = {}
        #: Test hook: recompute and compare after every applied delta.
        self.self_check = False

    # -- wiring ----------------------------------------------------------
    def bind(self, database, queue, *, controller=None,
             x_view_refresh: int = 0, cpu=None,
             seconds_per_refresh: float = 0.0) -> None:
        """Attach the pipeline; hooks are deferred to first registration."""
        self._database = database
        self._queue = queue
        self._controller = controller
        self.x_view_refresh = x_view_refresh
        self._cpu = cpu
        self._seconds_per_refresh = seconds_per_refresh

    def set_key_map(self, key_map: Callable[[ObjectClass, int], int] | None) -> None:
        """Install the shard-local→global id map (before registering).

        ``key_map(klass, local_id) -> global_id``; None means ids are
        already global (single pipeline).  A non-None map marks the
        registry sharded, which rejects Table-sourced views.
        """
        if self.specs or self.table_views:
            raise ViewError("set the key map before registering views")
        self._key_map = key_map

    @property
    def sharded(self) -> bool:
        return self._key_map is not None

    def _gid(self, klass: ObjectClass, local_id: int) -> int:
        if self._key_map is None:
            return local_id
        return self._key_map(klass, local_id)

    def _ensure_hooked(self) -> None:
        if self._hooked:
            return
        if self._database is None or self._queue is None:
            raise ViewError("bind() the registry before registering views")
        self._database.views = self
        previous = self._queue.observer
        if previous is None:
            self._queue.observer = self._on_queue_event
        else:
            def chained(key, now, _previous=previous):
                _previous(key, now)
                self._on_queue_event(key, now)
            self._queue.observer = chained
        if self._controller is not None:
            self._controller.views = self
        self._hooked = True

    # -- registration ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs) + len(self.table_views)

    def register(self, spec: ViewSpec, now: float = 0.0) -> ViewSpec:
        """Register a partition view and materialize its current state."""
        if spec.name in self.specs or spec.name in self.table_views:
            raise ViewError(f"view {spec.name!r} is already registered")
        self._ensure_hooked()
        aggregate = _AGGREGATES[spec.kind](spec)
        # Materialize from the members already installed, so mid-run
        # registration starts consistent with the database — in install
        # order, which is what the aggregates see from live deltas (the
        # windowed average expires from the front of that order).
        installed = [
            obj for obj in self._database.partition(spec.klass)
            if obj.installs > 0
        ]
        installed.sort(key=lambda obj: obj.install_time)
        for obj in installed:
            aggregate.apply(
                self._gid(spec.klass, obj.object_id),
                0.0, obj.value, True, obj.install_time,
            )
        self.specs[spec.name] = spec
        self._aggregates[spec.name] = aggregate
        self._by_klass.setdefault(spec.klass, []).append(spec.name)
        if not spec.eager:
            self._pending[spec.name] = []
        self.stale_seconds[spec.name] = 0.0
        self.refresh_counts[spec.name] = 0
        self._recount_eager_instructions()
        if spec.klass not in self._stale_keys:
            self._stale_keys[spec.klass] = {
                obj.key
                for obj in self._database.partition(spec.klass)
                if self._key_is_stale(obj.key)
            }
        self._refresh_view_staleness(spec.name, now)
        return spec

    def register_table(self, name: str, table, kind: str, value_column: str,
                       group_column: str | None = None) -> TableView:
        """Register a process-local Table-sourced view."""
        if self.sharded:
            raise CrossShardViewError(
                f"table view {name!r}: Table rows are process-local and have "
                "no global keyspace; register table views on unsharded "
                "pipelines only"
            )
        if name in self.specs or name in self.table_views:
            raise ViewError(f"view {name!r} is already registered")
        view = TableView(name, table, kind, value_column, group_column)
        self.table_views[name] = view
        return view

    # -- base hooks ------------------------------------------------------
    def note_base_install(self, obj: DataObject, old_value: float,
                          now: float) -> None:
        """Called by :meth:`Database.install` after every applied update."""
        klass = obj.klass
        names = self._by_klass.get(klass)
        if names is None:
            return
        first = obj.installs == 1
        gid = self._gid(klass, obj.object_id)
        for name in names:
            spec = self.specs[name]
            if spec.eager:
                self._aggregates[name].apply(gid, old_value, obj.value, first, now)
                self.refreshes += 1
                self.refresh_counts[name] += 1
            else:
                self._pending[name].append((gid, old_value, obj.value, first, now))
                self.deltas_buffered += 1
        # The install may have caught the object up to (or past) the newest
        # queued generation — re-evaluate its contribution to staleness.
        self._note_key(obj.key, now)
        if self.self_check:
            self.assert_parity(now)

    def _on_queue_event(self, key: ObjectKey, now: float) -> None:
        if key[0] in self._stale_keys:
            self._note_key(key, now)

    def _key_is_stale(self, key: ObjectKey) -> bool:
        newest = self._queue.newest_generation_for(key)
        if newest is None:
            return False
        return newest > self._database.view_object(*key).generation_time

    def _note_key(self, key: ObjectKey, now: float) -> None:
        stale_keys = self._stale_keys.get(key[0])
        if stale_keys is None:
            return
        if self._key_is_stale(key):
            stale_keys.add(key)
        else:
            stale_keys.discard(key)
        for name in self._by_klass.get(key[0], ()):
            self._refresh_view_staleness(name, now)

    def _view_is_stale(self, name: str) -> bool:
        spec = self.specs[name]
        if self._stale_keys.get(spec.klass):
            return True
        return bool(self._pending.get(name))

    def _refresh_view_staleness(self, name: str, now: float) -> None:
        stale = self._view_is_stale(name)
        open_since = self._stale_since.get(name)
        if stale and open_since is None:
            self._stale_since[name] = now
        elif not stale and open_since is not None:
            self.stale_seconds[name] += now - open_since
            del self._stale_since[name]

    # -- refresh (deferred views) ----------------------------------------
    def pending_deltas(self, name: str | None = None) -> int:
        if name is not None:
            return len(self._pending.get(name, ()))
        return sum(len(buffered) for buffered in self._pending.values())

    def refresh(self, now: float) -> int:
        """Apply every buffered delta; returns how many were applied.

        Refresh work is charged to update CPU (rho_u) when the registry is
        bound to a cost model, mirroring the controller's eager-path charge.
        """
        applied = 0
        for name, buffered in self._pending.items():
            if not buffered:
                continue
            aggregate = self._aggregates[name]
            for gid, old_value, new_value, first, install_time in buffered:
                aggregate.apply(gid, old_value, new_value, first, install_time)
            applied += len(buffered)
            self.refreshes += len(buffered)
            self.refresh_counts[name] += len(buffered)
            buffered.clear()
            self._refresh_view_staleness(name, now)
        if applied and self._cpu is not None and self._seconds_per_refresh > 0:
            self._cpu.charge("update", applied * self._seconds_per_refresh)
        return applied

    def eager_refresh_instructions(self, klass: ObjectClass) -> int:
        """Instructions one install into ``klass`` adds for eager views."""
        return self._eager_instructions.get(klass, 0)

    def _recount_eager_instructions(self) -> None:
        counts: dict[ObjectClass, int] = {}
        for spec in self.specs.values():
            if spec.eager:
                counts[spec.klass] = counts.get(spec.klass, 0) + 1
        self._eager_instructions = {
            klass: count * self.x_view_refresh for klass, count in counts.items()
        }

    # -- measurement lifecycle (FreshnessLedger conventions) -------------
    def begin_measurement(self, now: float) -> None:
        self.measure_start = now
        for name in self.stale_seconds:
            self.stale_seconds[name] = 0.0
        for name in self._stale_since:
            self._stale_since[name] = now
        self.refreshes = 0
        self.deltas_buffered = 0
        for name in self.refresh_counts:
            self.refresh_counts[name] = 0

    def finalize(self, now: float) -> None:
        """Apply outstanding deferred deltas and close open stale intervals."""
        if self._finalized:
            return
        self.refresh(now)
        for name, since in self._stale_since.items():
            self.stale_seconds[name] += now - since
        self._stale_since.clear()
        self._finalized = True
        self._final_now = now

    def snapshot_stale_seconds(self, now: float) -> dict[str, float]:
        """Closed intervals plus open tails at ``now``, without mutating."""
        snapshot = dict(self.stale_seconds)
        for name, since in self._stale_since.items():
            snapshot[name] += now - since
        return snapshot

    def stale_fraction(self, duration: float) -> float:
        """The fold over all registered partition views (end of run)."""
        if not self.specs:
            return 0.0
        if not self._finalized:
            raise RuntimeError("call finalize() before reading stale fractions")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        return sum(self.stale_seconds.values()) / (duration * len(self.specs))

    def snapshot_stale_fraction(self, now: float, duration: float) -> float:
        """Mid-run fold over all registered partition views."""
        if not self.specs or duration <= 0:
            return 0.0
        return sum(self.snapshot_stale_seconds(now).values()) / (
            duration * len(self.specs)
        )

    # -- parity oracle ---------------------------------------------------
    def _members(self, klass: ObjectClass) -> list[tuple[int, DataObject]]:
        return [
            (self._gid(klass, obj.object_id), obj)
            for obj in self._database.partition(klass)
        ]

    def expected_values(self, name: str, now: float) -> object:
        """Full recomputation of one view (the parity oracle)."""
        spec = self.specs[name]
        return recompute(spec, self._members(spec.klass), now)

    def assert_parity(self, now: float) -> None:
        """Check every *caught-up* view against full recomputation.

        Deferred views with buffered deltas are intentionally behind the
        base (that is their staleness) and are skipped until refreshed.
        """
        for name in self.specs:
            if self._pending.get(name):
                continue
            maintained = self._aggregates[name].values(now)
            expected = self.expected_values(name, now)
            if maintained != expected:
                raise AssertionError(
                    f"view {name!r} diverged from recompute at t={now}: "
                    f"delta={maintained!r} oracle={expected!r}"
                )
        for name, view in self.table_views.items():
            maintained = view.values()
            expected = view.expected_values()
            if maintained != expected:
                raise AssertionError(
                    f"table view {name!r} diverged from recompute: "
                    f"delta={maintained!r} oracle={expected!r}"
                )

    # -- reporting -------------------------------------------------------
    def report(self, now: float | None = None) -> dict:
        """Per-view state for ``extras["views"]`` (JSON-safe, mergeable)."""
        if now is None:
            now = self._final_now if self._final_now is not None else 0.0
        stale_seconds = self.snapshot_stale_seconds(now)
        out: dict[str, dict] = {}
        for name, spec in self.specs.items():
            entry = {
                "source": "partition",
                "stale": self._view_is_stale(name),
                "pending_deltas": self.pending_deltas(name),
                "refreshes": self.refresh_counts[name],
                "stale_seconds": stale_seconds[name],
                **spec.to_record(),
            }
            entry.update(self._aggregates[name].state(now))
            out[name] = entry
        for name, view in self.table_views.items():
            out[name] = view.report()
        return out


# ----------------------------------------------------------------------
# Exact cross-shard merge of view reports
# ----------------------------------------------------------------------
def merge_view_reports(reports: "list[dict]") -> dict:
    """Merge per-shard ``extras["views"]`` dicts into the global view state.

    Partial sums travel as exact rationals, so the merged values are
    bit-identical to an unsharded maintenance of the same installs.  Every
    shard registers the same view specs, so names must agree.
    """
    merged: dict[str, dict] = {}
    for report in reports:
        for name, entry in report.items():
            if entry.get("source") == "table":
                raise CrossShardViewError(
                    f"table view {name!r} leaked into a sharded merge"
                )
            if name not in merged:
                merged[name] = {
                    key: value for key, value in entry.items()
                    if key not in ("values", "partials")
                }
                merged[name]["partials"] = _copy_partials(entry["partials"])
                continue
            target = merged[name]
            if target.get("kind") != entry.get("kind"):
                raise ViewError(
                    f"view {name!r} kind disagrees across shards: "
                    f"{target.get('kind')!r} != {entry.get('kind')!r}"
                )
            target["stale"] = target["stale"] or entry["stale"]
            target["pending_deltas"] += entry["pending_deltas"]
            target["refreshes"] += entry["refreshes"]
            target["stale_seconds"] += entry["stale_seconds"]
            _merge_partials(entry["kind"], target["partials"], entry["partials"],
                            k=int(entry.get("k", 1)))
    for entry in merged.values():
        entry["values"] = _values_from_partials(entry["kind"], entry["partials"])
    return merged


def _copy_partials(partials: dict) -> dict:
    copied: dict = {}
    for key, value in partials.items():
        copied[key] = list(value) if isinstance(value, list) else value
    return copied


def _merge_partials(kind: str, target: dict, source: dict, *, k: int) -> None:
    if kind == "sum":
        target["sums"] = _sum_rationals(target["sums"], source["sums"])
    elif kind == "count":
        target["counts"] = [
            a + b for a, b in zip(target["counts"], source["counts"])
        ]
    elif kind == "mean":
        target["sums"] = _sum_rationals(target["sums"], source["sums"])
        target["counts"] = [
            a + b for a, b in zip(target["counts"], source["counts"])
        ]
    elif kind == "top_k":
        pool = [tuple(row) for row in target["top"]] + [
            tuple(row) for row in source["top"]
        ]
        target["top"] = top_k_of(pool, k)
    elif kind == "window_avg":
        total = parse_rational(target["sum"]) + parse_rational(source["sum"])
        target["sum"] = rational_str(total)
        target["count"] += source["count"]
    else:
        raise ViewError(f"unknown view kind {kind!r}")


def _sum_rationals(left: "list[str]", right: "list[str]") -> "list[str]":
    return [
        rational_str(parse_rational(a) + parse_rational(b))
        for a, b in zip(left, right)
    ]


def _values_from_partials(kind: str, partials: dict) -> object:
    if kind == "sum":
        return [float(parse_rational(total)) for total in partials["sums"]]
    if kind == "count":
        return list(partials["counts"])
    if kind == "mean":
        return [
            float(parse_rational(total) / count) if count else 0.0
            for total, count in zip(partials["sums"], partials["counts"])
        ]
    if kind == "top_k":
        return [list(row) for row in partials["top"]]
    if kind == "window_avg":
        count = partials["count"]
        return float(parse_rational(partials["sum"]) / count) if count else 0.0
    raise ViewError(f"unknown view kind {kind!r}")
