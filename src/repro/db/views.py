"""Incremental derived views maintained by delta application (DBSP-style).

The paper's §3.2 motivates derived data — composite indices, position
tables, "running averages" — kept fresh by the update stream.  This module
supplies that layer: aggregate/group-by views over the base view
partitions, maintained *incrementally*: every base install contributes a
delta (``new - old``) to per-group partial aggregates, so a single update
touches O(1) view state.  Full recomputation survives only as a parity
oracle (:meth:`ViewRegistry.expected_values`).

Exactness is load-bearing.  Every finite double is an integer multiple of
2^-1074, so a partial sum is a Python ``int`` at that fixed binary scale:
a delta is a shift and an add, an element of an abelian group as in DBSP,
with no gcd.  Integer addition is associative, so delta-maintained values
are *bit-identical* to a full recompute in any install order, per shard
and across shard merges; a readout is one correctly rounded ``int / int``
division, exactly what ``float(Fraction)`` does.  Reports carry the
partials as reduced ``"num/den"`` strings (:func:`merge_view_reports`).

Views are first-class stale-able objects: a view is stale whenever an
admitted-but-uninstalled base update would change it (the update queue
holds a strictly newer generation than some installed member — the UU
ledger's worthiness condition) or, for a deferred view, while buffered
deltas await a refresh.  The registry keeps each partition's stale ids
and touches a view's exact stale interval only when that set, or a
deferred view's buffer, turns empty or non-empty; the fold over all views
surfaces as ``SimulationResult.fold_views``.

Sharding: each shard maintains its views over the members it owns, with
group keys computed from *global* object ids (via the key map a cluster
worker installs), so shard-local states merge exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from repro.db.objects import DataObject, ObjectClass
from repro.db.update_queue import ObjectKey

#: Supported aggregate kinds.
VIEW_KINDS = ("sum", "count", "mean", "top_k", "window_avg")

_PARTITIONS = {
    "low": ObjectClass.VIEW_LOW,
    "high": ObjectClass.VIEW_HIGH,
}
_PARTITION_NAMES = {klass: name for name, klass in _PARTITIONS.items()}


class ViewError(ValueError):
    """A view declaration or registration problem."""


# ----------------------------------------------------------------------
# Exact plumbing: fixed-point partials, rational wire strings
# ----------------------------------------------------------------------
#: Partials are integers in units of 2^-SCALE, the smallest subnormal.
SCALE = 1074
_ONE = 1 << SCALE


def _fix(value: float) -> int:
    """``value`` in units of 2^-1074, exactly (a finite double's
    denominator is a power of two no larger than 2^1074)."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (SCALE + 1 - denominator.bit_length())


def _fixed_str(total: int) -> str:
    """Wire form of a fixed-point partial: its reduced ``num/den``."""
    return rational_str(Fraction(total, _ONE))


def _parse_fixed(text: str) -> int:
    """Inverse of :func:`_fixed_str`."""
    value = Fraction(text)
    scale, rest = divmod(_ONE, value.denominator)
    if rest:
        raise ViewError(f"partial {text!r} is not a multiple of 2^-{SCALE}")
    return value.numerator * scale


def rational_str(value: Fraction) -> str:
    """Wire form of an exact partial sum (JSON-safe, lossless); the
    ``Fraction`` constructor parses it back."""
    return f"{value.numerator}/{value.denominator}"


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
            aggregate the whole partition).  Registration refuses more
            groups than the partition has objects.
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
        if not self.window > 0:  # NaN too: a JSON ``NaN`` parses to one
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
    """One view's materialized state.  Subclasses define ``apply`` (one
    delta), ``values`` (the JSON-safe readout), ``partials`` (the exact
    state behind it) and ``merge`` (add another shard's partials)."""

    def __init__(self, spec: ViewSpec) -> None:
        self.spec = spec

    def state(self, now: float) -> dict:
        """Readout plus exact partials, for reports and shard merges."""
        return {"values": self.values(now), "partials": self.partials()}


class _SumAggregate(_Aggregate):
    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.sums = [0] * spec.groups  # fixed point, units of 2^-SCALE

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        self.sums[gid % self.spec.groups] += _fix(new_value) - _fix(old_value)

    def values(self, now):
        return [total / _ONE for total in self.sums]

    def partials(self):
        return {"sums": [_fixed_str(total) for total in self.sums]}

    def merge(self, partials):
        self.sums = [a + _parse_fixed(b) for a, b in zip(self.sums, partials["sums"])]


class _CountAggregate(_Aggregate):
    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.counts = [0] * spec.groups

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        if first:
            self.counts[gid % self.spec.groups] += 1

    def values(self, now):
        return list(self.counts)

    def partials(self):
        return {"counts": list(self.counts)}

    def merge(self, partials):
        self.counts = [a + b for a, b in zip(self.counts, partials["counts"])]


class _MeanAggregate(_Aggregate):
    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.sums = [0] * spec.groups  # fixed point, units of 2^-SCALE
        self.counts = [0] * spec.groups

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        group = gid % self.spec.groups
        self.sums[group] += _fix(new_value) - _fix(old_value)
        if first:
            self.counts[group] += 1

    def values(self, now):
        return [
            total / (count << SCALE) if count else 0.0
            for total, count in zip(self.sums, self.counts)
        ]

    def partials(self):
        return {"sums": [_fixed_str(total) for total in self.sums],
                "counts": list(self.counts)}

    def merge(self, partials):
        _SumAggregate.merge(self, partials)
        _CountAggregate.merge(self, partials)


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

    def partials(self):
        # The global top-K of a union is contained in the union of the
        # shard-local top-Ks, so shipping K rows per shard merges exactly.
        return {"top": top_k_of(self.members.items(), self.spec.k)}

    def merge(self, partials):
        self.members.update(partials["top"])  # shards own disjoint gids


class _WindowAverageAggregate(_Aggregate):
    """Average over members installed within the last ``window`` seconds.

    Members are kept in an insertion-ordered dict; installs happen at
    non-decreasing times, so expiry only ever pops from the front (lazy,
    at readout).  The running (sum, count) partials stay exact: the sum in
    fixed point.
    """

    def __init__(self, spec: ViewSpec) -> None:
        super().__init__(spec)
        self.entries: dict[int, tuple[float, float]] = {}  # gid -> (value, t)
        self.total = 0  # fixed point, units of 2^-SCALE
        self.count = 0

    def apply(self, gid, old_value, new_value, first, install_time) -> None:
        previous = self.entries.pop(gid, None)
        if previous is not None:
            self.total -= _fix(previous[0])
            self.count -= 1
        self.entries[gid] = (new_value, install_time)
        self.total += _fix(new_value)
        self.count += 1

    def _expire(self, now: float) -> None:
        horizon = now - self.spec.window
        while self.entries:
            gid, (value, installed) = next(iter(self.entries.items()))
            if installed > horizon:
                break
            del self.entries[gid]
            self.total -= _fix(value)
            self.count -= 1

    def state(self, now):
        self._expire(now)
        return super().state(now)

    def values(self, now):
        self._expire(now)
        return self.total / (self.count << SCALE) if self.count else 0.0

    def partials(self):
        return {"sum": _fixed_str(self.total), "count": self.count}

    def merge(self, partials):
        self.total += _parse_fixed(partials["sum"])
        self.count += partials["count"]


_AGGREGATES: dict[str, type[_Aggregate]] = {
    "sum": _SumAggregate,
    "count": _CountAggregate,
    "mean": _MeanAggregate,
    "top_k": _TopKAggregate,
    "window_avg": _WindowAverageAggregate,
}


# ----------------------------------------------------------------------
# Parity oracle: full recomputation in independent exact arithmetic
# ----------------------------------------------------------------------
def recompute(
    spec: ViewSpec,
    members: Iterable[tuple[int, DataObject]],
    now: float,
) -> object:
    """Recompute the view from scratch over (global id, object) members.

    The oracle the delta path is checked against.  It sums in
    :class:`~fractions.Fraction` and shares no arithmetic with the
    fixed-point partials, yet both are exact, so any divergence is a
    maintenance bug, not float noise.
    """
    members = list(members)
    installed = [(gid, obj) for gid, obj in members if obj.installs > 0]
    if spec.kind == "top_k":
        return top_k_of([(gid, obj.value) for gid, obj in installed], spec.k)
    if spec.kind == "window_avg":
        horizon = now - spec.window
        recent = [Fraction(obj.value) for _, obj in installed
                  if obj.install_time > horizon]
        return float(sum(recent, Fraction(0)) / len(recent)) if recent else 0.0
    sums = [Fraction(0)] * spec.groups
    counts = [0] * spec.groups
    for gid, obj in members:
        sums[gid % spec.groups] += Fraction(obj.value)
        counts[gid % spec.groups] += obj.installs > 0
    if spec.kind == "sum":
        return [float(total) for total in sums]
    if spec.kind == "count":
        return counts
    if spec.kind == "mean":
        return [float(total / count) if count else 0.0
                for total, count in zip(sums, counts)]
    raise ViewError(f"unknown view kind {spec.kind!r}")


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class _Partition:
    """One base partition's view state.  ``stale`` holds the ids with a
    strictly newer generation queued than installed, and ``since`` when
    it last turned non-empty (None while empty): the one stale interval
    the partition's eager views share.  ``installs`` counts installs since
    the measurement start — each eager view's refreshes."""

    __slots__ = ("objects", "gids", "stale", "since", "eager", "applies",
                 "deferred", "installs")

    def __init__(self, objects: list[DataObject], gids) -> None:
        self.objects, self.gids = objects, gids
        self.stale: set[int] = set()
        self.since: float | None = None
        self.eager: list[str] = []
        self.applies: list[Callable] = []  # the eager views' apply
        self.deferred: list[str] = []
        self.installs = 0


class ViewRegistry:
    """Registered views plus their delta maintenance and staleness ledger.

    One registry per pipeline (shard).  Built unconditionally by
    ``build_parts`` but completely passive — the database install hook and
    the update-queue observer are only attached when the first view is
    registered, so unregistered runs pay nothing.
    """

    def __init__(self) -> None:
        self.specs: dict[str, ViewSpec] = {}
        self._aggregates: dict[str, _Aggregate] = {}
        self._parts: dict[ObjectClass, _Partition] = {}
        self._pending: dict[str, list[tuple[int, float, float, bool, float]]] = {}
        # Per-view exact stale-interval ledger (mirrors UnappliedUpdateLedger).
        # An eager view shares its partition's interval (``_joined``: its
        # own start, when registered into an open one); a deferred view
        # keeps its own in ``_stale_since``.
        self.stale_seconds: dict[str, float] = {}
        self._joined: dict[str, float] = {}
        self._stale_since: dict[str, float] = {}
        self._finalized = False
        self._final_now: float | None = None
        self.refreshes = 0
        self.refresh_counts: dict[str, int] = {}  # deferred views
        self._counted_from: dict[str, int] = {}  # eager views: installs then
        self._database = self._queue = self._controller = self._cpu = None
        self._seconds_per_refresh = 0.0
        self.x_view_refresh = 0
        self._key_map: Callable[[ObjectClass, int], int] | None = None
        self._global_sizes: dict[ObjectClass, int] | None = None
        self._hooked = False
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

    def set_key_map(self, key_map: Callable[[ObjectClass, int], int] | None,
                    sizes: "dict[ObjectClass, int] | None" = None) -> None:
        """Install the shard-local→global id map (before registering).

        ``key_map(klass, local_id) -> global_id``; None means ids are
        already global (single pipeline).  ``sizes`` are the partitions'
        *global* sizes, which bound a view's ``groups``; None means the
        local partitions are the whole keyspace.
        """
        if self.specs:
            raise ViewError("set the key map before registering views")
        self._key_map = key_map
        self._global_sizes = sizes

    def _gid(self, klass: ObjectClass, local_id: int) -> int:
        if self._key_map is None:
            return local_id
        return self._key_map(klass, local_id)

    def _ensure_hooked(self) -> None:
        if self._hooked:
            return
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

    def _partition(self, klass: ObjectClass, now: float) -> _Partition:
        """The partition's view state, built on its first view."""
        part = self._parts.get(klass)
        if part is None:
            objects = self._database.partition(klass)
            gids = [self._gid(klass, i) for i in range(len(objects))]
            part = self._parts[klass] = _Partition(objects, gids)
            for obj in objects:  # what is already queued
                self._on_queue_event(obj.key, now)
        return part

    # -- registration ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def register(self, spec: ViewSpec, now: float = 0.0) -> ViewSpec:
        """Register a partition view and materialize its current state."""
        if spec.name in self.specs:
            raise ViewError(f"view {spec.name!r} is already registered")
        if self._database is None or self._queue is None:
            raise ViewError("bind() the registry before registering views")
        # Every aggregate holds (and every report carries) one slot per
        # group, and groups past the partition's size stay empty forever.
        size = (len(self._database.partition(spec.klass))
                if self._global_sizes is None
                else self._global_sizes[spec.klass])
        if spec.groups > max(size, 1):
            raise ViewError(
                f"view {spec.name!r}: groups={spec.groups} exceeds the "
                f"{spec.partition} partition's {size} objects"
            )
        self._ensure_hooked()
        part = self._partition(spec.klass, now)
        aggregate = _AGGREGATES[spec.kind](spec)
        # Materialize from the members already installed, so mid-run
        # registration starts consistent with the database — in install
        # order, which is what the aggregates see from live deltas (the
        # windowed average expires from the front of that order).
        installed = [obj for obj in part.objects if obj.installs > 0]
        installed.sort(key=lambda obj: obj.install_time)
        for obj in installed:
            aggregate.apply(part.gids[obj.object_id], 0.0, obj.value, True,
                            obj.install_time)
        self.specs[spec.name] = spec
        self._aggregates[spec.name] = aggregate
        self.stale_seconds[spec.name] = 0.0
        if spec.eager:
            part.eager.append(spec.name)
            part.applies.append(aggregate.apply)
            self._counted_from[spec.name] = part.installs
            if part.since is not None:
                self._joined[spec.name] = now
        else:
            part.deferred.append(spec.name)
            self._pending[spec.name] = []
            self.refresh_counts[spec.name] = 0
            self._refresh_view_staleness(spec.name, now)
        return spec

    # -- base hooks ------------------------------------------------------
    def note_base_install(self, obj: DataObject, old_value: float,
                          now: float) -> None:
        """Called by :meth:`Database.install` after every applied update."""
        part = self._parts.get(obj.klass)
        if part is None:
            return
        object_id = obj.object_id
        gid = part.gids[object_id]
        first = obj.installs == 1
        applies = part.applies
        if applies:
            for apply in applies:
                apply(gid, old_value, obj.value, first, now)
            part.installs += 1
            self.refreshes += len(applies)
        for name in part.deferred:
            buffered = self._pending[name]
            buffered.append((gid, old_value, obj.value, first, now))
            if len(buffered) == 1:
                self._refresh_view_staleness(name, now)
        # The install may have caught a stale object up to (or past) the
        # newest queued generation; it cannot make a fresh one stale.
        if object_id in part.stale:
            self._on_queue_event((obj.klass, object_id), now)
        if self.self_check:
            self.assert_parity(now)

    def _on_queue_event(self, key: ObjectKey, now: float) -> None:
        """Re-judge one object; act only when its partition's set flips."""
        part = self._parts.get(key[0])
        if part is None:
            return
        object_id = key[1]
        newest = self._queue.newest_generation_for(key)
        stale = part.stale
        if newest is not None and newest > part.objects[object_id].generation_time:
            if object_id not in stale:
                stale.add(object_id)
                if len(stale) == 1:
                    self._partition_turned(part, now)
        elif object_id in stale:
            stale.discard(object_id)
            if not stale:
                self._partition_turned(part, now)

    def _partition_turned(self, part: _Partition, now: float) -> None:
        """Open or close the eager views' shared interval; re-judge the
        deferred views, whose buffers may keep them stale."""
        if part.stale:
            part.since = now
        elif part.since is not None:
            since, part.since = part.since, None
            for name in part.eager:
                self.stale_seconds[name] += now - self._joined.pop(name, since)
        for name in part.deferred:
            self._refresh_view_staleness(name, now)

    def _view_is_stale(self, name: str) -> bool:
        return bool(self._parts[self.specs[name].klass].stale
                    or self._pending.get(name))

    def _refresh_view_staleness(self, name: str, now: float) -> None:
        """Open or close a deferred view's own interval."""
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

    def _refreshes_of(self, name: str) -> int:
        spec = self.specs[name]
        if spec.eager:
            return self._parts[spec.klass].installs - self._counted_from[name]
        return self.refresh_counts[name]

    def eager_refresh_instructions(self, klass: ObjectClass) -> int:
        """Instructions one install into ``klass`` adds for eager views."""
        part = self._parts.get(klass)
        return 0 if part is None else len(part.eager) * self.x_view_refresh

    # -- measurement lifecycle (FreshnessLedger conventions) -------------
    def _open_intervals(self):
        """(view name, start) of every open stale interval."""
        joined = self._joined
        for part in self._parts.values():
            if part.since is not None:
                for name in part.eager:
                    yield name, joined.get(name, part.since)
        yield from self._stale_since.items()

    def begin_measurement(self, now: float) -> None:
        self.stale_seconds = dict.fromkeys(self.stale_seconds, 0.0)
        for part in self._parts.values():
            if part.since is not None:
                part.since = now
            part.installs = 0
        self._joined.clear()
        for name in self._stale_since:
            self._stale_since[name] = now
        self.refreshes = 0
        self.refresh_counts = dict.fromkeys(self.refresh_counts, 0)
        self._counted_from = dict.fromkeys(self._counted_from, 0)

    def finalize(self, now: float) -> None:
        """Apply outstanding deferred deltas and close open stale intervals."""
        if self._finalized:
            return
        self.refresh(now)
        for name, since in self._open_intervals():
            self.stale_seconds[name] += now - since
        for part in self._parts.values():
            part.since = None
        self._joined.clear()
        self._stale_since.clear()
        self._finalized = True
        self._final_now = now

    def snapshot_stale_seconds(self, now: float) -> dict[str, float]:
        """Closed intervals plus open tails at ``now``, without mutating."""
        snapshot = dict(self.stale_seconds)
        for name, since in self._open_intervals():
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

    # -- reporting -------------------------------------------------------
    def report(self, now: float | None = None) -> dict:
        """Per-view state for ``extras["views"]`` (JSON-safe, mergeable)."""
        if now is None:
            now = self._final_now if self._final_now is not None else 0.0
        stale_seconds = self.snapshot_stale_seconds(now)
        out: dict[str, dict] = {}
        for name, spec in self.specs.items():
            entry = {
                "stale": self._view_is_stale(name),
                "pending_deltas": self.pending_deltas(name),
                "refreshes": self._refreshes_of(name),
                "stale_seconds": stale_seconds[name],
                **spec.to_record(),
            }
            entry.update(self._aggregates[name].state(now))
            out[name] = entry
        return out


# ----------------------------------------------------------------------
# Exact cross-shard merge of view reports
# ----------------------------------------------------------------------
def merge_view_reports(reports: "list[dict]") -> dict:
    """Merge per-shard ``extras["views"]`` dicts into the global view state.

    Each view's shard partials are added into one aggregate of its kind,
    exactly, so the merged values are bit-identical to an unsharded
    maintenance of the same installs.  Every shard registers the same
    view specs, so names must agree.
    """
    merged: dict[str, dict] = {}
    aggregates: dict[str, _Aggregate] = {}
    for report in reports:
        for name, entry in report.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {key: value for key, value in entry.items()
                                if key not in ("values", "partials")}
                spec = ViewSpec.from_record(entry)
                aggregates[name] = _AGGREGATES[spec.kind](spec)
            elif target.get("kind") != entry.get("kind"):
                raise ViewError(
                    f"view {name!r} kind disagrees across shards: "
                    f"{target.get('kind')!r} != {entry.get('kind')!r}"
                )
            else:
                target["stale"] = target["stale"] or entry["stale"]
                target["pending_deltas"] += entry["pending_deltas"]
                target["refreshes"] += entry["refreshes"]
                target["stale_seconds"] += entry["stale_seconds"]
            aggregates[name].merge(entry["partials"])
    for name, entry in merged.items():
        state = aggregates[name].state(0.0)  # nothing left to expire
        entry["partials"] = state["partials"]
        entry["values"] = state["values"]
    return merged
