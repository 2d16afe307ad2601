"""Data objects and update records (paper sections 3.2 and 3.3).

The database holds two kinds of objects: *view* objects (imported
materialized views, refreshed only by the external update stream and split
into low/high importance sets) and *general* objects (read and written by
transactions, never stale in the paper's model).

An :class:`Update` is one message of the external stream: it carries the new
value of exactly one view object, a generation timestamp assigned at the
external source, and the arrival timestamp at the RTDB.
"""

from __future__ import annotations

import enum


class ObjectClass(enum.Enum):
    """Partition an object belongs to (paper Figure 1)."""

    VIEW_LOW = "view-low"
    VIEW_HIGH = "view-high"
    GENERAL = "general"

    @property
    def is_view(self) -> bool:
        return self is not ObjectClass.GENERAL

    # Enum's default __hash__ is a Python-level function, paid on every
    # (klass, object_id) dict operation of the update queue.  Members are
    # singletons compared by identity, so the identity hash is equivalent.
    __hash__ = object.__hash__


# Enum member access is a descriptor call; Update.__init__ tests it per record.
_GENERAL = ObjectClass.GENERAL


class DataObject:
    """One database object.

    View objects carry freshness bookkeeping: the generation timestamp of
    the current value (assigned by the external source), the time that value
    arrived at the RTDB, and the time it was installed.  For the partial-
    update extension each attribute keeps its own generation timestamp and
    the object's *effective* generation is the minimum (an object is only as
    fresh as its stalest attribute).

    Attributes:
        klass: Partition the object belongs to.
        object_id: Index within its partition.
        value: Current payload (opaque float in the simulation).
        generation_time: Effective generation timestamp of the current value.
        arrival_time: RTDB arrival timestamp of the current value (for the
            MA-arrival staleness variant).
        install_time: Simulated time the current value was installed.
        installs: Number of updates applied to this object.
    """

    __slots__ = (
        "klass",
        "object_id",
        "value",
        "generation_time",
        "arrival_time",
        "install_time",
        "installs",
        "attribute_generations",
    )

    def __init__(
        self,
        klass: ObjectClass,
        object_id: int,
        attribute_count: int = 1,
    ) -> None:
        if attribute_count < 1:
            raise ValueError("objects need at least one attribute")
        self.klass = klass
        self.object_id = object_id
        self.value = 0.0
        self.generation_time = 0.0
        self.arrival_time = 0.0
        self.install_time = 0.0
        self.installs = 0
        # Only allocate the per-attribute vector when it can diverge.
        if attribute_count > 1:
            self.attribute_generations: list[float] | None = [0.0] * attribute_count
        else:
            self.attribute_generations = None

    @property
    def key(self) -> tuple[ObjectClass, int]:
        """Hashable identity of the object."""
        return (self.klass, self.object_id)

    def age(self, now: float) -> float:
        """Age of the current value relative to its generation time."""
        return now - self.generation_time

    def apply_full(self, value: float, generation: float, arrival: float, now: float) -> None:
        """Install a complete update (all attributes refreshed)."""
        self.value = value
        self.generation_time = generation
        self.arrival_time = arrival
        self.install_time = now
        self.installs += 1
        if self.attribute_generations is not None:
            for index in range(len(self.attribute_generations)):
                self.attribute_generations[index] = generation

    def apply_partial(
        self,
        value: float,
        generation: float,
        arrival: float,
        now: float,
        attribute: int,
    ) -> None:
        """Install a partial update refreshing a single attribute.

        The effective generation becomes the minimum attribute generation,
        so a partial update only advances freshness once every attribute has
        been refreshed past the old value.
        """
        if self.attribute_generations is None:
            # Single-attribute objects degrade to full updates.
            self.apply_full(value, generation, arrival, now)
            return
        self.value = value
        self.attribute_generations[attribute % len(self.attribute_generations)] = generation
        self.generation_time = min(self.attribute_generations)
        self.arrival_time = arrival
        self.install_time = now
        self.installs += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataObject {self.klass.value}#{self.object_id} "
            f"gen={self.generation_time:.3f} installs={self.installs}>"
        )


class Update:
    """One message of the external update stream (paper Figure 2).

    Attributes:
        seq: Globally unique arrival sequence number.
        klass: Target partition (always a view partition).
        object_id: Target object within the partition.
        value: New payload value.
        generation_time: Timestamp assigned at the external source.
        arrival_time: Time the update arrived at the RTDB (generation time
            plus network transit age).
        partial: True for the partial-update extension (refreshes one
            attribute instead of the whole object).
        attribute: Attribute index targeted by a partial update.
    """

    __slots__ = (
        "seq",
        "klass",
        "object_id",
        "value",
        "generation_time",
        "arrival_time",
        "partial",
        "attribute",
        "queued",
    )

    def __init__(
        self,
        seq: int,
        klass: ObjectClass,
        object_id: int,
        value: float,
        generation_time: float,
        arrival_time: float,
        partial: bool = False,
        attribute: int = 0,
    ) -> None:
        if klass is _GENERAL:
            raise ValueError("updates target view objects only")
        if arrival_time < generation_time:
            raise ValueError(
                f"update arrived ({arrival_time}) before it was generated "
                f"({generation_time})"
            )
        self.seq = seq
        self.klass = klass
        self.object_id = object_id
        self.value = value
        self.generation_time = generation_time
        self.arrival_time = arrival_time
        self.partial = partial
        self.attribute = attribute
        self.queued = False

    @property
    def key(self) -> tuple[ObjectClass, int]:
        """Hashable identity of the target object."""
        return (self.klass, self.object_id)

    def transit_age(self) -> float:
        """Network transit time (arrival minus generation)."""
        return self.arrival_time - self.generation_time

    def age(self, now: float) -> float:
        """Age relative to generation time."""
        return now - self.generation_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Update #{self.seq} {self.klass.value}#{self.object_id} "
            f"gen={self.generation_time:.3f}>"
        )
