"""The main-memory database (paper sections 3.2 and 3.3).

Holds the two view partitions (low/high importance) and implements update
installation with the paper's *worthiness* check: an update whose
generation timestamp is not newer than the installed value is skipped (it
can only arise when updates are applied out of order — LIFO service or
On-Demand pulls).  General data is not stored: the paper folds its access
cost into transaction compute time, and it never goes stale.

The database itself is policy-free: all CPU cost accounting and scheduling
lives in :mod:`repro.core`.  A freshness ledger may subscribe to installs to
maintain exact staleness integrals.
"""

from __future__ import annotations

from typing import Protocol

from repro.config import SimulationConfig
from repro.db.objects import DataObject, ObjectClass, Update
from repro.db.transforms import Transformer

# Enum member access is a descriptor call; the install path tests it per update.
_VIEW_LOW = ObjectClass.VIEW_LOW


class InstallListener(Protocol):
    """Callback protocol for observers of update installation."""

    def note_install(
        self,
        obj: DataObject,
        old_generation: float,
        old_arrival_time: float,
        old_install_time: float,
        now: float,
    ) -> None:
        """Called after an update is applied to ``obj``."""


class Database:
    """The partitioned main-memory store.

    Attributes:
        low: Low-importance view objects (``N_l`` of them).
        high: High-importance view objects (``N_h`` of them).
        installs_applied: Updates actually applied.
        installs_skipped: Updates skipped by the worthiness check.
    """

    def __init__(
        self,
        n_low: int,
        n_high: int,
        attributes_per_object: int = 1,
        install_listener: InstallListener | None = None,
    ) -> None:
        if n_low < 0 or n_high < 0 or n_low + n_high == 0:
            raise ValueError(f"invalid view sizes: n_low={n_low}, n_high={n_high}")
        self.low = [
            DataObject(ObjectClass.VIEW_LOW, i, attributes_per_object)
            for i in range(n_low)
        ]
        self.high = [
            DataObject(ObjectClass.VIEW_HIGH, i, attributes_per_object)
            for i in range(n_high)
        ]
        self.install_listener = install_listener
        # Derived-view hook (repro.db.views.ViewRegistry); attached only
        # when a view is registered, unlike the swap-prone install_listener.
        self.views = None
        self.installs_applied = 0
        self.installs_skipped = 0
        # View-complexity extension (paper §2): per-partition update
        # transformers applied before the value is stored.
        self._transformers: dict[ObjectClass, "Transformer"] = {}

    @classmethod
    def from_config(
        cls,
        config: SimulationConfig,
        install_listener: InstallListener | None = None,
    ) -> "Database":
        """Build the database Table 1 describes."""
        updates = config.updates
        return cls(
            updates.n_low,
            updates.n_high,
            attributes_per_object=(
                updates.attributes_per_object if updates.partial_probability > 0 else 1
            ),
            install_listener=install_listener,
        )

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def view_object(self, klass: ObjectClass, object_id: int) -> DataObject:
        """Fetch a view object by partition and index."""
        if klass is ObjectClass.VIEW_LOW:
            return self.low[object_id]
        if klass is ObjectClass.VIEW_HIGH:
            return self.high[object_id]
        raise ValueError(f"{klass} is not a view partition")

    def partition(self, klass: ObjectClass) -> list[DataObject]:
        """All objects of a view partition."""
        if klass is ObjectClass.VIEW_LOW:
            return self.low
        if klass is ObjectClass.VIEW_HIGH:
            return self.high
        raise ValueError(f"{klass} is not a view partition")

    def view_objects(self):
        """Iterate every view object (low then high)."""
        yield from self.low
        yield from self.high

    @property
    def view_size(self) -> int:
        return len(self.low) + len(self.high)

    # ------------------------------------------------------------------
    # View complexity (paper §2 extension)
    # ------------------------------------------------------------------
    def set_transformer(self, klass: ObjectClass, transformer: Transformer | None) -> None:
        """Install (or clear, with None) an update transformer for a partition."""
        if not klass.is_view:
            raise ValueError("transformers apply to view partitions only")
        if transformer is None:
            self._transformers.pop(klass, None)
        else:
            self._transformers[klass] = transformer

    def has_transformer(self, klass: ObjectClass) -> bool:
        """True when installs into ``klass`` run a transformer (costing
        ``x_transform`` extra instructions in the controller's model)."""
        return klass in self._transformers

    # ------------------------------------------------------------------
    # Update installation
    # ------------------------------------------------------------------
    def would_apply(self, update: Update) -> bool:
        """Would :meth:`install` apply this update (the worthiness check)?

        The controller uses this to size the install burst: a skipped update
        pays only the lookup cost, not ``x_update``.
        """
        # An update's class is always a view partition (Update.__init__).
        obj = (self.low if update.klass is _VIEW_LOW else self.high)[update.object_id]
        if update.partial and obj.attribute_generations is not None:
            slot = update.attribute % len(obj.attribute_generations)
            return update.generation_time > obj.attribute_generations[slot]
        return update.generation_time > obj.generation_time

    def install(self, update: Update, now: float) -> bool:
        """Apply an update if it is worthy.

        Returns:
            True when the update was applied; False when the worthiness
            check skipped it because the database already holds an equal or
            newer value (paper section 3.3, step 4).
        """
        obj = (self.low if update.klass is _VIEW_LOW else self.high)[update.object_id]
        if update.partial and obj.attribute_generations is not None:
            # A partial update is worthless only relative to the attribute
            # it refreshes, not the whole object.
            slot = update.attribute % len(obj.attribute_generations)
            if update.generation_time <= obj.attribute_generations[slot]:
                self.installs_skipped += 1
                return False
        elif update.generation_time <= obj.generation_time:
            self.installs_skipped += 1
            return False
        old_generation = obj.generation_time
        old_arrival_time = obj.arrival_time
        old_install_time = obj.install_time
        old_value = obj.value
        transformers = self._transformers
        transformer = transformers.get(update.klass) if transformers else None
        stored_value = (
            update.value
            if transformer is None
            else transformer(obj.value, update.value)
        )
        if update.partial:
            obj.apply_partial(
                stored_value,
                update.generation_time,
                update.arrival_time,
                now,
                update.attribute,
            )
        else:
            obj.apply_full(
                stored_value, update.generation_time, update.arrival_time, now
            )
        self.installs_applied += 1
        if self.install_listener is not None:
            self.install_listener.note_install(
                obj, old_generation, old_arrival_time, old_install_time, now
            )
        if self.views is not None:
            self.views.note_base_install(obj, old_value, now)
        return True
