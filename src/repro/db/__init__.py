"""Main-memory real-time database substrate.

The portion of the STRIP system the paper's model depends on: a
partitioned object store (view data split into low/high importance), a
bounded OS message queue, the generation-ordered update queue, and the
staleness definitions of paper section 2.
"""

from repro.db.database import Database
from repro.db.objects import DataObject, ObjectClass, Update
from repro.db.os_queue import OSQueue
from repro.db.sharding import ROUTER_VERSION, ShardRouter, stable_hash
from repro.db.staleness import (
    CombinedStaleness,
    MaxAgeArrivalStaleness,
    MaxAgeStaleness,
    StalenessChecker,
    UnappliedUpdateStaleness,
    make_staleness_checker,
)
from repro.db.transforms import clamp, exponential_average, identity, scale
from repro.db.update_queue import PartitionedUpdateQueue, UpdateQueue

__all__ = [
    "CombinedStaleness",
    "Database",
    "DataObject",
    "MaxAgeArrivalStaleness",
    "MaxAgeStaleness",
    "ObjectClass",
    "OSQueue",
    "PartitionedUpdateQueue",
    "ROUTER_VERSION",
    "ShardRouter",
    "StalenessChecker",
    "UnappliedUpdateStaleness",
    "Update",
    "UpdateQueue",
    "clamp",
    "exponential_average",
    "identity",
    "make_staleness_checker",
    "scale",
    "stable_hash",
]
