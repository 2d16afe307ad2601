"""Persistent, content-addressed cache of simulation results.

Every sweep cell is a pure function of ``(config, algorithm,
algorithm_kwargs, package version)`` — simulations are deterministic by
construction (common random numbers, seeded streams).  That makes results
perfectly memoizable: this module stores each cell's
:class:`~repro.metrics.results.SimulationResult` as one JSON file named by
the SHA-256 of a canonical encoding of everything that determines it.

Re-running any figure with a warm cache is then near-instant, and the
baseline λ_t sweep shared by Figures 3/4/5/6/12/13 runs once ever per
scale.  The cache is safe for concurrent writers (atomic rename) and
degrades gracefully: a corrupted or incompatible entry produces a warning
and a recompute, never a wrong result.

The version string participates in the fingerprint, so upgrading the
package invalidates every entry automatically.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import warnings
from dataclasses import asdict
from pathlib import Path

from repro import __version__
from repro.config import SimulationConfig
from repro.metrics.results import SimulationResult
from repro.metrics.storage import result_from_dict, result_to_dict

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache``."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(override) if override else Path(DEFAULT_CACHE_DIR)


def _canonical(value):
    """A JSON-encodable canonical form of a config/kwargs fragment."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {
            str(key): _canonical(val)
            for key, val in sorted(value.items(), key=lambda item: str(item[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    # Anything exotic (e.g. a callable in algorithm kwargs) still gets a
    # deterministic-enough spelling; collisions would need two objects with
    # identical reprs AND identical surrounding payloads.
    return repr(value)


def fingerprint(
    config: SimulationConfig,
    algorithm: str,
    kwargs: dict | None = None,
    extra: str = "",
    version: str | None = None,
) -> str:
    """Content address of one simulation cell.

    Args:
        config: The full (validated) simulation configuration.
        algorithm: Algorithm registry name.
        kwargs: Algorithm constructor arguments, if any.
        extra: Free-form tag for run-time state the config cannot capture
            (e.g. an installed update transformer).
        version: Package version; defaults to the running one.  Any change
            invalidates the address.
    """
    payload = {
        "config": _canonical(asdict(config)),
        "algorithm": algorithm,
        "kwargs": _canonical(kwargs or {}),
        "extra": extra,
        "version": __version__ if version is None else version,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of simulation results under one directory.

    Attributes:
        root: Directory holding one ``<sha256>.json`` file per cell.
        hits / misses: Lookup counters for this process.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(
        self,
        config: SimulationConfig,
        algorithm: str,
        kwargs: dict | None = None,
        extra: str = "",
    ) -> SimulationResult | None:
        """The cached result for a cell, or None (corruption counts as a
        miss and emits a warning — the caller recomputes)."""
        key = fingerprint(config, algorithm, kwargs, extra)
        path = self.path_for(key)
        try:
            blob = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(blob)
            if not isinstance(payload, dict) or payload.get("key") != key:
                raise ValueError("fingerprint mismatch or malformed payload")
            result = result_from_dict(payload["result"])
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"corrupted cache entry {path} ({exc}); recomputing",
                stacklevel=2,
            )
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(
        self,
        config: SimulationConfig,
        algorithm: str,
        result: SimulationResult,
        kwargs: dict | None = None,
        extra: str = "",
    ) -> Path:
        """Store one cell's result; atomic against concurrent writers."""
        key = fingerprint(config, algorithm, kwargs, extra)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        payload = {
            "key": key,
            "algorithm": algorithm,
            "version": __version__,
            "result": result_to_dict(result),
        }
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of stored entries."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every stored entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.root.glob(".*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {self.root} entries={len(self)} "
            f"hits={self.hits} misses={self.misses}>"
        )
