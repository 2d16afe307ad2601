"""Parameter sweeps across scheduling algorithms.

A sweep runs one simulation per (x-value, algorithm) pair, holding the
random seed fixed so every algorithm sees the identical workload at every
point (the paper's methodology, made noise-free with common random
numbers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import SimulationConfig, baseline_config
from repro.core.simulator import run_simulation
from repro.metrics.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.experiments.cache import ResultCache

#: Environment variable that switches every experiment to the paper's full
#: scale (1000 simulated seconds per point).
FULL_SCALE_ENV = "REPRO_FULL"

#: Environment variable overriding the default process count for parallel
#: sweeps (the CLIs fall back to ``os.cpu_count()``).
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker count for the CLIs: ``$REPRO_WORKERS`` or ``os.cpu_count()``."""
    override = os.environ.get(WORKERS_ENV, "").strip()
    if override:
        try:
            workers = int(override)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer >= 1, got {override!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentScale:
    """How long each simulated point runs.

    The paper simulates 1000 seconds per data point.  The default "quick"
    scale uses shorter runs with a warmup window (the database starts
    all-fresh, so the first ``max_age`` seconds understate staleness);
    Poisson statistics at 400 updates/second converge well within it.
    """

    duration: float
    warmup: float
    label: str

    @classmethod
    def quick(cls) -> "ExperimentScale":
        return cls(duration=60.0, warmup=12.0, label="quick")

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(duration=1000.0, warmup=20.0, label="paper")

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Paper scale when ``REPRO_FULL`` is set, quick otherwise."""
        if os.environ.get(FULL_SCALE_ENV, "").strip() not in ("", "0"):
            return cls.paper()
        return cls.quick()

    def apply(self, config: SimulationConfig) -> SimulationConfig:
        """Copy ``config`` with this scale's duration/warmup."""
        return config.replace(duration=self.duration, warmup=self.warmup)


@dataclass(frozen=True)
class SweepPoint:
    """One simulation inside a sweep."""

    x: float
    algorithm: str
    result: SimulationResult


@dataclass
class Sweep:
    """All runs of one experiment.

    Lookups go through a dict index maintained incrementally over
    ``points`` (appends are detected by length), so :meth:`result` is O(1)
    and :meth:`xs` is O(distinct x) instead of the linear/quadratic scans
    a big sweep cannot afford.
    """

    x_label: str
    algorithms: tuple[str, ...]
    points: list[SweepPoint] = field(default_factory=list)
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _indexed: int = field(default=0, repr=False, compare=False)

    def _ensure_index(self) -> dict:
        points = self.points
        if self._indexed > len(points):
            # Points were removed/replaced wholesale; rebuild from scratch.
            self._index.clear()
            self._indexed = 0
        if self._indexed < len(points):
            index = self._index
            for point in points[self._indexed:]:
                index[(point.x, point.algorithm)] = point.result
            self._indexed = len(points)
        return self._index

    def xs(self) -> list[float]:
        """Distinct x values in run order."""
        return list(dict.fromkeys(x for x, _ in self._ensure_index()))

    def result(self, x: float, algorithm: str) -> SimulationResult:
        """The result at one grid point."""
        try:
            return self._ensure_index()[(x, algorithm)]
        except KeyError:
            raise KeyError(f"no point at x={x} for {algorithm}") from None

    def series(
        self, algorithm: str, metric: str | Callable[[SimulationResult], float]
    ) -> list[tuple[float, float]]:
        """(x, metric) pairs for one algorithm, in x order."""
        getter = (
            metric if callable(metric) else lambda result: getattr(result, metric)
        )
        return [
            (point.x, getter(point.result))
            for point in self.points
            if point.algorithm == algorithm
        ]

    def values(
        self, algorithm: str, metric: str | Callable[[SimulationResult], float]
    ) -> list[float]:
        """Just the metric values for one algorithm, in x order."""
        return [y for _, y in self.series(algorithm, metric)]


def simulate_cell(args: tuple) -> SimulationResult:
    """Worker entry for one ``(config, algorithm, kwargs)`` cell
    (picklable)."""
    config, name, kwargs = args
    return run_simulation(config, name, **kwargs)


def map_cells(worker: Callable, cells: Sequence, workers: int = 1) -> list:
    """Map a picklable worker over independent cells, in cell order.

    With ``workers > 1`` the cells fan out over a process pool; results
    come back in submission order regardless of completion order, so a
    parallel map is indistinguishable from a serial one.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        return list(pool.map(worker, cells))


def run_cells(
    worker: Callable,
    cells: Sequence[tuple],
    workers: int = 1,
    cache: "ResultCache | None" = None,
    extra: str = "",
) -> list[SimulationResult]:
    """Run ``(config, algorithm, kwargs)`` cells through the cache + pool.

    Cache hits skip the simulation; the misses fan out through
    :func:`map_cells` and are stored once run.  ``extra`` tags cells
    whose behaviour the config alone cannot address (e.g. an installed
    update transformer) so they never collide with plain runs.
    """
    results: list = [None] * len(cells)
    misses = []
    for position, (config, name, kwargs) in enumerate(cells):
        hit = None if cache is None else cache.get(config, name, kwargs, extra)
        if hit is None:
            misses.append(position)
        else:
            results[position] = hit
    computed = map_cells(worker, [cells[i] for i in misses], workers)
    for position, result in zip(misses, computed):
        results[position] = result
        if cache is not None:
            config, name, kwargs = cells[position]
            cache.put(config, name, result, kwargs, extra)
    return results


def run_sweep(
    base_config: SimulationConfig,
    x_label: str,
    xs: Sequence[float],
    configure: Callable[[SimulationConfig, float], SimulationConfig],
    algorithms: Sequence[str],
    algorithm_kwargs: dict[str, dict] | None = None,
    workers: int = 1,
    cache: "ResultCache | None" = None,
) -> Sweep:
    """Run ``configure(base, x)`` for every x and algorithm.

    Args:
        base_config: Template configuration (already scaled).
        x_label: Name of the swept parameter, for reports.
        xs: Grid of parameter values.
        configure: Pure function producing the config for one x.
        algorithms: Algorithm registry names to compare.
        algorithm_kwargs: Optional per-algorithm constructor arguments.
        workers: Process count; > 1 fans the independent cells out over a
            process pool.  Results are identical to a serial run (every
            cell is seeded independently of execution order).
        cache: Optional persistent result cache; hits skip the simulation
            entirely and misses are stored after running.
    """
    sweep = Sweep(x_label=x_label, algorithms=tuple(algorithms))
    kwargs_by_name = algorithm_kwargs or {}
    grid, cells = [], []
    for x in xs:
        config = configure(base_config, x).validate()
        for name in algorithms:
            grid.append((x, name))
            cells.append((config, name, kwargs_by_name.get(name, {})))
    results = run_cells(simulate_cell, cells, workers, cache)
    sweep.points.extend(
        SweepPoint(x=x, algorithm=name, result=result)
        for (x, name), result in zip(grid, results)
    )
    return sweep


def scaled_baseline(scale: ExperimentScale, **overrides) -> SimulationConfig:
    """The paper's baseline config at the requested scale."""
    return scale.apply(baseline_config(**overrides))
