"""One experiment definition per paper figure (3-16), plus ablations.

Each builder returns a :class:`Figure`: the data series the paper plots
(as text tables) and a list of *shape checks* — the qualitative claims the
paper makes about that figure (who wins, what rises, where the gap is).
The benchmark suite runs every builder, prints the tables, and asserts the
checks, so ``pytest benchmarks/`` regenerates and validates the entire
evaluation section.

Sweeps shared between figures (the baseline lambda_t sweep feeds Figures
3, 4, 5, 6, and the no-abort side of 12/13) are cached per scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.config import (
    QueueDiscipline,
    SimulationConfig,
    StaleReadAction,
    StalenessPolicy,
)
from repro.core.algorithms.registry import PAPER_ALGORITHMS
from repro.experiments.cache import ResultCache
from repro.experiments.sweeps import (
    ExperimentScale,
    Sweep,
    run_cells,
    run_sweep,
    scaled_baseline,
    simulate_cell,
)
from repro.metrics.report import format_table
from repro.metrics.results import SimulationResult

#: The transaction-arrival grid of the lambda_t sweeps (paper x-axis 0-25).
LAMBDA_T_GRID = (1.0, 5.0, 10.0, 15.0, 20.0, 25.0)

#: Figure 16 sweeps lambda_t over 0-16 under UU.
LAMBDA_T_GRID_UU = (2.0, 4.0, 8.0, 12.0, 16.0)


@dataclass(frozen=True)
class Check:
    """One qualitative claim from the paper, evaluated on our data."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


@dataclass
class Panel:
    """One plotted panel: a metric versus the swept parameter."""

    name: str
    x_label: str
    columns: dict[str, list[tuple[float, float]]]

    def to_table(self) -> str:
        xs = [x for x, _ in next(iter(self.columns.values()))]
        headers = [self.x_label] + list(self.columns)
        rows = []
        for index, x in enumerate(xs):
            row: list[object] = [x]
            for series in self.columns.values():
                row.append(series[index][1])
            rows.append(row)
        return format_table(headers, rows, title=self.name)

    def to_csv(self) -> str:
        """The panel's data as CSV (header row, one row per x)."""
        lines = [",".join([self.x_label, *self.columns])]
        xs = [x for x, _ in next(iter(self.columns.values()))]
        for index, x in enumerate(xs):
            cells = [repr(x)]
            cells.extend(repr(series[index][1]) for series in self.columns.values())
            lines.append(",".join(cells))
        return "\n".join(lines)


@dataclass
class Figure:
    """A reproduced figure: its data panels and shape checks."""

    figure_id: str
    title: str
    panels: list[Panel] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"=== Figure {self.figure_id}: {self.title} ==="]
        parts.extend(panel.to_table() for panel in self.panels)
        parts.extend(str(check) for check in self.checks)
        return "\n\n".join(parts)

    def failed_checks(self) -> list[Check]:
        return [check for check in self.checks if not check.passed]


# ---------------------------------------------------------------------------
# Shared sweeps (cached per scale)
# ---------------------------------------------------------------------------
_SWEEP_CACHE: dict[tuple[str, str], Sweep] = {}

#: The most recent persistent cache handed to a builder.  Kept so
#: :func:`clear_sweep_cache` can purge the on-disk store along with the
#: in-process memo (tests and the CLI rely on one call wiping both).
_ACTIVE_DISK_CACHE: ResultCache | None = None


def _note_disk_cache(cache: ResultCache | None) -> None:
    global _ACTIVE_DISK_CACHE
    if cache is not None:
        _ACTIVE_DISK_CACHE = cache


def _cached(scale: ExperimentScale, name: str, build: Callable[[], Sweep]) -> Sweep:
    key = (scale.label, name)
    sweep = _SWEEP_CACHE.get(key)
    if sweep is None:
        sweep = build()
        _SWEEP_CACHE[key] = sweep
    return sweep


def clear_sweep_cache() -> None:
    """Drop all cached sweeps, in memory and on disk.

    Clears the per-process memo and, if a persistent :class:`ResultCache`
    has been used this process, deletes its stored entries too (tests use
    this for isolation).
    """
    _SWEEP_CACHE.clear()
    if _ACTIVE_DISK_CACHE is not None:
        _ACTIVE_DISK_CACHE.clear()


def _transformed_sim_cell(args: tuple) -> SimulationResult:
    """Worker for the view-complexity ablation: installs run through an
    exponentially-weighted average transformer on both view classes."""
    from repro.core.simulator import Simulation
    from repro.db.objects import ObjectClass
    from repro.db.transforms import exponential_average

    config, name, kwargs = args
    sim = Simulation(config, name, **kwargs)
    sim.database.set_transformer(ObjectClass.VIEW_LOW, exponential_average(0.3))
    sim.database.set_transformer(ObjectClass.VIEW_HIGH, exponential_average(0.3))
    return sim.run()


def _lambda_t_sweep(
    scale: ExperimentScale,
    name: str,
    mutate: Callable[[SimulationConfig], SimulationConfig] | None = None,
    grid: Sequence[float] = LAMBDA_T_GRID,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Sweep:
    _note_disk_cache(cache)

    def build() -> Sweep:
        base = scaled_baseline(scale)
        if mutate is not None:
            base = mutate(base)
        return run_sweep(
            base,
            "lambda_t",
            grid,
            lambda config, x: config.with_transactions(arrival_rate=x),
            algorithms,
            workers=workers,
            cache=cache,
        )

    return _cached(scale, name, build)


def baseline_sweep(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Sweep:
    """MA, no stale aborts, FIFO — feeds Figures 3, 4, 5, 6, 11, 12, 13."""
    return _lambda_t_sweep(scale, "baseline", workers=workers, cache=cache)


def lifo_sweep(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Sweep:
    """The baseline sweep with LIFO queue service (Figure 11)."""
    return _lambda_t_sweep(
        scale,
        "lifo",
        lambda config: config.with_system(queue_discipline=QueueDiscipline.LIFO),
        workers=workers,
        cache=cache,
    )


def abort_sweep(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Sweep:
    """MA with abort-on-stale-read (Figures 12, 13, 14)."""
    return _lambda_t_sweep(
        scale,
        "abort",
        lambda config: config.with_transactions(
            stale_read_action=StaleReadAction.ABORT
        ),
        workers=workers,
        cache=cache,
    )


def uu_sweep(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Sweep:
    """UU staleness, no aborts (Figure 16)."""
    return _lambda_t_sweep(
        scale,
        "uu",
        lambda config: config.replace(staleness=StalenessPolicy.UNAPPLIED_UPDATE),
        grid=LAMBDA_T_GRID_UU,
        workers=workers,
        cache=cache,
    )


def _panel(sweep: Sweep, metric: str, name: str) -> Panel:
    return Panel(
        name=name,
        x_label=sweep.x_label,
        columns={alg: sweep.series(alg, metric) for alg in sweep.algorithms},
    )


def _ratio_panel(num: Sweep, den: Sweep, metric: str, name: str) -> Panel:
    columns = {}
    for alg in num.algorithms:
        numerator = num.series(alg, metric)
        denominator = den.series(alg, metric)
        columns[alg] = [
            (x, n / max(d, 1e-9))
            for (x, n), (_, d) in zip(numerator, denominator)
        ]
    return Panel(name=name, x_label=num.x_label, columns=columns)


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(name=name, passed=bool(passed), detail=detail)


def _monotone_increasing(values: Sequence[float], slack: float = 0.02) -> bool:
    return all(b >= a - slack for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Figures 3-6: the baseline lambda_t sweep
# ---------------------------------------------------------------------------
def figure_3(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """CPU time split between transactions and updates vs lambda_t."""
    sweep = baseline_sweep(scale, workers, cache)
    uf_rho_u = sweep.values("UF", "rho_updates")
    tf_rho_u = sweep.values("TF", "rho_updates")
    checks = [
        _check(
            "UF spends a constant CPU share on updates regardless of load",
            max(uf_rho_u) - min(uf_rho_u) < 0.05,
            f"range {min(uf_rho_u):.3f}..{max(uf_rho_u):.3f}",
        ),
        _check(
            "installing the full stream takes about one fifth of the CPU",
            0.12 <= uf_rho_u[0] <= 0.27,
            f"rho_u at lambda_t=1 is {uf_rho_u[0]:.3f}",
        ),
        _check(
            "TF's update share collapses as transaction load grows",
            tf_rho_u[-1] < tf_rho_u[0] * 0.6,
            f"{tf_rho_u[0]:.3f} -> {tf_rho_u[-1]:.3f}",
        ),
        _check(
            "total utilization saturates near 1 under overload (all algorithms)",
            all(
                0.9 <= sweep.result(LAMBDA_T_GRID[-1], alg).rho_total <= 1.0001
                for alg in sweep.algorithms
            ),
        ),
    ]
    return Figure(
        "3",
        "Effects of lambda_t on transaction/update CPU mix",
        [
            _panel(sweep, "rho_transactions", "(a) rho_t: CPU fraction on transactions"),
            _panel(sweep, "rho_updates", "(b) rho_u: CPU fraction on updates"),
        ],
        checks,
    )


def figure_4(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """Missed deadlines and average value vs lambda_t."""
    sweep = baseline_sweep(scale, workers, cache)
    last = LAMBDA_T_GRID[-1]
    checks = [
        _check(
            "missed-deadline fraction grows with load for every algorithm",
            all(
                _monotone_increasing(sweep.values(alg, "p_md"))
                for alg in sweep.algorithms
            ),
        ),
        _check(
            "TF and OD miss fewer deadlines than UF and SU under overload",
            max(
                sweep.result(last, "TF").p_md, sweep.result(last, "OD").p_md
            )
            < min(sweep.result(last, "UF").p_md, sweep.result(last, "SU").p_md),
        ),
        _check(
            "average value rises with load despite more misses",
            all(
                sweep.values(alg, "average_value")[-1]
                > sweep.values(alg, "average_value")[1]
                for alg in sweep.algorithms
            ),
        ),
        _check(
            "TF and OD return the most value",
            min(
                sweep.result(last, "TF").average_value,
                sweep.result(last, "OD").average_value,
            )
            > max(
                sweep.result(last, "UF").average_value,
                sweep.result(last, "SU").average_value,
            )
            - 0.05,
        ),
    ]
    return Figure(
        "4",
        "Effects of lambda_t on missed deadlines and average value",
        [
            _panel(sweep, "p_md", "(a) p_MD: fraction of tardy transactions"),
            _panel(sweep, "average_value", "(b) AV: value per second"),
        ],
        checks,
    )


def figure_5(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """Stale fractions of the two view partitions vs lambda_t."""
    sweep = baseline_sweep(scale, workers, cache)
    last = LAMBDA_T_GRID[-1]
    checks = [
        _check(
            "UF keeps staleness under ~10% at every load",
            all(y < 0.15 for y in sweep.values("UF", "fold_low"))
            and all(y < 0.15 for y in sweep.values("UF", "fold_high")),
        ),
        _check(
            "TF lets most of the database go stale under heavy load",
            sweep.result(last, "TF").fold_low > 0.8
            and sweep.result(last, "TF").fold_high > 0.8,
        ),
        _check(
            "SU keeps high-importance data fresh but not low-importance",
            sweep.result(last, "SU").fold_high < 0.15
            and sweep.result(last, "SU").fold_low > 0.5,
        ),
        _check(
            "OD is slightly fresher than TF (on-demand installs help)",
            sweep.result(last, "OD").fold_low
            <= sweep.result(last, "TF").fold_low + 0.02,
        ),
    ]
    return Figure(
        "5",
        "Effects of lambda_t on fold (stale fractions)",
        [
            _panel(sweep, "fold_low", "(a) fold_l: low-importance stale fraction"),
            _panel(sweep, "fold_high", "(b) fold_h: high-importance stale fraction"),
        ],
        checks,
    )


def figure_6(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """Fresh-and-timely success rates vs lambda_t."""
    sweep = baseline_sweep(scale, workers, cache)
    checks = [
        _check(
            "OD has the best p_success over the whole load range",
            all(
                sweep.result(x, "OD").p_success
                >= max(
                    sweep.result(x, alg).p_success
                    for alg in sweep.algorithms
                    if alg != "OD"
                )
                - 0.03
                for x in LAMBDA_T_GRID
            ),
        ),
        _check(
            "TF has the worst p_success under load (stale reads dominate)",
            all(
                sweep.result(x, "TF").p_success
                <= min(
                    sweep.result(x, alg).p_success
                    for alg in sweep.algorithms
                    if alg != "TF"
                )
                + 0.03
                for x in LAMBDA_T_GRID[2:]
            ),
        ),
        _check(
            "for UF and OD, meeting the deadline almost implies fresh reads",
            sweep.result(LAMBDA_T_GRID[-1], "UF").p_suc_nontardy > 0.75
            and sweep.result(LAMBDA_T_GRID[-1], "OD").p_suc_nontardy > 0.75,
        ),
        _check(
            "for TF, many timely transactions still read stale data",
            sweep.result(LAMBDA_T_GRID[-1], "TF").p_suc_nontardy < 0.4,
        ),
    ]
    return Figure(
        "6",
        "Effects of lambda_t on p_success and p_suc|nontardy",
        [
            _panel(sweep, "p_success", "(a) p_success: timely AND fresh"),
            _panel(sweep, "p_suc_nontardy", "(b) p_suc|nontardy"),
        ],
        checks,
    )


# ---------------------------------------------------------------------------
# Figures 7-8: update cost sensitivity
# ---------------------------------------------------------------------------
def figure_7(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """AV vs the install cost x_update and the queue-insert cost x_queue."""
    _note_disk_cache(cache)
    base = scaled_baseline(scale)
    update_sweep = _cached(
        scale,
        "xupdate",
        lambda: run_sweep(
            base,
            "x_update",
            (4000.0, 10000.0, 20000.0, 35000.0, 50000.0),
            lambda config, x: config.with_system(x_update=int(x)),
            PAPER_ALGORITHMS,
            workers=workers,
            cache=cache,
        ),
    )
    queue_sweep = _cached(
        scale,
        "xqueue",
        lambda: run_sweep(
            base,
            "x_queue",
            (0.0, 1000.0, 2500.0, 5000.0),
            lambda config, x: config.with_system(x_queue=int(x)),
            PAPER_ALGORITHMS,
            workers=workers,
            cache=cache,
        ),
    )

    def drop(sweep: Sweep, alg: str) -> float:
        values = sweep.values(alg, "average_value")
        return values[0] - values[-1]

    checks = [
        _check(
            "UF and SU lose value sharply as updates get heavier",
            drop(update_sweep, "UF") > 1.0 and drop(update_sweep, "SU") > 0.5,
            f"UF drop {drop(update_sweep, 'UF'):.2f}, SU drop {drop(update_sweep, 'SU'):.2f}",
        ),
        _check(
            "TF and OD barely notice heavier updates",
            abs(drop(update_sweep, "TF")) < 0.8 and abs(drop(update_sweep, "OD")) < 0.8,
            f"TF drop {drop(update_sweep, 'TF'):.2f}, OD drop {drop(update_sweep, 'OD'):.2f}",
        ),
        _check(
            "queue management costs hurt the queue-using algorithms",
            drop(queue_sweep, "TF") > 0.5 and drop(queue_sweep, "OD") > 0.5,
            f"TF drop {drop(queue_sweep, 'TF'):.2f}, OD drop {drop(queue_sweep, 'OD'):.2f}",
        ),
        _check(
            "UF, which has no update queue, is immune to x_queue",
            abs(drop(queue_sweep, "UF")) < 0.4,
            f"UF drop {drop(queue_sweep, 'UF'):.2f}",
        ),
    ]
    return Figure(
        "7",
        "Effects of x_update and x_queue on AV",
        [
            _panel(update_sweep, "average_value", "(a) AV vs x_update"),
            _panel(queue_sweep, "average_value", "(b) AV vs x_queue"),
        ],
        checks,
    )


def figure_8(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """AV vs the queue scan cost x_scan (only OD scans)."""
    _note_disk_cache(cache)
    base = scaled_baseline(scale)
    sweep = _cached(
        scale,
        "xscan",
        lambda: run_sweep(
            base,
            "x_scan",
            (0.0, 2000.0, 5000.0, 10000.0),
            lambda config, x: config.with_system(x_scan=int(x)),
            PAPER_ALGORITHMS,
            workers=workers,
            cache=cache,
        ),
    )
    od = sweep.values("OD", "average_value")
    tf = sweep.values("TF", "average_value")
    checks = [
        _check(
            "scan cost degrades OD",
            od[-1] < od[0] - 0.3,
            f"OD AV {od[0]:.2f} -> {od[-1]:.2f}",
        ),
        _check(
            "algorithms that never scan are unaffected",
            abs(tf[-1] - tf[0]) < 0.4,
            f"TF AV {tf[0]:.2f} -> {tf[-1]:.2f}",
        ),
        _check(
            "OD's loss grows monotonically with the scan constant",
            all(b <= a + 0.2 for a, b in zip(od, od[1:])),
            f"OD AV series {[round(v, 2) for v in od]}",
        ),
    ]
    return Figure(
        "8",
        "Effects of x_scan on AV",
        [_panel(sweep, "average_value", "AV vs x_scan")],
        checks,
    )


# ---------------------------------------------------------------------------
# Figure 9: update arrival rate
# ---------------------------------------------------------------------------
def figure_9(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """p_success and AV vs the update arrival rate lambda_u."""
    _note_disk_cache(cache)
    base = scaled_baseline(scale)
    sweep = _cached(
        scale,
        "lambda_u",
        lambda: run_sweep(
            base,
            "lambda_u",
            (200.0, 300.0, 400.0, 500.0, 600.0),
            lambda config, x: config.with_updates(arrival_rate=x),
            PAPER_ALGORITHMS,
            workers=workers,
            cache=cache,
        ),
    )
    uf_av = sweep.values("UF", "average_value")
    od_av = sweep.values("OD", "average_value")
    od_ps = sweep.values("OD", "p_success")
    checks = [
        _check(
            "UF returns less value as the update rate rises",
            uf_av[-1] < uf_av[0] - 0.3,
            f"UF AV {uf_av[0]:.2f} -> {uf_av[-1]:.2f}",
        ),
        _check(
            "OD maintains its value across the whole update-rate range",
            abs(od_av[-1] - od_av[0]) < 0.6,
            f"OD AV {od_av[0]:.2f} -> {od_av[-1]:.2f}",
        ),
        _check(
            "OD's success rate improves with more updates (fresher data)",
            od_ps[-1] > od_ps[0],
            f"OD p_success {od_ps[0]:.3f} -> {od_ps[-1]:.3f}",
        ),
        _check(
            "OD has the best p_success at the highest update rate",
            sweep.result(600.0, "OD").p_success
            >= max(
                sweep.result(600.0, alg).p_success
                for alg in sweep.algorithms
                if alg != "OD"
            )
            - 0.02,
        ),
    ]
    return Figure(
        "9",
        "Effects of lambda_u on performance",
        [
            _panel(sweep, "p_success", "(a) p_success vs lambda_u"),
            _panel(sweep, "average_value", "(b) AV vs lambda_u"),
        ],
        checks,
    )


# ---------------------------------------------------------------------------
# Figure 10: maximum age
# ---------------------------------------------------------------------------
def figure_10(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """AV vs alpha, with and without rescaling the view size."""
    _note_disk_cache(cache)
    base = scaled_baseline(scale)
    alphas = (3.0, 5.0, 7.0, 9.0)
    alpha_sweep = _cached(
        scale,
        "alpha",
        lambda: run_sweep(
            base,
            "alpha",
            alphas,
            lambda config, x: config.with_transactions(max_age=x),
            PAPER_ALGORITHMS,
            workers=workers,
            cache=cache,
        ),
    )

    def with_scaled_views(config: SimulationConfig, x: float) -> SimulationConfig:
        # Hold lambda_u * alpha / (N_l + N_h) constant: double alpha, double
        # the view, so the per-object refresh opportunity stays fixed.
        n = max(1, round(500 * x / 7.0))
        return config.with_transactions(max_age=x).with_updates(n_low=n, n_high=n)

    scaled_sweep = _cached(
        scale,
        "alpha-scaled",
        lambda: run_sweep(
            base,
            "alpha",
            alphas,
            with_scaled_views,
            PAPER_ALGORITHMS,
            workers=workers,
            cache=cache,
        ),
    )
    checks = []
    for alg in ("TF", "OD"):
        fixed = alpha_sweep.values(alg, "average_value")
        checks.append(
            _check(
                f"{alg}: AV does not change much with alpha (never drops "
                "materially as shelf life grows)",
                fixed[-1] >= fixed[0] - 0.15,
                f"AV {fixed[0]:.2f} -> {fixed[-1]:.2f}",
            )
        )
    spread = []
    for alg in PAPER_ALGORITHMS:
        values = scaled_sweep.values(alg, "average_value")
        spread.append(max(values) - min(values))
    checks.append(
        _check(
            "with the update density held, alpha itself hardly matters",
            max(spread) < 2.5,
            f"max AV spread across alpha: {max(spread):.2f}",
        )
    )
    return Figure(
        "10",
        "Effects of alpha on AV",
        [
            _panel(alpha_sweep, "average_value", "(a) AV vs alpha (N fixed)"),
            _panel(scaled_sweep, "average_value", "(b) AV vs alpha (N scaled with alpha)"),
        ],
        checks,
    )


# ---------------------------------------------------------------------------
# Figure 11: FIFO vs LIFO
# ---------------------------------------------------------------------------
def figure_11(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """FIFO/LIFO ratios of staleness and success vs lambda_t."""
    fifo = baseline_sweep(scale, workers, cache)
    lifo = lifo_sweep(scale, workers, cache)
    fold_ratio = _ratio_panel(
        fifo, lifo, "fold_low", "(a) fold_l(FIFO) / fold_l(LIFO)"
    )
    success_ratio = _ratio_panel(
        fifo, lifo, "p_success", "(b) p_success(FIFO) / p_success(LIFO)"
    )
    # The FIFO/LIFO gap matters where the queue is contended but not yet
    # fully saturated (at extreme load both disciplines read ~everything
    # stale and the ratios collapse to 1) — the paper's mid-range.
    mid = LAMBDA_T_GRID[2]
    tf_fold_mid = dict(fold_ratio.columns["TF"])[mid]
    uf_fold_ratios = [r for _, r in fold_ratio.columns["UF"]]
    tf_success_mid = dict(success_ratio.columns["TF"])[mid]
    tf_fold_all = [r for _, r in fold_ratio.columns["TF"]]
    checks = [
        _check(
            "FIFO keeps the view markedly staler than LIFO for TF at mid load",
            tf_fold_mid > 1.1,
            f"fold ratio at lambda_t={mid:g}: {tf_fold_mid:.2f}",
        ),
        _check(
            "LIFO is never fresher-than-FIFO by less than parity (ratio >= ~1)",
            all(r > 0.9 for r in tf_fold_all),
            f"TF fold ratios: {[round(r, 2) for r in tf_fold_all]}",
        ),
        _check(
            "UF has no queue, so the discipline cannot matter",
            all(abs(r - 1.0) < 0.05 for r in uf_fold_ratios),
            f"UF ratios: {[round(r, 2) for r in uf_fold_ratios]}",
        ),
        _check(
            "FIFO lowers TF's success rate at mid load",
            tf_success_mid < 0.9,
            f"success ratio at lambda_t={mid:g}: {tf_success_mid:.2f}",
        ),
    ]
    return Figure(
        "11",
        "Effects of the update-queue discipline",
        [fold_ratio, success_ratio],
        checks,
    )


# ---------------------------------------------------------------------------
# Figures 12-14: MA with abort-on-stale
# ---------------------------------------------------------------------------
def figure_12(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """High-importance staleness when stale reads abort transactions."""
    aborting = abort_sweep(scale, workers, cache)
    plain = baseline_sweep(scale, workers, cache)
    last = LAMBDA_T_GRID[-1]
    tf_ratio = aborting.result(last, "TF").fold_high / max(
        plain.result(last, "TF").fold_high, 1e-9
    )
    checks = [
        _check(
            "aborting on stale reads makes TF's data dramatically fresher",
            tf_ratio < 0.6,
            f"fold_h(TF) abort/no-abort at lambda_t={last:g}: {tf_ratio:.2f}",
        ),
        _check(
            "TF's high-importance staleness stays far below saturation once "
            "aborts free CPU time",
            aborting.result(last, "TF").fold_high < 0.6,
            f"fold_h={aborting.result(last, 'TF').fold_high:.2f}",
        ),
        _check(
            "UF is unaffected (it never read stale data to begin with)",
            abs(
                aborting.result(last, "UF").fold_high
                - plain.result(last, "UF").fold_high
            )
            < 0.05,
        ),
    ]
    return Figure(
        "12",
        "Effects of lambda_t on fold (MA with abortion)",
        [
            _panel(aborting, "fold_high", "(a) fold_h with stale-abort"),
            _ratio_panel(
                aborting, plain, "fold_high", "(b) fold_h(abort) / fold_h(no abort)"
            ),
        ],
        checks,
    )


def figure_13(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """Average value when stale reads abort transactions."""
    aborting = abort_sweep(scale, workers, cache)
    plain = baseline_sweep(scale, workers, cache)
    last = LAMBDA_T_GRID[-1]
    od_av = aborting.result(last, "OD").average_value
    checks = [
        _check(
            "OD is the clear winner on value under stale-aborts",
            od_av
            >= max(
                aborting.result(last, alg).average_value
                for alg in aborting.algorithms
                if alg != "OD"
            ),
            f"OD AV {od_av:.2f}",
        ),
        _check(
            "TF is hurt the most by the aborts (largest relative loss)",
            (
                aborting.result(last, "TF").average_value
                / max(plain.result(last, "TF").average_value, 1e-9)
            )
            <= min(
                aborting.result(last, alg).average_value
                / max(plain.result(last, alg).average_value, 1e-9)
                for alg in aborting.algorithms
                if alg != "TF"
            )
            + 0.02,
        ),
        _check(
            "SU, the hybrid, now beats both of its parents (TF and UF)",
            aborting.result(last, "SU").average_value
            > max(
                aborting.result(last, "TF").average_value,
                aborting.result(last, "UF").average_value,
            )
            - 0.05,
        ),
    ]
    return Figure(
        "13",
        "Effects of lambda_t on AV (MA with abortion)",
        [
            _panel(aborting, "average_value", "(a) AV with stale-abort"),
            _ratio_panel(
                aborting, plain, "average_value", "(b) AV(abort) / AV(no abort)"
            ),
        ],
        checks,
    )


def figure_14(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """Success rate when stale reads abort transactions."""
    aborting = abort_sweep(scale, workers, cache)
    last = LAMBDA_T_GRID[-1]
    checks = [
        _check(
            "OD still wins on p_success",
            all(
                aborting.result(x, "OD").p_success
                >= max(
                    aborting.result(x, alg).p_success
                    for alg in aborting.algorithms
                    if alg != "OD"
                )
                - 0.03
                for x in LAMBDA_T_GRID
            ),
        ),
        _check(
            "TF recovers to second place (low miss rate + fresher data)",
            aborting.result(last, "TF").p_success
            >= max(
                aborting.result(last, "UF").p_success,
                aborting.result(last, "SU").p_success,
            )
            - 0.05,
            f"TF {aborting.result(last, 'TF').p_success:.3f} vs "
            f"UF {aborting.result(last, 'UF').p_success:.3f}, "
            f"SU {aborting.result(last, 'SU').p_success:.3f}",
        ),
    ]
    return Figure(
        "14",
        "Effects of lambda_t on p_success (MA with abortion)",
        [_panel(aborting, "p_success", "p_success with stale-abort")],
        checks,
    )


# ---------------------------------------------------------------------------
# Figure 15: where in the transaction the view reads happen
# ---------------------------------------------------------------------------
def figure_15(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """AV vs p_view (fraction of work done before the reads), with aborts."""
    _note_disk_cache(cache)
    base = scaled_baseline(scale).with_transactions(
        stale_read_action=StaleReadAction.ABORT
    )
    sweep = _cached(
        scale,
        "pview",
        lambda: run_sweep(
            base,
            "p_view",
            (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
            lambda config, x: config.with_transactions(p_view=x),
            PAPER_ALGORITHMS,
            workers=workers,
            cache=cache,
        ),
    )

    def loss(alg: str) -> float:
        values = sweep.values(alg, "average_value")
        return values[0] - values[-1]

    checks = [
        _check(
            "every algorithm loses value as reads move later in the transaction",
            all(loss(alg) > 0 for alg in sweep.algorithms),
            ", ".join(f"{alg} -{loss(alg):.2f}" for alg in sweep.algorithms),
        ),
        _check(
            "TF and SU, which read stale most often, degrade the most",
            min(loss("TF"), loss("SU")) > min(loss("UF"), loss("OD")) - 0.05,
            f"TF {loss('TF'):.2f} SU {loss('SU'):.2f} vs "
            f"UF {loss('UF'):.2f} OD {loss('OD'):.2f}",
        ),
    ]
    return Figure(
        "15",
        "Effects of p_view on transactions (MA with abortion)",
        [_panel(sweep, "average_value", "AV vs p_view")],
        checks,
    )


# ---------------------------------------------------------------------------
# Figure 16: the UU staleness definition
# ---------------------------------------------------------------------------
def figure_16(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """p_success vs lambda_t under Unapplied-Update staleness."""
    sweep = uu_sweep(scale, workers, cache)
    last = LAMBDA_T_GRID_UU[-1]
    order = sorted(
        PAPER_ALGORITHMS,
        key=lambda alg: sweep.result(last, alg).p_success,
        reverse=True,
    )
    checks = [
        _check(
            "the ranking OD > UF > SU > TF carries over from MA to UU",
            tuple(order) == ("OD", "UF", "SU", "TF"),
            f"observed: {' > '.join(order)}",
        ),
        _check(
            "UF never lets an object turn stale under UU (no queue at all)",
            sweep.result(last, "UF").fold_low == 0.0
            and sweep.result(last, "UF").fold_high == 0.0,
        ),
    ]
    return Figure(
        "16",
        "Effects of lambda_t on p_success (UU)",
        [
            _panel(sweep, "p_success", "p_success under UU"),
            _panel(sweep, "fold_low", "fold_l under UU (context)"),
        ],
        checks,
    )


# ---------------------------------------------------------------------------
# Ablations (paper future-work items; see DESIGN.md)
# ---------------------------------------------------------------------------
def ablation_indexed_queue(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """OD with the hash-indexed update queue vs the linear-scan queue."""
    base = scaled_baseline(scale).with_system(x_scan=2000)
    grid = (5.0, 10.0, 15.0, 20.0)
    cells = []
    for x in grid:
        plain_config = base.with_transactions(arrival_rate=x)
        cells.append((plain_config, "OD", {}))
        cells.append((plain_config.with_system(indexed_update_queue=True),
                      "OD", {}))
    _note_disk_cache(cache)
    results = run_cells(simulate_cell, cells, workers, cache)
    columns_av: dict[str, list[tuple[float, float]]] = {"OD": [], "OD-IDX": []}
    columns_ps: dict[str, list[tuple[float, float]]] = {"OD": [], "OD-IDX": []}
    for x, plain, indexed in zip(grid, results[::2], results[1::2]):
        columns_av["OD"].append((x, plain.average_value))
        columns_av["OD-IDX"].append((x, indexed.average_value))
        columns_ps["OD"].append((x, plain.p_success))
        columns_ps["OD-IDX"].append((x, indexed.p_success))
    av_gain = sum(
        idx - plain
        for (_, idx), (_, plain) in zip(columns_av["OD-IDX"], columns_av["OD"])
    )
    checks = [
        _check(
            "with a nonzero scan cost, the index never hurts value",
            av_gain > -0.3,
            f"total AV gain {av_gain:.2f}",
        ),
    ]
    return Figure(
        "A1",
        "Ablation: hash-indexed update queue for OD (x_scan=2000)",
        [
            Panel("AV: scan vs indexed", "lambda_t", columns_av),
            Panel("p_success: scan vs indexed", "lambda_t", columns_ps),
        ],
        checks,
    )


def ablation_fixed_fraction(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """FX: sweep the reserved update fraction at baseline load."""
    base = scaled_baseline(scale)
    fractions = (0.0, 0.1, 0.2, 0.3, 0.5)
    cells = [(base, "FX", {"fraction": fraction}) for fraction in fractions]
    _note_disk_cache(cache)
    results = run_cells(simulate_cell, cells, workers, cache)
    columns: dict[str, list[tuple[float, float]]] = {
        "p_success": [],
        "AV": [],
        "fold_l": [],
    }
    for fraction, result in zip(fractions, results):
        columns["p_success"].append((fraction, result.p_success))
        columns["AV"].append((fraction, result.average_value))
        columns["fold_l"].append((fraction, result.fold_low))
    fold_values = [y for _, y in columns["fold_l"]]
    checks = [
        _check(
            "reserving CPU for updates keeps the view fresher",
            fold_values[-1] < fold_values[0],
            f"fold_l {fold_values[0]:.2f} -> {fold_values[-1]:.2f}",
        ),
    ]
    return Figure(
        "A2",
        "Ablation: fixed CPU fraction reserved for updates (FX)",
        [Panel("FX metrics vs reserved fraction", "fraction", columns)],
        checks,
    )


def ablation_split_queue(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """TF vs TF with per-importance queues (high served first)."""
    _note_disk_cache(cache)
    sweep = _cached(
        scale,
        "tf-split",
        lambda: run_sweep(
            scaled_baseline(scale),
            "lambda_t",
            (5.0, 10.0, 15.0, 20.0),
            lambda config, x: config.with_transactions(arrival_rate=x),
            ("TF", "TF-SPLIT"),
            workers=workers,
            cache=cache,
        ),
    )
    mid = 10.0
    checks = [
        _check(
            "serving high-importance updates first keeps fold_h lower than TF",
            sweep.result(mid, "TF-SPLIT").fold_high
            < sweep.result(mid, "TF").fold_high - 0.02,
            f"{sweep.result(mid, 'TF-SPLIT').fold_high:.3f} vs "
            f"{sweep.result(mid, 'TF').fold_high:.3f} at lambda_t={mid:g}",
        ),
    ]
    return Figure(
        "A3",
        "Ablation: TF with split importance queues",
        [
            _panel(sweep, "fold_high", "fold_h: TF vs TF-SPLIT"),
            _panel(sweep, "p_success", "p_success: TF vs TF-SPLIT"),
        ],
        checks,
    )


def ablation_preemption(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """Transaction-preemption (Table 3 'preemption') on vs off."""
    base = scaled_baseline(scale)
    grid = (5.0, 10.0, 15.0, 20.0)
    cells = []
    for x in grid:
        off_config = base.with_transactions(arrival_rate=x)
        cells.append((off_config, "TF", {}))
        cells.append((off_config.with_system(transaction_preemption=True),
                      "TF", {}))
    _note_disk_cache(cache)
    results = run_cells(simulate_cell, cells, workers, cache)
    columns_md: dict[str, list[tuple[float, float]]] = {"TF": [], "TF+preempt": []}
    columns_av: dict[str, list[tuple[float, float]]] = {"TF": [], "TF+preempt": []}
    for x, off, on in zip(grid, results[::2], results[1::2]):
        columns_md["TF"].append((x, off.p_md))
        columns_md["TF+preempt"].append((x, on.p_md))
        columns_av["TF"].append((x, off.average_value))
        columns_av["TF+preempt"].append((x, on.average_value))
    av_diff = sum(
        on - off
        for (_, on), (_, off) in zip(columns_av["TF+preempt"], columns_av["TF"])
    ) / len(grid)
    checks = [
        _check(
            "value-density preemption does not lose value on average",
            av_diff > -0.5,
            f"mean AV difference {av_diff:+.2f}",
        ),
    ]
    return Figure(
        "A4",
        "Ablation: transaction preemption on/off (TF)",
        [
            Panel("p_MD", "lambda_t", columns_md),
            Panel("AV", "lambda_t", columns_av),
        ],
        checks,
    )


def ablation_view_complexity(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """View complexity (paper §2): heavier installs via update transformers.

    Every install runs an exponentially-weighted running average costing
    ``x_transform`` extra instructions.  Like Figure 7(a), the algorithms
    that install everything (UF) pay for complexity on the whole stream,
    while OD pays only for what transactions actually need.
    """
    base = scaled_baseline(scale)
    costs = (0.0, 10000.0, 20000.0, 40000.0)
    cells = [
        (base.with_system(x_transform=int(cost)), name, {})
        for cost in costs
        for name in ("UF", "OD")
    ]
    # The transformer is run-time state the config cannot express, so the
    # cells carry an ``extra`` tag to keep them apart from plain runs.
    _note_disk_cache(cache)
    results = run_cells(
        _transformed_sim_cell, cells, workers, cache,
        extra="transformer:exponential_average(0.3)",
    )
    columns_av: dict[str, list[tuple[float, float]]] = {"UF": [], "OD": []}
    columns_fold: dict[str, list[tuple[float, float]]] = {"UF": [], "OD": []}
    for (config, name, _), result in zip(cells, results):
        cost = float(config.system.x_transform)
        columns_av[name].append((cost, result.average_value))
        columns_fold[name].append((cost, result.fold_low))
    uf_drop = columns_av["UF"][0][1] - columns_av["UF"][-1][1]
    od_drop = columns_av["OD"][0][1] - columns_av["OD"][-1][1]
    checks = [
        _check(
            "view complexity hurts the install-everything algorithm most",
            uf_drop > od_drop + 0.2,
            f"UF loses {uf_drop:.2f} AV, OD loses {od_drop:.2f}",
        ),
    ]
    return Figure(
        "A5",
        "Ablation: view complexity (transformed installs, x_transform sweep)",
        [
            Panel("AV vs x_transform", "x_transform", columns_av),
            Panel("fold_l vs x_transform", "x_transform", columns_fold),
        ],
        checks,
    )


def ablation_bursty_feed(
    scale: ExperimentScale, workers: int = 1, cache: ResultCache | None = None
) -> Figure:
    """Bursty (peak/off-peak) feed vs the paper's stationary Poisson stream.

    The paper motivates the problem with market feeds reaching 500
    updates/second "during peak time" — i.e. a non-stationary stream.
    Holding the long-run mean at the Table 1 rate, this ablation raises
    the peak factor and watches who suffers: UF must absorb each peak
    synchronously, while the queue-based algorithms smooth it.
    """
    from repro.config import UpdatePattern

    base = scaled_baseline(scale)
    factors = (1.0, 2.0, 3.0)
    algorithms = ("UF", "TF", "OD")
    cells = []
    for factor in factors:
        if factor == 1.0:
            config = base
        else:
            config = base.with_updates(
                pattern=UpdatePattern.BURSTY,
                burst_peak_factor=factor,
                burst_peak_fraction=0.25,
                burst_dwell_mean=2.0,
            )
        for name in algorithms:
            cells.append((config, name, {}))
    _note_disk_cache(cache)
    results = run_cells(simulate_cell, cells, workers, cache)
    columns_ps: dict[str, list[tuple[float, float]]] = {a: [] for a in algorithms}
    columns_md: dict[str, list[tuple[float, float]]] = {a: [] for a in algorithms}
    pairs = zip(cells, results)
    for factor in factors:
        for name in algorithms:
            _, result = next(pairs)
            columns_ps[name].append((factor, result.p_success))
            columns_md[name].append((factor, result.p_md))
    uf_md = [y for _, y in columns_md["UF"]]
    checks = [
        _check(
            "peaks raise UF's miss rate (updates preempt synchronously)",
            uf_md[-1] >= uf_md[0] - 0.01,
            f"p_MD {uf_md[0]:.3f} -> {uf_md[-1]:.3f} at peak factor 3",
        ),
    ]
    return Figure(
        "A6",
        "Ablation: bursty update feed at fixed mean rate",
        [
            Panel("p_success vs peak factor", "peak_factor", columns_ps),
            Panel("p_MD vs peak factor", "peak_factor", columns_md),
        ],
        checks,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
FIGURES: dict[str, Callable[..., Figure]] = {
    "3": figure_3,
    "4": figure_4,
    "5": figure_5,
    "6": figure_6,
    "7": figure_7,
    "8": figure_8,
    "9": figure_9,
    "10": figure_10,
    "11": figure_11,
    "12": figure_12,
    "13": figure_13,
    "14": figure_14,
    "15": figure_15,
    "16": figure_16,
    "A1": ablation_indexed_queue,
    "A2": ablation_fixed_fraction,
    "A3": ablation_split_queue,
    "A4": ablation_preemption,
    "A5": ablation_view_complexity,
    "A6": ablation_bursty_feed,
}


def build_figure(
    figure_id: str,
    scale: ExperimentScale | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> Figure:
    """Build one figure's reproduction at the given (or env-derived) scale.

    Args:
        figure_id: Paper figure number ("3".."16") or ablation id ("A1"..).
        scale: Experiment scale; env-derived when omitted.
        workers: Process count for the simulation fan-out; results are
            identical to a serial build.
        cache: Optional persistent result cache shared across figures.
    """
    builder = FIGURES.get(str(figure_id))
    if builder is None:
        known = ", ".join(FIGURES)
        raise KeyError(f"unknown figure {figure_id!r}; known: {known}")
    _note_disk_cache(cache)
    return builder(scale or ExperimentScale.from_env(), workers, cache)
