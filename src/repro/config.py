"""Simulation configuration — the paper's Tables 1, 2, and 3 as dataclasses.

Every parameter keeps the paper's symbol in its docstring so experiment code
reads like the evaluation section.  Field defaults are exactly the baseline
values of the tables; :func:`SimulationConfig.validate` enforces the model's
domain constraints (probabilities sum to one, rates positive, ...).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field


class StalenessPolicy(enum.Enum):
    """Which definition of "stale" the run uses (paper section 2).

    * MAX_AGE — a value is stale when ``now - generation_ts > max_age``
      (the paper's MA, based on generation time).
    * MAX_AGE_ARRIVAL — MA variant using arrival time at the RTDB instead of
      generation time (sketched in section 2).
    * UNAPPLIED_UPDATE — a value is stale while a newer update sits in the
      update queue (the paper's UU).
    * COMBINED — stale under either MA or UU (sketched in section 2).
    """

    MAX_AGE = "ma"
    MAX_AGE_ARRIVAL = "ma-arrival"
    UNAPPLIED_UPDATE = "uu"
    COMBINED = "ma+uu"

    @property
    def uses_max_age(self) -> bool:
        return self in (
            StalenessPolicy.MAX_AGE,
            StalenessPolicy.MAX_AGE_ARRIVAL,
            StalenessPolicy.COMBINED,
        )

    @property
    def uses_queue(self) -> bool:
        return self in (StalenessPolicy.UNAPPLIED_UPDATE, StalenessPolicy.COMBINED)


class StaleReadAction(enum.Enum):
    """What a transaction does upon reading stale data (paper section 2).

    IGNORE — complete normally; staleness is only recorded for metrics.
    WARN — complete, but flag the transaction (the "red light" option).
    ABORT — abort immediately (sections 6.2's scenario).
    """

    IGNORE = "ignore"
    WARN = "warn"
    ABORT = "abort"


class QueueDiscipline(enum.Enum):
    """Service order of the update queue (paper section 4.2).

    FIFO installs the oldest queued update first (generation order);
    LIFO installs the newest first.
    """

    FIFO = "fifo"
    LIFO = "lifo"


class UpdatePattern(enum.Enum):
    """Arrival pattern of the external stream (paper section 2).

    The paper's experiments use APERIODIC; PERIODIC is the extension the
    paper describes for sensor-style feeds (every object refreshed on a
    fixed period, phases staggered uniformly).  BURSTY models the paper's
    motivating market feed more faithfully ("up to 500 updates/second
    during peak time"): a two-state Markov-modulated Poisson process that
    alternates between a peak rate and an off-peak rate.
    """

    APERIODIC = "aperiodic"
    PERIODIC = "periodic"
    BURSTY = "bursty"


@dataclass
class UpdateStreamParams:
    """Table 1 — scheduler baseline settings for data and updates."""

    arrival_rate: float = 400.0
    """lambda_u — update arrival rate (updates/second)."""

    p_low: float = 0.5
    """p_ul — probability that an update targets low-importance data."""

    mean_age: float = 0.1
    """a_update — mean transit age (seconds) of an update on arrival."""

    n_low: int = 500
    """N_l — number of low-importance view objects."""

    n_high: int = 500
    """N_h — number of high-importance view objects."""

    pattern: UpdatePattern = UpdatePattern.APERIODIC
    """Arrival pattern; the paper's experiments are aperiodic."""

    partial_probability: float = 0.0
    """Extension: probability an update is partial (updates a single
    attribute rather than the full object).  0.0 reproduces the paper's
    complete-update model."""

    burst_peak_factor: float = 3.0
    """BURSTY pattern: the peak-state rate is ``arrival_rate * factor``;
    the off-peak rate is scaled down so the long-run mean stays at
    ``arrival_rate``."""

    burst_peak_fraction: float = 0.25
    """BURSTY pattern: long-run fraction of time spent in the peak state."""

    burst_dwell_mean: float = 2.0
    """BURSTY pattern: mean seconds per visit to the peak state (off-peak
    dwell follows from ``burst_peak_fraction``)."""

    attributes_per_object: int = 4
    """Extension: number of attributes per view object (only observable when
    partial updates are enabled)."""

    def validate(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError(f"update arrival rate must be > 0, got {self.arrival_rate}")
        if not 0.0 <= self.p_low <= 1.0:
            raise ValueError(f"p_low out of [0,1]: {self.p_low}")
        if self.mean_age < 0:
            raise ValueError(f"mean update age must be >= 0, got {self.mean_age}")
        if self.n_low < 0 or self.n_high < 0:
            raise ValueError("object counts must be >= 0")
        if self.n_low + self.n_high == 0:
            raise ValueError("need at least one view object")
        if self.n_low == 0 and self.p_low > 0:
            raise ValueError("p_low > 0 requires low-importance objects")
        if self.n_high == 0 and self.p_low < 1:
            raise ValueError("p_high > 0 requires high-importance objects")
        if not 0.0 <= self.partial_probability <= 1.0:
            raise ValueError(f"partial_probability out of [0,1]: {self.partial_probability}")
        if self.attributes_per_object < 1:
            raise ValueError("objects need at least one attribute")
        if self.burst_peak_factor < 1.0:
            raise ValueError(
                f"burst_peak_factor must be >= 1, got {self.burst_peak_factor}"
            )
        if not 0.0 < self.burst_peak_fraction < 1.0:
            raise ValueError(
                f"burst_peak_fraction must be in (0,1): {self.burst_peak_fraction}"
            )
        if self.burst_dwell_mean <= 0:
            raise ValueError(
                f"burst_dwell_mean must be > 0, got {self.burst_dwell_mean}"
            )
        off_rate = self._off_peak_rate()
        if off_rate < 0:
            raise ValueError(
                "bursty parameters give a negative off-peak rate; lower "
                "burst_peak_factor or burst_peak_fraction"
            )

    @property
    def p_high(self) -> float:
        """p_uh = 1 - p_ul."""
        return 1.0 - self.p_low

    @property
    def peak_rate(self) -> float:
        """BURSTY: arrival rate while in the peak state."""
        return self.arrival_rate * self.burst_peak_factor

    def _off_peak_rate(self) -> float:
        # Solve mean = f*peak + (1-f)*off for the off-peak rate.
        f = self.burst_peak_fraction
        return (self.arrival_rate - f * self.peak_rate) / (1.0 - f)

    @property
    def off_peak_rate(self) -> float:
        """BURSTY: arrival rate while in the off-peak state (chosen so the
        long-run mean equals ``arrival_rate``)."""
        return self._off_peak_rate()


@dataclass
class TransactionParams:
    """Table 2 — scheduler baseline settings for transactions."""

    arrival_rate: float = 10.0
    """lambda_t — transaction arrival rate (transactions/second)."""

    p_low: float = 0.5
    """p_tl — probability that a transaction is low-value."""

    slack_min: float = 0.1
    """S_min — minimum slack (seconds)."""

    slack_max: float = 1.0
    """S_max — maximum slack (seconds)."""

    value_low_mean: float = 1.0
    """v_l — mean value of a low-value transaction."""

    value_high_mean: float = 2.0
    """v_h — mean value of a high-value transaction."""

    value_low_stdev: float = 0.5
    """sigma_vl — standard deviation of low values."""

    value_high_stdev: float = 0.5
    """sigma_vh — standard deviation of high values."""

    reads_mean: float = 2.0
    """r — mean number of view objects read."""

    reads_stdev: float = 1.0
    """sigma_r — standard deviation of the read-set size."""

    max_age: float = 7.0
    """alpha — maximum age (seconds) before view data counts as stale
    under the MA definition."""

    compute_mean: float = 0.12
    """x̄ — mean computation time (seconds)."""

    compute_stdev: float = 0.01
    """sigma_x — standard deviation of computation time."""

    p_view: float = 0.0
    """p_view — fraction of the computation performed *before* the view
    reads (step 1 of the transaction pattern)."""

    stale_read_action: StaleReadAction = StaleReadAction.IGNORE
    """Behaviour upon reading stale data (section 6.1 vs 6.2 scenarios)."""

    def validate(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError(f"transaction arrival rate must be > 0, got {self.arrival_rate}")
        if not 0.0 <= self.p_low <= 1.0:
            raise ValueError(f"p_low out of [0,1]: {self.p_low}")
        if self.slack_min < 0 or self.slack_max < self.slack_min:
            raise ValueError(
                f"slack range invalid: [{self.slack_min}, {self.slack_max}]"
            )
        for name in ("value_low_stdev", "value_high_stdev", "reads_stdev", "compute_stdev"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.value_low_mean < 0 or self.value_high_mean < 0:
            raise ValueError("mean transaction values must be >= 0")
        if self.reads_mean < 0:
            raise ValueError("mean read count must be >= 0")
        if self.max_age <= 0:
            raise ValueError(f"max_age must be > 0, got {self.max_age}")
        if self.compute_mean < 0:
            raise ValueError("mean compute time must be >= 0")
        if not 0.0 <= self.p_view <= 1.0:
            raise ValueError(f"p_view out of [0,1]: {self.p_view}")

    @property
    def p_high(self) -> float:
        """p_th = 1 - p_tl."""
        return 1.0 - self.p_low


@dataclass
class SystemParams:
    """Table 3 — scheduler baseline settings for the system."""

    ips: float = 50e6
    """ips — CPU instructions per second."""

    x_lookup: int = 4000
    """x_lookup — instructions to find a data object (index probe)."""

    x_update: int = 20000
    """x_update — instructions to apply an update to a data object."""

    x_switch: int = 0
    """x_switch — instructions per context switch."""

    x_queue: int = 0
    """x_queue — proportionality constant of the update-queue insert/remove
    cost, charged as x_queue * ln(n)."""

    x_scan: int = 0
    """x_scan — instructions to examine one queued update during a scan."""

    x_transform: int = 0
    """Extension (paper §2 "view complexity"): extra instructions per
    applied install into a partition that has an update transformer
    registered (running averages, unit conversions, ...)."""

    x_view_refresh: int = 0
    """Extension (paper §3.2 derived data): instructions to apply one
    delta to one registered derived view (``repro.db.views``).  An eager
    view charges this inside every applied install; a deferred view
    charges it per buffered delta at refresh time."""

    os_queue_max: int = 4000
    """OS_max — maximum size of the OS (kernel) message queue."""

    update_queue_max: int = 5600
    """UQ_max — maximum size of the internal update queue."""

    feasible_deadline: bool = True
    """feasible_dl — abort transactions that can no longer meet their
    deadlines at scheduling points."""

    transaction_preemption: bool = False
    """preemption — whether a newly arrived transaction with higher value
    density may preempt the running one (FALSE in the paper's baseline)."""

    queue_discipline: QueueDiscipline = QueueDiscipline.FIFO
    """queue policy — FIFO (oldest generation first) or LIFO (newest)."""

    indexed_update_queue: bool = False
    """Extension (paper sections 4.2/4.4 future work): maintain a hash index
    on the update queue keyed by object, keeping only the newest update per
    object and making OD lookups O(1)."""

    def validate(self) -> None:
        if self.ips <= 0:
            raise ValueError(f"ips must be > 0, got {self.ips}")
        for name in ("x_lookup", "x_update", "x_switch", "x_queue", "x_scan",
                     "x_transform", "x_view_refresh"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.os_queue_max < 1:
            raise ValueError("OS queue must hold at least one update")
        if self.update_queue_max < 1:
            raise ValueError("update queue must hold at least one update")

    def seconds(self, instructions: float) -> float:
        """Convert an instruction count to seconds of CPU time."""
        return instructions / self.ips


@dataclass
class SimulationConfig:
    """Complete configuration of one simulation run."""

    updates: UpdateStreamParams = field(default_factory=UpdateStreamParams)
    transactions: TransactionParams = field(default_factory=TransactionParams)
    system: SystemParams = field(default_factory=SystemParams)

    staleness: StalenessPolicy = StalenessPolicy.MAX_AGE
    """Which staleness definition the run uses."""

    duration: float = 1000.0
    """Simulated seconds per run (the paper uses 1000)."""

    warmup: float = 0.0
    """Simulated seconds to run before measurement starts.  The database
    begins all-fresh, so short runs understate steady-state staleness
    unless the first ``max_age`` seconds or so are excluded.  Metrics are
    reported over ``[warmup, duration]``."""

    seed: int = 1995
    """Root seed for all random streams."""

    def validate(self) -> "SimulationConfig":
        """Check all domain constraints; returns self for chaining."""
        self.updates.validate()
        self.transactions.validate()
        self.system.validate()
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not 0.0 <= self.warmup < self.duration:
            raise ValueError(
                f"warmup must lie in [0, duration): {self.warmup} vs {self.duration}"
            )
        return self

    def replace(self, **overrides) -> "SimulationConfig":
        """A deep-copied config with top-level fields replaced."""
        return dataclasses.replace(self.copy(), **overrides)

    def copy(self) -> "SimulationConfig":
        """An independent deep copy (nested dataclasses included)."""
        return SimulationConfig(
            updates=dataclasses.replace(self.updates),
            transactions=dataclasses.replace(self.transactions),
            system=dataclasses.replace(self.system),
            staleness=self.staleness,
            duration=self.duration,
            warmup=self.warmup,
            seed=self.seed,
        )

    def with_updates(self, **overrides) -> "SimulationConfig":
        """Copy with update-stream parameters replaced."""
        config = self.copy()
        config.updates = dataclasses.replace(config.updates, **overrides)
        return config

    def with_transactions(self, **overrides) -> "SimulationConfig":
        """Copy with transaction parameters replaced."""
        config = self.copy()
        config.transactions = dataclasses.replace(config.transactions, **overrides)
        return config

    def with_system(self, **overrides) -> "SimulationConfig":
        """Copy with system parameters replaced."""
        config = self.copy()
        config.system = dataclasses.replace(config.system, **overrides)
        return config


def baseline_config(**overrides) -> SimulationConfig:
    """The paper's baseline configuration (Tables 1-3), optionally adjusted.

    Keyword overrides apply to the *top-level* fields of
    :class:`SimulationConfig` (``duration``, ``seed``, ``staleness``); use
    the ``with_*`` helpers for nested parameters.
    """
    return SimulationConfig(**overrides).validate()
