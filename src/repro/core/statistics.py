"""Time-weighted statistics for simulation runs.

The paper extracts model answers as *steady-state probabilities* — the
long-run fraction of time a place is marked ("the average number of
tokens in ``CPU_ON`` will indicate the percentage of time the CPU was
'on'").  This module implements exactly that estimator plus the usual
companions:

* :class:`TimeWeightedAccumulator` — ∫x(t)dt between marking changes,
  giving time-averaged token counts and occupancy probabilities
  P(#place ≥ 1).
* :class:`PredicateStatistic` — time-averaged truth of an arbitrary
  marking predicate (used for derived states such as "CPU active" =
  ``#CPU_ON ≥ 1 and #Buffer ≥ 1``).
* :class:`TransitionCounter` — firing counts and throughput.
* :class:`BatchMeans` — batch-means steady-state point estimate with a
  Student-t confidence interval (the estimator TimeNET's simulative
  stationary analysis uses).
* :func:`replication_interval` — mean ± t-interval across *independent
  replications* (the multi-replication counterpart of batch means,
  used by the :mod:`repro.runtime` parallel sweeps).

All statistics honour a warm-up time: samples before ``warmup`` are
discarded so the transient does not bias steady-state estimates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TimeWeightedAccumulator",
    "PredicateStatistic",
    "TransitionCounter",
    "BatchMeans",
    "ConfidenceInterval",
    "StatisticsCollector",
    "replication_interval",
]


class TimeWeightedAccumulator:
    """Accumulates ∫x(t)dt for a piecewise-constant signal x(t).

    Call :meth:`update` with the *current* value each time the signal
    may have changed; the accumulator integrates the previous value over
    the elapsed interval.  Samples before ``warmup`` are discarded.
    """

    __slots__ = (
        "warmup",
        "_last_time",
        "_last_value",
        "_integral",
        "_nonzero_time",
        "_observed_time",
        "_max_value",
    )

    def __init__(self, warmup: float = 0.0, initial_value: float = 0.0) -> None:
        self.warmup = float(warmup)
        self._last_time = 0.0
        self._last_value = float(initial_value)
        self._integral = 0.0
        self._nonzero_time = 0.0
        self._observed_time = 0.0
        self._max_value = float(initial_value)

    def update(self, now: float, value: float) -> None:
        """Advance to ``now`` integrating the previous value; set new value."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        lo = max(self._last_time, self.warmup)
        hi = now
        if hi > lo:
            dt = hi - lo
            self._integral += self._last_value * dt
            self._observed_time += dt
            if self._last_value > 0:
                self._nonzero_time += dt
        self._last_time = now
        self._last_value = float(value)
        if value > self._max_value:
            self._max_value = float(value)

    def finalize(self, end_time: float) -> None:
        """Integrate the current value up to ``end_time`` (end of run)."""
        self.update(end_time, self._last_value)

    @property
    def observed_time(self) -> float:
        """Post-warm-up time integrated so far."""
        return self._observed_time

    def time_average(self) -> float:
        """Time-averaged value (0 when nothing observed yet)."""
        if self._observed_time <= 0:
            return 0.0
        return self._integral / self._observed_time

    def fraction_nonzero(self) -> float:
        """Fraction of observed time with value > 0 (occupancy P(x ≥ 1))."""
        if self._observed_time <= 0:
            return 0.0
        return self._nonzero_time / self._observed_time

    def maximum(self) -> float:
        """Maximum value seen (including during warm-up)."""
        return self._max_value

    def current(self) -> float:
        """The value as of the last update."""
        return self._last_value


class PredicateStatistic:
    """Time-averaged truth value of a marking predicate.

    Energy accounting uses these for derived power states: e.g. the CPU
    is *active* while ``#CPU_ON >= 1 and #CPU_Buffer >= 1`` even though
    no single place encodes "active".
    """

    __slots__ = ("name", "predicate", "acc")

    def __init__(
        self,
        name: str,
        predicate: Callable[["object"], bool],
        warmup: float = 0.0,
    ) -> None:
        self.name = name
        self.predicate = predicate
        self.acc = TimeWeightedAccumulator(warmup)

    def update(self, now: float, marking: "object") -> None:
        """Sample the predicate at ``now``."""
        self.acc.update(now, 1.0 if self.predicate(marking) else 0.0)

    def probability(self) -> float:
        """Long-run probability the predicate holds."""
        return self.acc.time_average()


class TransitionCounter:
    """Firing counts and throughput for one transition."""

    __slots__ = ("warmup", "count", "_last_time")

    def __init__(self, warmup: float = 0.0) -> None:
        self.warmup = float(warmup)
        self.count = 0
        self._last_time = 0.0

    def record(self, now: float) -> None:
        """Record one firing at ``now``."""
        self._last_time = max(self._last_time, now)
        if now >= self.warmup:
            self.count += 1

    def throughput(self, end_time: float) -> float:
        """Firings per unit time over the post-warm-up horizon."""
        horizon = end_time - self.warmup
        if horizon <= 0:
            return 0.0
        return self.count / horizon


@lru_cache(maxsize=1024)
def _t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value ``t_{1-(1-c)/2, df}``.

    ``scipy.special.stdtrit`` is the inverse CDF that
    ``scipy.stats.t.ppf`` itself calls, so the values are bit-equal.
    It is imported here, not at module level, so a process that never
    reports an interval never pays for loading SciPy.

    Memoised: a sweep report asks for the same few ``(confidence,
    df)`` pairs once per point.
    """
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + confidence / 2.0))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    batches: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def relative_half_width(self) -> float:
        """Half-width / |mean|.

        The degenerate 0 ± 0 interval (a constant-zero metric) is
        perfectly precise, so it reports 0.0 — any relative-width
        stopping rule is immediately satisfied.  Only a genuinely
        undefined ratio (zero mean with nonzero half-width) is ``inf``.
        """
        if self.half_width == 0:
            return 0.0
        if self.mean == 0:
            return math.inf
        return abs(self.half_width / self.mean)


class BatchMeans:
    """Batch-means estimator over a time-weighted signal.

    The observation horizon (post warm-up) is divided into ``n_batches``
    equal windows; the per-window time averages are treated as i.i.d.
    samples for a Student-t interval.  This is the standard steady-state
    output analysis method for a single long replication.
    """

    __slots__ = (
        "warmup",
        "n_batches",
        "_batch_ends",
        "_batch_integrals",
        "_batch_durations",
        "_acc",
        "_horizon",
    )

    def __init__(
        self, horizon: float, warmup: float = 0.0, n_batches: int = 20
    ) -> None:
        if n_batches < 2:
            raise ValueError(f"need at least 2 batches, got {n_batches}")
        if horizon <= warmup:
            raise ValueError(
                f"horizon {horizon} must exceed warmup {warmup}"
            )
        self.warmup = float(warmup)
        self.n_batches = int(n_batches)
        span = (horizon - warmup) / n_batches
        self._batch_ends = [warmup + span * (i + 1) for i in range(n_batches)]
        self._batch_integrals = [0.0] * n_batches
        self._batch_durations = [0.0] * n_batches
        self._acc: tuple[float, float] = (0.0, 0.0)  # (last_time, last_value)
        self._horizon = float(horizon)

    def update(self, now: float, value: float) -> None:
        """Advance to ``now``, attributing the previous value to batches."""
        last_time, last_value = self._acc
        if now < last_time:
            raise ValueError(f"time went backwards: {now} < {last_time}")
        self._attribute(last_time, min(now, self._horizon), last_value)
        self._acc = (now, float(value))

    def finalize(self) -> None:
        """Close the final batch at the horizon."""
        last_time, last_value = self._acc
        self._attribute(last_time, self._horizon, last_value)
        self._acc = (self._horizon, last_value)

    def _attribute(self, start: float, end: float, value: float) -> None:
        start = max(start, self.warmup)
        if end <= start:
            return
        span = (self._horizon - self.warmup) / self.n_batches
        # Walk the batches the interval overlaps.
        first = int((start - self.warmup) / span)
        first = min(max(first, 0), self.n_batches - 1)
        t = start
        for i in range(first, self.n_batches):
            b_end = self._batch_ends[i]
            seg_end = min(end, b_end)
            if seg_end > t:
                dt = seg_end - t
                self._batch_integrals[i] += value * dt
                self._batch_durations[i] += dt
                t = seg_end
            if t >= end:
                break

    def batch_means(self) -> np.ndarray:
        """Time averages of the batches that observed any time.

        A run that ends before the horizon leaves zero-duration
        trailing batches; treating those as 0.0 samples would drag the
        mean toward 0 *and* shrink the interval with fabricated
        observations, so empty batches are dropped — the returned array
        has one entry per batch with ``duration > 0``.
        """
        out = [
            self._batch_integrals[i] / self._batch_durations[i]
            for i in range(self.n_batches)
            if self._batch_durations[i] > 0
        ]
        return np.asarray(out, dtype=float)

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Point estimate and Student-t confidence interval.

        ``batches`` in the returned interval counts the *non-empty*
        batches actually backing the estimate, which can be fewer than
        ``n_batches`` for a run truncated before the horizon.
        """
        means = self.batch_means()
        n = len(means)
        if n == 0:
            return ConfidenceInterval(0.0, math.inf, confidence, 0)
        mean = float(np.mean(means))
        if n < 2:
            return ConfidenceInterval(mean, math.inf, confidence, n)
        sd = float(np.std(means, ddof=1))
        tcrit = _t_critical(confidence, n - 1)
        half = tcrit * sd / math.sqrt(n)
        return ConfidenceInterval(mean, half, confidence, n)


def replication_interval(
    values: "Sequence[float] | np.ndarray", confidence: float = 0.95
) -> ConfidenceInterval:
    """Mean ± Student-t interval across independent replications.

    The across-replication analogue of :meth:`BatchMeans.interval`:
    each value is one replication's output (total energy, mean power,
    …), assumed i.i.d., and the half-width is
    ``t_{1-(1-c)/2, n-1} · s / √n``.  A single replication yields an
    infinite half-width — a point estimate with unknown uncertainty —
    rather than an error, so callers can treat R=1 and R>1 uniformly.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one replication value")
    mean = float(np.mean(arr))
    n = int(arr.size)
    if n < 2:
        return ConfidenceInterval(mean, math.inf, confidence, n)
    sd = float(np.std(arr, ddof=1))
    tcrit = _t_critical(confidence, n - 1)
    return ConfidenceInterval(mean, tcrit * sd / math.sqrt(n), confidence, n)


class StatisticsCollector:
    """Aggregates all per-run statistics and is driven by the simulator.

    The simulator calls :meth:`on_marking_change` after every firing
    (immediate or timed) and :meth:`on_transition_fired` for each firing.
    """

    def __init__(
        self,
        place_names: list[str] | tuple[str, ...],
        transition_names: list[str] | tuple[str, ...],
        warmup: float = 0.0,
    ) -> None:
        self.warmup = float(warmup)
        self.place_acc: dict[str, TimeWeightedAccumulator] = {
            name: TimeWeightedAccumulator(warmup) for name in place_names
        }
        self.transition_counters: dict[str, TransitionCounter] = {
            name: TransitionCounter(warmup) for name in transition_names
        }
        self.predicates: dict[str, PredicateStatistic] = {}
        self.end_time = 0.0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_predicate(
        self, name: str, predicate: Callable[["object"], bool]
    ) -> None:
        """Track the time-averaged truth of ``predicate`` under ``name``."""
        if name in self.predicates:
            raise ValueError(f"predicate statistic {name!r} already registered")
        self.predicates[name] = PredicateStatistic(name, predicate, self.warmup)

    # ------------------------------------------------------------------
    # Simulator hooks
    # ------------------------------------------------------------------
    def initialize(self, marking: "object", counts: dict[str, int]) -> None:
        """Record the initial state at t=0."""
        for name, acc in self.place_acc.items():
            acc.update(0.0, counts.get(name, 0))
        for pred in self.predicates.values():
            pred.update(0.0, marking)

    def on_marking_change(
        self, now: float, marking: "object", counts: dict[str, int]
    ) -> None:
        """Sample every tracked quantity at ``now``."""
        for name, acc in self.place_acc.items():
            acc.update(now, counts.get(name, 0))
        for pred in self.predicates.values():
            pred.update(now, marking)

    def on_transition_fired(self, now: float, transition: str) -> None:
        """Count one firing."""
        counter = self.transition_counters.get(transition)
        if counter is not None:
            counter.record(now)

    def finalize(self, end_time: float) -> None:
        """Close all integrals at the end of the run."""
        self.end_time = float(end_time)
        for acc in self.place_acc.values():
            acc.finalize(end_time)
        for pred in self.predicates.values():
            pred.acc.finalize(end_time)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def mean_tokens(self, place: str) -> float:
        """Time-averaged token count of ``place``."""
        return self.place_acc[place].time_average()

    def occupancy(self, place: str) -> float:
        """P(#place ≥ 1): fraction of time the place is marked."""
        return self.place_acc[place].fraction_nonzero()

    def predicate_probability(self, name: str) -> float:
        """Long-run probability of a registered predicate."""
        return self.predicates[name].probability()

    def firing_count(self, transition: str) -> int:
        """Post-warm-up firing count."""
        return self.transition_counters[transition].count

    def throughput(self, transition: str) -> float:
        """Post-warm-up firings per unit time."""
        return self.transition_counters[transition].throughput(self.end_time)

    def state_probabilities(self) -> dict[str, float]:
        """Occupancy of every place (the paper's 'steady-state percentage')."""
        return {name: acc.fraction_nonzero() for name, acc in self.place_acc.items()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Nested summary dict for reports."""
        return {
            "mean_tokens": {
                n: a.time_average() for n, a in self.place_acc.items()
            },
            "occupancy": {
                n: a.fraction_nonzero() for n, a in self.place_acc.items()
            },
            "throughput": {
                n: c.throughput(self.end_time)
                for n, c in self.transition_counters.items()
            },
            "predicates": {
                n: p.probability() for n, p in self.predicates.items()
            },
        }
