"""The DSPN/SCPN token-game simulation engine.

Implements the firing semantics the paper's models rely on (TimeNET's
Extended Deterministic and Stochastic Petri Nets and Stochastic Colored
Petri Nets):

* Immediate transitions fire eagerly in zero time, highest priority
  first; ties among equal-priority immediates are resolved by a
  weighted random choice.
* Timed transitions race.  A timed transition samples its firing delay
  when it becomes enabled; the clock's behaviour across disabling
  periods follows the transition's
  :class:`~repro.core.transitions.MemoryPolicy` (enabling memory by
  default — the deterministic ``Power_Down_Threshold`` timer must reset
  when a job arrives, which is exactly what enabling memory does).
* Global guards participate in enabling: a guard turning false disables
  the transition and (under enabling memory) cancels its timer.
* Multi-server timed transitions hold one concurrent clock per enabling
  degree up to ``servers``.

The engine advances with the classic next-event loop::

    while clock < horizon:
        fire all enabled immediates (zero time)
        refresh timed-transition schedules
        pop the earliest scheduled firing, advance the clock, fire it

Enabling checks are served from an *enabled-candidate cache*: each
transition's enabling degree is recomputed only when a firing touches
one of its dependency places (inputs, inhibitors, capacitated outputs,
guard reads), keyed through a place → transitions index built once per
run.  Transitions with non-introspectable guards are conservatively
re-checked after every firing, so the cache never changes results —
only the per-event cost, which drops from O(transitions × arcs) to
O(affected transitions).

Statistics are time-weighted between events (see
:mod:`repro.core.statistics`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .arcs import FiringContext
from .errors import DeadlockError, ImmediateLoopError, SimulationError
from .events import EventCalendar
from .marking import MarkingView
from .net import PetriNet
from .statistics import BatchMeans, StatisticsCollector
from .tokens import Token
from .transitions import INFINITE_SERVERS, MemoryPolicy, Transition

__all__ = ["Simulation", "SimulationResult", "simulate"]

#: Default vanishing-loop guard: the most immediate firings one epoch
#: may take; the vectorized engine applies the same bound.
MAX_IMMEDIATE_FIRINGS = 100_000


@dataclass
class SimulationResult:
    """Everything a finished run exposes.

    Attributes
    ----------
    net_name:
        Name of the simulated net.
    end_time:
        Simulation clock when the run stopped.
    stats:
        The :class:`~repro.core.statistics.StatisticsCollector` with all
        time-weighted results.
    firings:
        Total number of transition firings (immediate + timed).
    deadlocked:
        True when the run stopped because nothing was enabled.
    final_marking_counts:
        Token counts at the end of the run.
    batch_means:
        Named :class:`~repro.core.statistics.BatchMeans` trackers
        registered via :meth:`Simulation.track_signal`.
    """

    net_name: str
    end_time: float
    stats: StatisticsCollector
    firings: int
    deadlocked: bool
    final_marking_counts: dict[str, int]
    batch_means: dict[str, BatchMeans] = field(default_factory=dict)

    def occupancy(self, place: str) -> float:
        """Shortcut: fraction of time ``place`` was marked."""
        return self.stats.occupancy(place)

    def mean_tokens(self, place: str) -> float:
        """Shortcut: time-averaged token count of ``place``."""
        return self.stats.mean_tokens(place)

    def predicate_probability(self, name: str) -> float:
        """Shortcut: long-run probability of a registered predicate."""
        return self.stats.predicate_probability(name)

    def throughput(self, transition: str) -> float:
        """Shortcut: post-warm-up firings per unit time."""
        return self.stats.throughput(transition)

    def columns(self) -> "_OneRow":
        """This run as a one-row ensemble: the column read-outs of
        :class:`repro.core.fast.EnsembleResults`, one value each."""
        return _OneRow(self)


class _OneRow:
    """A :class:`SimulationResult` read as per-row columns of one row."""

    __slots__ = ("_result",)

    def __init__(self, result: SimulationResult) -> None:
        self._result = result

    @property
    def end_time(self) -> np.ndarray:
        return np.array([self._result.end_time])

    def occupancy(self, place: str) -> np.ndarray:
        return np.array([self._result.occupancy(place)])

    def predicate_probability(self, name: str) -> np.ndarray:
        return np.array([self._result.predicate_probability(name)])

    def firing_count(self, transition: str) -> np.ndarray:
        return np.array(
            [self._result.stats.firing_count(transition)], dtype=np.int64
        )


class Simulation:
    """One simulation run of a :class:`~repro.core.net.PetriNet`.

    Parameters
    ----------
    net:
        The net definition (not mutated).
    seed / rng:
        Either a seed for a fresh :class:`numpy.random.Generator` or a
        ready generator (exactly one stream per run keeps replications
        independent and reproducible).
    warmup:
        Statistics collected before this time are discarded.
    initial_marking:
        Optional per-place overrides of the initial marking.
    max_immediate_firings:
        Vanishing-loop guard: maximum immediate firings at one epoch.
    on_deadlock:
        ``"stop"`` (default) ends the run quietly; ``"raise"`` raises
        :class:`~repro.core.errors.DeadlockError`.
    """

    def __init__(
        self,
        net: PetriNet,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        warmup: float = 0.0,
        initial_marking: Mapping[str, Any] | None = None,
        max_immediate_firings: int = MAX_IMMEDIATE_FIRINGS,
        on_deadlock: str = "stop",
    ) -> None:
        if on_deadlock not in ("stop", "raise"):
            raise ValueError(
                f"on_deadlock must be 'stop' or 'raise', got {on_deadlock!r}"
            )
        self.net = net
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.time = 0.0
        self.marking = net.initial_marking(initial_marking)
        # Deterministic tie-breaking: equal-time events pop in (timed
        # transition definition order, server slot) order, the same
        # policy a vectorized engine's first-occurrence argmin applies.
        timed_order = {
            t.name: i for i, t in enumerate(net.transitions) if t.is_timed
        }

        def _rank_of(key: str) -> tuple[int, int]:
            name, _, slot = key.partition("#")
            return (timed_order.get(name, len(timed_order)), int(slot or 0))

        self.calendar = EventCalendar(rank_of=_rank_of)
        self.stats = StatisticsCollector(
            net.place_names, net.transition_names, warmup
        )
        self.max_immediate_firings = int(max_immediate_firings)
        self.on_deadlock = on_deadlock
        self.firings = 0
        self.stale_pops = 0
        self.deadlocked = False
        self._view = self.marking.view()
        self._observers: list[Callable[[float, str, dict, list], None]] = []
        self._signals: dict[str, tuple[Callable[[MarkingView], float], BatchMeans]] = {}
        self._timed = [t for t in net.transitions if t.is_timed]
        self._slot_highwater: dict[str, int] = {}
        self._immediate = sorted(
            (t for t in net.transitions if t.is_immediate),
            key=lambda t: -t.priority,
        )
        self._initialized = False
        # Enabled-candidate cache: enabling degrees are recomputed only
        # for transitions whose dependency places a firing touched,
        # instead of rescanning every transition after every event.
        # Transitions whose guard reads cannot be introspected
        # (FunctionGuard and user subclasses) are invalidated after
        # every firing, so the cache is always exact.
        self._degree_cache: dict[str, int] = {}
        self._dirty: set[str] = {t.name for t in net.transitions}
        self._dep_index: dict[str, tuple[str, ...]] = {}
        index: dict[str, set[str]] = {}
        opaque: list[str] = []
        for t in net.transitions:
            deps = t.enabling_dependencies()
            if deps is None:
                opaque.append(t.name)
            else:
                for place in deps:
                    index.setdefault(place, set()).add(t.name)
        self._dep_index = {p: tuple(names) for p, names in index.items()}
        self._opaque_dep_names: tuple[str, ...] = tuple(opaque)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_observer(
        self, fn: Callable[[float, str, dict, list], None]
    ) -> None:
        """Register ``fn(time, transition, consumed, produced)`` firing hook."""
        self._observers.append(fn)

    def add_predicate(
        self, name: str, predicate: Callable[[MarkingView], bool]
    ) -> None:
        """Track the time-averaged truth of a marking predicate."""
        self.stats.add_predicate(name, predicate)

    def track_signal(
        self,
        name: str,
        fn: Callable[[MarkingView], float],
        horizon: float,
        warmup: float | None = None,
        n_batches: int = 20,
    ) -> None:
        """Track ``fn(marking)`` with a batch-means estimator."""
        if name in self._signals:
            raise ValueError(f"signal {name!r} already tracked")
        wu = self.stats.warmup if warmup is None else warmup
        self._signals[name] = (fn, BatchMeans(horizon, wu, n_batches))

    # ------------------------------------------------------------------
    # Enabling logic
    # ------------------------------------------------------------------
    def enabling_degree(self, transition: Transition) -> int:
        """How many concurrent firings the marking supports (0 = disabled).

        Guard false, an inhibitor arc blocking, or insufficient output
        capacity gives 0.  A transition with no input arcs has degree 1
        while its guard holds (a pure source gated by a guard, like the
        closed-workload ``T0``).

        Output capacity participates in enabling (TimeNET semantics): a
        transition whose firing would overflow a bounded place is
        disabled rather than erroring mid-firing.  Reset places are
        exempt (the reset empties them before deposits land).
        """
        for inh in transition.inhibitors:
            if self.marking.count(inh.place) >= inh.multiplicity:
                return 0
        if not transition.guard(self._view):
            return 0
        degree: int | None = None
        for arc in transition.inputs:
            bag = self.marking.bag(arc.place)
            matching = bag.count(arc.token_filter)
            d = matching // arc.multiplicity
            if d == 0:
                return 0
            degree = d if degree is None else min(degree, d)
        reset_places = {r.place for r in transition.resets}
        for arc in transition.outputs:
            if arc.place in reset_places:
                continue
            cap = self.marking._capacities.get(arc.place)
            if cap is None:
                continue
            # Self-loop headroom: tokens this firing removes from the
            # place free up capacity before deposits land.
            removed = sum(
                a.multiplicity
                for a in transition.inputs
                if a.place == arc.place
            )
            headroom = cap - self.marking.count(arc.place) + removed
            d = headroom // arc.multiplicity
            if d <= 0:
                return 0
            degree = d if degree is None else min(degree, d)
        if degree is None:
            return 1
        return int(degree)

    def is_enabled(self, transition: Transition) -> bool:
        """True when ``transition`` may fire in the current marking."""
        return self.enabling_degree(transition) > 0

    def _cached_degree(self, transition: Transition) -> int:
        """Enabling degree via the dirty-tracking candidate cache."""
        name = transition.name
        if name in self._dirty:
            degree = self.enabling_degree(transition)
            self._degree_cache[name] = degree
            self._dirty.discard(name)
            return degree
        return self._degree_cache[name]

    def _invalidate_after_firing(self, touched: set[str]) -> None:
        """Mark every transition whose enabling ``touched`` may affect."""
        dirty = self._dirty
        index = self._dep_index
        for place in touched:
            names = index.get(place)
            if names:
                dirty.update(names)
        dirty.update(self._opaque_dep_names)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, transition: Transition) -> None:
        """Execute one firing of ``transition`` at the current time.

        Assumes enabledness was checked by the caller; raises
        :class:`SimulationError` if token selection fails anyway (which
        would indicate an engine bug or a concurrent marking mutation).
        """
        consumed: dict[str, list[Token]] = {}
        try:
            for arc in transition.inputs:
                taken = self.marking.withdraw(
                    arc.place, arc.multiplicity, arc.token_filter
                )
                consumed.setdefault(arc.place, []).extend(taken)
        except ValueError as exc:
            raise SimulationError(
                f"transition {transition.name!r} fired while not enabled: {exc}"
            ) from exc
        for reset in transition.resets:
            flushed = self.marking.bag(reset.place).clear()
            if flushed:
                consumed.setdefault(reset.place, []).extend(flushed)
        ctx = FiringContext(
            time=self.time,
            consumed=consumed,
            marking=self._view,
            rng=self.rng,
            transition=transition.name,
        )
        produced: list[Token] = []
        touched: set[str] = set(consumed)
        for arc in transition.outputs:
            tokens = arc.make_tokens(ctx)
            self.marking.deposit(arc.place, tokens)
            produced.extend(tokens)
            touched.add(arc.place)
        self._invalidate_after_firing(touched)
        self.firings += 1
        self.stats.on_transition_fired(self.time, transition.name)
        self._sample_statistics()
        for obs in self._observers:
            obs(self.time, transition.name, consumed, produced)

    def _sample_statistics(self) -> None:
        counts = self.marking.counts()
        self.stats.on_marking_change(self.time, self._view, counts)
        for fn, bm in self._signals.values():
            bm.update(self.time, fn(self._view))

    # ------------------------------------------------------------------
    # Immediate phase
    # ------------------------------------------------------------------
    def _fire_immediates(self) -> None:
        """Fire enabled immediates until none remain (priority, then weight)."""
        fired_here = 0
        while True:
            best_priority: int | None = None
            candidates: list[Transition] = []
            for t in self._immediate:
                if best_priority is not None and t.priority < best_priority:
                    break  # sorted descending: no better candidates follow
                if self._cached_degree(t) > 0:
                    if best_priority is None:
                        best_priority = t.priority
                    candidates.append(t)
            if not candidates:
                return
            if len(candidates) == 1:
                chosen = candidates[0]
            else:
                weights = np.array([t.weight for t in candidates])
                idx = int(self.rng.choice(len(candidates), p=weights / weights.sum()))
                chosen = candidates[idx]
            self.fire(chosen)
            fired_here += 1
            if fired_here > self.max_immediate_firings:
                raise ImmediateLoopError(self.time, self.max_immediate_firings)

    # ------------------------------------------------------------------
    # Timed-transition scheduling
    # ------------------------------------------------------------------
    def _slot_key(self, transition: Transition, slot: int) -> str:
        if slot == 0:
            return transition.name
        return f"{transition.name}#{slot}"

    def _live_slots(self, transition: Transition) -> list[tuple[int, str]]:
        """(slot index, key) pairs of currently scheduled server slots."""
        high = self._slot_highwater.get(transition.name, 1)
        out: list[tuple[int, str]] = []
        for slot in range(high):
            key = self._slot_key(transition, slot)
            if self.calendar.is_scheduled(key):
                out.append((slot, key))
        return out

    def _start_slot(self, transition: Transition, key: str) -> None:
        clk = self.calendar.clock(key)
        if transition.memory is MemoryPolicy.AGE and clk.remaining is not None:
            delay = clk.remaining
            clk.remaining = None
        else:
            delay = transition.distribution.sample(self.rng)
        clk.enabled_since = self.time
        self.calendar.schedule(key, self.time + delay)

    def _stop_slot(self, transition: Transition, key: str) -> None:
        if transition.memory is MemoryPolicy.AGE:
            clk = self.calendar.clock(key)
            if clk.scheduled_at is not None:
                clk.remaining = max(0.0, clk.scheduled_at - self.time)
        self.calendar.cancel(key)

    def _refresh_timed(self) -> None:
        """Bring every timed transition's schedule in line with enabling."""
        for t in self._timed:
            degree = self._cached_degree(t)
            if t.servers == 1:
                want = 1 if degree > 0 else 0
            elif t.servers == INFINITE_SERVERS:
                want = degree
            else:
                want = min(degree, t.servers)
            live = self._live_slots(t)
            if t.memory is MemoryPolicy.RESAMPLE and want > 0 and live:
                # Race resampling: drop all live clocks, draw fresh ones.
                for _, key in live:
                    self.calendar.cancel(key)
                live = []
            have = len(live)
            if want > have:
                taken = {slot for slot, _ in live}
                need = want - have
                slot = 0
                while need > 0:
                    if slot not in taken:
                        self._start_slot(t, self._slot_key(t, slot))
                        high = self._slot_highwater.get(t.name, 1)
                        if slot + 1 > high:
                            self._slot_highwater[t.name] = slot + 1
                        need -= 1
                    slot += 1
            elif want < have:
                # Cancel the slots due to fire last (preserve the
                # earliest-finishing work, matching preemption of the
                # most recently started server).
                by_time = sorted(
                    live,
                    key=lambda sk: self.calendar.scheduled_time(sk[1]) or 0.0,
                    reverse=True,
                )
                for _, key in by_time[: have - want]:
                    self._stop_slot(t, key)

    @staticmethod
    def _transition_of_key(key: str) -> str:
        return key.split("#", 1)[0]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        if self._initialized:
            return
        self.stats.initialize(self._view, self.marking.counts())
        for fn, bm in self._signals.values():
            bm.update(0.0, fn(self._view))
        self._fire_immediates()
        self._refresh_timed()
        self._initialized = True

    def step(self) -> bool:
        """Advance to the next timed firing; False when nothing is scheduled."""
        self._initialize()
        entry = self.calendar.pop_next()
        if entry is None:
            return False
        if entry.time < self.time:
            raise SimulationError(
                f"event calendar produced past event: {entry.time} < {self.time}"
            )
        self.time = entry.time
        name = self._transition_of_key(entry.transition)
        transition = self.net.transition(name)
        # Defensive: the engine's own invariant is scheduled => enabled,
        # but a caller mutating the marking or calendar directly can
        # break it.  A stale pop must still behave like a (non-firing)
        # event: the clock advance above stands, and statistics are
        # sampled at the new time so accumulator clocks stay in sync
        # with the run instead of silently skipping the epoch.
        if self._cached_degree(transition) > 0:
            self.fire(transition)
            self._fire_immediates()
        else:
            self.stale_pops += 1
            self._sample_statistics()
        self._refresh_timed()
        return True

    def run(self, horizon: float, max_firings: int | None = None) -> SimulationResult:
        """Simulate until ``horizon`` (or deadlock / ``max_firings``)."""
        if not 0 < horizon < math.inf:
            raise ValueError(f"horizon must be > 0 and finite, got {horizon}")
        self._initialize()
        stopped_early = False
        while True:
            next_time = self.calendar.peek_time()
            if next_time is None:
                self.deadlocked = True
                if self.on_deadlock == "raise":
                    raise DeadlockError(self.time)
                break
            if next_time > horizon:
                break
            if not self.step():
                self.deadlocked = True
                break
            if max_firings is not None and self.firings >= max_firings:
                stopped_early = True
                break
        # A deadlocked marking is frozen, so its statistics legitimately
        # keep accumulating up to the horizon; only a max_firings stop
        # truncates the observation window at the current clock.
        end = self.time if stopped_early else horizon
        self.time = end
        self.stats.finalize(end)
        for fn, bm in self._signals.values():
            bm.update(end, fn(self._view))
            bm.finalize()
        return SimulationResult(
            net_name=self.net.name,
            end_time=end,
            stats=self.stats,
            firings=self.firings,
            deadlocked=self.deadlocked,
            final_marking_counts=self.marking.counts(),
            batch_means={name: bm for name, (_, bm) in self._signals.items()},
        )


def simulate(
    net: PetriNet,
    horizon: float,
    seed: int | None = None,
    warmup: float = 0.0,
    predicates: Mapping[str, Callable[[MarkingView], bool]] | None = None,
    initial_marking: Mapping[str, Any] | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper: build a run, register predicates, go."""
    sim = Simulation(
        net, seed=seed, warmup=warmup, initial_marking=initial_marking
    )
    for name, pred in (predicates or {}).items():
        sim.add_predicate(name, pred)
    return sim.run(horizon)
