"""The lockstep ensemble engine: many replications as the rows of NumPy
arrays.

All rows run one compiled net (see :mod:`repro.core.fast.compile`) and
keep their marking as the rows of one ``[R, n_state]`` int64 state
array.  A per-row timing table may give chosen timed transitions a
different distribution in each row, so the rows of a whole parameter
sweep run together.

One *round* advances every still-active replication by exactly one
timed event:

1. The active rows sit at positions ``[0, n)`` of every per-row array,
   so a round works on ``[:n]`` views, not index-array gathers.
   ``argmin`` over the ``[n, S]`` slot-time view picks each
   replication's next firing; replications whose next event lies beyond
   their own horizon (or that deadlocked — all slots idle) retire.  The
   live rows past the new prefix then swap places with the retired rows
   inside it, in every per-row array, so a retirement costs one gather
   and one scatter of those few rows per array.  ``perm`` maps each
   position to its seed-order row: generators and per-row distributions
   are read through it and never move.  The end of the run restores
   seed order once.
2. Time-weighted statistics integrate the *resting* counts over each
   replication's elapsed interval (dt == 0 never contributes, matching
   the interpreted accumulator's ``if hi > lo`` guard bit for bit).
3. Each popped slot's transition fires unless the degrees cached by the
   last refresh say it was disabled (the same defensive
   scheduled-but-stale check as :meth:`Simulation.step`).  A firing
   step applies every row's static deltas at once (each row fires at
   most once per step): a whole prefix adds one dense delta row per
   row, a subset one flat add through the net's delta table.  Then the
   FIFO ops of the transitions that have any, per transition.
4. The immediate phase loops: one degree-table evaluation gives every
   immediate's enabling for every remaining row, the first enabled one
   in priority order wins, and only rows with a genuine equal-priority
   tie make the interpreted engine's exact weighted ``rng.choice``
   call (a pass looks for ties only when some row has two immediates
   enabled or more).  Every immediate is evaluated every round: one
   whose places no firing touched is still disabled, so the result is
   the same as evaluating only the touched ones.
5. The timed refresh evaluates every timed transition's degree at once
   and stops and starts all single-server slots as one ``[R, T]``
   block: deterministic delays come from a per-row delay matrix, and
   stochastic single-server and all multi-server transitions then draw
   per row with each row's own generator, in net definition order —
   the interpreted engine's draw order.  A single-server transition
   draws for all its starting rows in one list, written back with one
   add.  An unchanged, unpopped transition already has as many live
   slots as it wants, so it starts and stops nothing.

Every replication owns a private generator in the state of
``default_rng(seed)`` (rows that repeat an ``int`` seed, as a sweep's
points do, share its initial state words but never a generator);
cross-replication interleaving never touches the streams, which is what
makes the engine bit-identical to ``Simulation(net, seed).run(horizon)``
per row for compilable nets (see the package docstring for the
contract).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from ..distributions import FiringDistribution
from ..errors import (
    ImmediateLoopError,
    SimulationError,
    UnsupportedNetError,
)
from ..net import PetriNet
from ..simulator import MAX_IMMEDIATE_FIRINGS, SimulationResult
from ..statistics import (
    PredicateStatistic,
    StatisticsCollector,
)
from .compile import (
    CompiledNet,
    CompiledTransition,
    DegreeTable,
    FiringPlan,
    compile_net,
)

__all__ = [
    "EnsembleCounts",
    "EnsembleResults",
    "VectorPredicate",
    "run_ensemble",
]


#: The rows a step works on: the active prefix ``slice(0, n)`` (array
#: views) or an array of positions inside it (gathers).
_Rows = slice | np.ndarray


class EnsembleCounts:
    """Marking facade over the ensemble: ``count(place) -> int64[R]``.

    Handed to :class:`VectorPredicate` functions; arithmetic over the
    returned arrays vectorizes naturally (``m.count("A") + m.count("B")
    > 0`` yields a boolean vector).  Only the places a predicate reads
    are gathered, for the selected ``rows``.
    """

    __slots__ = ("_totals", "_index", "_rows")

    def __init__(self, totals: np.ndarray, index: dict[str, int], rows: _Rows) -> None:
        self._totals = totals
        self._index = index
        self._rows = rows

    def count(self, place: str) -> np.ndarray:
        """Token counts of ``place`` across the selected replications."""
        return self._totals[self._rows, self._index[place]]


class VectorPredicate:
    """A marking predicate evaluated for all replications at once.

    ``fn`` receives an :class:`EnsembleCounts` and must return a boolean
    vector.  Wrap predicates in this class when they are pure count
    arithmetic; plain scalar callables (evaluated per replication
    against a ``count()`` view) also work but cost a Python call per
    replication per firing.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[EnsembleCounts], np.ndarray]) -> None:
        self.fn = fn


class _ScalarCounts:
    """Single-replication ``count()`` view for scalar predicates."""

    __slots__ = ("_totals", "_index", "_row")

    def __init__(self, totals: np.ndarray, index: dict[str, int]) -> None:
        self._totals = totals
        self._index = index
        self._row = 0

    def count(self, place: str) -> int:
        return int(self._totals[self._row, self._index[place]])


class _ColorQueue:
    """Per-place FIFO colour ring buffer over all replications.

    Row ``r`` holds ``size[r]`` colour codes from slot ``head[r]`` on,
    wrapping at ``cap``.  A push or pop reads the sizes and heads of
    its rows once; a push that would overfill any row first doubles
    ``cap`` for all rows, unrolling every ring to start at slot 0.
    """

    __slots__ = ("buf", "head", "size", "cap")

    def __init__(self, n_reps: int, initial: Sequence[int]) -> None:
        n0 = len(initial)
        self.cap = max(4, 2 * n0)
        self.buf = np.zeros((n_reps, self.cap), dtype=np.int64)
        if n0:
            self.buf[:, :n0] = np.asarray(initial, dtype=np.int64)
        self.head = np.zeros(n_reps, dtype=np.int64)
        self.size = np.full(n_reps, n0, dtype=np.int64)

    def _grow(self) -> None:
        new_cap = self.cap * 2
        idx = (self.head[:, None] + np.arange(self.cap)) % self.cap
        unrolled = np.take_along_axis(self.buf, idx, axis=1)
        buf = np.zeros((self.buf.shape[0], new_cap), dtype=np.int64)
        buf[:, : self.cap] = unrolled
        self.buf = buf
        self.head[:] = 0
        self.cap = new_cap

    def push(self, idx: np.ndarray, codes: np.ndarray | int) -> None:
        size = self.size[idx]
        if (size >= self.cap).any():
            self._grow()  # moves every head to 0, so read heads after it
        pos = (self.head[idx] + size) % self.cap
        self.buf[idx, pos] = codes
        self.size[idx] = size + 1

    def pop(self, idx: np.ndarray) -> np.ndarray:
        size = self.size[idx]
        if (size <= 0).any():
            raise SimulationError(
                "vectorized engine popped from an empty FIFO place "
                "(engine invariant violated)"
            )
        head = self.head[idx]
        codes = self.buf[idx, head]
        self.head[idx] = (head + 1) % self.cap
        self.size[idx] = size - 1
        return codes

    def pop_matching(self, idx: np.ndarray, code: int) -> None:
        """Remove the oldest token of colour ``code`` per replication.

        Mirrors ``TokenBag.take(1, filter)``: later tokens keep their
        relative order.  Per-replication scan; matched pops are rare
        relative to head pops, so the Python loop stays off the hot
        path.
        """
        buf, head, size, cap = self.buf, self.head, self.size, self.cap
        for r in idx:
            n = int(size[r])
            h = int(head[r])
            for j in range(n):
                if buf[r, (h + j) % cap] == code:
                    for k in range(j, n - 1):
                        buf[r, (h + k) % cap] = buf[r, (h + k + 1) % cap]
                    size[r] = n - 1
                    break
            else:
                raise SimulationError(
                    "vectorized engine found no matching token in a FIFO "
                    "place (engine invariant violated)"
                )


def _initial_state(
    cn: CompiledNet, initial_marking: Mapping[str, Any] | None
) -> tuple[np.ndarray, dict[int, list[int]]]:
    """The ``[n_state]`` initial state and FIFO contents of a compiled net.

    Read through the engine's own Marking so overrides, capacities and
    colour order behave exactly as in the interpreted engine.
    """
    marking = cn.net.initial_marking(initial_marking)
    state = np.zeros(cn.n_state, dtype=np.int64)
    init_queues: dict[int, list[int]] = {}
    for name, p in cn.place_index.items():
        colors = marking.bag(name).colors()
        if name not in cn.observable:
            # Colours in non-observable places are projected to the
            # colourless token at compile time (see compile.py); the
            # initial marking must collapse the same way or the counts
            # would desync from the compiled firing plans.
            colors = [None] * len(colors)
        pool = cn.possible_colors.get(name, frozenset())
        for c in colors:
            if c not in pool:
                raise UnsupportedNetError(
                    f"initial-marking colour {c!r} outside the compiled "
                    "colour pool of this place",
                    name,
                )
            if p in cn.color_base:
                state[cn.color_base[p] + cn.color_index[c]] += 1
        state[p] = len(colors)
        if p in cn.queued_places:
            init_queues[p] = [cn.color_index[c] for c in colors]
    for p, col in cn.headroom.items():
        state[col] = cn.capacities[p] - state[p]
    return state, init_queues


class _Ensemble:
    """Mutable run state of one lockstep ensemble.

    Every per-row array is indexed by *position*.  While :meth:`run`
    steps, the active rows hold positions ``[0, n)`` and ``perm[pos]``
    is the seed-order row at ``pos``; outside it, positions are rows.
    """

    def __init__(
        self,
        cn: CompiledNet,
        rngs: list[np.random.Generator],
        row_timing: Mapping[str, Sequence[FiringDistribution]],
        warmup: float,
        initial_marking: Mapping[str, Any] | None,
        predicates: Mapping[str, Any] | None,
    ) -> None:
        self.cn = cn
        self.rngs = rngs
        self.warmup = float(warmup)
        reps = len(rngs)
        n_places = cn.n_places
        state0, init_queues = _initial_state(cn, initial_marking)
        self.state = np.repeat(state0[None, :], reps, axis=0)
        self.flat = self.state.reshape(-1)  # a view: row r, column c at r * n_state + c
        self.totals = self.state[:, :n_places]  # a view
        self.queues = {
            p: _ColorQueue(reps, init_queues.get(p, []))
            for p in cn.queued_places
        }
        # Plans of the transitions with FIFO ops, by net index.
        self.plans = {
            ct.index: ct.plan
            for ct in cn.timed + cn.immediates
            if ct.plan.has_queue_ops
        }
        self.has_queue = np.zeros(len(cn.transition_names), dtype=bool)
        self.has_queue[list(self.plans)] = True
        # The delta table as one dense [n_transitions, n_state] row per
        # transition (the padding adds 0 to the sentinel).
        self.delta_rows = np.zeros((len(cn.transition_names), cn.n_state), np.int64)
        for t, (cols, vals) in enumerate(zip(cn.delta_cols, cn.delta_vals)):
            np.add.at(self.delta_rows[t], cols, vals)
        # Per-row timing of every timed transition: a delay vector when
        # every row is deterministic (no draw), else one distribution
        # per row, sampled with that row's own generator; both are read
        # through ``perm``.  The single-server slots take their
        # deterministic delays from one [R, T] matrix (NaN where a draw
        # decides); transitions that draw or have several servers
        # refresh per row, in definition order.
        self.timing: list[np.ndarray | list[Any]] = []
        single = [u for u, ct in enumerate(cn.timed) if ct.servers == 1]
        self.single_pos = np.array(single, dtype=np.int64)
        self.single_cols = np.array(
            [cn.timed[u].col0 for u in single], dtype=np.int64
        )
        self.all_single = len(single) == cn.n_slots
        self.delay = np.full((reps, len(single)), np.nan)
        self.per_row: list[tuple[int, int]] = []  # (timed position, block column)
        for u, ct in enumerate(cn.timed):
            dists = row_timing.get(ct.name, [ct.distribution] * reps)
            # Rows share distribution objects (a sweep point's rows hold
            # one), so each distinct object is checked once.
            distinct = dict(zip(map(id, dists), dists)).values()
            if all(d.is_deterministic for d in distinct):
                self.timing.append(np.array([d.delay for d in dists]))
            else:
                self.timing.append(list(dists))
            j = single.index(u) if ct.servers == 1 else -1
            if j < 0 or isinstance(self.timing[u], list):
                self.per_row.append((u, j))
            else:
                self.delay[:, j] = self.timing[u]
        self.timed_index = np.array(
            [ct.index for ct in cn.timed], dtype=np.int64
        )
        self.imm_index = np.array(
            [ct.index for ct in cn.immediates], dtype=np.int64
        )
        prios = [ct.priority for ct in cn.immediates]
        self.imm_priority = np.array(prios, dtype=np.int64)
        self.imm_ties = len(set(prios)) < len(prios)  # a tie is possible
        self.clock = np.zeros(reps)
        self.sched = np.full((reps, cn.n_slots), np.inf)
        # Whether each timed transition was enabled at the row's last
        # refresh: its degree cannot change before the next pop.
        self.enabled = np.zeros((reps, len(cn.timed)), dtype=bool)
        self.firings = np.zeros(reps, dtype=np.int64)
        self.firing_counts = np.zeros(
            (reps, len(cn.transition_names)), dtype=np.int64
        )
        self.transition_index = {
            name: j for j, name in enumerate(cn.transition_names)
        }
        self.stale_pops = 0
        self.deadlocked = np.zeros(reps, dtype=bool)
        self.horizon = np.zeros(reps)  # set by run()
        # Statistics arrays (see TimeWeightedAccumulator): one shared
        # observed-time vector — every accumulator of a replication sees
        # the same update times.
        self.integral = np.zeros((reps, n_places))
        self.nonzero_time = np.zeros((reps, n_places))
        self.observed = np.zeros(reps)
        # Running maxima of the totals, in the state's layout so a
        # firing's delta columns index them too (the other columns are
        # never read).  max >= totals always holds, so only a total the
        # firing changed can raise its maximum, and raising a whole
        # block leaves the unchanged ones as they were.
        self.max_counts = self.state.copy()
        self.preds: list[tuple[str, Any, bool]] = []
        self.pred_value: dict[str, np.ndarray] = {}
        self.pred_integral: dict[str, np.ndarray] = {}
        self.pred_max: dict[str, np.ndarray] = {}
        for name, spec in (predicates or {}).items():
            vector = isinstance(spec, VectorPredicate)
            self.preds.append((name, spec, vector))
            self.pred_value[name] = np.zeros(reps)
            self.pred_integral[name] = np.zeros(reps)
            self.pred_max[name] = np.zeros(reps)
        self.perm = np.arange(reps)
        self._pos = np.arange(reps)  # positions, sliced for index arithmetic
        self._eval_predicates(slice(0, reps))
        for name in self.pred_value:
            self.pred_max[name] = self.pred_value[name].copy()
        # Time 0, as Simulation._initialize: immediates settle, then the
        # enabled timed transitions are scheduled.
        self._immediate_phase(reps)
        if cn.n_slots:
            self._refresh_timed(reps)

    def _positions(self, rows: _Rows) -> np.ndarray:
        """``rows`` as an array of positions."""
        return self._pos[rows] if isinstance(rows, slice) else rows

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _eval_predicates(self, rows: _Rows) -> None:
        if not self.preds:
            return
        for name, spec, vector in self.preds:
            if vector:
                counts = EnsembleCounts(self.totals, self.cn.place_index, rows)
                vals = np.asarray(spec.fn(counts), dtype=bool).astype(float)
            else:
                view = _ScalarCounts(self.totals, self.cn.place_index)
                pos = self._positions(rows)
                vals = np.empty(pos.size)
                for a, r in enumerate(pos):
                    view._row = r
                    vals[a] = 1.0 if spec(view) else 0.0
            self.pred_value[name][rows] = vals
            # NB: arr[idx] is a fancy-indexing copy — assign back, never
            # np.maximum(..., out=arr[idx]).
            self.pred_max[name][rows] = np.maximum(self.pred_max[name][rows], vals)

    # ------------------------------------------------------------------
    # Enabling
    # ------------------------------------------------------------------
    def _degrees(self, table: DegreeTable, rows: _Rows) -> np.ndarray:
        """``[rows, table.n]`` enabling degrees of one class."""
        n = table.n
        if isinstance(rows, slice):
            block = self.state[rows][:, table.cols]
        else:
            block = self.flat[rows[:, None] * self.cn.n_state + table.cols]
        deg = None
        for k, (off, mult) in enumerate(zip(table.offsets, table.mults)):
            term = block[:, k * n : (k + 1) * n]
            if off is not None:
                term = term + off
            if mult is not None:
                term = term // mult
            deg = term if deg is None else np.minimum(deg, term)
        for j, gate in table.gates:
            deg[:, j] *= gate(block)
        return deg

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _fire(self, rows: _Rows, tids: np.ndarray) -> None:
        """Fire transition ``tids[a]`` (a net index) in the ``a``-th row
        of ``rows``.

        Each row fires once.  A whole prefix adds each row's dense delta
        row to its state block and raises the maxima of the block.  A
        subset of rows makes one flat add of just the changed entries
        (distinct rows, distinct columns; only the padding repeats the
        sentinel, adding 0), and raises their maxima.  Then the
        per-firing statistics, which see exactly the post-firing states
        the interpreted engine samples.
        """
        cn = self.cn
        pos = self._positions(rows)
        # The dense add is cheaper on a whole prefix (contiguous blocks,
        # no index arithmetic), the flat add on a subset (it gathers and
        # scatters only the changed entries).
        if isinstance(rows, slice):
            state = self.state[rows]
            state += np.take(self.delta_rows, tids, axis=0)
            maxima = self.max_counts[rows]
            np.maximum(maxima, state, out=maxima)
        else:
            flat = self.flat
            at = (pos * cn.n_state)[:, None] + cn.delta_cols[tids]
            after = flat[at] + cn.delta_vals[tids]
            flat[at] = after
            maxima = self.max_counts.reshape(-1)
            maxima[at] = np.maximum(maxima[at], after)
        queued = self.has_queue[tids]
        if queued.any():
            q_rows, q_tids = pos[queued], tids[queued]
            for t in np.flatnonzero(np.bincount(q_tids)):
                self._queue_ops(self.plans[t], q_rows[q_tids == t])
        self.firings[rows] += 1
        counts = self.firing_counts
        at = pos * counts.shape[1] + tids
        if self.warmup > 0.0:
            at = at[self.clock[rows] >= self.warmup]
        counts.reshape(-1)[at] += 1
        self._eval_predicates(rows)

    def _queue_ops(self, plan: FiringPlan, idx: np.ndarray) -> None:
        """The FIFO ops of one firing of ``plan`` at every position of
        ``idx``."""
        flat, width = self.flat, self.cn.n_state
        color_base = self.cn.color_base
        popped: dict[int, np.ndarray] = {}
        for ref, p, mult in plan.pops:
            q = self.queues[p]
            for _ in range(mult):
                codes = q.pop(idx)
                flat[idx * width + color_base[p] + codes] -= 1
            popped[ref] = codes
        for p, code, mult in plan.pop_colors:
            q = self.queues[p]
            for _ in range(mult):
                q.pop_matching(idx, code)
        for p, ref in plan.forwards:
            flat[idx * width + color_base[p] + popped[ref]] += 1
        for op in plan.pushes:
            if op[0] == "static":
                _, p, code, mult = op
                for _ in range(mult):
                    self.queues[p].push(idx, code)
            else:
                _, p, ref = op
                self.queues[p].push(idx, popped[ref])

    # ------------------------------------------------------------------
    # Immediate phase
    # ------------------------------------------------------------------
    def _immediate_phase(self, n: int) -> None:
        """Fire enabled immediates in the first ``n`` rows until none
        remain, in lockstep.

        Each pass fires one immediate in every row that has one enabled,
        so a row still in the loop after ``i`` passes has fired ``i``.
        """
        cn = self.cn
        table = cn.immediate_degrees
        if table is None:
            return
        rows: _Rows = slice(0, n)
        passes = 0
        while True:
            enab = self._degrees(table, rows) > 0
            any_enabled = enab.any(axis=1)
            if not any_enabled.all():
                rows = self._positions(rows)[any_enabled]
                if not rows.size:
                    return
                enab = enab[any_enabled]
            # Immediates are sorted by priority, descending: the first
            # enabled one has the best priority of its row.
            chosen = np.argmax(enab, axis=1)
            # Each row has one immediate enabled or more, so only more
            # enabled immediates than rows can hold a tie.
            if self.imm_ties and np.count_nonzero(enab) > len(chosen):
                prio = self.imm_priority
                cand = enab & (prio == prio[chosen][:, None])
                pos = self._positions(rows)
                for a in np.flatnonzero(cand.sum(axis=1) > 1):
                    # Replicates Simulation._fire_immediates exactly: the
                    # candidate list is the priority-sorted immediates
                    # restricted to the tie, weights normalised the same
                    # way, drawn from this replication's own stream.
                    c_list = np.flatnonzero(cand[a])
                    weights = np.array(
                        [cn.immediates[i].weight for i in c_list]
                    )
                    j = int(
                        self.rngs[self.perm[pos[a]]].choice(
                            len(c_list), p=weights / weights.sum()
                        )
                    )
                    chosen[a] = c_list[j]
            self._fire(rows, self.imm_index[chosen])
            passes += 1
            if passes > MAX_IMMEDIATE_FIRINGS:
                # Name the looping row a seed-order run meets first.
                pos = self._positions(rows)
                first = pos[np.argmin(self.perm[pos])]
                raise ImmediateLoopError(
                    float(self.clock[first]), MAX_IMMEDIATE_FIRINGS
                )

    # ------------------------------------------------------------------
    # Timed refresh
    # ------------------------------------------------------------------
    def _refresh_timed(self, n: int) -> None:
        """Re-align every timed schedule of the first ``n`` rows with the
        current enabling, starting and stopping every single-server slot
        at once."""
        cn = self.cn
        deg = self._degrees(cn.timed_degrees, slice(0, n))
        enabled = np.greater(deg, 0, out=self.enabled[:n])
        sched, clock = self.sched[:n], self.clock[:n]
        if self.all_single:
            cur, want = sched, enabled
        else:
            cur = sched[:, self.single_cols]
            want = enabled[:, self.single_pos]
        live = cur < np.inf
        stop = live & ~want
        start = want & ~live
        starts = start.any()
        if starts or stop.any():
            np.copyto(cur, np.inf, where=stop)
            if starts:
                np.copyto(cur, clock[:, None] + self.delay[:n], where=start)
            if not self.all_single:
                sched[:, self.single_cols] = cur
        perm, rngs = self.perm, self.rngs
        for u, j in self.per_row:
            ct, timing = cn.timed[u], self.timing[u]
            if j < 0:
                self._refresh_multi_server(ct, timing, deg[:, u])
                continue
            idx = np.flatnonzero(start[:, j])
            if idx.size:
                # One draw per starting row from its own generator, in
                # position order (each row's stream sees the same draws
                # as in the interpreted run), then one add and write.
                draws = [timing[row].sample(rngs[row]) for row in perm[idx].tolist()]
                sched[idx, ct.col0] = clock[idx] + np.array(draws)

    def _refresh_multi_server(
        self,
        ct: CompiledTransition,
        timing: np.ndarray | list[Any],
        deg: np.ndarray,
    ) -> None:
        """Finite k > 1 servers: per-replication slot bookkeeping for the
        first ``len(deg)`` rows.

        Mirrors Simulation._refresh_timed: start fills the lowest idle
        slots in ascending order (one delay draw per started slot);
        cancellation drops the latest-scheduled slots first, stable on
        equal times.  Cold path — the shipped models are single-server.
        """
        sched, clock, perm, rngs = self.sched, self.clock, self.perm, self.rngs
        vector = isinstance(timing, np.ndarray)
        k = ct.servers
        c0 = ct.col0
        for r in range(deg.size):
            want = min(int(deg[r]), k)
            live = [
                s for s in range(k) if np.isfinite(sched[r, c0 + s])
            ]
            have = len(live)
            if want > have:
                taken = set(live)
                need = want - have
                slot = 0
                row = perm[r]
                while need > 0:
                    if slot not in taken:
                        delay = timing[row] if vector else timing[row].sample(rngs[row])
                        sched[r, c0 + slot] = clock[r] + delay
                        need -= 1
                    slot += 1
            elif want < have:
                by_time = sorted(
                    live, key=lambda s: sched[r, c0 + s], reverse=True
                )
                for s in by_time[: have - want]:
                    sched[r, c0 + s] = np.inf

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, horizon: np.ndarray) -> None:
        """Step every row until it passes ``horizon[row]`` or deadlocks."""
        cn = self.cn
        sched, clock, warmup = self.sched, self.clock, self.warmup
        if cn.n_slots == 0:
            # No timed transitions: once the initial immediates settle
            # the calendar is empty — every replication deadlocks at 0.
            self.deadlocked[:] = True
            return
        self.horizon[:] = horizon
        n = len(self.rngs)
        while n:
            sub = sched[:n]
            k = np.argmin(sub, axis=1)
            next_t = sub[self._pos[:n], k]
            alive = next_t <= self.horizon[:n]
            if not alive.all():
                gone = np.flatnonzero(~alive)
                self.deadlocked[gone[np.isinf(next_t[gone])]] = True
                n -= gone.size
                if not n:
                    break
                holes = gone[gone < n]
                if holes.size:
                    moved = n + np.flatnonzero(alive[n:])
                    self._swap(holes, moved)
                    k[holes] = k[moved]
                    next_t[holes] = next_t[moved]
                k, next_t = k[:n], next_t[:n]
            rows = slice(0, n)
            # Integrate the resting state over each replication's
            # elapsed interval.  Without a warm-up, 0 <= clock <= next_t
            # makes next_t - clock the clamped interval bit for bit.
            if warmup > 0.0:
                dt = np.maximum(next_t - np.maximum(clock[rows], warmup), 0.0)
            else:
                dt = next_t - clock[rows]
            self._integrate(n, dt)
            clock[rows] = next_t
            pos = self._pos[rows]
            sched[pos, k] = np.inf
            u = cn.slot_timed[k]
            live = self.enabled[pos, u]
            if live.all():
                self._fire(rows, self.timed_index[u])
            else:
                # Scheduled-but-stale (see Simulation.step): the clock
                # advance stands, statistics already sampled, the
                # firing is skipped.
                self.stale_pops += int((~live).sum())
                if live.any():
                    self._fire(pos[live], self.timed_index[u[live]])
            self._immediate_phase(n)
            self._refresh_timed(n)
        self._restore_seed_order()

    def _integrate(self, n: int, dt: np.ndarray) -> None:
        """Add the first ``n`` rows' resting state over ``dt[row]``
        (the same addition sequence per replication as the interpreted
        accumulators).

        A place's nonzero-time step is ``dt`` if it holds a token, else
        0: exactly ``min(tokens * dt, dt)``, since ``tokens * dt >= dt``
        for ``tokens >= 1`` and ``dt >= 0``, so it reuses the product.
        """
        self.observed[:n] += dt
        col = dt[:, None]
        part = self.totals[:n] * col
        self.integral[:n] += part
        self.nonzero_time[:n] += np.minimum(part, col, out=part)
        for name, integral in self.pred_integral.items():
            integral[:n] += self.pred_value[name][:n] * dt

    def _row_arrays(self) -> list[np.ndarray]:
        """Every array indexed by position."""
        arrays = [
            self.state,
            self.max_counts,
            self.sched,
            self.clock,
            self.enabled,
            self.delay,
            self.horizon,
            self.observed,
            self.integral,
            self.nonzero_time,
            self.firings,
            self.firing_counts,
            self.deadlocked,
            self.perm,
        ]
        for values in (self.pred_value, self.pred_integral, self.pred_max):
            arrays += values.values()
        for q in self.queues.values():
            arrays += (q.buf, q.head, q.size)
        return arrays

    def _swap(self, holes: np.ndarray, moved: np.ndarray) -> None:
        """Exchange the rows at positions ``holes[i]`` and ``moved[i]``."""
        to = np.concatenate((holes, moved))
        src = np.concatenate((moved, holes))
        for values in self._row_arrays():
            values[to] = values[src]

    def _restore_seed_order(self) -> None:
        """Put every row back at the position of its seed."""
        at = np.empty_like(self.perm)
        at[self.perm] = self._pos
        for values in self._row_arrays():
            values[:] = values[at]

    # ------------------------------------------------------------------
    # Result hydration
    # ------------------------------------------------------------------
    def finalize(self, horizon: np.ndarray) -> None:
        """Close every row's statistics at its horizon.

        A deadlocked row's marking is frozen, so, as in the interpreted
        run(), its statistics keep accumulating up to the horizon.
        """
        self.end = end = horizon.copy()
        lo = np.maximum(self.clock, self.warmup)
        self._integrate(len(end), np.maximum(end - lo, 0.0))

    def hydrate(self, r: int) -> SimulationResult:
        """Row ``r`` as the interpreted engine's result type."""
        cn = self.cn
        place_names = list(cn.place_names)
        transition_names = list(cn.transition_names)
        end_r = float(self.end[r])
        stats = StatisticsCollector(place_names, transition_names, self.warmup)
        for j, name in enumerate(place_names):
            acc = stats.place_acc[name]
            acc._last_time = end_r
            acc._last_value = float(self.totals[r, j])
            acc._integral = float(self.integral[r, j])
            acc._nonzero_time = float(self.nonzero_time[r, j])
            acc._observed_time = float(self.observed[r])
            acc._max_value = float(self.max_counts[r, j])
        for j, name in enumerate(transition_names):
            counter = stats.transition_counters[name]
            counter.count = int(self.firing_counts[r, j])
            counter._last_time = end_r
        for name, spec, vector in self.preds:
            fn = spec.fn if vector else spec
            ps = PredicateStatistic(name, fn, self.warmup)
            acc = ps.acc
            acc._last_time = end_r
            acc._last_value = float(self.pred_value[name][r])
            acc._integral = float(self.pred_integral[name][r])
            # 0/1 signal: time at nonzero == the integral itself.
            acc._nonzero_time = float(self.pred_integral[name][r])
            acc._observed_time = float(self.observed[r])
            acc._max_value = float(self.pred_max[name][r])
            stats.predicates[name] = ps
        stats.end_time = end_r
        return SimulationResult(
            net_name=cn.net.name,
            end_time=end_r,
            stats=stats,
            firings=int(self.firings[r]),
            deadlocked=bool(self.deadlocked[r]),
            final_marking_counts={
                name: int(self.totals[r, j])
                for j, name in enumerate(place_names)
            },
        )


class EnsembleResults(Sequence[SimulationResult]):
    """The per-row results of one finished ensemble, read-only.

    Two ways to read them:

    * **Columns.** :meth:`occupancy`, :meth:`predicate_probability`,
      :meth:`firing_count` and :attr:`end_time` carry the names the
      :class:`SimulationResult` read-outs use and return one value per
      row, as a fresh NumPy array computed straight from the
      ensemble's arrays.  Each value is bit-identical to the same
      read-out of that row's hydrated result.  Models account every
      row at once from these.
    * **Rows.** Indexing and iteration hydrate a fresh
      :class:`SimulationResult` per access and keep no reference to
      it.  Repeated access gives equal results.

    A slice is a view of those rows, with the same two read-outs.
    An ensemble of no rows reads every name as an empty column.
    """

    __slots__ = ("_ensemble", "_rows")

    def __init__(self, ensemble: _Ensemble | None, rows: range | None = None) -> None:
        self._ensemble = ensemble  # None: an ensemble of no rows
        if rows is None:
            rows = range(0 if ensemble is None else len(ensemble.rngs))
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EnsembleResults(self._ensemble, self._rows[index])
        try:
            r = self._rows[operator.index(index)]
        except IndexError:
            raise IndexError(f"ensemble row {index} out of range") from None
        return self._ensemble.hydrate(r)

    # -- columns ---------------------------------------------------------
    def _column(self, values: np.ndarray) -> np.ndarray:
        """This view's rows of a per-row array (or of its columns)."""
        r = self._rows
        return values[r.start : r.stop] if r.step == 1 else values[list(r)]

    def _fraction(self, part: np.ndarray) -> np.ndarray:
        """``part / observed`` per row, 0.0 where nothing was observed."""
        observed = self._column(self._ensemble.observed)
        return np.divide(
            part, observed, out=np.zeros(observed.shape), where=observed > 0
        )

    @property
    def end_time(self) -> np.ndarray:
        """Each row's end time: its horizon, deadlocked or not."""
        if self._ensemble is None:
            return np.zeros(0)
        return self._column(self._ensemble.end).copy()

    def occupancy(self, place: str) -> np.ndarray:
        """P(#place >= 1) per row: the fraction of time it was marked."""
        e = self._ensemble
        if e is None:
            return np.zeros(0)
        j = e.cn.place_index[place]
        return self._fraction(self._column(e.nonzero_time)[:, j])

    def predicate_probability(self, name: str) -> np.ndarray:
        """Long-run probability of a registered predicate, per row."""
        e = self._ensemble
        if e is None:
            return np.zeros(0)
        return self._fraction(self._column(e.pred_integral[name]))

    def firing_count(self, transition: str) -> np.ndarray:
        """Post-warm-up firing count per row (``int64``)."""
        e = self._ensemble
        if e is None:
            return np.zeros(0, dtype=np.int64)
        j = e.transition_index[transition]
        return self._column(e.firing_counts)[:, j].copy()


class _SeedState(np.random.bit_generator.ISeedSequence):
    """The ``SeedSequence`` of one seed, its state words computed once.

    A bit generator reads only :meth:`generate_state` of the sequence
    it is built from, so every generator built from this object starts
    in the state ``default_rng(seed)`` would, without re-running the
    sequence's hash per generator.  Each call returns a copy: a bit
    generator may keep the words it is given.
    """

    def __init__(self, seed: int) -> None:
        self._seq = np.random.SeedSequence(seed)
        self._words: dict[tuple[int, str], np.ndarray] = {}

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        key = (n_words, np.dtype(dtype).str)
        words = self._words.get(key)
        if words is None:
            words = self._words[key] = self._seq.generate_state(n_words, dtype)
        return words.copy()


def _row_generators(seeds: Sequence[Any]) -> list[np.random.Generator]:
    """A private ``default_rng(seed)`` per row, in seed order.

    A sweep repeats each replication's seed at every point, so the
    initial state of an exact ``int`` seed is computed once (see
    :class:`_SeedState`) and shared: every row still gets a bit
    generator and a generator of its own.  ``None`` (fresh entropy per
    row) and any other seed go through ``default_rng``.
    """
    states: dict[int, _SeedState] = {}
    out = []
    for seed in seeds:
        if type(seed) is int:
            state = states.get(seed)
            if state is None:
                state = states[seed] = _SeedState(seed)
            out.append(np.random.Generator(np.random.PCG64(state)))
        else:
            out.append(np.random.default_rng(seed))
    return out


def run_ensemble(
    net: PetriNet,
    horizon: float | Sequence[float],
    seeds: Sequence[int],
    *,
    row_timing: Mapping[str, Sequence[FiringDistribution]] | None = None,
    warmup: float = 0.0,
    initial_marking: Mapping[str, Any] | None = None,
    predicates: Mapping[str, Any] | None = None,
) -> EnsembleResults:
    """Run one ensemble of replications in vectorized lockstep.

    Parameters
    ----------
    net:
        The net every row runs, compiled once; it must lie in the
        compilable subset.
    horizon:
        Simulated time of every row, or one value per row: rows of
        different horizons share the ensemble, and each retires at its
        own.
    seeds:
        One seed per replication.  Row ``r`` draws from a generator of
        its own in the state of ``default_rng(seeds[r])``; rows that
        repeat an exact ``int`` seed build it from one shared
        ``SeedSequence`` state, and a ``None`` seed takes fresh entropy
        per row.
    row_timing:
        ``transition name -> one distribution per row`` for the timed
        transitions whose timing differs between rows (e.g. the sweep
        values of a ``Deterministic`` threshold, or per-row exponential
        rates); every other timed transition keeps ``net``'s own
        distribution in every row.  Row ``r``'s result is
        bit-identical to ``Simulation(net_r, seed=seeds[r],
        warmup=warmup).run(horizon)``, where ``net_r`` is ``net`` with
        row ``r``'s distributions.
    warmup / initial_marking:
        As on :class:`~repro.core.simulator.Simulation`, shared by all
        rows.  A row that deadlocks stops quietly, and an epoch may take
        at most :data:`~repro.core.simulator.MAX_IMMEDIATE_FIRINGS`
        immediate firings, as under ``Simulation``'s defaults.
    predicates:
        ``name -> VectorPredicate | callable`` marking predicates, read
        back with ``predicate_probability``.

    Returns
    -------
    EnsembleResults
        One result per row, in seed order: per-row columns
        (``occupancy``, ``predicate_probability``, ``firing_count``,
        ``end_time``) for accounting every row at once, and rows that
        hydrate the interpreted engine's result type when accessed.
        The run itself is eager (argument errors and
        :class:`~repro.core.errors.ImmediateLoopError` raise here).

    Examples
    --------
    Two rows of one net that differ in the delay of ``go``:

    >>> from repro.core.distributions import Deterministic
    >>> net = PetriNet("ping")
    >>> _ = net.add_place("A", initial_tokens=1)
    >>> _ = net.add_place("B")
    >>> _ = net.add_transition(
    ...     "go", Deterministic(1.0), inputs=["A"], outputs=["B"]
    ... )
    >>> _ = net.add_transition(
    ...     "back", Deterministic(1.0), inputs=["B"], outputs=["A"]
    ... )
    >>> rows = run_ensemble(
    ...     net, 10.0, [0, 1],
    ...     row_timing={"go": [Deterministic(1.0), Deterministic(4.0)]},
    ... )
    >>> rows.firing_count("go").tolist()
    [5, 2]
    >>> [row.stats.firing_count("go") for row in rows]
    [5, 2]

    The same rows, each with a horizon of its own:

    >>> run_ensemble(net, [4.0, 10.0], [0, 1]).firing_count("go").tolist()
    [2, 5]
    """
    horizons = np.asarray(horizon, dtype=float)
    bad = horizons[~((horizons > 0) & (horizons < math.inf))]
    if bad.size:
        raise ValueError(f"horizon must be > 0 and finite, got {bad[0]}")
    gen_list = _row_generators(seeds)
    row_timing = row_timing or {}
    for name, dists in row_timing.items():
        if not (net.has_transition(name) and net.transition(name).is_timed):
            raise ValueError(
                f"row_timing names {name!r}, which is not a timed "
                f"transition of net {net.name!r}"
            )
        if len(dists) != len(gen_list):
            raise ValueError(
                f"row_timing[{name!r}] has {len(dists)} distributions "
                f"for {len(gen_list)} rows"
            )
    if horizons.ndim and horizons.shape != (len(gen_list),):
        raise ValueError(
            f"horizon has {horizons.size} values for {len(gen_list)} rows"
        )
    if not gen_list:
        return EnsembleResults(None)
    horizons = np.broadcast_to(horizons, (len(gen_list),))
    ensemble = _Ensemble(
        compile_net(net),
        gen_list,
        row_timing,
        warmup,
        initial_marking,
        predicates,
    )
    ensemble.run(horizons)
    ensemble.finalize(horizons)
    return EnsembleResults(ensemble)
