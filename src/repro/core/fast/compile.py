"""Static compilation of a :class:`~repro.core.net.PetriNet` for the
vectorized ensemble engine.

Compilation turns the net's object graph into flat, replication-
vectorizable structures over one combined per-row **state** vector of
``n_state`` int64 columns: the token total of every place, then one
count column per colour of every colour-observable place, then the
free capacity of every bounded place, then a sentinel column that
always holds 0.

* a **colour universe** (every colour a token can ever carry, found by a
  static fixpoint over initial markings and output-arc colour rules),
* one **degree table** per transition class (timed, immediate): padded
  ``(column, offset, multiplicity)`` enabling terms, so one gather of
  the state plus ``K - 1`` element-wise minima give every transition's
  enabling degree for every row at once, and a gate closure per guarded
  or inhibited transition,
* one **delta table**: per transition, the padded ``(column, delta)``
  list of the state entries a firing changes statically (padding adds 0
  to the sentinel), so a round's firings apply as one flat add,
* per-transition **firing plans**: explicit FIFO-queue ops (pops /
  matched pops / pushes / colour forwards) for the places where token
  *order* is observable,
* the **slot layout** of timed transitions: one column per server slot,
  ordered by (timed definition order, slot) so a first-occurrence
  ``argmin`` reproduces the event calendar's deterministic tie policy.

Anything whose semantics cannot be proven statically — opaque
:class:`~repro.core.guards.FunctionGuard` guards, un-introspectable
token filters or output producers, reset arcs, AGE/RESAMPLE memory,
infinite servers — raises
:class:`~repro.core.errors.UnsupportedNetError` naming the feature, so
callers fall back to the interpreted engine explicitly.

Producers become introspectable through two optional attributes:
``fast_static_color`` (the producer always returns that colour) and
``fast_forward_place`` (the producer returns the colour of the single
token consumed from that place).  Setting either asserts the producer
is pure — it must not read the rng, the clock, or the marking.

A **colour-observability** analysis keeps the universe small and the
forwarding rules decidable: a place's token colours matter only when a
filtered arc consumes from it, a ``fast_forward_place`` producer reads
it, or its tokens can flow (via the default-forwarding rule) into such
a place.  Everywhere else — e.g. the WSN model's stage pipeline, where
``_forwarded_color`` drags job-class colours through places nothing
ever inspects — colours collapse to ``None``: token counts, enabling,
firing order and statistics are all provably unaffected, and the place
needs no colour columns in the state.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..arcs import InputArc, OutputArc
from ..distributions import FiringDistribution
from ..errors import UnsupportedNetError
from ..guards import (
    And,
    FalseGuard,
    Guard,
    Not,
    Or,
    TokenCountGuard,
    TrueGuard,
)
from ..net import PetriNet
from ..transitions import INFINITE_SERVERS, MemoryPolicy, Transition

__all__ = [
    "CompiledNet",
    "CompiledTransition",
    "DegreeTable",
    "FiringPlan",
    "compile_net",
]

_COMPARE_OPS = frozenset(
    {operator.eq, operator.ne, operator.gt, operator.ge, operator.lt, operator.le}
)

# Gate closures map a gathered state block to a bool vector over rows.
GateFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FiringPlan:
    """Everything one firing of a transition does, in executable form.

    ``delta3`` / ``delta_tot`` carry every statically known count change
    (totals change statically even where a FIFO decides the colour);
    :func:`compile_net` lowers them into the net's delta table.  Queue
    ops execute in arc order: all pops (inputs) before all pushes
    (outputs), matching the interpreted engine's withdraw-then-deposit
    sequence.
    """

    delta3: np.ndarray  # [P, C] static colour-count changes
    delta_tot: np.ndarray  # [P] total-count changes
    # Unfiltered FIFO pops, arc order: (pop_ref, place_idx, multiplicity).
    pops: tuple[tuple[int, int, int], ...]
    # Oldest-matching pops (filtered consumption from a FIFO place):
    # (place_idx, color_code, multiplicity).
    pop_colors: tuple[tuple[int, int, int], ...]
    # Deposits of a popped colour: (place_idx, pop_ref).
    forwards: tuple[tuple[int, int], ...]
    # FIFO pushes, output-arc order: ("static", place, code, mult) or
    # ("fwd", place, pop_ref).
    pushes: tuple[tuple[Any, ...], ...]

    @property
    def has_queue_ops(self) -> bool:
        return bool(self.pops or self.pop_colors or self.forwards or self.pushes)


@dataclass(frozen=True)
class CompiledTransition:
    """One transition, compiled: its scheduling data plus firing plan.

    Its enabling degree is a column of its class's :class:`DegreeTable`
    (``cn.timed_degrees`` / ``cn.immediate_degrees``), in the order of
    ``cn.timed`` / ``cn.immediates``.
    """

    name: str
    index: int  # position in net.transitions (statistics key order)
    is_timed: bool
    priority: int
    weight: float
    servers: int
    col0: int  # first slot column (timed only)
    distribution: FiringDistribution
    plan: FiringPlan = field(repr=False)


@dataclass(frozen=True)
class DegreeTable:
    """Enabling degrees of one transition class over the state, batched.

    Transition ``j`` of the class has the degree ``min_k (state[cols[k
    * n + j]] + offsets[k][j]) // mults[k][j]``, times each gate of
    ``j``.  A term is an input arc (its place's total or colour column),
    or the free capacity of a bounded output place (offset: the tokens
    the firing itself removes there; the marking never exceeds a
    capacity, so no term is negative).
    A transition with no terms reads the sentinel with offset 1.  Rows
    of fewer than ``K`` terms repeat their first one; minima do not
    change.  ``offsets[k]`` / ``mults[k]`` are ``None`` where the whole
    slice adds 0 / divides by 1.  ``cols`` ends with the total columns
    of the places the gates read; a gate is ``(j, fn)`` where ``fn``
    maps the gathered ``[rows, len(cols)]`` block to the rows whose
    guard holds and whose inhibitors are below their multiplicity.
    """

    n: int
    cols: np.ndarray
    offsets: tuple[np.ndarray | None, ...]
    mults: tuple[np.ndarray | None, ...]
    gates: tuple[tuple[int, GateFn], ...] = field(repr=False)


@dataclass(frozen=True)
class CompiledNet:
    """A net lowered to the vectorized engine's representation."""

    net: PetriNet
    place_names: tuple[str, ...]
    place_index: dict[str, int]
    transition_names: tuple[str, ...]
    colors: tuple[Any, ...]  # code -> colour value; code 0 is None
    color_index: dict[Any, int]
    possible_colors: dict[str, frozenset[Any]]
    observable: frozenset[str]  # places whose token colours matter
    queued_places: tuple[int, ...]
    capacities: dict[int, int]
    timed: tuple[CompiledTransition, ...]  # net definition order
    immediates: tuple[CompiledTransition, ...]  # priority-desc, stable
    n_slots: int
    slot_timed: np.ndarray  # [n_slots] -> index into ``timed``
    # State layout: totals at [0, n_places), then these.
    n_state: int
    color_base: dict[int, int]  # observable place -> its colour-0 column
    headroom: dict[int, int]  # bounded place -> its free-capacity column
    timed_degrees: DegreeTable | None
    immediate_degrees: DegreeTable | None
    # Indexed by net transition index: a firing adds delta_vals[t] at
    # state columns delta_cols[t] (padding: sentinel, 0).
    delta_cols: np.ndarray  # [n_transitions, D]
    delta_vals: np.ndarray  # [n_transitions, D]

    @property
    def n_places(self) -> int:
        return len(self.place_names)

    @property
    def n_colors(self) -> int:
        return len(self.colors)


# ----------------------------------------------------------------------
# Guard compilation
# ----------------------------------------------------------------------
def _compile_guard(
    guard: Guard, place_index: dict[str, int], where: str
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Lower a guard to a ``totals -> bool[R]`` closure (None = TRUE);
    ``place_index`` maps each place it reads to its totals column."""
    if isinstance(guard, TrueGuard):
        return None
    if isinstance(guard, FalseGuard):
        return lambda totals: np.zeros(totals.shape[0], dtype=bool)
    if isinstance(guard, TokenCountGuard):
        if guard.op not in _COMPARE_OPS:
            raise UnsupportedNetError(
                f"token-count guard with non-standard operator {guard.op!r}",
                where,
            )
        p = place_index[guard.place]
        op, thr = guard.op, guard.threshold
        return lambda totals: op(totals[:, p], thr)
    if isinstance(guard, And):
        left = _compile_guard(guard.left, place_index, where)
        right = _compile_guard(guard.right, place_index, where)
        if left is None:
            return right
        if right is None:
            return left
        return lambda totals: left(totals) & right(totals)
    if isinstance(guard, Or):
        left = _compile_guard(guard.left, place_index, where)
        right = _compile_guard(guard.right, place_index, where)
        if left is None or right is None:
            return None  # TRUE | anything == TRUE
        return lambda totals: left(totals) | right(totals)
    if isinstance(guard, Not):
        inner = _compile_guard(guard.inner, place_index, where)
        if inner is None:
            return lambda totals: np.zeros(totals.shape[0], dtype=bool)
        return lambda totals: ~inner(totals)
    raise UnsupportedNetError(
        f"opaque guard {guard!s} (only the introspectable guard algebra "
        "compiles; FunctionGuard does not)",
        where,
    )


# ----------------------------------------------------------------------
# Colour analysis
# ----------------------------------------------------------------------
def _observable_places(net: PetriNet) -> frozenset[str]:
    """Places whose token *colours* can influence behaviour or results.

    Seeds: places consumed through a token filter.  Propagation: when a
    transition deposits a consumed-dependent colour into an observable
    place, the places that colour may have come from become observable
    too — every input place for the default-forwarding rule (the rule
    counts non-None consumed tokens across *all* arcs), the named
    source place for a ``fast_forward_place`` producer.  Everything
    outside the closure can safely be treated as colourless.
    """
    observable: set[str] = set()
    for t in net.transitions:
        for arc in t.inputs:
            if arc.token_filter is not None:
                observable.add(arc.place)
    changed = True
    while changed:
        changed = False
        for t in net.transitions:
            sources: set[str] = set()
            for arc in t.outputs:
                if arc.place not in observable:
                    continue
                if arc.color is not None:
                    continue
                if arc.producer is not None:
                    if hasattr(arc.producer, "fast_static_color"):
                        continue
                    fwd = getattr(arc.producer, "fast_forward_place", None)
                    if fwd is not None:
                        sources.add(fwd)
                    else:
                        # Opaque producer: could echo anything consumed.
                        sources.update(a.place for a in t.inputs)
                elif arc.multiplicity == 1:
                    sources.update(a.place for a in t.inputs)
                # multiplicity != 1 default arcs always deposit None.
            if not sources <= observable:
                observable |= sources
                changed = True
    return frozenset(observable)


def _filter_colors(arc: InputArc, where: str) -> frozenset[Any] | None:
    """Accepted colours of an input-arc filter; None = unfiltered."""
    if arc.token_filter is None:
        return None
    accepted = getattr(arc.token_filter, "accepted_colors", None)
    if accepted is None:
        raise UnsupportedNetError(
            "opaque token filter "
            f"{getattr(arc.token_filter, '__name__', arc.token_filter)!r} "
            "(only color_eq / color_in filters compile)",
            where,
        )
    return frozenset(accepted)


def _consumed_sets(
    t: Transition, possible: dict[str, frozenset[Any]]
) -> list[tuple[InputArc, frozenset[Any]]]:
    out: list[tuple[InputArc, frozenset[Any]]] = []
    for arc in t.inputs:
        accepted = getattr(arc.token_filter, "accepted_colors", None)
        if arc.token_filter is None:
            out.append((arc, possible[arc.place]))
        elif accepted is not None:
            out.append((arc, possible[arc.place] & frozenset(accepted)))
        else:  # opaque filter: conservative (compile rejects it later)
            out.append((arc, possible[arc.place]))
    return out


def _output_possible(
    arc: OutputArc, consumed: list[tuple[InputArc, frozenset[Any]]]
) -> frozenset[Any]:
    """Colours ``arc`` may deposit, given per-input possible colours."""
    if arc.color is not None:
        return frozenset({arc.color})
    if arc.producer is not None:
        if hasattr(arc.producer, "fast_static_color"):
            return frozenset({arc.producer.fast_static_color})
        fwd = getattr(arc.producer, "fast_forward_place", None)
        if fwd is not None:
            union: frozenset[Any] = frozenset()
            for in_arc, colors in consumed:
                if in_arc.place == fwd:
                    union |= colors
            return union | frozenset({None})
        # Opaque producer: anything it has seen could come out; compile
        # rejects the transition later, but keep the fixpoint sound.
        union = frozenset({None})
        for _, colors in consumed:
            union |= colors
        return union
    # Default forwarding rule.
    if arc.multiplicity != 1:
        return frozenset({None})
    union = frozenset({None})
    for _, colors in consumed:
        union |= frozenset(c for c in colors if c is not None)
    return union


def _possible_colors(
    net: PetriNet, observable: frozenset[str]
) -> dict[str, frozenset[Any]]:
    """Fixpoint: every colour each place can ever hold.

    Non-observable places are projected to ``None`` — their tokens are
    indistinguishable from colourless ones everywhere it could matter.
    """

    def project(place: str, colors: frozenset[Any]) -> frozenset[Any]:
        if place in observable or not colors:
            return colors
        return frozenset({None})

    possible: dict[str, frozenset[Any]] = {}
    for place in net.places:
        tokens = place.fresh_initial()
        possible[place.name] = project(
            place.name, frozenset(tok.color for tok in tokens)
        )
    changed = True
    while changed:
        changed = False
        for t in net.transitions:
            consumed = _consumed_sets(t, possible)
            for arc in t.outputs:
                add = project(arc.place, _output_possible(arc, consumed))
                if not add <= possible[arc.place]:
                    possible[arc.place] = possible[arc.place] | add
                    changed = True
    return possible


# ----------------------------------------------------------------------
# Transition compilation
# ----------------------------------------------------------------------
def _terms(
    t: Transition,
    place_index: dict[str, int],
    color_index: dict[Any, int],
    possible: dict[str, frozenset[Any]],
    color_base: dict[int, int],
    headroom: dict[int, int],
    sentinel: int,
) -> list[tuple[int, int, int]]:
    """``(column, offset, multiplicity)`` enabling terms of ``t``.

    The vector form of :meth:`Simulation.enabling_degree` without its
    guard and inhibitors: one term per input arc, one per capacity-
    checked output, and a constant 1 when there are neither.
    """
    terms: list[tuple[int, int, int]] = []
    for arc in t.inputs:
        p = place_index[arc.place]
        accepted = _filter_colors(arc, t.name)
        if accepted is None:
            terms.append((p, 0, arc.multiplicity))
            continue
        # At most one colour: _compile_plan refuses wider filters.
        pool = accepted & possible[arc.place]
        if pool:
            code = color_index[next(iter(pool))]
            terms.append((color_base[p] + code, 0, arc.multiplicity))
        else:  # no token can ever match: never enabled
            terms.append((sentinel, 0, 1))
    reset_places = {r.place for r in t.resets}
    for arc in t.outputs:
        p = place_index[arc.place]
        if arc.place in reset_places or p not in headroom:
            continue
        removed = sum(a.multiplicity for a in t.inputs if a.place == arc.place)
        terms.append((headroom[p], removed, arc.multiplicity))
    return terms or [(sentinel, 1, 1)]


def _compile_gate(
    t: Transition, gate_index: dict[str, int]
) -> GateFn | None:
    """Guard and inhibitors of ``t`` as one ``block -> bool[R]`` closure
    (None = always open); ``gate_index`` maps place names to the block
    columns that hold their totals."""
    guard_fn = _compile_guard(t.guard, gate_index, t.name)
    inhibitors = tuple(
        (gate_index[a.place], a.multiplicity) for a in t.inhibitors
    )
    if not inhibitors:
        return guard_fn

    def gate(block: np.ndarray) -> np.ndarray:
        ok = None if guard_fn is None else guard_fn(block)
        for c, m in inhibitors:
            cond = block[:, c] < m
            ok = cond if ok is None else ok & cond
        return ok

    return gate


def _degree_table(
    transitions: list[Transition],
    terms: list[list[tuple[int, int, int]]],
    place_index: dict[str, int],
) -> DegreeTable | None:
    """Pad one class's terms into a :class:`DegreeTable`."""
    if not transitions:
        return None
    n = len(transitions)
    k_max = max(len(ts) for ts in terms)
    padded = [ts + [ts[0]] * (k_max - len(ts)) for ts in terms]
    table = np.array(padded, dtype=np.int64).transpose(1, 2, 0)  # [K, 3, n]
    cols, offsets, mults = table[:, 0], table[:, 1], table[:, 2]
    gate_places: list[str] = []
    for t in transitions:
        reads = [a.place for a in t.inhibitors]
        reads += sorted(t.guard.dependencies() or ())
        gate_places += [name for name in reads if name not in gate_places]
    gate_index = {name: k_max * n + i for i, name in enumerate(gate_places)}
    gates = []
    for j, t in enumerate(transitions):
        fn = _compile_gate(t, gate_index)
        if fn is not None:
            gates.append((j, fn))
    return DegreeTable(
        n=n,
        cols=np.concatenate(
            [cols.ravel(), [place_index[name] for name in gate_places]]
        ).astype(np.int64),
        offsets=tuple(o if o.any() else None for o in offsets),
        mults=tuple(m if (m != 1).any() else None for m in mults),
        gates=tuple(gates),
    )


def _compile_plan(
    t: Transition,
    place_index: dict[str, int],
    color_index: dict[Any, int],
    possible: dict[str, frozenset[Any]],
    observable: frozenset[str],
    queued: frozenset[int],
    n_places: int,
    n_colors: int,
) -> FiringPlan:
    """Lower one firing to a static delta plus explicit queue ops."""
    where = t.name
    if t.resets:
        raise UnsupportedNetError("reset arcs", where)
    delta3 = np.zeros((n_places, n_colors), dtype=np.int64)
    delta_tot = np.zeros(n_places, dtype=np.int64)
    pops: list[tuple[int, int, int]] = []
    pop_colors: list[tuple[int, int, int]] = []
    forwards: list[tuple[int, int]] = []
    pushes: list[tuple[Any, ...]] = []
    # pop_ref -> (input arc, statically known colour or None-marker)
    # Consumption side: record, per input arc, either a static colour
    # (exactly one possible) or a pop reference into the FIFO.
    arc_sources: list[tuple[InputArc, str, Any]] = []  # (arc, kind, data)
    for arc in t.inputs:
        p = place_index[arc.place]
        accepted = _filter_colors(arc, where)
        pool = (
            possible[arc.place]
            if accepted is None
            else possible[arc.place] & accepted
        )
        if accepted is None and len(pool) > 1:
            # Colour chosen by FIFO order at runtime.
            if p not in queued:  # pragma: no cover - defensive
                raise UnsupportedNetError(
                    "unfiltered consumption from an unqueued multi-colour "
                    "place",
                    where,
                )
            ref = len(pops)
            pops.append((ref, p, arc.multiplicity))
            delta_tot[p] -= arc.multiplicity
            arc_sources.append((arc, "pop", ref))
            continue
        if len(pool) > 1:
            raise UnsupportedNetError(
                "filtered consumption matching more than one colour",
                where,
            )
        # Exactly one colour can satisfy this arc (an empty pool means
        # the transition can never be enabled; compile it anyway).
        code = color_index[next(iter(pool))] if pool else 0
        if p in queued:
            # Counts change statically; only the FIFO buffer needs the
            # oldest-matching removal at runtime.
            pop_colors.append((p, code, arc.multiplicity))
        delta3[p, code] -= arc.multiplicity
        delta_tot[p] -= arc.multiplicity
        color = next(iter(pool)) if pool else None
        arc_sources.append((arc, "static", color))

    def _static_deposit(p: int, color: Any, mult: int) -> None:
        code = color_index[color]
        delta3[p, code] += mult
        delta_tot[p] += mult
        if p in queued:
            pushes.append(("static", p, code, mult))

    def _forward_deposit(p: int, ref: int) -> None:
        forwards.append((p, ref))
        delta_tot[p] += 1
        if p in queued:
            pushes.append(("fwd", p, ref))

    for arc in t.outputs:
        p = place_index[arc.place]
        if arc.place not in observable:
            # Whatever colour the interpreted engine would deposit here
            # is provably never inspected: collapse it to None.  The
            # producer (if any) must still be annotated — the annotation
            # is the purity assertion that lets us skip calling it.
            if arc.producer is not None and not (
                hasattr(arc.producer, "fast_static_color")
                or getattr(arc.producer, "fast_forward_place", None)
                is not None
            ):
                raise UnsupportedNetError(
                    "opaque output producer (annotate with "
                    "fast_static_color or fast_forward_place)",
                    where,
                )
            _static_deposit(p, None, arc.multiplicity)
            continue
        if arc.color is not None:
            _static_deposit(p, arc.color, arc.multiplicity)
            continue
        if arc.producer is not None:
            if hasattr(arc.producer, "fast_static_color"):
                _static_deposit(
                    p, arc.producer.fast_static_color, arc.multiplicity
                )
                continue
            fwd = getattr(arc.producer, "fast_forward_place", None)
            if fwd is None:
                raise UnsupportedNetError(
                    "opaque output producer (annotate with fast_static_color "
                    "or fast_forward_place)",
                    where,
                )
            sources = [s for s in arc_sources if s[0].place == fwd]
            if (
                arc.multiplicity != 1
                or len(sources) != 1
                or sources[0][0].multiplicity != 1
            ):
                raise UnsupportedNetError(
                    f"fast_forward_place={fwd!r} needs exactly one "
                    "multiplicity-1 input arc from that place and a "
                    "multiplicity-1 output",
                    where,
                )
            _, kind, data = sources[0]
            if kind == "static":
                _static_deposit(p, data, 1)
            else:
                _forward_deposit(p, data)
            continue
        # Default forwarding: the deposited colour is the single
        # non-None consumed colour, else None.  Resolve statically.
        if arc.multiplicity != 1:
            _static_deposit(p, None, arc.multiplicity)
            continue
        static_nonnone = [
            (kind, data, a.multiplicity)
            for a, kind, data in arc_sources
            if kind == "static" and data is not None
        ]
        dynamic = [
            (data, a.multiplicity)
            for a, kind, data in arc_sources
            if kind == "pop" and possible[a.place] - {None}
        ]
        n_static = sum(m for _, _, m in static_nonnone)
        if n_static == 0 and not dynamic:
            _static_deposit(p, None, 1)
        elif n_static == 1 and not dynamic:
            _static_deposit(p, static_nonnone[0][1], 1)
        elif n_static == 0 and len(dynamic) == 1 and dynamic[0][1] == 1:
            # The popped token is the only candidate: forwarding its
            # colour reproduces the rule exactly (a popped None token
            # means zero non-None consumed, i.e. forward None).
            _forward_deposit(p, dynamic[0][0])
        elif n_static >= 2:
            _static_deposit(p, None, 1)
        else:
            raise UnsupportedNetError(
                "statically ambiguous colour forwarding (mixed static and "
                "FIFO-popped non-None consumed tokens)",
                where,
            )
    return FiringPlan(
        delta3=delta3,
        delta_tot=delta_tot,
        pops=tuple(pops),
        pop_colors=tuple(pop_colors),
        forwards=tuple(forwards),
        pushes=tuple(pushes),
    )


def compile_net(net: PetriNet) -> CompiledNet:
    """Compile ``net`` for the vectorized engine.

    Raises
    ------
    UnsupportedNetError
        When the net uses a feature outside the compilable subset; the
        message names the feature and the offending element.
    """
    place_names = tuple(net.place_names)
    place_index = {name: i for i, name in enumerate(place_names)}
    observable = _observable_places(net)
    possible = _possible_colors(net, observable)
    universe: set[Any] = {None}
    for colors in possible.values():
        universe |= colors
    ordered = [None] + sorted(
        (c for c in universe if c is not None), key=repr
    )
    color_index = {c: i for i, c in enumerate(ordered)}
    capacities = {
        place_index[p.name]: p.capacity
        for p in net.places
        if p.capacity is not None
    }
    # A place needs FIFO bookkeeping when its colour is decided by token
    # order: more than one possible colour and at least one unfiltered
    # consuming arc.
    queued: set[int] = set()
    for t in net.transitions:
        for arc in t.inputs:
            if (
                arc.token_filter is None
                and len(possible[arc.place]) > 1
            ):
                queued.add(place_index[arc.place])

    # State layout: [totals | colour counts | free capacity | sentinel].
    n_places, n_colors = len(place_names), len(ordered)
    color_base = {
        p: n_places + n_colors * i
        for i, p in enumerate(sorted(place_index[name] for name in observable))
    }
    width = n_places + n_colors * len(color_base)
    headroom = {p: width + i for i, p in enumerate(sorted(capacities))}
    sentinel = width + len(headroom)

    def compiled(
        index: int, t: Transition, servers: int, col0: int
    ) -> CompiledTransition:
        plan = _compile_plan(
            t,
            place_index,
            color_index,
            possible,
            observable,
            frozenset(queued),
            n_places,
            n_colors,
        )
        return CompiledTransition(
            name=t.name,
            index=index,
            is_timed=t.is_timed,
            priority=t.priority,
            weight=t.weight,
            servers=servers,
            col0=col0,
            distribution=t.distribution,
            plan=plan,
        )

    timed: list[CompiledTransition] = []
    slot_timed: list[int] = []
    col = 0
    for index, t in enumerate(net.transitions):
        if not t.is_timed:
            continue
        if t.memory is not MemoryPolicy.ENABLING:
            raise UnsupportedNetError(
                f"{t.memory.value!r} memory policy (only enabling memory "
                "compiles)",
                t.name,
            )
        if t.servers == INFINITE_SERVERS:
            raise UnsupportedNetError("infinite servers", t.name)
        slot_timed.extend([len(timed)] * t.servers)
        timed.append(compiled(index, t, t.servers, col))
        col += t.servers

    ordered_imm = sorted(
        (
            (index, t)
            for index, t in enumerate(net.transitions)
            if t.is_immediate
        ),
        key=lambda pair: -pair[1].priority,
    )
    immediates = [compiled(index, t, 1, -1) for index, t in ordered_imm]

    def table(group: list[CompiledTransition]) -> DegreeTable | None:
        transitions = [net.transitions[ct.index] for ct in group]
        terms = [
            _terms(
                t, place_index, color_index, possible, color_base, headroom,
                sentinel,
            )
            for t in transitions
        ]
        return _degree_table(transitions, terms, place_index)

    # The delta table, by net transition index: every static change of a
    # firing, totals, colour counts and free capacity alike.
    entries: list[list[tuple[int, int]]] = [[] for _ in net.transitions]
    for ct in timed + immediates:
        plan, out = ct.plan, entries[ct.index]
        for p in np.flatnonzero(plan.delta_tot):
            d = int(plan.delta_tot[p])
            out.append((int(p), d))
            if p in headroom:
                out.append((headroom[p], -d))
        for p, c in zip(*np.nonzero(plan.delta3)):
            if p in color_base:
                out.append((color_base[p] + int(c), int(plan.delta3[p, c])))
    width_d = max([len(e) for e in entries] + [1])
    delta = np.array(
        [e + [(sentinel, 0)] * (width_d - len(e)) for e in entries],
        dtype=np.int64,
    ).reshape(len(entries), width_d, 2)

    return CompiledNet(
        net=net,
        place_names=place_names,
        place_index=place_index,
        transition_names=tuple(net.transition_names),
        colors=tuple(ordered),
        color_index=color_index,
        possible_colors={k: frozenset(v) for k, v in possible.items()},
        observable=observable,
        queued_places=tuple(sorted(queued)),
        capacities=capacities,
        timed=tuple(timed),
        immediates=tuple(immediates),
        n_slots=col,
        slot_timed=np.asarray(slot_timed, dtype=np.int64),
        n_state=sentinel + 1,
        color_base=color_base,
        headroom=headroom,
        timed_degrees=table(timed),
        immediate_degrees=table(immediates),
        delta_cols=delta[:, :, 0].copy(),
        delta_vals=delta[:, :, 1].copy(),
    )
