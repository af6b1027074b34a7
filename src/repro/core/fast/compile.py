"""Static compilation of a :class:`~repro.core.net.PetriNet` for the
vectorized ensemble engine.

Compilation turns the net's object graph into flat, replication-
vectorizable structures:

* a **colour universe** (every colour a token can ever carry, found by a
  static fixpoint over initial markings and output-arc colour rules),
* per-transition **enabling closures** mapping ``(counts3, totals)``
  arrays to an enabling-degree vector over replications,
* per-transition **firing plans**: a static ``[P, C]`` count delta for
  everything whose colours are known at compile time, plus explicit
  FIFO-queue ops (pops / matched pops / pushes / colour forwards) for
  the places where token *order* is observable,
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
firing order and statistics are all provably unaffected.
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

__all__ = ["CompiledNet", "CompiledTransition", "FiringPlan", "compile_net"]

_COMPARE_OPS = frozenset(
    {operator.eq, operator.ne, operator.gt, operator.ge, operator.lt, operator.le}
)

# Degree closures return int64 vectors; guards bool vectors.
DegreeFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FiringPlan:
    """Everything one firing of a transition does, in executable form.

    ``delta3`` / ``delta_tot`` carry every statically-coloured count
    change as one array add.  Queue ops execute in arc order: all pops
    (inputs) before all pushes (outputs), matching the interpreted
    engine's withdraw-then-deposit sequence.
    """

    delta3: np.ndarray  # [P, C] static count changes
    delta_tot: np.ndarray  # [P]
    has_static: bool
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


@dataclass(frozen=True)
class CompiledTransition:
    """One transition, compiled: enabling closure plus firing plan."""

    name: str
    index: int  # position in net.transitions (statistics key order)
    is_timed: bool
    priority: int
    weight: float
    servers: int
    col0: int  # first slot column (timed only)
    distribution: FiringDistribution
    degree: DegreeFn = field(repr=False)
    plan: FiringPlan = field(repr=False)
    # Places whose counts feed this transition's enabling degree
    # (inputs, inhibitors, guard reads, capacity-checked outputs).
    dep_places: frozenset[int] = frozenset()
    # Places whose counts change when this transition fires.
    touch_places: frozenset[int] = frozenset()


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
    """Lower a guard to a ``totals -> bool[R]`` closure (None = TRUE)."""
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
def _compile_degree(
    t: Transition,
    place_index: dict[str, int],
    color_index: dict[Any, int],
    possible: dict[str, frozenset[Any]],
    capacities: dict[int, int],
) -> DegreeFn:
    """Lower :meth:`Simulation.enabling_degree` to vector form."""
    where = t.name
    inhibitors = tuple(
        (place_index[a.place], a.multiplicity) for a in t.inhibitors
    )
    guard_fn = _compile_guard(t.guard, place_index, where)
    inputs: list[tuple[str, int, Any, int]] = []
    for arc in t.inputs:
        p = place_index[arc.place]
        accepted = _filter_colors(arc, where)
        if accepted is None:
            inputs.append(("any", p, None, arc.multiplicity))
        else:
            codes = sorted(
                color_index[c] for c in accepted & possible[arc.place]
            )
            if len(codes) == 1:
                inputs.append(("color", p, codes[0], arc.multiplicity))
            else:
                inputs.append(("colors", p, tuple(codes), arc.multiplicity))
    caps: list[tuple[int, int, int, int]] = []
    reset_places = {r.place for r in t.resets}
    for arc in t.outputs:
        p = place_index[arc.place]
        if arc.place in reset_places or p not in capacities:
            continue
        removed = sum(
            a.multiplicity for a in t.inputs if a.place == arc.place
        )
        caps.append((p, capacities[p], arc.multiplicity, removed))
    inputs_t = tuple(inputs)
    caps_t = tuple(caps)

    # Hot-path specialisation: the overwhelmingly common transition is
    # "one unfiltered multiplicity-1 input, no inhibitors, no guard, no
    # capacity check" — its degree is just the token count.
    if (
        not inhibitors
        and guard_fn is None
        and not caps_t
        and len(inputs_t) == 1
        and inputs_t[0][0] == "any"
        and inputs_t[0][3] == 1
    ):
        p_only = inputs_t[0][1]
        return lambda counts3, totals: totals[:, p_only]

    def degree(counts3: np.ndarray, totals: np.ndarray) -> np.ndarray:
        ok: np.ndarray | None = None
        for p, m in inhibitors:
            cond = totals[:, p] < m
            ok = cond if ok is None else (ok & cond)
        if guard_fn is not None:
            g = guard_fn(totals)
            ok = g if ok is None else (ok & g)
        deg: np.ndarray | None = None
        for kind, p, code, m in inputs_t:
            if kind == "any":
                avail = totals[:, p]
            elif kind == "color":
                avail = counts3[:, p, code]
            else:
                avail = counts3[:, p, list(code)].sum(axis=1)
            d = avail // m if m != 1 else avail
            deg = d if deg is None else np.minimum(deg, d)
        for p, cap, m, removed in caps_t:
            head = (cap - totals[:, p] + removed) // m
            deg = head if deg is None else np.minimum(deg, head)
        if deg is None:
            deg = np.ones(totals.shape[0], dtype=np.int64)
        elif caps_t:
            # Only a capacity term can drive the degree negative.
            deg = np.maximum(deg, 0)
        if ok is not None:
            deg = np.where(ok, deg, 0)
        return deg

    return degree


def _dep_places(
    t: Transition,
    place_index: dict[str, int],
    capacities: dict[int, int],
) -> frozenset[int]:
    """Places whose counts can change this transition's degree."""
    deps: set[int] = set()
    for arc in t.inputs:
        deps.add(place_index[arc.place])
    for arc in t.inhibitors:
        deps.add(place_index[arc.place])
    guard_deps = t.guard.dependencies()
    if guard_deps is None:  # pragma: no cover - FunctionGuard is rejected
        deps.update(place_index.values())
    else:
        deps.update(place_index[name] for name in guard_deps)
    reset_places = {r.place for r in t.resets}
    for arc in t.outputs:
        p = place_index[arc.place]
        if arc.place not in reset_places and p in capacities:
            deps.add(p)
    return frozenset(deps)


def _touch_places(plan: FiringPlan) -> frozenset[int]:
    """Places whose counts change when a firing executes ``plan``."""
    touched: set[int] = set(np.flatnonzero(plan.delta3.any(axis=1)))
    touched.update(np.flatnonzero(plan.delta_tot))
    touched.update(p for _, p, _ in plan.pops)
    touched.update(p for p, _ in plan.forwards)
    return frozenset(int(p) for p in touched)


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
    # delta_tot also carries the (statically known) total change of
    # forwarded deposits and FIFO-matched pops, so check both.
    has_static = bool(delta3.any() or delta_tot.any())
    return FiringPlan(
        delta3=delta3,
        delta_tot=delta_tot,
        has_static=has_static,
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

    def compiled(
        index: int, t: Transition, servers: int, col0: int
    ) -> CompiledTransition:
        degree = _compile_degree(t, place_index, color_index, possible, capacities)
        plan = _compile_plan(
            t,
            place_index,
            color_index,
            possible,
            observable,
            frozenset(queued),
            len(place_names),
            len(ordered),
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
            degree=degree,
            plan=plan,
            dep_places=_dep_places(t, place_index, capacities),
            touch_places=_touch_places(plan),
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
    )
