"""Explicit reachability-graph construction for bounded nets.

TimeNET's numerical analysis pipeline starts by building the reduced
reachability graph; we reproduce the untimed core of that pipeline:

* :func:`build_reachability_graph` explores the marking space ignoring
  time (every enabled transition is a successor edge) with a state
  budget so unbounded nets fail loudly instead of looping.
* The result is a :class:`ReachabilityGraph`: plain dicts keyed by
  canonical marking signatures, holding each state's token counts and
  its labelled successor edges.  Strong connectivity and home states
  come from one iterative Tarjan pass, so graphs of 100k states need no
  recursion.

Timing is deliberately ignored here: reachability is a structural
notion.  The timed analysis path for exponential nets lives in
:mod:`repro.analysis.ctmc_conversion`, which reuses this exploration
with immediate-transition (vanishing-marking) elimination.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from ..core.errors import UnboundedNetError
from ..core.marking import Marking
from ..core.net import PetriNet
from ..core.tokens import Token
from ..core.transitions import Transition

__all__ = ["ReachabilityGraph", "build_reachability_graph"]


Signature = tuple


@dataclass
class ReachabilityGraph:
    """The explored marking space of a bounded net.

    Attributes
    ----------
    states:
        Marking signature → token-count dict, in discovery order.
    edges:
        Marking signature → ``{successor signature: transition name}``;
        every state has an entry (empty for a deadlock).  When several
        transitions lead to the same successor, the first one found
        labels the edge.
    initial:
        Signature of the initial marking.
    """

    states: dict[Signature, dict[str, int]]
    edges: dict[Signature, dict[Signature, str]]
    initial: Signature

    @property
    def n_states(self) -> int:
        """Number of distinct reachable markings."""
        return len(self.states)

    @property
    def n_edges(self) -> int:
        """Number of firing edges."""
        return sum(len(succs) for succs in self.edges.values())

    def counts_of(self, signature: Signature) -> dict[str, int]:
        """Token counts of a state."""
        return self.states[signature]

    def deadlock_states(self) -> list[Signature]:
        """States with no outgoing firing."""
        return [sig for sig, succs in self.edges.items() if not succs]

    def max_tokens(self, place: str) -> int:
        """Bound of ``place`` over the reachable space."""
        return max(counts.get(place, 0) for counts in self.states.values())

    def bound_vector(self) -> dict[str, int]:
        """Per-place bounds (the k-boundedness certificate)."""
        bounds: dict[str, int] = {}
        for counts in self.states.values():
            for place, count in counts.items():
                if count > bounds.get(place, 0):
                    bounds[place] = count
        return bounds

    def fired_transitions(self) -> set[str]:
        """Names of the transitions labelling at least one edge."""
        return {t for succs in self.edges.values() for t in succs.values()}

    def is_live_transition(self, transition: str) -> bool:
        """L1-liveness: the transition labels at least one edge."""
        return transition in self.fired_transitions()

    def strongly_connected(self) -> bool:
        """True when every state can reach every other (ergodic skeleton)."""
        return len(self._components()) == 1

    def home_states(self) -> list[Signature]:
        """States reachable from every reachable state."""
        # A home state lives in the unique terminal SCC (no edge leaving
        # it); every state reaches some terminal SCC, so with exactly one
        # all states reach it, and with more there is no home state.
        terminal = [
            members
            for members in self._components()
            if all(s in members for m in members for s in self.edges[m])
        ]
        if len(terminal) != 1:
            return []
        return sorted(terminal[0])

    def _components(self) -> list[set[Signature]]:
        """Strongly connected components by an iterative Tarjan pass."""
        index: dict[Signature, int] = {}
        low: dict[Signature, int] = {}
        stack: list[Signature] = []
        on_stack: set[Signature] = set()
        components: list[set[Signature]] = []
        # Explicit DFS stack of (node, its unexplored successors).
        work: list[tuple[Signature, Iterator[Signature]]] = []

        def visit(node: Signature) -> None:
            index[node] = low[node] = len(index)
            stack.append(node)
            on_stack.add(node)
            work.append((node, iter(self.edges[node])))

        for root in self.edges:
            if root in index:
                continue
            visit(root)
            while work:
                node, successors = work[-1]
                for succ in successors:
                    if succ not in index:
                        visit(succ)
                        break
                    if succ in on_stack and index[succ] < low[node]:
                        low[node] = index[succ]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[node] < low[parent]:
                            low[parent] = low[node]
                    if low[node] == index[node]:
                        members: set[Signature] = set()
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            members.add(member)
                            if member == node:
                                break
                        components.append(members)
        return components


def _fire_untimed(
    net: PetriNet, marking: Marking, transition: Transition, now: float = 0.0
) -> Marking:
    """Fire ``transition`` on a copy of ``marking`` (untimed token game)."""
    from ..core.arcs import FiringContext

    new = marking.copy()
    consumed: dict[str, list[Token]] = {}
    for arc in transition.inputs:
        consumed.setdefault(arc.place, []).extend(
            new.withdraw(arc.place, arc.multiplicity, arc.token_filter)
        )
    for reset in transition.resets:
        flushed = new.bag(reset.place).clear()
        if flushed:
            consumed.setdefault(reset.place, []).extend(flushed)
    import numpy as np

    ctx = FiringContext(
        time=now,
        consumed=consumed,
        marking=new.view(),
        rng=np.random.default_rng(0),
        transition=transition.name,
    )
    for arc in transition.outputs:
        new.deposit(arc.place, arc.make_tokens(ctx))
    return new


def _enabled_untimed(net: PetriNet, marking: Marking) -> list[Transition]:
    """Transitions enabled in ``marking`` honouring immediate priority.

    If any immediate transition is enabled, only the maximal-priority
    immediates count (the vanishing-marking rule); otherwise all enabled
    timed transitions do.
    """
    view = marking.view()

    def enabled(t: Transition) -> bool:
        for inh in t.inhibitors:
            if marking.count(inh.place) >= inh.multiplicity:
                return False
        if not t.guard(view):
            return False
        for arc in t.inputs:
            if marking.bag(arc.place).count(arc.token_filter) < arc.multiplicity:
                return False
        return True

    immediates = [t for t in net.transitions if t.is_immediate and enabled(t)]
    if immediates:
        top = max(t.priority for t in immediates)
        return [t for t in immediates if t.priority == top]
    return [t for t in net.transitions if t.is_timed and enabled(t)]


def build_reachability_graph(
    net: PetriNet,
    max_states: int = 100_000,
    initial_marking: Marking | None = None,
) -> ReachabilityGraph:
    """Breadth-first exploration of the reachable marking space.

    Raises
    ------
    UnboundedNetError
        When more than ``max_states`` distinct markings are found.

    Notes
    -----
    Output-arc *producers* (dynamic colour functions) are evaluated with
    a fixed dummy RNG; nets whose colour production is genuinely random
    have an approximate graph.  The paper's models only forward or fix
    colours, so their graphs are exact.
    """
    marking0 = initial_marking if initial_marking is not None else net.initial_marking()
    initial_sig = marking0.signature()
    states = {initial_sig: marking0.counts()}
    edges: dict[Signature, dict[Signature, str]] = {initial_sig: {}}
    frontier: deque[tuple[Signature, Marking]] = deque([(initial_sig, marking0)])
    while frontier:
        sig, marking = frontier.popleft()
        successors = edges[sig]
        for transition in _enabled_untimed(net, marking):
            successor = _fire_untimed(net, marking, transition)
            succ_sig = successor.signature()
            if succ_sig not in states:
                if len(states) >= max_states:
                    raise UnboundedNetError(max_states)
                states[succ_sig] = successor.counts()
                edges[succ_sig] = {}
                frontier.append((succ_sig, successor))
            successors.setdefault(succ_sig, transition.name)
    return ReachabilityGraph(states=states, edges=edges, initial=initial_sig)
