"""Higher-level structural properties built on reachability + invariants.

These are the sanity instruments a modeller points at a net before
trusting its simulation numbers — the reproduction's stand-in for
TimeNET's "structural analysis" panel:

* :func:`boundedness` — per-place bounds via reachability.
* :func:`is_conservative` — a strictly positive P-invariant covers all
  places (total weighted token count constant).
* :func:`liveness_summary` — which transitions ever fire (L1-liveness
  on the reachability graph) and which are structurally dead.
* :func:`check_model_invariants` — assert a list of expected
  conservation laws, raising with a readable message otherwise (model
  builders call this).
"""

from __future__ import annotations

from dataclasses import dataclass


from ..core.net import PetriNet
from .invariants import conserved_token_sum, p_invariants
from .reachability import ReachabilityGraph, build_reachability_graph

__all__ = [
    "BoundednessReport",
    "LivenessReport",
    "boundedness",
    "is_conservative",
    "liveness_summary",
    "check_model_invariants",
]


@dataclass(frozen=True)
class BoundednessReport:
    """Per-place bounds and the global verdict."""

    bounds: dict[str, int]
    k: int
    n_states: int

    @property
    def is_safe(self) -> bool:
        """1-bounded (every place holds at most one token)."""
        return self.k <= 1

    def __str__(self) -> str:
        return (
            f"{self.k}-bounded over {self.n_states} reachable markings; "
            f"bounds: {self.bounds}"
        )


@dataclass(frozen=True)
class LivenessReport:
    """Which transitions can fire at all (L1) and which states deadlock."""

    live: frozenset[str]
    dead: frozenset[str]
    deadlock_markings: int

    @property
    def deadlock_free(self) -> bool:
        """No reachable marking disables everything."""
        return self.deadlock_markings == 0

    def __str__(self) -> str:
        return (
            f"live: {sorted(self.live)}; dead: {sorted(self.dead)}; "
            f"deadlock markings: {self.deadlock_markings}"
        )


def boundedness(
    net: PetriNet,
    max_states: int = 100_000,
    rg: ReachabilityGraph | None = None,
) -> BoundednessReport:
    """Compute per-place bounds by exhaustive reachability."""
    rg = rg if rg is not None else build_reachability_graph(net, max_states)
    bounds = rg.bound_vector()
    for p in net.place_names:
        bounds.setdefault(p, 0)
    k = max(bounds.values(), default=0)
    return BoundednessReport(bounds=bounds, k=k, n_states=rg.n_states)


def is_conservative(net: PetriNet) -> bool:
    """True when some strictly positive P-invariant covers every place."""
    invariants = p_invariants(net)
    if not invariants:
        return False
    # Sum of all generators is a non-negative invariant; conservative
    # iff that sum can be made strictly positive, i.e. every place is in
    # the union of supports.
    covered: set[str] = set()
    for inv in invariants:
        covered |= inv.support
    return covered >= set(net.place_names)


def liveness_summary(
    net: PetriNet,
    max_states: int = 100_000,
    rg: ReachabilityGraph | None = None,
) -> LivenessReport:
    """L1-liveness per transition and deadlock census."""
    rg = rg if rg is not None else build_reachability_graph(net, max_states)
    fired = rg.fired_transitions()
    all_names = set(net.transition_names)
    return LivenessReport(
        live=frozenset(fired),
        dead=frozenset(all_names - fired),
        deadlock_markings=len(rg.deadlock_states()),
    )


def check_model_invariants(
    net: PetriNet,
    conservation_sets: list[tuple[str, list[str]]],
) -> None:
    """Assert expected conservation laws; raise ``ValueError`` otherwise.

    Parameters
    ----------
    net:
        The net to check.
    conservation_sets:
        ``(label, [place, ...])`` pairs.  For each, the plain token sum
        over the places must be invariant under every transition.

    Model builders (e.g. :mod:`repro.models.wsn_node`) call this so that
    a mis-wired arc is caught at construction time with a message naming
    the violated law instead of surfacing as a slow statistical drift.
    """
    failures: list[str] = []
    for label, places in conservation_sets:
        if not conserved_token_sum(net, places):
            failures.append(
                f"{label}: token sum over {places} is not conserved"
            )
    if failures:
        raise ValueError(
            f"net {net.name!r} violates declared invariants: "
            + "; ".join(failures)
        )
