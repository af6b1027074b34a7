"""Workload generators: the paper's open and closed event sources.

The distinction (Section VI):

* **Open** — events arrive by an exponential clock *independently of
  the system state* (Fig. 13's ``T0`` with places ``P2`` and
  ``Event_Arrival``): bursts can queue while the node is busy.
* **Closed** — the generator waits for the system to return to its
  ``Wait`` state before drawing the next event (Fig. 12's ``T0`` with
  global guard ``#Wait > 0``): exactly one event is in flight.

Both are implemented as subnet attachments: given a target
:class:`~repro.core.net.PetriNet` and the name of the place where event
tokens should appear, ``attach()`` adds the generator places and
transitions.  A trace-driven generator replays recorded event times via
an :class:`~repro.core.distributions.Empirical` inter-arrival
distribution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..core.distributions import Empirical, Exponential, FiringDistribution
from ..core.guards import TRUE, Guard, tokens_gt
from ..core.net import PetriNet

__all__ = [
    "WorkloadGenerator",
    "OpenWorkload",
    "ClosedWorkload",
    "TraceWorkload",
    "MMPPWorkload",
]


class WorkloadGenerator:
    """Base class: a subnet that emits event tokens into a place."""

    #: Name of the transition that emits events (for throughput stats).
    emit_transition: str = "T0"

    def attach(self, net: PetriNet, event_place: str) -> None:
        """Add this generator's places/transitions to ``net``.

        ``event_place`` must already exist; one token is deposited there
        per generated event.
        """
        raise NotImplementedError

    def mean_interarrival(self) -> float:
        """Mean gap between generated events (seconds)."""
        raise NotImplementedError

    def emit_timing(self) -> dict[str, FiringDistribution]:
        """The emit transitions whose timing is set by a rate field.

        ``transition name -> distribution``; the lockstep ensemble
        varies these per row, so generators that differ only in their
        rates share one net.  Empty for a generator without rates.
        """
        return {}


@dataclass
class OpenWorkload(WorkloadGenerator):
    """Poisson event source firing regardless of system state (Fig. 13).

    Parameters
    ----------
    rate:
        Events per second (the figures use 1 event/s).
    source_place:
        Name for the self-loop place (the paper's ``P2``).
    """

    rate: float
    source_place: str = "P2"
    emit_transition: str = "T0"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def emit_timing(self) -> dict[str, FiringDistribution]:
        return {self.emit_transition: Exponential(self.rate)}

    def attach(self, net: PetriNet, event_place: str) -> None:
        net.add_place(self.source_place, initial_tokens=1)
        net.add_transition(
            self.emit_transition,
            self.emit_timing()[self.emit_transition],
            inputs=[self.source_place],
            outputs=[self.source_place, event_place],
            description="open workload generator (fires independently)",
        )

    def mean_interarrival(self) -> float:
        return 1.0 / self.rate


@dataclass
class ClosedWorkload(WorkloadGenerator):
    """Event source gated on the system being in ``Wait`` (Fig. 12).

    Parameters
    ----------
    rate:
        Rate of the exponential think time drawn once the system is
        back in ``Wait``.
    wait_place:
        Name of the system's wait-state place for the ``#Wait > 0``
        global guard (Table XI's guard on ``T0``).
    source_place:
        Name for the generator's self-loop place (the paper's ``P0``
        feeds the system; we keep a separate ``Gen`` place so the event
        token itself can be consumed downstream).
    """

    rate: float
    wait_place: str = "Wait"
    source_place: str = "Gen"
    emit_transition: str = "T0"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def emit_timing(self) -> dict[str, FiringDistribution]:
        return {self.emit_transition: Exponential(self.rate)}

    def attach(self, net: PetriNet, event_place: str) -> None:
        net.add_place(self.source_place, initial_tokens=1)
        net.add_transition(
            self.emit_transition,
            self.emit_timing()[self.emit_transition],
            inputs=[self.source_place],
            outputs=[self.source_place, event_place],
            guard=tokens_gt(self.wait_place, 0),
            description="closed workload generator (guard: #Wait > 0)",
        )

    def mean_interarrival(self) -> float:
        """Think-time mean only — the effective cycle adds service time."""
        return 1.0 / self.rate


@dataclass
class MMPPWorkload(WorkloadGenerator):
    """Bursty open source: a 2-state Markov-modulated Poisson process.

    A modulating token alternates between ``BurstOn`` and ``BurstOff``
    via exponential dwell times (means ``mean_on_s`` / ``mean_off_s``);
    events are emitted at ``rate_on`` while the token sits in
    ``BurstOn`` and at ``rate_off`` (often 0 — the classic on-off /
    interrupted-Poisson source) in ``BurstOff``.  Like
    :class:`OpenWorkload` it fires regardless of system state, so
    bursts queue while the node is busy — which is exactly the regime
    where a bursty arrival stream stresses a ``Power_Down_Threshold``
    policy differently from a Poisson stream of the same mean rate.

    All four parameters are plain data; use
    :meth:`repro.topology.MMPPTraffic.workload` to build one that
    preserves a target mean rate.
    """

    rate_on: float
    rate_off: float
    mean_on_s: float
    mean_off_s: float
    on_place: str = "BurstOn"
    off_place: str = "BurstOff"
    emit_transition: str = "T0"

    def __post_init__(self) -> None:
        if self.rate_on <= 0:
            raise ValueError(f"rate_on must be > 0, got {self.rate_on}")
        if self.rate_off < 0:
            raise ValueError(f"rate_off must be >= 0, got {self.rate_off}")
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise ValueError(
                "burst dwell times must be > 0, got "
                f"on={self.mean_on_s}, off={self.mean_off_s}"
            )

    def emit_timing(self) -> dict[str, FiringDistribution]:
        """The burst-state emitter and, if ``rate_off > 0``, the quiet one.

        A ``rate_off`` of 0 leaves the quiet-state transition out of
        the net altogether.
        """
        timing: dict[str, FiringDistribution] = {
            self.emit_transition: Exponential(self.rate_on)
        }
        if self.rate_off > 0:
            timing[f"{self.emit_transition}_off"] = Exponential(self.rate_off)
        return timing

    def attach(self, net: PetriNet, event_place: str) -> None:
        net.add_place(self.on_place, initial_tokens=1)
        net.add_place(self.off_place)
        emit = self.emit_timing()
        quiet = f"{self.emit_transition}_off"
        net.add_transition(
            self.emit_transition,
            emit[self.emit_transition],
            inputs=[self.on_place],
            outputs=[self.on_place, event_place],
            description="MMPP generator, burst (ON) state",
        )
        if quiet in emit:
            net.add_transition(
                quiet,
                emit[quiet],
                inputs=[self.off_place],
                outputs=[self.off_place, event_place],
                description="MMPP generator, quiet (OFF) state",
            )
        net.add_transition(
            "Burst_End",
            Exponential(1.0 / self.mean_on_s),
            inputs=[self.on_place],
            outputs=[self.off_place],
            description="modulating chain: ON -> OFF",
        )
        net.add_transition(
            "Burst_Begin",
            Exponential(1.0 / self.mean_off_s),
            inputs=[self.off_place],
            outputs=[self.on_place],
            description="modulating chain: OFF -> ON",
        )

    def mean_rate(self) -> float:
        """Long-run event rate across both modulating states."""
        p_on = self.mean_on_s / (self.mean_on_s + self.mean_off_s)
        return p_on * self.rate_on + (1.0 - p_on) * self.rate_off

    def mean_interarrival(self) -> float:
        return 1.0 / self.mean_rate()


@dataclass
class TraceWorkload(WorkloadGenerator):
    """Replay recorded inter-arrival gaps (empirical resampling).

    Useful for driving the node models with measured event traces; the
    gaps are resampled i.i.d. from the supplied list, preserving the
    marginal distribution (not autocorrelation).
    """

    interarrival_s: Sequence[float]
    source_place: str = "TraceSrc"
    emit_transition: str = "T0"
    guard: Guard = TRUE

    def attach(self, net: PetriNet, event_place: str) -> None:
        net.add_place(self.source_place, initial_tokens=1)
        net.add_transition(
            self.emit_transition,
            Empirical(list(self.interarrival_s)),
            inputs=[self.source_place],
            outputs=[self.source_place, event_place],
            guard=self.guard,
            description="trace-driven workload generator",
        )

    def mean_interarrival(self) -> float:
        vals = list(self.interarrival_s)
        return sum(vals) / len(vals)
