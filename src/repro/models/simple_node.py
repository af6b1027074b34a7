"""The Fig. 10 simple sensor-node Petri net (Section V validation).

A single token cycles through the node's operating stages:

    Wait --Job_Arrival(exp, mean 3 s)--> Temp_Place
         --Temp(det 1 s)--> Receiving
         --Receive_Delay(det 0.00597 s)--> Computation
         --Computation_Delay(det 1.0274 s)--> Transmitting
         --Transmit_Delay(det 0.0059 s)--> Wait

``Temp``/``Temp_Place`` encode the IMote2's inability to handle events
less than one second apart (stated in the paper); both count as *wait*
time for energy purposes (Eq. 8 charges ``P_Wait`` for
``p_Wait + p_Temp_Place``).

Transition delays are Table VIII's.  Table VIII/IX print 19.7 % for
``Transmitting``; that is inconsistent with its own 0.0059 s delay in a
≈5.04 s cycle and with the printed energy (0.326519 J), which matches
the consistent ≈0.12 % — see DESIGN.md.  We reproduce the energy and
the consistent probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.structural import check_model_invariants
from ..core.distributions import Deterministic, Exponential
from ..core.net import PetriNet
from ..core.simulator import Simulation
from ..energy.power import PowerStateTable, imote2_power_table

__all__ = ["SimpleNodeParameters", "SimpleNodeResult", "SimpleNodeModel"]

#: Stage places in cycle order.
STAGES = ("Wait", "Temp_Place", "Receiving", "Computation", "Transmitting")


@dataclass(frozen=True)
class SimpleNodeParameters:
    """Table VIII timing parameters (seconds)."""

    mean_event_gap: float = 3.0
    min_event_separation: float = 1.0
    receive_delay: float = 0.00597
    computation_delay: float = 1.0274
    transmit_delay: float = 0.0059

    def cycle_time(self) -> float:
        """Expected duration of one full event cycle."""
        return (
            self.mean_event_gap
            + self.min_event_separation
            + self.receive_delay
            + self.computation_delay
            + self.transmit_delay
        )

    def analytic_fractions(self) -> dict[str, float]:
        """Renewal-theoretic stage probabilities (exact for this cycle)."""
        cycle = self.cycle_time()
        return {
            "Wait": self.mean_event_gap / cycle,
            "Temp_Place": self.min_event_separation / cycle,
            "Receiving": self.receive_delay / cycle,
            "Computation": self.computation_delay / cycle,
            "Transmitting": self.transmit_delay / cycle,
        }


@dataclass
class SimpleNodeResult:
    """Simulated stage probabilities and the Eq. (8) energy."""

    stage_probabilities: dict[str, float]
    duration: float
    events: int
    mean_power_mw: float

    @property
    def energy_j(self) -> float:
        """Total energy over ``duration`` in Joules."""
        return self.mean_power_mw * self.duration / 1000.0

    def energy_over(self, duration_s: float) -> float:
        """Energy for an arbitrary duration at the steady mean power."""
        return self.mean_power_mw * duration_s / 1000.0


class SimpleNodeModel:
    """Buildable/simulatable Fig. 10 model.

    Parameters
    ----------
    params:
        Timing parameters (Table VIII defaults).
    power_table:
        Stage power rates; defaults to the measured Table VII values.
        The ``Temp_Place`` stage is charged at the ``wait`` rate.
    """

    #: stage place → power-table state (Eq. 8's grouping).
    STAGE_POWER_STATE = {
        "Wait": "wait",
        "Temp_Place": "wait",
        "Receiving": "receiving",
        "Computation": "computation",
        "Transmitting": "transmitting",
    }

    def __init__(
        self,
        params: SimpleNodeParameters | None = None,
        power_table: PowerStateTable | None = None,
    ) -> None:
        self.params = params if params is not None else SimpleNodeParameters()
        self.power_table = (
            power_table if power_table is not None else imote2_power_table()
        )

    def build(self) -> PetriNet:
        """Construct the Fig. 10 net."""
        p = self.params
        net = PetriNet("fig10-simple-node")
        net.add_place("Wait", initial_tokens=1)
        net.add_place("Temp_Place")
        net.add_place("Receiving")
        net.add_place("Computation")
        net.add_place("Transmitting")
        net.add_transition(
            "Job_Arrival",
            Exponential.from_mean(p.mean_event_gap),
            inputs=["Wait"],
            outputs=["Temp_Place"],
            description="random event trigger",
        )
        net.add_transition(
            "Temp",
            Deterministic(p.min_event_separation),
            inputs=["Temp_Place"],
            outputs=["Receiving"],
            description="IMote2 1 s minimum event separation",
        )
        net.add_transition(
            "Receive_Delay",
            Deterministic(p.receive_delay),
            inputs=["Receiving"],
            outputs=["Computation"],
        )
        net.add_transition(
            "Computation_Delay",
            Deterministic(p.computation_delay),
            inputs=["Computation"],
            outputs=["Transmitting"],
        )
        net.add_transition(
            "Transmit_Delay",
            Deterministic(p.transmit_delay),
            inputs=["Transmitting"],
            outputs=["Wait"],
        )
        check_model_invariants(net, [("stage-token", list(STAGES))])
        return net

    def mean_power_mw(self, stage_probabilities: dict[str, float]) -> float:
        """Eq. (8): stage-probability-weighted power."""
        grouped: dict[str, float] = {}
        for stage, prob in stage_probabilities.items():
            state = self.STAGE_POWER_STATE[stage]
            grouped[state] = grouped.get(state, 0.0) + prob
        return self.power_table.mean_power_mw(grouped)

    def simulate(
        self,
        horizon: float,
        seed: int | None = None,
        warmup: float = 0.0,
    ) -> SimpleNodeResult:
        """Simulate the net and evaluate Eq. (8)."""
        sim = Simulation(self.build(), seed=seed, warmup=warmup)
        return self._summarise(sim.run(horizon).columns(), warmup)[0]

    def simulate_ensemble(
        self,
        horizon: float,
        seeds,
        warmup: float = 0.0,
    ) -> list[SimpleNodeResult]:
        """All seeds of one validation point through the fast engine.

        Bit-identical to ``[self.simulate(horizon, seed=s,
        warmup=warmup) for s in seeds]`` (see :mod:`repro.core.fast`),
        but run in lockstep as one NumPy ensemble.
        """
        from ..core.fast import run_ensemble

        return self._summarise(
            run_ensemble(self.build(), horizon, seeds, warmup=warmup), warmup
        )

    def _summarise(self, rows, warmup: float) -> list[SimpleNodeResult]:
        """Every row's stage probabilities and Eq. (8) power at once.

        ``rows`` is an :class:`~repro.core.fast.EnsembleResults`, or one
        interpreted run's ``SimulationResult.columns()``.
        :meth:`mean_power_mw` runs on the columns with each row's
        scalar float operations.
        """
        probs = {stage: rows.occupancy(stage) for stage in STAGES}
        return [
            SimpleNodeResult(
                stage_probabilities=dict(zip(STAGES, p)),
                duration=duration,
                events=events,
                mean_power_mw=power,
            )
            for p, duration, events, power in zip(
                np.array(list(probs.values())).T.tolist(),
                (rows.end_time - warmup).tolist(),
                rows.firing_count("Job_Arrival").tolist(),
                self.mean_power_mw(probs).tolist(),
            )
        ]

    def analytic_result(self, duration: float) -> SimpleNodeResult:
        """Exact renewal-theory answer (for convergence tests)."""
        probs = self.params.analytic_fractions()
        return SimpleNodeResult(
            stage_probabilities=probs,
            duration=duration,
            events=int(duration / self.params.cycle_time()),
            mean_power_mw=self.mean_power_mw(probs),
        )
