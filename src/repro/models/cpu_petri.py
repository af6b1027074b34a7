"""The Fig. 3 CPU Petri-net model (EDSPN, Table I parameters).

An open workload generator feeds jobs into ``CPU_Buffer``; the CPU
cycles through four power states held by explicit places:

* ``Stand_By`` (initial) — low-power sleep.
* ``Power_Up`` — deterministic wake-up (``Power_Up_Delay``).
* ``Idle`` — on, buffer empty.
* ``Active`` — serving a job (exponential ``Service_Rate``).

Transitions (paper's Table I):

==============  ============== ======== ==========================
name            distribution    priority semantics
==============  ============== ======== ==========================
Arrival_Rate    Exponential(λ)  —       open workload generator
T1              immediate       4        Stand_By → Power_Up on job
Power_Up_Delay  Deterministic   —       Power_Up → Idle after D
T2              immediate       1        Idle → Active on job
Service_Rate    Exponential(μ)  —       Active (+job) → Idle
PDT             Deterministic   —       Idle → Stand_By after T idle
==============  ============== ======== ==========================

The ``Power_Down_Threshold`` transition runs under *enabling memory*
with global guard ``#CPU_Buffer == 0``: a job arriving while idle
disables the guard and cancels the timer, exactly the reset-on-arrival
behaviour the Markov model needs supplementary variables to express.

Steady-state probabilities are the occupancies of the four state
places; a zero-duration ``Idle`` visit between back-to-back services
costs no time, so ``Active``/``Idle`` splits are exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..analysis.structural import check_model_invariants
from ..core.distributions import (
    Deterministic,
    Exponential,
    FiringDistribution,
)
from ..core.guards import tokens_eq, tokens_gt
from ..core.net import PetriNet
from ..core.simulator import Simulation
from ..des.cpu import CPUSimResult, CPUStates

__all__ = ["CPUPetriModel", "build_cpu_petri_net", "simulate_cpu_ensembles"]

#: Place names of the four power states, in the paper's order.
STATE_PLACES = {
    CPUStates.STANDBY: "Stand_By",
    CPUStates.POWERUP: "Power_Up",
    CPUStates.IDLE: "Idle",
    CPUStates.ACTIVE: "Active",
}


def _timing(
    arrival_rate: float,
    service_rate: float,
    power_down_threshold: float,
    power_up_delay: float,
) -> dict[str, FiringDistribution]:
    """Each timed transition's distribution: all the parameters change."""
    return {
        "Arrival_Rate": Exponential(arrival_rate),
        "Power_Up_Delay": Deterministic(power_up_delay),
        "Service_Rate": Exponential(service_rate),
        "Power_Down_Threshold": Deterministic(power_down_threshold),
    }


def build_cpu_petri_net(
    arrival_rate: float,
    service_rate: float,
    power_down_threshold: float,
    power_up_delay: float,
) -> PetriNet:
    """Construct the Fig. 3 net with the given timing parameters."""
    if arrival_rate <= 0 or service_rate <= 0:
        raise ValueError("arrival_rate and service_rate must be > 0")
    if power_down_threshold < 0 or power_up_delay < 0:
        raise ValueError("threshold and delay must be >= 0")
    timing = _timing(
        arrival_rate, service_rate, power_down_threshold, power_up_delay
    )
    net = PetriNet("fig3-cpu")
    net.add_place("P0", initial_tokens=1, description="workload self-loop")
    net.add_place("CPU_Buffer", description="pending jobs")
    net.add_place("Stand_By", initial_tokens=1, description="CPU sleeping")
    net.add_place("Power_Up", description="CPU waking up")
    net.add_place("Idle", description="CPU on, no jobs")
    net.add_place("Active", description="CPU serving")

    net.add_transition(
        "Arrival_Rate",
        timing["Arrival_Rate"],
        inputs=["P0"],
        outputs=["P0", "CPU_Buffer"],
        description="open workload generator",
    )
    net.add_transition(
        "T1",
        inputs=["Stand_By"],
        outputs=["Power_Up"],
        guard=tokens_gt("CPU_Buffer", 0),
        priority=4,
        description="wake on job arrival",
    )
    net.add_transition(
        "Power_Up_Delay",
        timing["Power_Up_Delay"],
        inputs=["Power_Up"],
        outputs=["Idle"],
        description="deterministic wake-up",
    )
    net.add_transition(
        "T2",
        inputs=["Idle"],
        outputs=["Active"],
        guard=tokens_gt("CPU_Buffer", 0),
        priority=1,
        description="start service when on and jobs pending",
    )
    net.add_transition(
        "Service_Rate",
        timing["Service_Rate"],
        inputs=["Active", "CPU_Buffer"],
        outputs=["Idle"],
        description="exponential service of one job",
    )
    net.add_transition(
        "Power_Down_Threshold",
        timing["Power_Down_Threshold"],
        inputs=["Idle"],
        outputs=["Stand_By"],
        guard=tokens_eq("CPU_Buffer", 0),
        description="sleep after T of uninterrupted idleness",
    )
    # The CPU state token is conserved across the four state places.
    check_model_invariants(
        net,
        [("cpu-state-token", ["Stand_By", "Power_Up", "Idle", "Active"])],
    )
    return net


@dataclass
class CPUPetriModel:
    """Parameterised Fig. 3 model with a simulate-and-summarise API.

    Parameters mirror :class:`~repro.des.cpu.CPUPowerStateSimulator` so
    the comparison harness can treat the three estimators uniformly.
    """

    arrival_rate: float
    service_rate: float
    power_down_threshold: float
    power_up_delay: float

    def build(self) -> PetriNet:
        """A fresh net with this parameterisation."""
        return build_cpu_petri_net(
            self.arrival_rate,
            self.service_rate,
            self.power_down_threshold,
            self.power_up_delay,
        )

    def simulate(
        self,
        horizon: float,
        seed: int | None = None,
        warmup: float = 0.0,
    ) -> CPUSimResult:
        """Run the net and summarise state-time fractions.

        Returns the same :class:`~repro.des.cpu.CPUSimResult` shape the
        DES produces, so downstream energy code is estimator-agnostic.
        """
        sim = Simulation(self.build(), seed=seed, warmup=warmup)
        return self._summarise(sim.run(horizon).columns(), warmup)[0]

    def simulate_ensemble(
        self,
        horizon: float,
        seeds,
        warmup: float = 0.0,
    ) -> list[CPUSimResult]:
        """Replications of this model through the vectorized engine.

        Bit-identical to ``[self.simulate(horizon, seed=s,
        warmup=warmup) for s in seeds]`` (see :mod:`repro.core.fast`),
        but run in lockstep as one NumPy ensemble; see
        :func:`simulate_cpu_ensembles` for several models at once.
        """
        return simulate_cpu_ensembles([self], [seeds], horizon, warmup)[0]

    def _summarise(self, rows, warmup: float) -> list[CPUSimResult]:
        """Every row's state-time fractions, all rows at once.

        ``rows`` is an :class:`~repro.core.fast.EnsembleResults`, or one
        interpreted run's ``SimulationResult.columns()``.  Each row
        keeps a scalar summary's float operations.
        """
        fractions = np.array([rows.occupancy(p) for p in STATE_PLACES.values()])
        duration = rows.end_time - warmup
        return [
            CPUSimResult(
                fractions=dict(zip(STATE_PLACES, f)),
                dwell=dict(zip(STATE_PLACES, d)),
                duration=dur,
                jobs_arrived=arrived,
                jobs_served=served,
                wakeups=wakeups,
            )
            for f, d, dur, arrived, served, wakeups in zip(
                fractions.T.tolist(),
                (fractions * duration).T.tolist(),
                duration.tolist(),
                rows.firing_count("Arrival_Rate").tolist(),
                rows.firing_count("Service_Rate").tolist(),
                rows.firing_count("T1").tolist(),
            )
        ]


def simulate_cpu_ensembles(
    models: Sequence[CPUPetriModel],
    seeds: Sequence[Sequence[int | None]],
    horizon: float,
    warmup: float = 0.0,
) -> list[list[CPUSimResult]]:
    """Every model's replications as rows of one lockstep ensemble.

    ``models[k]`` runs at each seed of ``seeds[k]``.  The Fig. 3 net's
    structure does not depend on its parameters, so any models combine:
    the net is built once, from ``models[0]``, and every row takes its
    model's four timed distributions as per-row timing.  Each model
    summarises its rows at once from the ensemble's columns,
    bit-identical to ``models[k].simulate(horizon, seed=s,
    warmup=warmup)``.
    """
    from ..core.fast import run_ensemble

    if not models:
        return []
    timings = [
        _timing(
            m.arrival_rate, m.service_rate, m.power_down_threshold, m.power_up_delay
        )
        for m in models
    ]
    rows = run_ensemble(
        models[0].build(),
        horizon,
        [s for group in seeds for s in group],
        row_timing={
            name: [t[name] for t, group in zip(timings, seeds) for _ in group]
            for name in timings[0]
        },
        warmup=warmup,
    )
    ends = accumulate(len(group) for group in seeds)
    return [
        model._summarise(rows[end - len(group) : end], warmup)
        for model, group, end in zip(models, seeds, ends)
    ]
