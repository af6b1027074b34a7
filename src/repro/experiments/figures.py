"""Figs. 4–9 / Tables IV–VI driver: the three-way CPU comparison.

For a fixed ``Power_Up_Delay`` D ∈ {0.001, 0.3, 10} s, sweep the
``Power_Down_Threshold`` over [0.001, 1] s and, at every point, ask all
three estimators for state-time fractions and total energy:

* the discrete-event simulator (ground truth, solid line),
* the Markov supplementary-variable model (squares),
* the Petri net (circles).

Workload (Table II): arrival rate 1 job/s, *mean service time 0.1 s*
(the table prints "Service Rate .1 per second", which would be an
unstable ρ = 10 queue; every figure's ≈10 % Active share confirms the
mean-service-time reading — see DESIGN.md).  Energies use the PXA271
powers of Table III over the 1000 s horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..des.cpu import CPUPowerStateSimulator, CPUSimResult, CPUStates
from ..energy.power import PowerStateTable, cpu_power_table
from ..models.cpu_markov import CPUMarkovModel
from ..models.cpu_petri import CPUPetriModel, simulate_cpu_ensembles
from .deltas import DeltaStats, delta_table
from .sweep import FIG4_TO_9_THRESHOLDS

if TYPE_CHECKING:
    from ..runtime.adaptive import AdaptivePointRun

__all__ = [
    "CPUComparisonConfig",
    "CPUComparisonResult",
    "run_cpu_comparison",
    "PAPER_POWER_UP_DELAYS",
]

#: The three scenarios of Figs. 4–9.
PAPER_POWER_UP_DELAYS: tuple[float, ...] = (0.001, 0.3, 10.0)

ESTIMATORS = ("simulation", "markov", "petri")


@dataclass(frozen=True)
class CPUComparisonConfig:
    """Workload and run-length configuration (Table II defaults)."""

    arrival_rate: float = 1.0
    service_rate: float = 10.0  # mean service time 0.1 s
    horizon: float = 1000.0
    warmup: float = 0.0
    seed: int = 2010
    thresholds: tuple[float, ...] = FIG4_TO_9_THRESHOLDS

    def __post_init__(self) -> None:
        if self.horizon <= self.warmup:
            raise ValueError("horizon must exceed warmup")


@dataclass
class CPUComparisonResult:
    """All series for one ``Power_Up_Delay`` scenario.

    ``fractions[estimator][state]`` and ``energy_j[estimator]`` are
    lists aligned with ``thresholds``: across-replication means of the
    stochastic estimators.  ``runs`` holds one
    :class:`~repro.runtime.adaptive.AdaptivePointRun` per threshold,
    whose values map each estimator to its ``(fractions, energy)``; the
    deterministic Markov solve appears in replication 0 only.
    """

    power_up_delay: float
    thresholds: tuple[float, ...]
    fractions: dict[str, dict[str, list[float]]]
    energy_j: dict[str, list[float]]
    runs: list[AdaptivePointRun]
    config: CPUComparisonConfig = field(default_factory=CPUComparisonConfig)
    ci_target: float | None = None

    def delta_energy(self) -> dict[str, DeltaStats]:
        """The Tables IV–VI statistics for this scenario."""
        return delta_table(
            self.energy_j["simulation"],
            self.energy_j["markov"],
            self.energy_j["petri"],
        )

    def state_series(self, estimator: str, state: str) -> list[float]:
        """One fraction curve (e.g. the Fig. 4 'Idle' line)."""
        return self.fractions[estimator][state]

    def mean_abs_fraction_error(self, estimator: str) -> float:
        """Mean |fraction − simulation fraction| across states and points."""
        total = 0.0
        count = 0
        for state in CPUStates.ALL:
            sim = self.fractions["simulation"][state]
            est = self.fractions[estimator][state]
            for s, e in zip(sim, est):
                total += abs(s - e)
                count += 1
        return total / count if count else 0.0


def _evaluate_cpu_point(
    task: tuple[float, int, float, CPUComparisonConfig, PowerStateTable, bool],
    petri: CPUSimResult | None = None,
) -> dict[str, tuple[dict[str, float], float]]:
    """One (threshold, replication) evaluation of the estimators.

    Module-level so the parallel runtime can pickle it under any
    multiprocessing start method.  The analytic Markov model is
    deterministic (no seed), so it is solved only when
    ``include_markov`` is set — once per threshold, on replication 0 —
    instead of once per replication.  ``petri`` is this task's Petri
    run when a batch already ran it (see
    :func:`_evaluate_cpu_point_ensemble`).
    """
    threshold, point_seed, power_up_delay, cfg, table, include_markov = task
    duration = cfg.horizon - cfg.warmup
    simulation = CPUPowerStateSimulator(
        cfg.arrival_rate,
        cfg.service_rate,
        threshold,
        power_up_delay,
        seed=point_seed,
        warmup=cfg.warmup,
    ).run(cfg.horizon)
    if petri is None:
        petri = CPUPetriModel(
            cfg.arrival_rate, cfg.service_rate, threshold, power_up_delay
        ).simulate(cfg.horizon, seed=point_seed, warmup=cfg.warmup)

    estimates: list[tuple[str, object]] = [
        ("simulation", simulation),
        ("petri", petri),
    ]
    if include_markov:
        estimates.append(
            (
                "markov",
                CPUMarkovModel(
                    cfg.arrival_rate, cfg.service_rate, threshold, power_up_delay
                ).simulate(cfg.horizon, warmup=cfg.warmup),
            )
        )

    out: dict[str, tuple[dict[str, float], float]] = {}
    for est, result in estimates:
        fracs = {state: result.fraction(state) for state in CPUStates.ALL}
        out[est] = (
            fracs,
            table.energy_from_probabilities_j(result.fractions, duration),
        )
    return out


def _evaluate_cpu_point_ensemble(
    tasks: tuple[
        tuple[float, int, float, CPUComparisonConfig, PowerStateTable, bool], ...
    ],
) -> list[dict[str, tuple[dict[str, float], float]]]:
    """:func:`_evaluate_cpu_point` over many tasks, Petri runs ensembled.

    The ``engine="vectorized"`` batch form: the tasks must share
    ``cfg``.  Their Petri-net runs are rows of one lockstep ensemble
    through :func:`~repro.models.cpu_petri.simulate_cpu_ensembles`
    (bit-identical per replication, consecutive tasks of one threshold
    point becoming one model's rows); the DES and the Markov solve
    then run per task exactly as in :func:`_evaluate_cpu_point`.
    """
    from ..runtime.adaptive import shared_field

    cfg = shared_field(tasks, 3, "config")
    runs = [list(run) for _, run in groupby(tasks, itemgetter(0, 2))]
    petris = simulate_cpu_ensembles(
        [
            CPUPetriModel(cfg.arrival_rate, cfg.service_rate, run[0][0], run[0][2])
            for run in runs
        ],
        [[task[1] for task in run] for run in runs],
        cfg.horizon,
        cfg.warmup,
    )
    return [
        _evaluate_cpu_point(task, petri)
        for run, group in zip(runs, petris)
        for task, petri in zip(run, group)
    ]


def run_cpu_comparison(
    power_up_delay: float,
    config: CPUComparisonConfig | None = None,
    power_table: PowerStateTable | None = None,
    *,
    exec_cfg=None,
) -> CPUComparisonResult:
    """Run the full three-way sweep for one ``Power_Up_Delay``.

    The DES and the Petri net share the seed per threshold point
    (common random numbers), mirroring how the paper plots both against
    the same workload realisations.

    ``exec_cfg`` — an :class:`~repro.runtime.config.ExecutionConfig`
    (or resolved :class:`~repro.runtime.config.ResolvedExecution`) —
    says how to run; none of its fields changes the numbers beyond the
    replication policy.  Grid points (and, when ``replications > 1``,
    replications) are submitted through
    :func:`~repro.runtime.adaptive.run_replications`; the serial
    single-replication default reproduces the pre-runtime results bit
    for bit.  Replication 0 keeps the legacy per-point seed ``seed +
    i``; further replications use seeds spawned from it, and the
    reported fractions/energies become across-replication means, each
    point's interval coming from its ``runs`` entry.

    With ``ci_target`` set, each threshold point replicates adaptively
    until *both* stochastic estimators' energy intervals meet the
    relative half-width target (the analytic Markov solve is
    deterministic and exempt), or ``max_replications`` is hit.  The
    seed plan per point is prefix-stable, so the executed replications
    are a bit-identical prefix of the fixed
    ``replications=max_replications`` run; ``replications`` (at least 2)
    is the per-point floor.

    ``engine="vectorized"`` runs the Petri-net replications of every
    threshold point as rows of one lockstep ensemble per executor slot
    (:mod:`repro.core.fast`); the DES and the analytic Markov solve are not
    Petri nets and evaluate exactly as before, so the result is
    bit-identical to the interpreted engine at every seed plan.

    A ``store`` memoizes per-replication estimator outputs keyed by the
    full task spec (threshold, seed, delay, config, power table, markov
    flag) — shared across engines, backends and replication policies.
    """
    from ..runtime.adaptive import run_replications
    from ..runtime.config import as_resolved
    from ..runtime.seeding import replication_seeds

    rx = as_resolved(exec_cfg)
    cfg = config if config is not None else CPUComparisonConfig()
    table = power_table if power_table is not None else cpu_power_table()
    seed_plans = [
        replication_seeds(cfg.seed + i, rx.seed_plan_size)
        for i in range(len(cfg.thresholds))
    ]
    runs = run_replications(
        _evaluate_cpu_point,
        lambda i, r: (
            cfg.thresholds[i],
            seed_plans[i][r],
            power_up_delay,
            cfg,
            table,
            r == 0,
        ),
        len(cfg.thresholds),
        rx,
        ensemble_fn=_evaluate_cpu_point_ensemble,
        metrics=lambda out: (out["simulation"][1], out["petri"][1]),
    )
    fractions: dict[str, dict[str, list[float]]] = {
        est: {state: [] for state in CPUStates.ALL} for est in ESTIMATORS
    }
    energy: dict[str, list[float]] = {est: [] for est in ESTIMATORS}

    for run in runs:
        for est in ESTIMATORS:
            # The deterministic Markov solve lives in replication 0 only.
            reps = run.values[:1] if est == "markov" else run.values
            for state in CPUStates.ALL:
                vals = [r[est][0][state] for r in reps]
                fractions[est][state].append(
                    vals[0] if len(reps) == 1 else float(np.mean(vals))
                )
            rep_energies = [r[est][1] for r in reps]
            energy[est].append(
                rep_energies[0]
                if len(reps) == 1
                else float(np.mean(rep_energies))
            )

    return CPUComparisonResult(
        power_up_delay=power_up_delay,
        thresholds=tuple(cfg.thresholds),
        fractions=fractions,
        energy_j=energy,
        runs=runs,
        config=cfg,
        ci_target=rx.ci_target,
    )
