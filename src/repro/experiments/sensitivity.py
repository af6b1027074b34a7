"""Sensitivity analysis: how the optimum threshold moves with the workload.

The paper answers "what is the optimum ``Power_Down_Threshold``" for
one workload (1 event/s).  A deployment needs the whole response
surface: the optimum as a function of event rate (and, for the CPU
model, of the wake-up delay).  This module sweeps those axes —
exactly the kind of follow-on study the paper's Section VII sets up.

Findings encoded as tests/benches:

* For the node model, the optimum stays pinned just above the
  radio-phase duration across event rates (the crossover is set by the
  intra-cycle gap, not the inter-event gap) while the *vs-never-down
  saving* grows as events get rarer (more idle time to avoid).
* For the analytic CPU model, the energy-optimal threshold flips from
  0 (sleep immediately) to ∞ (never sleep) as the wake-up delay
  crosses the break-even point — the paper's break-even-time concept
  from Liu & Chou [6], now computable in closed form.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..energy.power import PXA271_CPU_POWER_MW
from ..markov.supplementary import SupplementaryVariableCPUModel
from ..models.wsn_node import (
    NodeParameters,
    simulate_node_ensemble_task,
    simulate_node_task,
)

if TYPE_CHECKING:
    from ..runtime.adaptive import AdaptivePointRun

__all__ = [
    "RateSensitivityResult",
    "node_optimum_vs_rate",
    "cpu_energy_threshold_response",
    "cpu_breakeven_delay",
]


@dataclass
class RateSensitivityResult:
    """Optimum threshold and savings per event rate.

    ``runs`` holds one :class:`~repro.runtime.adaptive.AdaptivePointRun`
    per ``(rate, threshold)`` cell, rate-major (``n_t`` thresholds per
    rate): ``runs[i * n_t + j]`` is the ``(rates[i], thresholds[j])``
    cell's energies and, under adaptive replication control
    (``ci_target``), its outcome.
    """

    rates: tuple[float, ...]
    optima: list[float]
    optimum_energies_j: list[float]
    savings_vs_never: list[float]
    runs: list[AdaptivePointRun]
    ci_target: float | None = None

    def rows(self) -> list[tuple[float, float, float, float]]:
        """(rate, optimum PDT, energy J, saving) table rows."""
        return list(
            zip(self.rates, self.optima, self.optimum_energies_j, self.savings_vs_never)
        )


def _node_task(
    task: tuple[float, float, str, float, int],
) -> tuple[NodeParameters, str, float, int]:
    """The node-model task of one seeded (rate, threshold) cell."""
    rate, threshold, workload, horizon, seed = task
    params = NodeParameters(power_down_threshold=threshold, arrival_rate=rate)
    return params, workload, horizon, seed


def _node_energy_task(task: tuple[float, float, str, float, int]) -> float:
    """Total node energy for one (rate, threshold) cell (picklable)."""
    return simulate_node_task(_node_task(task)).total_energy_j


def _node_energy_ensemble_task(
    tasks: tuple[tuple[float, float, str, float, int], ...],
) -> list[float]:
    """:func:`_node_energy_task` over many cells, as one ensemble.

    The ``engine="vectorized"`` batch form, through
    :func:`~repro.models.wsn_node.simulate_node_ensemble_task`: the
    tasks must share ``workload``, and different rates become per-row
    exponential arrival distributions.
    """
    nodes = simulate_node_ensemble_task(tuple(map(_node_task, tasks)))
    return [r.total_energy_j for r in nodes]


def node_optimum_vs_rate(
    rates: Sequence[float],
    thresholds: Sequence[float] = (1e-9, 0.00178, 0.01, 0.1, 1.0, 10.0, 100.0),
    workload: str = "closed",
    horizon: float = 300.0,
    seed: int = 2010,
    *,
    exec_cfg=None,
) -> RateSensitivityResult:
    """Sweep the event rate; find the optimum threshold at each rate.

    The full ``len(rates) × len(thresholds)`` grid is flattened and
    submitted through :func:`~repro.runtime.adaptive.run_replications`
    as ``exec_cfg`` (an :class:`~repro.runtime.config.ExecutionConfig`
    or resolved :class:`~repro.runtime.config.ResolvedExecution`)
    directs.  Replication 0 of every cell keeps the base seed (common
    random numbers) and further replications use spawned seeds; each
    cell's energy is the across-replication mean.  No placement setting
    changes the numbers.

    With ``ci_target`` set, each cell is replicated adaptively on its
    energy until the interval's relative half-width crosses the target,
    with ``max(2, replications)`` as the floor.  Cells
    stop independently, so cheap low-variance cells don't pay for noisy
    ones.

    ``engine="vectorized"`` runs the cells' replications as rows of one
    lockstep ensemble per executor slot (:mod:`repro.core.fast`);
    bit-identical per replication, so the surface is unchanged.

    A ``store`` memoizes per-replication cell energies keyed by
    ``(rate, threshold, workload, horizon, seed)``.
    """
    from ..runtime.adaptive import run_replications
    from ..runtime.config import as_resolved
    from ..runtime.seeding import replication_seeds

    rx = as_resolved(exec_cfg)
    cells = [(rate, t) for rate in rates for t in thresholds]
    n_t = len(thresholds)
    rep_seeds = replication_seeds(seed, rx.seed_plan_size)
    runs = run_replications(
        _node_energy_task,
        lambda i, r: (*cells[i], workload, horizon, rep_seeds[r]),
        len(cells),
        rx,
        ensemble_fn=_node_energy_ensemble_task,
    )
    flat = [float(np.mean(run.values)) for run in runs]

    optima: list[float] = []
    energies: list[float] = []
    savings: list[float] = []
    for i, rate in enumerate(rates):
        per_threshold = list(zip(thresholds, flat[i * n_t : (i + 1) * n_t]))
        t_opt, e_opt = min(per_threshold, key=lambda te: te[1])
        e_never = per_threshold[-1][1]  # largest threshold = never down
        optima.append(t_opt)
        energies.append(e_opt)
        savings.append((e_never - e_opt) / e_never if e_never > 0 else 0.0)
    return RateSensitivityResult(
        rates=tuple(rates),
        optima=optima,
        optimum_energies_j=energies,
        savings_vs_never=savings,
        runs=runs,
        ci_target=rx.ci_target,
    )


def cpu_energy_threshold_response(
    power_up_delay: float,
    thresholds: Sequence[float],
    arrival_rate: float = 1.0,
    service_rate: float = 10.0,
    powers_mw: dict[str, float] | None = None,
    duration_s: float = 1000.0,
) -> list[tuple[float, float]]:
    """Analytic (Eqs. 1–6) energy vs threshold curve for the CPU model."""
    powers = powers_mw if powers_mw is not None else PXA271_CPU_POWER_MW
    out: list[tuple[float, float]] = []
    for t in thresholds:
        model = SupplementaryVariableCPUModel(
            arrival_rate, service_rate, t, power_up_delay
        )
        out.append((t, model.energy_over_time(powers, duration_s) / 1000.0))
    return out


def cpu_breakeven_delay(
    arrival_rate: float = 1.0,
    service_rate: float = 10.0,
    powers_mw: dict[str, float] | None = None,
    lo: float = 1e-5,
    hi: float = 100.0,
    tol: float = 1e-6,
) -> float:
    """The wake-up delay at which sleeping stops paying (break-even time).

    Below the returned delay D*, the analytic CPU energy is lower with
    an aggressive threshold (T → 0) than with no power management
    (T → ∞); above it, the ordering flips.  Found by bisection on the
    sign of ``E(T→0) − E(T→∞)``.

    Notes
    -----
    ``E(T→∞)`` is evaluated in the limit: the CPU never reaches
    standby, so energy/time = ρ·P_active + (1−ρ)·P_idle.
    """
    powers = powers_mw if powers_mw is not None else PXA271_CPU_POWER_MW
    rho = arrival_rate / service_rate
    if rho >= 1:
        raise ValueError("unstable workload")
    always_on_mw = rho * powers["active"] + (1 - rho) * powers["idle"]

    def sleep_minus_on(delay: float) -> float:
        model = SupplementaryVariableCPUModel(
            arrival_rate, service_rate, 0.0, delay
        )
        return model.mean_power(powers) - always_on_mw

    f_lo, f_hi = sleep_minus_on(lo), sleep_minus_on(hi)
    if f_lo > 0:
        return 0.0  # sleeping never pays, even with instant wake-up
    if f_hi < 0:
        return float("inf")  # sleeping always pays
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if sleep_minus_on(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
