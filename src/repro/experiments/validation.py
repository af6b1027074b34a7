"""Section V validation experiment (Tables VIII–X).

Protocol, mirroring the paper:

1. "Measure" the node: run the IMote2 hardware simulator
   (:class:`repro.des.imote2.IMote2HardwareSimulator`) for 100 random
   events, recording execution time, mean power and energy — the
   Table X "actual" column.
2. Predict with the model: simulate the Fig. 10 Petri net to steady
   state, evaluate Eq. (8) mean power, and multiply by the *measured*
   execution time (the paper computes Petri-net energy over the same
   266.5 s window the hardware ran).
3. Compare: the percent difference is the headline ≈3 % of Table X.

The paper's printed run ("100 events took 266.5 seconds") is shorter
than 100 × the model's own ≈5.04 s mean cycle; the discrepancy is in
the paper's numbers, not ours — the validation metric (percent
difference of mean powers) is independent of run length, so we report
our duration alongside the paper's.  See EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

from ..des.imote2 import IMote2HardwareSimulator, IMote2RunResult
from ..models.simple_node import SimpleNodeModel, SimpleNodeResult

if TYPE_CHECKING:
    from ..runtime.adaptive import AdaptivePointRun

__all__ = [
    "ValidationConfig",
    "ValidationResult",
    "percent_difference",
    "run_simple_node_validation",
]

#: Paper values for side-by-side reporting (Table X).
PAPER_TABLE_X = {
    "execution_time_s": 266.5,
    "mean_power_mw": 1.261,
    "imote2_energy_j": 0.336137,
    "petri_energy_j": 0.326519,
    "percent_difference": 2.95,
}


@dataclass(frozen=True)
class ValidationConfig:
    """Run configuration for the Section V experiment."""

    n_events: int = 100
    petri_horizon: float = 20_000.0
    petri_warmup: float = 100.0
    seed: int = 2010


@dataclass
class ValidationResult:
    """Our regenerated Table X.

    ``run`` holds every replication's ``(hardware, petri, petri energy)``
    triple; the table reports replication 0 (seeded with the configured
    seed, matching the single-run protocol), and the headline metric's
    interval comes from ``run.interval(percent_difference)``.
    """

    run: AdaptivePointRun
    ci_target: float | None = None

    @property
    def hardware(self) -> IMote2RunResult:
        """Replication 0's hardware run."""
        return self.run.values[0][0]

    @property
    def petri(self) -> SimpleNodeResult:
        """Replication 0's Petri-net run."""
        return self.run.values[0][1]

    @property
    def petri_energy_j(self) -> float:
        """Replication 0's Petri-net energy over the measured window."""
        return self.run.values[0][2]

    @property
    def hardware_energy_j(self) -> float:
        """Measured ("actual") energy over the hardware run."""
        return self.hardware.energy_j

    @property
    def percent_difference(self) -> float:
        """|actual − predicted| / actual × 100 — the Table X headline."""
        return percent_difference(self.run.values[0])

    def table_rows(self) -> list[tuple[str, float, float]]:
        """(label, ours, paper) rows for side-by-side reporting."""
        return [
            (
                "Execution time (s)",
                self.hardware.duration_s,
                PAPER_TABLE_X["execution_time_s"],
            ),
            (
                "Average power (mW)",
                self.hardware.mean_power_mw,
                PAPER_TABLE_X["mean_power_mw"],
            ),
            (
                "IMote2 energy (J)",
                self.hardware_energy_j,
                PAPER_TABLE_X["imote2_energy_j"],
            ),
            (
                "Petri net energy (J)",
                self.petri_energy_j,
                PAPER_TABLE_X["petri_energy_j"],
            ),
            (
                "Percent difference",
                self.percent_difference,
                PAPER_TABLE_X["percent_difference"],
            ),
        ]


def _run_validation_rep(
    task: tuple[ValidationConfig, int],
    petri: SimpleNodeResult | None = None,
) -> tuple[IMote2RunResult, SimpleNodeResult, float]:
    """One seeded (hardware, Petri net) validation pair (picklable).

    ``petri`` is this task's Petri run when a batch already ran it
    (see :func:`_run_validation_ensemble`).
    """
    cfg, seed = task
    hardware = IMote2HardwareSimulator(seed=seed).run_events(cfg.n_events)
    if petri is None:
        petri = SimpleNodeModel().simulate(
            cfg.petri_horizon, seed=seed, warmup=cfg.petri_warmup
        )
    # The paper evaluates the Petri-net energy over the *measured*
    # execution window (0.326519 J = model mean power x 266.5 s).
    return hardware, petri, petri.energy_over(hardware.duration_s)


def percent_difference(
    rep: tuple[IMote2RunResult, SimpleNodeResult, float],
) -> float:
    """The Table X headline of one replication's validation triple."""
    hardware, _petri, petri_energy = rep
    actual = hardware.energy_j
    return abs(actual - petri_energy) / actual * 100.0 if actual else 0.0


def _run_validation_ensemble(
    tasks: tuple[tuple[ValidationConfig, int], ...],
) -> list[tuple[IMote2RunResult, SimpleNodeResult, float]]:
    """:func:`_run_validation_rep` over many tasks, Petri runs ensembled.

    The ``engine="vectorized"`` batch form: the Fig. 10 Petri runs of
    consecutive tasks with one config proceed in lockstep through
    :meth:`~repro.models.simple_node.SimpleNodeModel.simulate_ensemble`
    (bit-identical per replication); the IMote2 hardware simulator is
    an event-driven DES, not a Petri net, and runs per task.
    """
    out = []
    for cfg, group in groupby(tasks, itemgetter(0)):
        run = list(group)
        petris = SimpleNodeModel().simulate_ensemble(
            cfg.petri_horizon, [seed for _, seed in run], warmup=cfg.petri_warmup
        )
        out.extend(map(_run_validation_rep, run, petris))
    return out


def run_simple_node_validation(
    config: ValidationConfig | None = None,
    *,
    exec_cfg=None,
) -> ValidationResult:
    """Execute the full Section V protocol.

    Replication 0 runs with the configured seed (the paper's single
    measurement run); further replications re-run the whole protocol
    with independent spawned seeds, submitted through
    :func:`~repro.runtime.adaptive.run_replications` as ``exec_cfg``
    (an :class:`~repro.runtime.config.ExecutionConfig` or resolved
    :class:`~repro.runtime.config.ResolvedExecution`) directs, so the
    headline percent difference gets an across-replication confidence
    interval.  No placement setting changes the numbers.

    With ``ci_target`` set, the replication count is chosen adaptively
    on the percent-difference metric: the protocol re-runs in rounds
    until the interval's relative half-width crosses the target or
    ``max_replications`` is reached.  The seed plan is prefix-stable,
    so the executed replications are a bit-identical prefix of the
    fixed ``replications=max_replications`` run; ``replications`` (at
    least 2) is the per-point floor.

    ``engine="vectorized"`` runs the Petri-net half of every
    replication in lockstep through :mod:`repro.core.fast`
    (bit-identical per replication, so the reported table is unchanged
    from the interpreted engine); the IMote2 hardware DES half is
    unaffected.

    A ``store`` memoizes per-replication (hardware, Petri) pairs keyed
    by ``(config, seed)`` — shared across engines, backends and
    replication policies.
    """
    from ..runtime.adaptive import run_replications
    from ..runtime.config import as_resolved
    from ..runtime.seeding import replication_seeds

    rx = as_resolved(exec_cfg)
    cfg = config if config is not None else ValidationConfig()
    seeds = replication_seeds(cfg.seed, rx.seed_plan_size)
    [run] = run_replications(
        _run_validation_rep,
        lambda _i, r: (cfg, seeds[r]),
        1,
        rx,
        ensemble_fn=_run_validation_ensemble,
        metrics=percent_difference,
    )
    return ValidationResult(run=run, ci_target=rx.ci_target)
