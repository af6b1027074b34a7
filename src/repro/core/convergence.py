"""Precision-driven simulation: run until the answer is tight enough.

The paper closes on the method's main cost: "one drawback of Petri net
models is the relatively long simulation time to achieve steady state
probabilities ... Depending on the desired accuracy, the simulation
time can be even longer."  This module makes that trade explicit: ask
for a relative confidence-interval half-width and let the runner pick
the horizon, doubling until the batch-means interval is tight enough.

Replications are sequential with increasing horizons (not averaged
across runs): batch means over one long run converge faster per event
than many short runs because each short run re-pays the warm-up.

No CLI or scenario run calls this module.  It is library API for the
paper's Section V workflow (measure, fit, model, predict) and its
closing remark on simulation time against accuracy, shown end to end
by ``examples/measure_fit_model_predict.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from .marking import MarkingView
from .net import PetriNet
from .simulator import Simulation, SimulationResult
from .statistics import ConfidenceInterval

__all__ = ["PrecisionResult", "simulate_to_precision"]


@dataclass
class PrecisionResult:
    """Outcome of an adaptive-precision run.

    Attributes
    ----------
    result:
        The final (longest) run's :class:`SimulationResult`.
    interval:
        The batch-means confidence interval of the tracked signal.
    horizon:
        The horizon of the final run.
    attempts:
        Number of runs executed (horizon doubled between them).
    achieved:
        Whether the requested precision was met (False = gave up at
        ``max_horizon``; the best interval is still returned).
    """

    result: SimulationResult
    interval: ConfidenceInterval
    horizon: float
    attempts: int
    achieved: bool

    @property
    def estimate(self) -> float:
        """Point estimate of the tracked signal."""
        return self.interval.mean


def simulate_to_precision(
    net: PetriNet,
    signal: Callable[[MarkingView], float],
    rel_half_width: float = 0.05,
    confidence: float = 0.95,
    initial_horizon: float = 1_000.0,
    max_horizon: float = 1_000_000.0,
    warmup_fraction: float = 0.1,
    n_batches: int = 20,
    seed: int | None = None,
    initial_marking: Mapping[str, Any] | None = None,
) -> PrecisionResult:
    """Simulate ``net`` until ``signal``'s CI is relatively tight.

    Parameters
    ----------
    net:
        The net to simulate (not mutated; fresh runs per attempt).
    signal:
        Marking functional whose long-run mean is wanted (e.g.
        ``lambda v: float(v.count("CPU_Buffer"))``).
    rel_half_width:
        Target |half-width / mean| of the batch-means interval.
    initial_horizon / max_horizon:
        First horizon and give-up bound; horizons double in between.
    warmup_fraction:
        Fraction of each horizon discarded as warm-up.
    seed:
        Seed of the *first* attempt; attempt ``i`` uses ``seed + i`` so
        successive runs are independent.

    Returns
    -------
    PrecisionResult
        With ``achieved=False`` when ``max_horizon`` was reached first.
    """
    if not 0 < rel_half_width < 1:
        raise ValueError("rel_half_width must be in (0, 1)")
    if initial_horizon <= 0 or max_horizon < initial_horizon:
        raise ValueError("need 0 < initial_horizon <= max_horizon")
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup_fraction must be in [0, 1)")

    horizon = float(initial_horizon)
    attempts = 0
    best: PrecisionResult | None = None
    while True:
        attempts += 1
        warmup = horizon * warmup_fraction
        sim = Simulation(
            net,
            seed=None if seed is None else seed + attempts - 1,
            warmup=warmup,
            initial_marking=initial_marking,
        )
        sim.track_signal("target", signal, horizon=horizon, n_batches=n_batches)
        result = sim.run(horizon)
        interval = result.batch_means["target"].interval(confidence)
        achieved = interval.relative_half_width() <= rel_half_width
        best = PrecisionResult(
            result=result,
            interval=interval,
            horizon=horizon,
            attempts=attempts,
            achieved=achieved,
        )
        if achieved:
            return best
        if horizon >= max_horizon:
            return best
        horizon = min(horizon * 2.0, max_horizon)
