"""``repro.markov`` — the Markov-model substrate.

* :class:`~repro.markov.ctmc.CTMC` — the general finite-chain solver
  (steady state, transients via uniformization, first passage times,
  reward measures);
* :class:`~repro.markov.birthdeath.BirthDeathChain` — product-form
  birth–death chains (the paper's Fig. 2 skeleton);
* :mod:`repro.markov.queueing` — M/M/1, M/G/1, Erlang-B/C oracles for
  the cross-validation tests;
* :class:`~repro.markov.supplementary.SupplementaryVariableCPUModel`
  — the paper's closed-form CPU model, Eqs. (1)–(6).
"""

from .birthdeath import BirthDeathChain, mm1_steady_state
from .ctmc import CTMC
from .fitting import (
    fit_best,
    fit_deterministic,
    fit_erlang,
    fit_exponential,
    fit_lognormal,
)
from .queueing import (
    MM1Metrics,
    erlang_b,
    erlang_c,
    md1_mean_queue_length,
    mg1_mean_queue_length,
    mm1_metrics,
)
from .supplementary import MarkovCPUSteadyState, SupplementaryVariableCPUModel

__all__ = [
    "CTMC",
    "BirthDeathChain",
    "mm1_steady_state",
    "MM1Metrics",
    "mm1_metrics",
    "mg1_mean_queue_length",
    "md1_mean_queue_length",
    "erlang_b",
    "erlang_c",
    "SupplementaryVariableCPUModel",
    "MarkovCPUSteadyState",
    "fit_exponential",
    "fit_deterministic",
    "fit_erlang",
    "fit_lognormal",
    "fit_best",
]
