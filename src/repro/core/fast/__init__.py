"""``repro.core.fast`` — the vectorized lockstep ensemble engine.

The interpreted engine (:mod:`repro.core.simulator`) advances one
replication at a time with a per-event Python loop.  This package runs
an *ensemble* of replications in lockstep as the rows of NumPy arrays:
one round pops the next event of every row (an ``argmin`` over the
slot-time matrix), fires every row's popped transition with one flat
add of its static deltas (plus FIFO ops where token order matters),
resolves immediates by vectorized priority masks, and accumulates
time-weighted statistics as array ops.  The net is compiled once for
all rows; a per-row timing table (``row_timing``) gives chosen timed
transitions a different distribution in each row, so all the
replications of every point of a parameter sweep can run as one
ensemble.  The results read out per-row columns (occupancies,
predicate probabilities, firing counts, end times) straight from the
arrays, and hydrate, row by row on access, the same
:class:`~repro.core.statistics.StatisticsCollector` /
:class:`~repro.core.simulator.SimulationResult` types the interpreted
engine produces.

Correctness contract
--------------------
For nets inside the compilable subset (introspectable guards and token
filters, annotated producers, enabling memory, finite servers, no reset
arcs) the engine is **bit-identical** to
``Simulation(net, seed=s).run(horizon)`` per row: every row owns its
own ``default_rng(seed)`` stream and its own timed distributions,
draws happen in the interpreted engine's order (timed transitions
refreshed in net definition order; immediate conflicts resolved with
the identical weighted ``rng.choice`` call), deterministic delays
consume no randomness, and floating-point accumulation follows the
same sequence of additions.  Event ties resolve by (timed transition
definition order, server slot) — exactly the deterministic tie policy
of :class:`~repro.core.events.EventCalendar`.

Nets outside the subset raise
:class:`~repro.core.errors.UnsupportedNetError` at compile time; the
interpreted engine remains the reference oracle and fallback.
"""

from ..errors import UnsupportedNetError
from .compile import CompiledNet, compile_net
from .engine import (
    EnsembleCounts,
    EnsembleResults,
    VectorPredicate,
    run_ensemble,
)

__all__ = [
    "CompiledNet",
    "EnsembleCounts",
    "EnsembleResults",
    "UnsupportedNetError",
    "VectorPredicate",
    "compile_net",
    "run_ensemble",
]
