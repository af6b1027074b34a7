"""``repro.topology`` — the scenario-diversity subsystem.

The paper evaluates its node model on three hand-built topologies with
immortal nodes and Poisson arrivals.  This package opens all three
axes while preserving the repo's bit-identity contract (every
``workers`` / backend combination reproduces the serial
run exactly):

* :mod:`repro.topology.generators` — seed-deterministic generated
  deployments: :class:`RandomGeometricTopology` (unit-square random
  geometric graph, shortest-path-to-sink routing, retry-or-grow
  connectivity guarantee) and :class:`ClusterTreeTopology`
  (fanout/depth cluster-head hierarchy), both 1000+ node scale;
* :mod:`repro.topology.dynamics` — :class:`ChurnModel` node churn:
  failures, battery-death rewiring to the nearest live relay, and
  per-node duty-cycle variation, all precomputed in the parent as a
  :class:`ChurnSchedule` of per-node segments so every node stays
  an independent task;
* :mod:`repro.topology.traffic` — :class:`MMPPTraffic` bursty (on-off
  / Markov-modulated Poisson) arrivals that preserve each node's mean
  offered load, isolating the effect of arrival correlation;
* :mod:`repro.topology.routing` — the shared convergecast parent-array
  helpers (depths, subtree loads, rewiring) all of the above build on;
* :mod:`repro.topology.describe` — deterministic structural reports
  behind ``repro.cli topology describe``.

Everything surfaces through the existing seams: new ``params`` keys in
scenario schema v2, flags on the ``network`` CLI, and untouched
runtime/store/serving layers.
"""

from .describe import describe_topology
from .dynamics import (
    ChurnEpoch,
    ChurnModel,
    ChurnReport,
    ChurnSchedule,
    NodeSegment,
)
from .generators import (
    ClusterTreeTopology,
    RandomGeometricTopology,
    auto_radius,
)
from .routing import (
    SINK,
    UNREACHABLE,
    accumulate_loads,
    climb_rewire,
    depths_from_parents,
    validate_parents,
)
from .traffic import MMPPTraffic

__all__ = [
    "RandomGeometricTopology",
    "ClusterTreeTopology",
    "auto_radius",
    "ChurnModel",
    "ChurnSchedule",
    "ChurnEpoch",
    "ChurnReport",
    "NodeSegment",
    "MMPPTraffic",
    "describe_topology",
    "SINK",
    "UNREACHABLE",
    "accumulate_loads",
    "climb_rewire",
    "depths_from_parents",
    "validate_parents",
]
