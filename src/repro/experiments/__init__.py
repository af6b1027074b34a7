"""``repro.experiments`` — the table/figure regeneration harness.

* :mod:`repro.experiments.figures` — Figs. 4–9 three-way CPU
  comparison (DES vs Markov vs Petri net);
* :mod:`repro.experiments.deltas` — Tables IV–VI Δ-energy statistics;
* :mod:`repro.experiments.node_energy` — Figs. 14/15 node sweeps with
  optimum-threshold detection;
* :mod:`repro.experiments.network` — multi-node network
  scenarios (line/star/grid) on the network-lifetime metric;
* :mod:`repro.experiments.validation` — the Section V IMote2
  validation (Tables VIII–X);
* :mod:`repro.experiments.sweep` / :mod:`repro.experiments.tables` —
  grids and paper-style rendering.
"""

from .deltas import DeltaStats, delta_stats, delta_table
from .figures import (
    PAPER_POWER_UP_DELAYS,
    CPUComparisonConfig,
    CPUComparisonResult,
    run_cpu_comparison,
)
from .network import (
    NetworkScenarioConfig,
    NetworkSweepResult,
    format_network_summary,
    make_topology,
    run_network_lifetime_sweep,
    run_network_scenario,
)
from .node_energy import (
    PAPER_NODE_HORIZON_S,
    NodeSweepConfig,
    NodeSweepResult,
    run_node_energy_sweep,
)
from .sensitivity import (
    RateSensitivityResult,
    cpu_breakeven_delay,
    cpu_energy_threshold_response,
    node_optimum_vs_rate,
)
from .sweep import (
    FIG4_TO_9_THRESHOLDS,
    FIG14_15_THRESHOLDS,
    NETWORK_THRESHOLDS,
)
from .tables import (
    format_delta_table,
    format_optimum_summary,
    format_steady_state_table,
    format_validation_table,
)
from .validation import (
    PAPER_TABLE_X,
    ValidationConfig,
    ValidationResult,
    run_simple_node_validation,
)

__all__ = [
    "DeltaStats",
    "delta_stats",
    "delta_table",
    "CPUComparisonConfig",
    "CPUComparisonResult",
    "run_cpu_comparison",
    "PAPER_POWER_UP_DELAYS",
    "NodeSweepConfig",
    "NodeSweepResult",
    "run_node_energy_sweep",
    "PAPER_NODE_HORIZON_S",
    "NetworkScenarioConfig",
    "NetworkSweepResult",
    "make_topology",
    "run_network_scenario",
    "run_network_lifetime_sweep",
    "format_network_summary",
    "NETWORK_THRESHOLDS",
    "ValidationConfig",
    "ValidationResult",
    "run_simple_node_validation",
    "PAPER_TABLE_X",
    "RateSensitivityResult",
    "node_optimum_vs_rate",
    "cpu_energy_threshold_response",
    "cpu_breakeven_delay",
    "FIG4_TO_9_THRESHOLDS",
    "FIG14_15_THRESHOLDS",
    "format_delta_table",
    "format_validation_table",
    "format_steady_state_table",
    "format_optimum_summary",
]
