"""``repro.scenarios`` — declarative scenario files for every driver.

New scenarios are data, not code: a YAML/JSON file names the model and
its parameters, the :class:`~repro.runtime.config.ExecutionConfig`,
and the outputs, and ``repro.cli scenario run FILE`` reproduces the
equivalent flag-spelled invocation byte for byte.  See
:mod:`repro.scenarios.spec` for the schema and the repository's
``scenarios/`` directory for the gallery (the paper's Figs. 14/15,
the Section V validation, a 100-node grid network).
"""

from .runner import run_scenario, scenario_report
from .spec import (
    SPEC_VERSION,
    SUPPORTED_VERSIONS,
    ScenarioError,
    ScenarioSpec,
    apply_overrides,
    load_scenario,
    parse_override,
    parse_value,
)

__all__ = [
    "SPEC_VERSION",
    "SUPPORTED_VERSIONS",
    "ScenarioError",
    "ScenarioSpec",
    "apply_overrides",
    "load_scenario",
    "parse_override",
    "parse_value",
    "run_scenario",
    "scenario_report",
]
