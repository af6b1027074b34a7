"""Execute a validated :class:`~repro.scenarios.spec.ScenarioSpec`.

:func:`scenario_report` is the one path from a spec to its report: it
calls the ``repro.cli`` run function for ``spec.model`` with the
spec's params (a version-1 spec's missing keys filled with the current
schema's defaults) and returns the report text.  Every spelling of a run
goes through it — ``repro.cli scenario run FILE``, the flag-spelled
subcommands (which build a spec from their flags) and the serving
API — so they all produce the same bytes.  That bit-identity is
asserted per gallery scenario, across engines and backends, in
``tests/scenarios/test_runner.py`` and diffed in CI by the
``scenario`` group of ``scripts/ci_smoke.sh``.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .spec import SPEC_VERSION, ScenarioSpec, _params_schema

if TYPE_CHECKING:
    from ..runtime.config import ResolvedExecution

__all__ = ["run_scenario", "scenario_report"]

#: The ``repro.cli`` run function behind each model, by name: it is
#: looked up at call time, so a rebound module global is the one run.
_RUN_FUNCTIONS = {
    "fig": "run_fig",
    "table": "run_table",
    "node-sweep": "run_node_sweep",
    "validate": "run_validate",
    "network": "run_network",
}


def scenario_report(spec: ScenarioSpec, rx: "ResolvedExecution") -> str:
    """Run one scenario on ``rx``; returns its report text.

    The store's counters stay in ``rx.store``: its owner flushes them
    once (:func:`run_scenario` on exit, a server at shutdown).
    """
    # Imported here, not at module top: the CLI imports this package,
    # and the run functions live there.
    from .. import cli

    run = getattr(cli, _RUN_FUNCTIONS[spec.model])
    # A version-1 spec lacks the keys later versions added; the run
    # function takes every current key, so fill those from the schema.
    schema = _params_schema(spec.model, SPEC_VERSION)
    params = {key: param.default for key, param in schema.items()}
    params.update(spec.params)
    return run(**params, rx=rx)


def run_scenario(
    spec: ScenarioSpec, rx: "ResolvedExecution | None" = None
) -> int:
    """Run one scenario and write its report to stdout; returns 0.

    The spec's ``execution`` is resolved here unless ``rx`` supplies an
    already-live :class:`~repro.runtime.config.ResolvedExecution`.  A
    run that resolves its own owns one backend for all its dispatches
    (one process pool, however many rounds and points) and its store:
    on the way out, on error too, it closes the backend and flushes the
    store's counters, so ``store stats`` sees every hit and miss.
    """
    own = rx is None
    if own:
        rx = spec.execution.resolve(keep_alive=True)
    try:
        sys.stdout.write(scenario_report(spec, rx))
    finally:
        if own:
            rx.backend.close()
            if rx.store is not None:
                rx.store.flush_counters()
    return 0
