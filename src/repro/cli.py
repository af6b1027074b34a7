"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro.cli list
    python -m repro.cli fig 7 --horizon 1000
    python -m repro.cli table 6
    python -m repro.cli node-sweep --workload open --horizon 900
    python -m repro.cli node-sweep --workers 4 --replications 8
    python -m repro.cli node-sweep --ci-target 0.05 --max-replications 32
    python -m repro.cli validate --replications 16 --workers 4
    python -m repro.cli lifetime --threshold 0.00178 --capacity-mah 1000
    python -m repro.cli network --topology grid --grid 10x10 --workers 4
    python -m repro.cli network --topology line --nodes 5 --sweep
    python -m repro.cli node-sweep --store ~/.repro-store
    python -m repro.cli store stats --store ~/.repro-store
    python -m repro.cli worker --serve 9000
    python -m repro.cli network --sweep --backend socket \
        --connect hostA:9000 --connect hostB:9000
    python -m repro.cli scenario run scenarios/fig14.yaml
    python -m repro.cli scenario run scenarios/grid100.yaml --smoke \
        --override execution.workers=4
    python -m repro.cli scenario validate scenarios/validation.yaml

Each subcommand prints the same rows the corresponding benchmark
persists, so quick what-if runs don't require pytest.  ``--workers N``
fans grid points and replications out over a process pool
(:mod:`repro.runtime`); ``--replications R`` re-runs every stochastic
point with independent spawned seeds and reports mean ± 95 % t-interval
uncertainty alongside the point estimates.  ``--ci-target REL``
switches the replication count to adaptive control
(:mod:`repro.runtime.adaptive`): each point replicates in rounds until
its interval's relative half-width is ≤ REL (capped at
``--max-replications``), and the output reports each point's
replication count and convergence.  The ``network`` subcommand runs
each node of a topology as one task, chunked over ``--workers`` like
any other task set; no worker setting ever changes the reported
numbers.

``--engine {interpreted,vectorized}`` selects *how* each Petri-net
simulation runs (:mod:`repro.core.fast`).  The default, vectorized,
runs each batch of replications — the replications of the sweep
points, or the nodes and churn segments of a network — as rows of one
NumPy lockstep ensemble per worker; a batch below
:data:`~repro.runtime.adaptive.LOCKSTEP_MIN_ROWS` tasks (a lone
``validate`` replication, say) runs on the interpreted per-event loop,
which is faster there.  ``interpreted`` runs every replication on that
loop, the reference engine.  Results are bit-identical; only
throughput changes.

``--backend {local,processes,socket}`` selects *where* tasks execute
(:mod:`repro.runtime.backend`): in-process, on a local process pool,
or on remote worker processes.  For the socket backend, start one
``python -m repro.cli worker --serve PORT`` per host and list each as
``--connect host:port``; chunks are load-balanced across the workers
and re-queued if a worker drops (:mod:`repro.runtime.remote`).
Backends, like workers, never change the reported numbers —
``--backend socket`` is asserted bit-identical to ``--backend local``
in the test suite and CI.

``--store DIR`` memoizes per-replication simulation results in a
content-addressed on-disk :class:`~repro.runtime.store.ResultStore`
(also settable via the ``REPRO_STORE`` environment variable;
``--no-store`` disables it for one run — combining it with ``--store
DIR`` is a flag error).  Warm re-runs print output byte-identical to
cold runs — entries are keyed by the task spec (parameters, seed,
horizon), never by workers/backend/engine, so every execution
configuration shares one cache.  ``python -m repro.cli store
{stats,verify,gc} --store DIR`` inspects, integrity-checks and
compacts a store.

All of those execution flags are generated from the fields of
:class:`~repro.runtime.config.ExecutionConfig`
(:func:`add_execution_args`), whose own check is the only check of an
execution setting, and resolved once per run — drivers receive the
single ``exec_cfg`` object instead of a loose keyword bundle.  A bad
value (``--workers 0``, ``--engine bogus``, ``--connect nonsense``)
fails with the same ``error: execution: ...`` line and exit 2 as the
matching ``--override execution.KEY=VALUE``.
``scenario {run,validate,show} FILE`` reads a
declarative YAML/JSON :class:`~repro.scenarios.ScenarioSpec` (model +
params + execution + outputs), with ``--override KEY=VALUE``
dotted-path tweaks and ``--smoke`` applying the spec's own CI-scale
overrides.  The run subcommands (``fig``, ``table``, ``node-sweep``,
``validate``, ``network``) are another spelling of the same spec: each
builds a ``ScenarioSpec`` from its flags and runs it exactly as
``scenario run`` does, so both spellings print the same bytes.  Their
parameter flags are generated from the scenario schema
(:func:`_add_param_flags`): a flag's text is parsed like an
``--override`` value and the schema's check is the only check, so a
bad value (``node-sweep --horizon 0``, ``network --grid 0x3``,
``fig 14 --horizon nan``) fails with the same ``error: params.KEY
...`` line and exit 2 whether it came as a flag, an override, a file
or a serving request.
The run functions below return their report as text; it is written
to stdout once, by :func:`repro.scenarios.run_scenario`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from collections.abc import Sequence
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Any

from .energy import (
    format_breakdown_sweep,
    format_energy_series,
    format_state_percentages,
    format_table,
)
from .energy.battery import LinearBattery, NodeLifetimeEstimator
from .experiments import (
    CPUComparisonConfig,
    NodeSweepConfig,
    ValidationConfig,
    format_delta_table,
    format_optimum_summary,
    format_steady_state_table,
    format_validation_table,
    run_cpu_comparison,
    run_node_energy_sweep,
    run_simple_node_validation,
)
from .experiments.validation import percent_difference
from .models import NodeParameters, WSNNodeModel
from .runtime.config import ExecutionConfig, ResolvedExecution
from .scenarios import (
    SPEC_VERSION,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    parse_value,
    run_scenario,
)
from .scenarios.spec import (
    _REQUIRED,
    SCENARIO_MODELS,
    _params_schema,
    _validate_execution,
    _validate_params,
)
from .experiments.network import (
    NetworkScenarioConfig,
    format_network_summary,
    make_topology,
    run_network_lifetime_sweep,
    run_network_scenario,
)
from .topology import ChurnModel, MMPPTraffic, describe_topology

_FIG_TO_PUD = {4: 0.001, 5: 0.3, 6: 10.0, 7: 0.001, 8: 0.3, 9: 10.0}
_TABLE_TO_PUD = {4: 0.001, 5: 0.3, 6: 10.0}
_TABLE_NUMERALS = {4: "IV", 5: "V", 6: "VI"}
_TOTAL_ENERGY = attrgetter("total_energy_j")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be > 0 and finite, got {value}"
        )
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 and finite, got {value}"
        )
    return value


#: The ``network`` parameters that shape a topology; ``topology
#: describe`` takes these flags.
_TOPOLOGY_KEYS = (
    "topology", "nodes", "grid", "radius", "fanout", "depth", "base_rate", "seed"
)


def _add_param_flags(
    sub_parser: argparse.ArgumentParser,
    model: str,
    keys: Sequence[str] | None = None,
) -> None:
    """One flag per parameter (all, or ``keys``) of ``model``'s schema.

    The scenario schema is the only definition of a run parameter: its
    default, help and metavar become the flag's.  The flag's text is
    parsed like an ``--override`` value, and the schema's check runs
    when the flags become a spec, so a flag and a scenario file accept
    and reject the same values.  A required key is positional; a
    ``False`` default is a switch.
    """
    schema = _params_schema(model, SPEC_VERSION)
    for key in keys or schema:
        param = schema[key]
        flag = f"--{key.replace('_', '-')}"
        if param.default is _REQUIRED:
            sub_parser.add_argument(
                key, type=parse_value, metavar=param.metavar, help=param.help
            )
        elif param.default is False:
            sub_parser.add_argument(flag, action="store_true", help=param.help)
        else:
            sub_parser.add_argument(
                flag,
                type=parse_value,
                default=param.default,
                metavar=param.metavar,
                help=param.help,
            )


#: The execution settings each command takes as flags, in help order.
_RUN_EXECUTION_KEYS = (
    "workers", "replications", "engine", "ci_target", "max_replications",
    "backend", "connect", "store_dir",
)
_SERVE_EXECUTION_KEYS = ("workers", "backend", "connect", "store_dir")


def add_execution_args(
    sub_parser: argparse.ArgumentParser, keys: Sequence[str]
) -> None:
    """One flag per execution setting in ``keys``, from ``ExecutionConfig``.

    :class:`~repro.runtime.config.ExecutionConfig`'s fields are the only
    definition of an execution setting: a field's default, help and
    metavar become its flag's (``max_replications`` is
    ``--max-replications``, ``store_dir`` is ``--store DIR``).  The
    flag's text is parsed like an ``--override`` value and the config's
    own check is the only check, so ``--workers 0`` and ``--override
    execution.workers=0`` fail with the same ``error: execution: ...``
    line.  ``connect`` is repeatable, and ``--store`` comes with
    ``--no-store``.
    """
    settings = {f.name: f for f in fields(ExecutionConfig)}
    for key in keys:
        setting = settings[key]
        repeatable = isinstance(setting.default, tuple)
        store = key == "store_dir"
        sub_parser.add_argument(
            "--store" if store else f"--{key.replace('_', '-')}",
            dest=key,
            action="append" if repeatable else "store",
            default=None if repeatable else setting.default,
            # A directory is text, never a JSON value.
            type=str if store else parse_value,
            metavar=setting.metadata["metavar"],
            help=setting.metadata["help"].replace("%", "%%"),
        )
    if "store_dir" in keys:
        sub_parser.add_argument(
            "--no-store",
            action="store_true",
            help=(
                "disable the result store even if $REPRO_STORE is set "
                "(contradicts --store DIR; passing both is an error)"
            ),
        )


def _execution_settings(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> dict[str, Any]:
    """The execution flags as an ``execution`` mapping of a spec.

    The store directory is a deployment setting, and its precedence is
    the command line's own rule: ``--no-store`` > ``--store DIR`` >
    ``$REPRO_STORE`` > off (passing both flags is a usage error).
    Every other check is ``ExecutionConfig``'s, run when the mapping
    becomes a config.
    """
    if args.no_store and args.store_dir:
        parser.error(
            "--store DIR and --no-store contradict each other; pass at "
            "most one (--no-store exists to override $REPRO_STORE for "
            "one run)"
        )
    settings = {
        key: getattr(args, key)
        for key in _RUN_EXECUTION_KEYS
        if getattr(args, key, None) is not None
    }
    if not args.no_store and os.environ.get("REPRO_STORE"):
        settings.setdefault("store_dir", os.environ["REPRO_STORE"])
    return settings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of Shareef & Zhu (ICPP 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available artifacts")

    run_helps = {
        "fig": "regenerate a figure (4-9, 14, 15)",
        "table": "regenerate a delta table (4-6)",
        "node-sweep": "Figs. 14/15 node threshold sweep",
        "validate": "Section V IMote2 validation (Tables VIII-X)",
        "network": "multi-node network scenario",
    }
    for model, help_text in run_helps.items():
        run = sub.add_parser(model, help=help_text)
        _add_param_flags(run, model)
        keys = _RUN_EXECUTION_KEYS
        if model == "network":  # network runs replicate only adaptively
            keys = tuple(k for k in keys if k != "replications")
        add_execution_args(run, keys)

    topology = sub.add_parser(
        "topology",
        help="inspect a topology without simulating it",
    )
    topology.add_argument(
        "action",
        choices=["describe"],
        help=(
            "describe: print node count, depth histogram and per-hop "
            "relay load for the selected topology"
        ),
    )
    _add_param_flags(topology, "network", _TOPOLOGY_KEYS)

    scenario = sub.add_parser(
        "scenario",
        help="run, validate or show a declarative scenario file",
    )
    scenario.add_argument(
        "action",
        choices=["run", "validate", "show"],
        help=(
            "run: execute the scenario; validate: schema-check it; "
            "show: print the validated spec as canonical JSON"
        ),
    )
    scenario.add_argument("file", help="scenario spec (.yaml/.yml/.json)")
    scenario.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "dotted-path spec override, e.g. params.horizon=5, "
            "execution.workers=2 or params.grid=[3,3]; repeatable, "
            "applied in order (after --smoke)"
        ),
    )
    scenario.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "apply the spec's own smoke: override block first — the "
            "scenario's CI-scale shape"
        ),
    )

    store_cmd = sub.add_parser(
        "store", help="inspect or maintain a result store"
    )
    store_cmd.add_argument(
        "action",
        choices=["stats", "verify", "gc"],
        help=(
            "stats: entry/byte/hit counters; verify: checksum every "
            "entry; gc: remove corrupt entries and stale temp files"
        ),
    )
    store_cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: $REPRO_STORE)",
    )

    worker = sub.add_parser(
        "worker",
        help="serve this host's cores to a --backend socket dispatcher",
    )
    worker.add_argument(
        "--serve",
        type=int,
        required=True,
        metavar="PORT",
        help="TCP port to listen on (0 picks a free port; the bound "
        "address is announced on stdout)",
    )
    worker.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; use 0.0.0.0 only "
        "on trusted networks — the protocol is unauthenticated pickle)",
    )
    worker.add_argument(
        "--max-sessions",
        type=_positive_int,
        default=None,
        help="exit after serving this many dispatcher sessions "
        "(default: serve forever)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve sweep queries over HTTP from one long-lived store",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default 0 picks a free port; the "
        "bound address is announced on stdout)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; the API is "
        "unauthenticated — expose it only on trusted networks)",
    )
    serve.add_argument(
        "--progress-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="minimum seconds between per-task job progress events "
        "(default 0.2; 0 emits one per store access)",
    )
    add_execution_args(serve, _SERVE_EXECUTION_KEYS)

    query = sub.add_parser(
        "query",
        help="run a scenario file against a 'serve' server",
    )
    query.add_argument(
        "file",
        nargs="?",
        default=None,
        help="scenario spec (.yaml/.yml/.json) — same files "
        "'scenario run' takes; optional with --stats",
    )
    query.add_argument(
        "--server",
        required=True,
        metavar="URL",
        help="server base URL, e.g. http://127.0.0.1:8123 (the "
        "address 'serve' announces)",
    )
    query.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path spec override, exactly as in 'scenario run'; "
        "repeatable, applied in order (after --smoke)",
    )
    query.add_argument(
        "--smoke",
        action="store_true",
        help="apply the spec's own smoke: override block first",
    )
    query.add_argument(
        "--mode",
        choices=["sync", "poll", "stream"],
        default="sync",
        help="sync: one blocking request (default); poll: submit then "
        "poll the job endpoint; stream: follow NDJSON events live",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="overall client-side deadline (default 600)",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print the server's /stats JSON and exit (no FILE needed)",
    )

    life = sub.add_parser("lifetime", help="battery lifetime at a threshold")
    life.add_argument("--threshold", type=_nonneg_float, default=0.00178)
    life.add_argument("--workload", choices=["closed", "open"], default="closed")
    life.add_argument("--horizon", type=_positive_float, default=300.0)
    life.add_argument("--capacity-mah", type=_positive_float, default=1000.0)
    life.add_argument("--voltage", type=_positive_float, default=4.5)
    life.add_argument("--seed", type=int, default=2010)

    return parser


def _cmd_store(args: argparse.Namespace) -> int:
    from .runtime.store import ResultStore

    store = ResultStore(args.store)
    if args.action == "stats":
        for line in store.stats().lines():
            print(line)
        return 0
    if args.action == "verify":
        n_ok, corrupt = store.verify()
        print(
            f"verified: {n_ok} intact entr{'y' if n_ok == 1 else 'ies'}, "
            f"{len(corrupt)} corrupt"
        )
        for path in corrupt:
            print(f"  corrupt: {path}")
        return 1 if corrupt else 0
    files_removed, bytes_reclaimed = store.gc()
    print(
        f"gc: removed {files_removed} file(s), "
        f"reclaimed {bytes_reclaimed} bytes"
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .runtime.remote import serve_worker

    served = serve_worker(
        args.serve, args.host, max_sessions=args.max_sessions
    )
    print(f"repro worker done: {served} chunk(s) served")
    return 0


def _cmd_serve(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from .serving import SweepService, make_server

    try:
        execution = _validate_execution(_execution_settings(args, parser))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = SweepService(
        execution, progress_interval=args.progress_interval
    )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # The announcement format is shared with `worker --serve` and
    # parsed by scripts/ci_smoke.sh (worker_port): keep the trailing
    # "host:port" shape.
    print(f"repro serve listening on {host}:{port}", flush=True)
    # SIGINT and SIGTERM both stop the server cleanly, SIGINT also when
    # a shell started it in the background with SIGINT ignored: the
    # store counters reach the manifest only in service.close().
    previous = {
        sig: signal.signal(sig, signal.default_int_handler)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        service.close()
    stats = service.stats()
    print(
        f"repro serve done: {stats['requests']['total']} request(s), "
        f"{stats['jobs']['total']} job(s)"
    )
    return 0


def _cmd_query(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from .scenarios.spec import _parse_text
    from .serving import ServerError, fetch_stats, query_server

    try:
        if args.stats:
            stats = fetch_stats(args.server, timeout=args.timeout)
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        if not args.file:
            parser.error("query needs a scenario FILE (or --stats)")
        path = Path(args.file)
        try:
            data = _parse_text(path, path.read_text())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # The raw mapping travels as-is: the *server* owns validation,
        # so client and `scenario run` reject specs with one voice.
        request: dict[str, Any] = {"scenario": data}
        if args.override:
            request["overrides"] = list(args.override)
        if args.smoke:
            request["smoke"] = True
        snapshot = query_server(
            args.server, request, mode=args.mode, timeout=args.timeout
        )
    except (ValueError, ServerError, TimeoutError, OSError) as exc:
        # ValueError: a ScenarioError, or a --server that is no URL.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = snapshot.get("result") or {}
    output = result.get("output")
    if output:
        # Verbatim, so stdout diffs clean against `scenario run`.
        print(output, end="", flush=True)
    if snapshot["state"] != "done":
        detail = snapshot.get("error") or snapshot["state"]
        print(
            f"error: job {snapshot['id']} {snapshot['state']}: {detail}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_list() -> int:
    print(
        "figures: 4 5 6 (state shares) 7 8 9 (energy) 14 15 (node sweeps)\n"
        "tables:  4 5 6 (delta energy) + validate (VIII-X)\n"
        "extras:  node-sweep, lifetime, network (multi-node), "
        "scenario (declarative spec files)"
    )
    return 0


def _run_spec(spec) -> int:
    """Run one scenario, whichever way it was spelled; the exit code."""
    try:
        return run_scenario(spec)
    except ValueError as exc:
        # e.g. a topology the schema cannot check alone (a geometric
        # radius too small to connect it) — a user error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_scenario(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    try:
        spec = load_scenario(
            args.file, overrides=args.override, smoke=args.smoke
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "validate":
        print(
            f"OK: {args.file}: scenario {spec.name!r} "
            f"(model {spec.model}, schema v{spec.version}) is valid"
        )
        return 0
    if args.action == "show":
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    return _run_spec(spec)


def _cmd_run(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """A run subcommand: the flags spell a scenario, which runs as one."""
    try:
        spec = ScenarioSpec(
            name=args.command,
            model=args.command,
            params={
                key: getattr(args, key)
                for key in _params_schema(args.command, SPEC_VERSION)
            },
            execution=_execution_settings(args, parser),
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_spec(spec)


def _text(*blocks: str) -> str:
    """``blocks`` as printed one ``print`` call each: newline-terminated."""
    return "".join(f"{block}\n" for block in blocks)


def _node_sweep_report(sweep, workload: str, title: str) -> str:
    """The Figs. 14/15 breakdown table, optimum summary and intervals."""
    best = sweep.summary()
    return _text(
        format_breakdown_sweep(sweep.thresholds, sweep.breakdowns, title=title),
        format_optimum_summary(workload, *best),
    ) + _replication_ci(sweep)


def run_fig(
    number: int,
    *,
    horizon: float | None,
    seed: int,
    rx: ResolvedExecution,
) -> str:
    """Regenerate one figure; returns the report the benchmarks persist.

    ``rx`` is the resolved execution configuration.  Every spelling of
    a run (flags, scenario file, serving request) reaches this function
    through :func:`repro.scenarios.scenario_report`, so they all render
    the same bytes.
    """
    if number in (14, 15):
        workload = "closed" if number == 14 else "open"
        horizon_s = horizon if horizon is not None else 900.0
        sweep = run_node_energy_sweep(
            NodeSweepConfig(workload=workload, horizon=horizon_s, seed=seed),
            exec_cfg=rx,
        )
        return _node_sweep_report(
            sweep,
            workload,
            f"Figure {number} ({workload} model, {horizon_s:.0f} s)",
        )
    pud = _FIG_TO_PUD[number]
    horizon_s = horizon if horizon is not None else 1000.0
    result = run_cpu_comparison(
        pud,
        CPUComparisonConfig(horizon=horizon_s, seed=seed),
        exec_cfg=rx,
    )
    if number <= 6:
        report = "".join(
            _text(
                format_state_percentages(
                    result.thresholds,
                    result.fractions[est],
                    title=f"Figure {number} (PUD={pud:g}s) — {est}",
                ),
                "",
            )
            for est in ("simulation", "markov", "petri")
        )
    else:
        report = _text(
            format_energy_series(
                result.thresholds,
                {
                    "Simulation": result.energy_j["simulation"],
                    "Markov": result.energy_j["markov"],
                    "Petri Net": result.energy_j["petri"],
                },
                title=f"Figure {number} (PUD={pud:g}s)",
            )
        )
    return report + _cpu_replication_ci(result)


def _format_pm(ci) -> str:
    """``± width`` for a usable interval, ``n/a`` for an R=1 one.

    A single replication has an infinite half-width; printing ``± inf``
    reads like a formatting bug, so say what it is instead.
    """
    if not math.isfinite(ci.half_width):
        n = ci.batches
        return f"n/a ({n} replication{'s' if n != 1 else ''})"
    return f"± {ci.half_width:.4f}"


def _convergence_tag(run) -> str:
    """A point's adaptive outcome, e.g. ``[  4 reps, converged]``."""
    status = "converged" if run.converged else "hit max"
    return f"[{run.replications:3d} reps, {status}]"


def _point_ci(
    run, metric, fmt: str = "{:10.4f} J", note: str = "", tag: bool = True
) -> str:
    """One replicated point: ``mean ± half-width`` of ``metric``.

    ``fmt`` spells the mean and ``note`` follows the half-width; an
    adaptive run's :func:`_convergence_tag` comes last, unless ``tag``
    is off.
    """
    ci = run.interval(metric)
    text = f"{fmt.format(ci.mean)} {_format_pm(ci)}{note}"
    if tag and run.converged is not None:
        text += f"  {_convergence_tag(run)}"
    return text


def _ci_heading(result, label: str, note: str = "") -> str | None:
    """The heading of a result's interval block; ``None`` if unreplicated."""
    if result.ci_target is not None:
        source = f"adaptive replications (ci-target {result.ci_target:g}, "
    else:
        n = max(run.replications for run in result.runs)
        if n <= 1:
            return None
        source = f"across {n} replications ("
    return f"\n{source}{label}, 95% t-interval{note}):"


def _replication_ci(sweep, label: str = "total energy") -> str:
    """Per-point mean ± t-interval rows for a replicated sweep."""
    heading = _ci_heading(sweep, label)
    if heading is None:
        return ""
    return _text(
        heading,
        *(
            f"  PDT {threshold:<12g} {_point_ci(run, _TOTAL_ENERGY)}"
            for threshold, run in zip(sweep.thresholds, sweep.runs)
        ),
    )


def _cpu_replication_ci(result) -> str:
    """Per-point energy t-intervals for a replicated CPU sweep."""
    heading = _ci_heading(result, "energy", "; printed values above are means")
    if heading is None:
        return ""
    lines = [heading]
    for est in ("simulation", "petri"):
        lines.append(f"  {est}:")
        lines.extend(
            f"    PDT {threshold:<8g} "
            f"{_point_ci(run, lambda out: out[est][1])}"
            for threshold, run in zip(result.thresholds, result.runs)
        )
    lines.append("  markov: deterministic (no sampling variance)")
    return _text(*lines)


def run_table(
    number: int,
    *,
    horizon: float,
    seed: int,
    rx: ResolvedExecution,
) -> str:
    """Regenerate one delta table (IV-VI); see :func:`run_fig` on ``rx``."""
    pud = _TABLE_TO_PUD[number]
    result = run_cpu_comparison(
        pud,
        CPUComparisonConfig(horizon=horizon, seed=seed),
        exec_cfg=rx,
    )
    return _text(
        format_delta_table(
            result.delta_energy(), pud, _TABLE_NUMERALS[number]
        )
    ) + _cpu_replication_ci(result)


def run_node_sweep(
    *,
    workload: str,
    horizon: float,
    seed: int,
    rx: ResolvedExecution,
) -> str:
    """The Figs. 14/15 threshold sweep; see :func:`run_fig` on ``rx``."""
    sweep = run_node_energy_sweep(
        NodeSweepConfig(workload=workload, horizon=horizon, seed=seed),
        exec_cfg=rx,
    )
    return _node_sweep_report(
        sweep, workload, f"Node sweep ({workload}, {horizon:.0f} s)"
    )


def run_validate(*, seed: int, rx: ResolvedExecution) -> str:
    """The Section V validation tables; see :func:`run_fig` on ``rx``."""
    result = run_simple_node_validation(
        ValidationConfig(seed=seed),
        exec_cfg=rx,
    )
    run = result.run
    if run.replications > 1:
        uncertainty = (
            f"\npercent difference across {run.replications} replications: "
            + _point_ci(run, percent_difference, "{:.2f}%", " (95% t-interval)")
        )
    else:
        uncertainty = "\npercent difference uncertainty: n/a (1 replication)"
    return _text(
        format_steady_state_table(result.petri.stage_probabilities),
        "",
        format_validation_table(result.table_rows()),
        uncertainty,
    )


def run_network(
    *,
    topology: str,
    nodes: int,
    grid: tuple[int, int],
    threshold: float,
    sweep: bool,
    horizon: float,
    base_rate: float,
    seed: int,
    radius: float | None,
    fanout: int,
    depth: int,
    failure_rate: float,
    duty_spread: float,
    traffic: str,
    burst_on: float,
    burst_off: float,
    burst_off_fraction: float,
    rx: ResolvedExecution,
) -> str:
    """One network scenario or threshold sweep; see :func:`run_fig` on ``rx``.

    The scenario-diversity knobs compose freely: generated topologies
    (``geometric`` / ``cluster-tree`` with ``radius`` / ``fanout`` /
    ``depth``), node churn (``failure_rate`` / ``duty_spread``) and
    bursty arrivals (``traffic="bursty"`` with the ``burst_*`` shape).
    Their schema defaults are the paper's static Poisson setup.
    """
    width, height = grid
    dynamics = ChurnModel(failure_rate=failure_rate, duty_spread=duty_spread)
    config = NetworkScenarioConfig(
        topology=make_topology(
            topology,
            nodes=nodes,
            width=width,
            height=height,
            radius=radius,
            fanout=fanout,
            depth=depth,
            seed=seed,
        ),
        horizon=horizon,
        base_rate=base_rate,
        seed=seed,
        params=NodeParameters(power_down_threshold=threshold),
        dynamics=dynamics if dynamics.is_active() else None,
        traffic=(
            MMPPTraffic(
                burst_on_s=burst_on,
                burst_off_s=burst_off,
                off_fraction=burst_off_fraction,
            )
            if traffic == "bursty"
            else None
        ),
    )
    run_info = f"(workers={rx.workers})"
    if sweep:
        sweep_result = run_network_lifetime_sweep(config, exec_cfg=rx)
        report = _text(
            format_table(
                [
                    "PDT (s)",
                    "network energy (J)",
                    "network lifetime (d)",
                    "hotspot node",
                    "imbalance (x)",
                ],
                sweep_result.rows(),
                title=(
                    f"Network lifetime sweep: {sweep_result.topology} "
                    f"{run_info}"
                ),
            )
        )
        report += _replication_ci(sweep_result, "network energy")
        best = sweep_result.best()
        return report + _text(
            f"\nbest threshold for the network: "
            f"{best.power_down_threshold:g} s -> "
            f"{best.network_lifetime_days:.2f} days"
        )
    result = run_network_scenario(config, exec_cfg=rx)
    header = f"network scenario {run_info}"
    if rx.ci_target is None:
        return _text(header, format_network_summary(result))
    lifetime = attrgetter("network_lifetime_days")
    return _text(
        header,
        format_network_summary(result.values[0]),
        f"adaptive replication   : {_convergence_tag(result)} "
        f"at ci-target {rx.ci_target:g}\n"
        "energy across reps     : "
        f"{_point_ci(result, _TOTAL_ENERGY, '{:.4f} J', tag=False)}\n"
        "lifetime across reps   : "
        f"{_point_ci(result, lifetime, '{:.2f} days', tag=False)}",
    )


def run_topology_describe(
    *,
    topology: str,
    nodes: int,
    grid: tuple[int, int],
    radius: float | None,
    fanout: int,
    depth: int,
    base_rate: float,
    seed: int,
) -> int:
    """Print a deterministic structural report for a topology spec.

    No simulation runs: the report (node count, depth histogram,
    per-hop relay load, hotspot) is a pure function of the topology
    arguments, which CI pins by diffing two invocations.  A value the
    topology refuses prints ``error: ...`` and returns 2.
    """
    width, height = grid
    try:
        topo = make_topology(
            topology,
            nodes=nodes,
            width=width,
            height=height,
            radius=radius,
            fanout=fanout,
            depth=depth,
            seed=seed,
        )
        report = describe_topology(topo, base_rate)
    except ValueError as exc:
        # e.g. a negative radius or base rate: a usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    try:
        params = _validate_params(
            "network", {key: getattr(args, key) for key in _TOPOLOGY_KEYS}
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_topology_describe(**{key: params[key] for key in _TOPOLOGY_KEYS})


def _cmd_lifetime(args: argparse.Namespace) -> int:
    params = NodeParameters(power_down_threshold=args.threshold)
    result = WSNNodeModel(params, args.workload).simulate(
        args.horizon, seed=args.seed
    )
    mean_power_mw = result.total_energy_j / result.duration * 1000.0
    estimator = NodeLifetimeEstimator(
        LinearBattery(args.capacity_mah, args.voltage, usable_fraction=0.85)
    )
    days = estimator.lifetime_days(mean_power_mw)
    print(
        f"threshold {args.threshold:g} s ({args.workload}): "
        f"mean power {mean_power_mw:.3f} mW -> "
        f"{days:.1f} days on {args.capacity_mah:g} mAh @ {args.voltage:g} V"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "worker" and not 0 <= args.serve <= 65535:
        parser.error(f"--serve port must be in 0..65535, got {args.serve}")
    if args.command == "serve" and not 0 <= args.port <= 65535:
        parser.error(f"--port must be in 0..65535, got {args.port}")
    if args.command == "store":
        args.store = args.store or os.environ.get("REPRO_STORE")
        if not args.store:
            parser.error("store requires --store DIR (or $REPRO_STORE)")
        return _cmd_store(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "lifetime":
        return _cmd_lifetime(args)
    if args.command == "topology":
        return _cmd_topology(args)
    if args.command == "scenario":
        return _cmd_scenario(args, parser)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "query":
        return _cmd_query(args, parser)
    if args.command in SCENARIO_MODELS:
        return _cmd_run(args, parser)
    raise AssertionError(f"unhandled command {args.command!r}")

if __name__ == "__main__":
    sys.exit(main())
