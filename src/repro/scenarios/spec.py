"""The versioned declarative scenario schema: ``ScenarioSpec``.

A scenario file (YAML or JSON) names *what* to run (``model`` +
``params``), *how* to run it (``execution`` — an
:class:`~repro.runtime.config.ExecutionConfig`), and what to emit
(``outputs``), making a CLI run a reproducible artifact::

    version: 1
    name: fig14-node-sweep
    model: fig
    params:
      number: 14
      horizon: 900.0
      seed: 2010
    execution:
      replications: 4
      workers: 2
    outputs:
      format: text
    smoke:
      params.horizon: 2.0
      execution.replications: 2

Design rules:

* **Every rejection names the bad key.**  Schema errors are
  :class:`ScenarioError` (a :class:`ValueError`) whose message contains
  the offending key (``params.horizon``, ``execution.workers``, ...),
  so CI can fuzz the schema and assert precise diagnostics.
* **Round-trippable.**  ``ScenarioSpec.from_dict(spec.to_dict()) ==
  spec`` holds for every valid spec: parameters are normalised (and
  defaults filled) at construction.
* **Execution is not identity.**  :meth:`ScenarioSpec.canonical_dict`
  reuses :func:`repro.runtime.store.canonicalize` over the *semantic*
  content only (version, model, params) — two specs that differ only
  in workers/backend/engine/store canonicalise identically, exactly as
  the result store never keys on execution knobs, so scenario runs
  share the store with programmatic/flag runs.
* ``smoke`` holds the spec's own CI-scale overrides (dotted paths, the
  same syntax as ``repro.cli scenario run --override``), applied by
  ``--smoke`` so ``scripts/ci_smoke.sh`` can run every gallery file in
  seconds without knowing each model's knobs.
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from ..runtime.config import ExecutionConfig

__all__ = [
    "SPEC_VERSION",
    "SUPPORTED_VERSIONS",
    "ScenarioError",
    "ScenarioSpec",
    "apply_overrides",
    "load_scenario",
    "parse_override",
    "parse_value",
]

#: Current schema version; bumped on incompatible schema changes.
#: Version 2 added the scenario-diversity keys (generated topologies,
#: churn, bursty traffic) to the ``network`` model.
SPEC_VERSION = 2

#: Versions this build reads.  A spec is validated against the schema
#: *of the version it declares*: version-1 files only see the v1 keys
#: and only get v1 defaults filled, so their round-trip
#: (:meth:`ScenarioSpec.to_dict`) and canonical forms are byte-for-byte
#: what the v1 reader produced — old gallery files and cached request
#: keys stay valid.  Using a v2-only key under ``version: 1`` is an
#: error naming the key and the version it needs.
SUPPORTED_VERSIONS = (1, 2)

#: Models a scenario can run — the CLI run-subcommand namespace.
SCENARIO_MODELS = ("fig", "table", "node-sweep", "validate", "network")


class ScenarioError(ValueError):
    """A scenario file/spec violates the schema.

    The message always names the offending key (``params.number``,
    ``execution.workers``, ...), which the schema fuzzer asserts on.
    """


_REQUIRED = object()


def _int(key: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return value


def _pos_int(key: str, value: Any) -> int:
    value = _int(key, value)
    if value < 1:
        raise ScenarioError(f"{key} must be >= 1, got {value}")
    return value


def _number(key: str, value: Any) -> float:
    """A finite number as a float: NaN or an infinity would hang a run."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{key} must be finite, got {number}")
    return number


def _pos_float(key: str, value: Any) -> float:
    number = _number(key, value)
    if number <= 0:
        raise ScenarioError(f"{key} must be > 0, got {value}")
    return number


def _opt_pos_float(key: str, value: Any) -> float | None:
    return None if value is None else _pos_float(key, value)


def _nonneg_float(key: str, value: Any) -> float:
    number = _number(key, value)
    if number < 0:
        raise ScenarioError(f"{key} must be >= 0, got {value}")
    return number


def _fraction(key: str, value: Any) -> float:
    value = _nonneg_float(key, value)
    if value >= 1:
        raise ScenarioError(f"{key} must be in [0, 1), got {value}")
    return value


def _bool(key: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{key} must be true or false, got {value!r}")
    return value


def _choice(choices: tuple[Any, ...]) -> Callable[[str, Any], Any]:
    def check(key: str, value: Any) -> Any:
        if isinstance(value, bool) or value not in choices:
            raise ScenarioError(
                f"{key} must be one of {choices}, got {value!r}"
            )
        return value

    return check


def _grid(key: str, value: Any) -> tuple[int, int]:
    """A grid spec: ``[width, height]`` or a ``"WxH"`` string."""
    if isinstance(value, str):
        parts = value.lower().split("x")
        if len(parts) != 2:
            raise ScenarioError(
                f"{key} must be [width, height] or 'WxH', got {value!r}"
            )
        try:
            value = [int(p) for p in parts]
        except ValueError:
            raise ScenarioError(
                f"{key} must be [width, height] or 'WxH', got {value!r}"
            ) from None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise ScenarioError(
            f"{key} must be [width, height] or 'WxH', got {value!r}"
        )
    width, height = value
    if width < 1 or height < 1:
        raise ScenarioError(
            f"{key} dimensions must be >= 1, got {list(value)!r}"
        )
    return (width, height)


@dataclass(frozen=True)
class _Param:
    """One model parameter: its default (or required), its check, and
    the help and value placeholder of its command-line flag."""

    default: Any
    check: Callable[[str, Any], Any]
    help: str | None = None
    metavar: str | None = None


def _choice_param(
    default: Any, choices: tuple[Any, ...], help: str | None = None
) -> _Param:
    """A parameter taking one of ``choices``, listed in its metavar."""
    metavar = "{" + ",".join(str(c) for c in choices) + "}"
    return _Param(default, _choice(choices), help, metavar)


#: Per-model parameter schema: the one definition of every run
#: parameter.  ``repro.cli`` generates each run subcommand's flags from
#: it (``base_rate`` is ``--base-rate``; a required key is positional;
#: a ``False`` default is a switch), so an empty ``params`` block
#: equals the bare subcommand and every spelling shares one check.
_MODEL_PARAMS: dict[str, dict[str, _Param]] = {
    "fig": {
        "number": _choice_param(
            _REQUIRED, (4, 5, 6, 7, 8, 9, 14, 15), "figure to regenerate"
        ),
        "horizon": _Param(
            None,
            _opt_pos_float,
            "simulated seconds (default: 900 for Figs. 14/15, else 1000)",
        ),
        "seed": _Param(2010, _int),
    },
    "table": {
        "number": _choice_param(_REQUIRED, (4, 5, 6), "table to regenerate"),
        "horizon": _Param(1000.0, _pos_float),
        "seed": _Param(2010, _int),
    },
    "node-sweep": {
        "workload": _choice_param("closed", ("closed", "open")),
        "horizon": _Param(900.0, _pos_float),
        "seed": _Param(2010, _int),
    },
    "validate": {
        "seed": _Param(2010, _int),
    },
    "network": {
        "topology": _choice_param("line", ("line", "star", "grid")),
        "nodes": _Param(
            5,
            _pos_int,
            "chain length (line), leaf count (star) or deployment size "
            "(geometric); ignored for grid and cluster-tree",
        ),
        "grid": _Param(
            (10, 10),
            _grid,
            "grid dimensions for --topology grid (default 10x10)",
            "WxH",
        ),
        "threshold": _Param(
            0.01,
            _nonneg_float,
            "Power_Down_Threshold for the single run (default 0.01 s)",
        ),
        "sweep": _Param(
            False,
            _bool,
            "sweep the network threshold grid instead of one run",
        ),
        "horizon": _Param(300.0, _pos_float),
        "base_rate": _Param(
            0.5,
            _pos_float,
            "events/s sensed by each node before relaying (default 0.5)",
        ),
        "seed": _Param(
            2010, _int, "run seed; also lays out generated topologies"
        ),
    },
}

#: Keys added (or widened) by schema version 2: the scenario-diversity
#: subsystem — generated topologies, node churn and bursty traffic.
#: Merged over :data:`_MODEL_PARAMS` for specs declaring version >= 2;
#: version-1 specs never see these (not even as filled defaults).
_MODEL_PARAMS_V2: dict[str, dict[str, _Param]] = {
    "network": {
        "topology": _choice_param(
            "line", ("line", "star", "grid", "geometric", "cluster-tree")
        ),
        "radius": _Param(
            None,
            _opt_pos_float,
            "connectivity radius for --topology geometric (default: "
            "auto-sized from the node count; retried/grown "
            "deterministically if the deployment comes out disconnected)",
        ),
        "fanout": _Param(
            3, _pos_int, "children per cluster head for --topology cluster-tree"
        ),
        "depth": _Param(3, _pos_int, "tree depth for --topology cluster-tree"),
        "failure_rate": _Param(
            0.0,
            _nonneg_float,
            "per-node exponential failure rate (1/s) for churn; dead "
            "relays rewire their orphans to the nearest live relay "
            "(default 0 = immortal nodes)",
        ),
        "duty_spread": _Param(
            0.0,
            _fraction,
            "half-width of the uniform per-node duty-cycle factor, in "
            "[0, 1): each node senses at base-rate x (1 +/- spread) "
            "(default 0 = identical nodes)",
        ),
        "traffic": _choice_param(
            "poisson",
            ("poisson", "bursty"),
            "arrival process: poisson (the paper's) or bursty "
            "mean-rate-preserving MMPP/on-off",
        ),
        "burst_on": _Param(
            5.0,
            _pos_float,
            "mean burst (ON) duration in seconds for --traffic bursty",
        ),
        "burst_off": _Param(
            15.0,
            _pos_float,
            "mean quiet (OFF) duration in seconds for --traffic bursty",
        ),
        "burst_off_fraction": _Param(
            0.0,
            _fraction,
            "quiet-state emission rate as a fraction of the burst rate, "
            "in [0, 1) (default 0 = silent between bursts)",
        ),
    },
}

_OUTPUT_FORMATS = ("text",)


def _params_schema(model: str, version: int) -> dict[str, _Param]:
    """The parameter schema a spec of ``version`` validates against."""
    schema = dict(_MODEL_PARAMS[model])
    if version >= 2:
        schema.update(_MODEL_PARAMS_V2.get(model, {}))
    return schema


def _validate_params(
    model: str, params: Any, version: int = SPEC_VERSION
) -> dict[str, Any]:
    """Check/normalise a params mapping; fill model defaults."""
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise ScenarioError(
            f"params must be a mapping, got {params!r}"
        )
    schema = _params_schema(model, version)
    unknown = sorted(set(params) - set(schema))
    if unknown:
        key = unknown[0]
        if key in _params_schema(model, SPEC_VERSION):
            raise ScenarioError(
                f"params key 'params.{key}' requires scenario schema "
                f"version 2 or later (this spec declares version {version})"
            )
        raise ScenarioError(
            f"unknown params key 'params.{key}' for model "
            f"{model!r} (known: {', '.join(sorted(schema))})"
        )
    out: dict[str, Any] = {}
    for key, param in schema.items():
        if key in params:
            out[key] = param.check(f"params.{key}", params[key])
        elif param.default is _REQUIRED:
            raise ScenarioError(
                f"missing required key 'params.{key}' for model {model!r}"
            )
        else:
            out[key] = param.default
    return out


def _validate_execution(execution: Any) -> ExecutionConfig:
    """An :class:`ExecutionConfig` from a mapping of its fields.

    Its construction is the one check of every execution setting; a
    rejection reads ``execution: <what is wrong>`` from every spelling.
    """
    if isinstance(execution, ExecutionConfig):
        return execution
    if not isinstance(execution, Mapping):
        raise ScenarioError(
            "execution must be a mapping of ExecutionConfig fields, "
            f"got {execution!r}"
        )
    try:
        return ExecutionConfig.from_dict(execution)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"execution: {exc}") from None


def _validate_outputs(outputs: Any) -> dict[str, Any]:
    if outputs is None:
        outputs = {}
    if not isinstance(outputs, Mapping):
        raise ScenarioError(f"outputs must be a mapping, got {outputs!r}")
    unknown = sorted(set(outputs) - {"format"})
    if unknown:
        raise ScenarioError(
            f"unknown outputs key 'outputs.{unknown[0]}' "
            f"(known: format)"
        )
    fmt = outputs.get("format", "text")
    if fmt not in _OUTPUT_FORMATS:
        raise ScenarioError(
            f"outputs.format must be one of {_OUTPUT_FORMATS}, got {fmt!r}"
        )
    return {"format": fmt}


def _validate_smoke(smoke: Any) -> dict[str, Any]:
    if smoke is None:
        smoke = {}
    if not isinstance(smoke, Mapping):
        raise ScenarioError(
            "smoke must be a mapping of dotted override paths "
            f"(e.g. 'params.horizon: 2.0'), got {smoke!r}"
        )
    out: dict[str, Any] = {}
    for key, value in smoke.items():
        if not isinstance(key, str) or not key:
            raise ScenarioError(
                f"smoke keys must be dotted override paths, got {key!r}"
            )
        head = key.split(".", 1)[0]
        if head not in ("params", "execution", "outputs"):
            raise ScenarioError(
                f"smoke override 'smoke.{key}' must target params.*, "
                "execution.* or outputs.*"
            )
        out[key] = value
    return out


def _jsonable(value: Any) -> Any:
    """Tuples → lists, recursively — plain JSON for ``to_dict``."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario: model + params + execution + outputs.

    Construct via :meth:`from_dict` / :func:`load_scenario` (or
    directly — ``__post_init__`` runs the same validation either way).
    Parameters are normalised with model defaults filled, so two specs
    spelling the same run compare equal and round-trip through
    :meth:`to_dict` exactly.
    """

    name: str
    model: str
    params: dict[str, Any] = field(default_factory=dict)
    execution: ExecutionConfig = ExecutionConfig()
    outputs: dict[str, Any] = field(default_factory=dict)
    smoke: dict[str, Any] = field(default_factory=dict)
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if isinstance(self.version, bool) or not isinstance(self.version, int):
            raise ScenarioError(
                f"version must be an integer, got {self.version!r}"
            )
        if self.version not in SUPPORTED_VERSIONS:
            raise ScenarioError(
                f"version {self.version} is not supported "
                "(this build reads scenario schema versions "
                f"{SUPPORTED_VERSIONS})"
            )
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError(
                f"name must be a non-empty string, got {self.name!r}"
            )
        if self.model not in SCENARIO_MODELS:
            raise ScenarioError(
                f"model must be one of {SCENARIO_MODELS}, got {self.model!r}"
            )
        object.__setattr__(
            self,
            "params",
            _validate_params(self.model, self.params, self.version),
        )
        object.__setattr__(
            self, "execution", _validate_execution(self.execution)
        )
        object.__setattr__(self, "outputs", _validate_outputs(self.outputs))
        object.__setattr__(self, "smoke", _validate_smoke(self.smoke))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Validate a raw mapping (parsed YAML/JSON) into a spec."""
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"a scenario spec must be a mapping, got {data!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario key {unknown[0]!r} "
                f"(known keys: {', '.join(sorted(known))})"
            )
        for required in ("name", "model"):
            if required not in data:
                raise ScenarioError(
                    f"missing required scenario key {required!r}"
                )
        return cls(**dict(data))

    def to_dict(self) -> dict[str, Any]:
        """The plain JSON-able form; inverse of :meth:`from_dict`."""
        return {
            "version": self.version,
            "name": self.name,
            "model": self.model,
            "params": _jsonable(self.params),
            "execution": self.execution.to_dict(),
            "outputs": _jsonable(self.outputs),
            "smoke": _jsonable(self.smoke),
        }

    def canonical_dict(self) -> Any:
        """Canonical form of the spec's *semantic* content.

        Reuses :func:`repro.runtime.store.canonicalize`, so the same
        rules that make the result store execution-agnostic apply here:
        ``execution``, ``outputs``, ``smoke`` and the display ``name``
        are excluded, floats are bit-exact, mapping order is
        irrelevant.  Two specs with equal ``canonical_dict()`` describe
        the same simulations and therefore hit the same
        :func:`~repro.runtime.store.task_key` entries.
        """
        from ..runtime.store import canonicalize

        return canonicalize(
            {
                "version": self.version,
                "model": self.model,
                "params": self.params,
            }
        )

    def with_overrides(
        self, overrides: Mapping[str, Any] | list[str]
    ) -> "ScenarioSpec":
        """A re-validated copy with dotted-path overrides applied."""
        return ScenarioSpec.from_dict(
            apply_overrides(self.to_dict(), overrides)
        )


def parse_value(text: str) -> Any:
    """Parse one parameter value written as text, as every spelling does.

    JSON when possible (numbers, booleans, lists), then a float
    spelling JSON lacks (``nan``, ``inf``), else the literal string —
    so ``2.5``, ``processes``, ``[3,3]`` and ``10x10`` all do the
    obvious thing, and a flag value and an ``--override`` value of the
    same text reach the schema's check as the same value.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_override(text: str) -> tuple[str, Any]:
    """Parse one ``KEY=VALUE`` override; the value via :func:`parse_value`."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ScenarioError(
            f"override must be KEY=VALUE (e.g. params.horizon=2.5), "
            f"got {text!r}"
        )
    return key, parse_value(value)


def apply_overrides(
    data: Mapping[str, Any], overrides: Mapping[str, Any] | list[str]
) -> dict[str, Any]:
    """Apply dotted-path overrides to a raw spec mapping.

    ``overrides`` is either a mapping ``{"params.horizon": 2.0}`` (the
    ``smoke`` block shape) or a list of ``KEY=VALUE`` strings (the CLI
    ``--override`` shape).  Returns a deep copy; the input is never
    mutated.  Intermediate mappings are created as needed; overriding
    *through* a non-mapping value is an error naming the path.
    """
    if isinstance(overrides, Mapping):
        pairs = list(overrides.items())
    else:
        pairs = [parse_override(text) for text in overrides]
    out: dict[str, Any] = copy.deepcopy(dict(data))
    for key, value in pairs:
        parts = key.split(".")
        if not all(parts):
            raise ScenarioError(f"override path {key!r} has an empty segment")
        node = out
        for i, part in enumerate(parts[:-1]):
            child = node.get(part)
            if child is None:
                child = {}
                node[part] = child
            elif not isinstance(child, (dict, Mapping)):
                raise ScenarioError(
                    f"cannot override {key!r}: "
                    f"{'.'.join(parts[: i + 1])!r} is not a mapping"
                )
            elif not isinstance(child, dict):
                child = dict(child)
                node[part] = child
            node = child
        node[parts[-1]] = copy.deepcopy(value)
    return out


def _parse_text(path: Path, text: str) -> Any:
    suffix = path.suffix.lower()
    if suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ScenarioError(
                f"reading {path.name} requires the optional PyYAML "
                "dependency; install pyyaml or write the spec as JSON"
            ) from None
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"invalid YAML in {path}: {exc}") from None
    if suffix == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from None
    raise ScenarioError(
        f"unsupported scenario file extension {suffix!r} for {path} "
        "(use .yaml, .yml or .json)"
    )


def load_scenario(
    path: str | Path,
    overrides: Mapping[str, Any] | list[str] = (),
    smoke: bool = False,
) -> ScenarioSpec:
    """Load and validate a scenario file (see :func:`_spec_from`)."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    data = _parse_text(p, text)
    if not isinstance(data, Mapping):
        raise ScenarioError(
            f"a scenario spec must be a mapping, got {data!r} in {path}"
        )
    return _spec_from(data, overrides, smoke)


def _spec_from(
    data: Mapping[str, Any],
    overrides: Mapping[str, Any] | list[str] = (),
    smoke: bool = False,
) -> ScenarioSpec:
    """Validate a raw spec mapping after its smoke block and overrides.

    With ``smoke=True`` the spec's own ``smoke`` block of dotted-path
    overrides is applied first (the CI-scale shape of the scenario);
    explicit ``overrides`` are applied after, so they win.
    """
    data = dict(data)
    if smoke:
        data = apply_overrides(data, _validate_smoke(data.get("smoke")))
    if overrides:
        data = apply_overrides(data, overrides)
    return ScenarioSpec.from_dict(data)
