"""One execution-configuration object for every driver and the CLI.

Every capability the runtime has grown — worker pools, adaptive
replication, pluggable backends, the vectorized engine, the result
store — added a keyword that had to be threaded through all five
experiment drivers and every CLI subcommand.  :class:`ExecutionConfig`
collapses that plumbing into a single frozen, serialisable value:

* **declarative** — plain data (strings, ints, paths), so it can live
  in a scenario file, a serving request or a test parametrisation;
* **validated** — every field is checked on construction with an error
  that names the field, so schema fuzzing gets precise rejections;
* **resolvable** — :meth:`ExecutionConfig.resolve` builds the live
  :class:`~repro.runtime.backend.Backend` /
  :class:`~repro.runtime.store.ResultStore` objects exactly once,
  yielding a :class:`ResolvedExecution` the drivers consume.

Execution settings never change reported numbers (the repo's standing
bit-identity invariant), so an ``ExecutionConfig`` is *how* to run,
never *what* to run — it deliberately carries no model parameters and
contributes nothing to :func:`~repro.runtime.store.task_key`.

Drivers take execution settings only as ``exec_cfg=`` (an
:class:`ExecutionConfig` or an already-resolved
:class:`ResolvedExecution`, normalised by :func:`as_resolved`) and hand
the resolved view to :func:`~repro.runtime.adaptive.run_replications`,
the one dispatch from a driver to a backend.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Any

from .backend import BACKEND_NAMES, Backend, make_backend
from .executor import ParallelExecutor
from .store import ResultStore

__all__ = [
    "ENGINE_NAMES",
    "ExecutionConfig",
    "ResolvedExecution",
    "as_resolved",
]

#: Simulation engines understood by every driver (see repro.core.fast).
ENGINE_NAMES = ("interpreted", "vectorized")


def _check_positive_int(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_choice(name: str, value: Any, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _flag(default: Any, help: str, metavar: str | None = None) -> Any:
    """A field that is also a command-line flag of the run subcommands.

    ``repro.cli`` generates the flag from the field: ``max_replications``
    is ``--max-replications`` (``store_dir`` is ``--store``) with this
    default, help and metavar, and the field's check is the flag's.
    """
    return field(default=default, metadata={"help": help, "metavar": metavar})


@dataclass(frozen=True)
class ExecutionConfig:
    """*How* to execute a run: workers, backend, engine, store, adaptive.

    All fields are plain data, and ``ExecutionConfig()`` reproduces
    every driver's legacy numbers bit for bit: the default vectorized
    engine gives the interpreted engine's results.  Instances are
    frozen (safe to share and to use as defaults) and
    JSON-serialisable via :meth:`to_dict` / :meth:`from_dict`.
    ``__post_init__`` is the only check of an execution setting, for
    every spelling: flag, override, scenario file or serving request.
    """

    workers: int = _flag(
        1,
        "process-pool size for grid points / replications / network "
        "nodes (default 1)",
    )
    #: The adaptive floor when ``ci_target`` is set.
    replications: int = _flag(
        1,
        "independent replications per stochastic point (default 1); "
        "with --ci-target this is the minimum per point",
    )
    #: ``None`` is resolved once, by :meth:`resolve`: ``"processes"``
    #: when ``workers > 1``, else ``"local"``.
    backend: str | None = _flag(
        None,
        "execution backend: 'local' (in-process), 'processes' (local "
        "pool of --workers), 'socket' (remote workers from --connect); "
        "default: processes when --workers > 1, else local",
        "{" + ",".join(BACKEND_NAMES) + "}",
    )
    connect: tuple[str, ...] = _flag(
        (),
        "worker address for --backend socket (repeat for several hosts; "
        "start each with 'python -m repro.cli worker --serve PORT')",
        "HOST:PORT",
    )
    #: Batches of fewer than
    #: :data:`~repro.runtime.adaptive.LOCKSTEP_MIN_ROWS` tasks run
    #: interpreted under ``"vectorized"``.
    engine: str = _flag(
        "vectorized",
        "simulation engine: 'vectorized' (each batch of replications or "
        "network nodes as rows of one NumPy lockstep ensemble per "
        "worker; batches too small for lockstep run interpreted) or "
        "'interpreted' (per-event Python loop, the reference); "
        "bit-identical results (default vectorized)",
        "{" + ",".join(ENGINE_NAMES) + "}",
    )
    store_dir: str | None = _flag(
        None,
        "content-addressed result store directory: cached replications "
        "are served without re-simulating and new ones are written back "
        "(default: $REPRO_STORE if set, else off)",
        "DIR",
    )
    ci_target: float | None = _flag(
        None,
        "adaptive replication control: replicate each point until its "
        "95% interval's relative half-width is <= REL (e.g. 0.05), then "
        "stop that point",
        "REL",
    )
    max_replications: int = _flag(
        64, "per-point replication cap under --ci-target (default 64)"
    )

    def __post_init__(self) -> None:
        if isinstance(self.connect, (list, str)):
            # Tolerate list input (JSON has no tuples); reject a bare
            # string, which would silently iterate per character.
            if isinstance(self.connect, str):
                raise ValueError(
                    "connect must be a sequence of 'host:port' strings, "
                    f"got the bare string {self.connect!r}"
                )
            object.__setattr__(self, "connect", tuple(self.connect))
        for name in ("workers", "replications", "max_replications"):
            _check_positive_int(name, getattr(self, name))
        _check_choice("engine", self.engine, ENGINE_NAMES)
        if self.backend is not None:
            _check_choice("backend", self.backend, BACKEND_NAMES)
        if not all(isinstance(a, str) for a in self.connect):
            raise ValueError(
                f"connect entries must be 'host:port' strings, "
                f"got {self.connect!r}"
            )
        if self.connect and self.backend != "socket":
            raise ValueError(
                "connect only applies with backend='socket', "
                f"got backend={self.backend!r}"
            )
        if self.backend == "socket" and not self.connect:
            raise ValueError(
                "backend='socket' requires at least one connect "
                "'host:port' address (start workers with "
                "'python -m repro.cli worker --serve PORT')"
            )
        if self.connect:
            from .remote import parse_address

            for address in self.connect:
                try:
                    parse_address(address)
                except ValueError as exc:
                    raise ValueError(
                        f"connect entry {address!r}: {exc}"
                    ) from None
        if self.store_dir is not None and not isinstance(
            self.store_dir, (str, os.PathLike)
        ):
            raise ValueError(
                f"store_dir must be a path or None, got {self.store_dir!r}"
            )
        if self.ci_target is not None:
            if isinstance(self.ci_target, bool) or not isinstance(
                self.ci_target, (int, float)
            ):
                raise ValueError(
                    f"ci_target must be a number or None, got {self.ci_target!r}"
                )
            if not 0 < self.ci_target < math.inf:
                raise ValueError(
                    f"ci_target must be > 0 and finite, got {self.ci_target}"
                )
            floor = max(2, self.replications)
            if floor > self.max_replications:
                raise ValueError(
                    f"the per-point floor under ci_target, max(2, "
                    f"replications) = {floor}, must be <= "
                    f"max_replications {self.max_replications}"
                )

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-serialisable mapping of every field."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if f.name == "connect" else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error.

        Every rejection names the offending key (either here or from
        ``__post_init__``'s per-field checks), which is what the
        scenario-schema fuzzer asserts on.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"execution must be a mapping of settings, got {data!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown execution key {unknown[0]!r} "
                f"(known keys: {', '.join(sorted(known))})"
            )
        return cls(**dict(data))

    def with_overrides(self, **changes: Any) -> "ExecutionConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def resolve(self, *, keep_alive: bool = False) -> "ResolvedExecution":
        """Build the live backend/store once; return the driver view.

        The backend is always built: ``backend=None`` resolves to
        ``"processes"`` when ``workers > 1``, else ``"local"``.
        ``keep_alive=True`` builds backends meant to serve many
        dispatches (a persistent process pool): what
        :func:`repro.scenarios.run_scenario` wants for the rounds and
        points of one run, and :class:`repro.serving.SweepService` for
        every request.  Call ``backend.close()`` when done.  Reuse
        never changes results.
        """
        backend = make_backend(
            self.backend,
            workers=self.workers,
            addresses=list(self.connect) or None,
            keep_alive=keep_alive,
        )
        store = ResultStore(self.store_dir) if self.store_dir else None
        return ResolvedExecution(
            workers=self.workers,
            replications=self.replications,
            engine=self.engine,
            ci_target=self.ci_target,
            max_replications=self.max_replications,
            backend=backend,
            store=store,
        )


@dataclass
class ResolvedExecution:
    """An :class:`ExecutionConfig` with its live objects constructed.

    This is what drivers consume: the scalar knobs plus an instantiated
    :class:`~repro.runtime.backend.Backend` and optional
    :class:`~repro.runtime.store.ResultStore`.  Resolve once per run so
    store hit/miss counters accumulate across every driver call of that
    run.  Built directly, ``backend=None`` gets the default backend of
    ``workers`` from :meth:`executor`.
    """

    workers: int = 1
    replications: int = 1
    engine: str = "vectorized"
    ci_target: float | None = None
    max_replications: int = 64
    backend: Backend | None = None
    store: ResultStore | None = None

    def __post_init__(self) -> None:
        # Built directly (tests, embedders) as well as by resolve(): the
        # scalar knobs get ExecutionConfig's check, the only one.
        ExecutionConfig(
            workers=self.workers,
            replications=self.replications,
            engine=self.engine,
            ci_target=self.ci_target,
            max_replications=self.max_replications,
        )

    def executor(self) -> ParallelExecutor:
        """A :class:`ParallelExecutor` over this config's placement."""
        return ParallelExecutor(workers=self.workers, backend=self.backend)

    @property
    def seed_plan_size(self) -> int:
        """Replications each point's seed plan must cover.

        ``replications`` for a fixed-count run; ``max_replications``
        under ``ci_target``, of which the adaptive controller consumes a
        prefix.
        """
        if self.ci_target is None:
            return self.replications
        return self.max_replications


def as_resolved(
    exec_cfg: ExecutionConfig | ResolvedExecution | None,
) -> ResolvedExecution:
    """The driver view of ``exec_cfg``; ``None`` means the defaults.

    An :class:`ExecutionConfig` is resolved here (building its backend
    and store); a :class:`ResolvedExecution` passes through unchanged,
    so one resolve can serve every driver call of a run.
    """
    if exec_cfg is None:
        return ResolvedExecution()
    if isinstance(exec_cfg, ResolvedExecution):
        return exec_cfg
    if isinstance(exec_cfg, ExecutionConfig):
        return exec_cfg.resolve()
    raise TypeError(
        "exec_cfg must be an ExecutionConfig or ResolvedExecution, "
        f"got {type(exec_cfg).__name__}"
    )
