"""Tests for the ExecutionConfig seam (repro.runtime.config)."""

import pytest

from repro.runtime.backend import ProcessPoolBackend, SerialBackend
from repro.runtime.config import (
    ExecutionConfig,
    ResolvedExecution,
    as_resolved,
)
from repro.runtime.executor import ParallelExecutor
from repro.runtime.store import ResultStore


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ExecutionConfig()
        assert cfg.workers == 1
        assert cfg.engine == "vectorized"
        assert ResolvedExecution().engine == "vectorized"
        assert cfg.backend is None
        assert cfg.store_dir is None

    @pytest.mark.parametrize(
        "field", ["workers", "replications", "max_replications"]
    )
    def test_positive_int_fields_name_the_field(self, field):
        for bad in (0, -1, 1.5, "2", True):
            with pytest.raises(ValueError, match=field):
                ExecutionConfig(**{field: bad})

    @pytest.mark.parametrize(
        ("field", "bad"),
        [
            ("engine", "turbo"),
            ("backend", "quantum"),
        ],
    )
    def test_choice_fields_name_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: bad})

    def test_bare_string_connect_rejected(self):
        # A bare string would silently iterate per character.
        with pytest.raises(ValueError, match="connect"):
            ExecutionConfig(backend="socket", connect="host:9000")

    def test_connect_requires_socket_backend(self):
        with pytest.raises(ValueError, match="connect"):
            ExecutionConfig(backend="processes", connect=("h:1",))

    def test_socket_backend_requires_connect(self):
        with pytest.raises(ValueError, match="socket"):
            ExecutionConfig(backend="socket")

    def test_malformed_connect_address_rejected(self):
        # The address format is part of the one check, not the CLI's.
        with pytest.raises(ValueError, match="connect entry 'nonsense'"):
            ExecutionConfig(backend="socket", connect=("nonsense",))
        with pytest.raises(ValueError, match="port must be in 1..65535"):
            ExecutionConfig(backend="socket", connect=("host:99999",))

    def test_list_connect_coerced_to_tuple(self):
        cfg = ExecutionConfig(backend="socket", connect=["h:1", "h:2"])
        assert cfg.connect == ("h:1", "h:2")

    def test_ci_target_must_be_positive(self):
        with pytest.raises(ValueError, match="ci_target"):
            ExecutionConfig(ci_target=0.0)
        with pytest.raises(ValueError, match="ci_target"):
            ExecutionConfig(ci_target=True)
        # NaN never meets the stopping rule: every point would run to
        # max_replications.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="ci_target"):
                ExecutionConfig(ci_target=bad)

    def test_min_replications_is_an_unknown_key(self):
        # ``replications`` is the adaptive floor; the old second
        # spelling of it fails loudly instead of being dropped.
        with pytest.raises(ValueError, match="'min_replications'"):
            ExecutionConfig.from_dict({"min_replications": 3})

    def test_replication_floor_above_cap_rejected_under_ci_target(self):
        with pytest.raises(ValueError, match="max_replications"):
            ExecutionConfig(ci_target=0.1, replications=65)
        # The adaptive floor is at least 2, whatever replications says.
        with pytest.raises(ValueError, match="max_replications"):
            ExecutionConfig(ci_target=0.1, max_replications=1)
        # Without adaptive control the same counts are fine.
        ExecutionConfig(replications=65)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionConfig().workers = 4


class TestSerialisation:
    def test_round_trip(self):
        cfg = ExecutionConfig(
            workers=4,
            replications=8,
            backend="socket",
            connect=("a:1", "b:2"),
            engine="vectorized",
            store_dir="/tmp/s",
            ci_target=0.05,
        )
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_json_plain(self):
        import json

        data = ExecutionConfig(backend="socket", connect=("a:1",)).to_dict()
        assert data["connect"] == ["a:1"]
        json.dumps(data)  # must not raise

    def test_from_dict_unknown_key_named(self):
        with pytest.raises(ValueError, match="turbo_mode"):
            ExecutionConfig.from_dict({"turbo_mode": True})

    def test_with_overrides_revalidates(self):
        cfg = ExecutionConfig(workers=2)
        assert cfg.with_overrides(workers=4).workers == 4
        with pytest.raises(ValueError, match="workers"):
            cfg.with_overrides(workers=0)


class TestResolve:
    def test_default_resolves_to_no_backend_no_store(self):
        rx = ExecutionConfig().resolve()
        assert isinstance(rx, ResolvedExecution)
        assert isinstance(rx.backend, SerialBackend)
        assert rx.store is None

    def test_backend_and_store_constructed(self, tmp_path):
        rx = ExecutionConfig(
            backend="processes", workers=2, store_dir=str(tmp_path)
        ).resolve()
        assert isinstance(rx.backend, ProcessPoolBackend)
        assert isinstance(rx.store, ResultStore)

    def test_local_backend(self):
        rx = ExecutionConfig(backend="local").resolve()
        assert isinstance(rx.backend, SerialBackend)

    def test_executor_carries_placement(self):
        rx = ExecutionConfig(backend="local", workers=2).resolve()
        executor = rx.executor()
        assert isinstance(executor, ParallelExecutor)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]


class TestAsResolved:
    def test_none_is_the_defaults(self):
        assert as_resolved(None) == ResolvedExecution()

    def test_resolved_view_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            ResolvedExecution(engine="gpu")

    def test_exec_cfg_resolved(self):
        rx = as_resolved(ExecutionConfig(workers=2))
        assert isinstance(rx, ResolvedExecution)
        assert rx.workers == 2

    def test_resolved_passthrough(self):
        rx = ResolvedExecution(workers=7)
        assert as_resolved(rx) is rx

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="ExecutionConfig"):
            as_resolved({"workers": 2})

    def test_seed_plan_size_follows_the_policy(self):
        assert ResolvedExecution(replications=3).seed_plan_size == 3
        adaptive = ResolvedExecution(
            replications=3, ci_target=0.1, max_replications=9
        )
        assert adaptive.seed_plan_size == 9


class TestDriversAcceptExecCfg:
    """A config and its resolved view are the same execution settings."""

    def test_node_sweep_equivalence(self):
        from repro.experiments import NodeSweepConfig, run_node_energy_sweep

        cfg = NodeSweepConfig(horizon=2.0, seed=5)
        config = ExecutionConfig(replications=2)
        direct = run_node_energy_sweep(cfg, exec_cfg=config)
        resolved = run_node_energy_sweep(cfg, exec_cfg=config.resolve())
        assert resolved.breakdowns == direct.breakdowns
        assert resolved.replicates == direct.replicates

    def test_network_equivalence(self):
        from repro.experiments import (
            NetworkScenarioConfig,
            run_network_scenario,
        )
        from repro.models import LineTopology

        cfg = NetworkScenarioConfig(
            topology=LineTopology(3), horizon=5.0, seed=5
        )
        config = ExecutionConfig(workers=2)
        direct = run_network_scenario(cfg, exec_cfg=config)
        resolved = run_network_scenario(cfg, exec_cfg=config.resolve())
        assert resolved == direct

    def test_mixing_styles_rejected(self):
        # exec_cfg is the only way to pass execution settings.
        from repro.experiments import NodeSweepConfig, run_node_energy_sweep

        with pytest.raises(TypeError, match="replications"):
            run_node_energy_sweep(
                NodeSweepConfig(horizon=2.0),
                replications=2,
                exec_cfg=ExecutionConfig(),
            )


def _square(x):
    return x * x
