"""Tests for the network-scenario experiment driver."""

import pytest

import repro.models.network as network_module
import repro.runtime.adaptive as adaptive
from repro.experiments import (
    NETWORK_THRESHOLDS,
    NetworkScenarioConfig,
    format_network_summary,
    make_topology,
    run_network_lifetime_sweep,
    run_network_scenario,
)
from repro.models import GridTopology, LineTopology, StarTopology
from repro.runtime.config import ExecutionConfig, ResolvedExecution
from repro.runtime.store import ResultStore
from tests.models.test_network import drop_fold_entries


class TestMakeTopology:
    def test_kinds(self):
        assert make_topology("line", nodes=4) == LineTopology(4)
        assert make_topology("star", nodes=3) == StarTopology(3)
        assert make_topology("grid", width=4, height=2) == GridTopology(4, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_topology("ring")


class TestConfig:
    def test_defaults(self):
        cfg = NetworkScenarioConfig()
        assert cfg.topology == LineTopology(5)
        assert cfg.thresholds == NETWORK_THRESHOLDS

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkScenarioConfig(horizon=0.0)
        with pytest.raises(ValueError):
            NetworkScenarioConfig(base_rate=0.0)
        with pytest.raises(ValueError):
            NetworkScenarioConfig(thresholds=())


class TestRunScenario:
    def config(self, topology=None):
        return NetworkScenarioConfig(
            topology=topology if topology is not None else LineTopology(3),
            horizon=10.0,
            base_rate=0.5,
            seed=11,
        )

    def test_single_run_summary(self):
        result = run_network_scenario(self.config(), exec_cfg=ExecutionConfig(workers=2))
        assert len(result.nodes) == 3
        text = format_network_summary(result)
        assert "network lifetime" in text
        assert "first death: node 1" in text

    def test_threshold_override(self):
        result = run_network_scenario(self.config(), threshold=0.5)
        assert result.power_down_threshold == 0.5

    def test_shards_do_not_change_results(self):
        # However the node tasks are chunked over workers, the numbers
        # stay those of the serial run.
        serial = run_network_scenario(self.config())
        parallel = run_network_scenario(
            self.config(), exec_cfg=ExecutionConfig(workers=2)
        )
        assert parallel == serial

    def test_vectorized_engine_matches_interpreted(self):
        # Network nodes run as one lockstep ensemble under the
        # vectorized engine, with the interpreted engine's numbers.
        cfg = NetworkScenarioConfig(
            topology=GridTopology(3, 3), horizon=10.0, base_rate=0.5, seed=11
        )
        for run in (run_network_scenario, run_network_lifetime_sweep):
            assert run(
                cfg, exec_cfg=ExecutionConfig(engine="vectorized")
            ) == run(cfg, exec_cfg=ExecutionConfig(engine="interpreted"))


class TestRunSweep:
    def test_sweep_shape_and_best(self):
        cfg = NetworkScenarioConfig(
            topology=LineTopology(3),
            horizon=10.0,
            base_rate=0.5,
            seed=11,
            thresholds=(1e-9, 0.01, 100.0),
        )
        sweep = run_network_lifetime_sweep(cfg, exec_cfg=ExecutionConfig(workers=2))
        assert sweep.thresholds == (1e-9, 0.01, 100.0)
        assert len(sweep.results) == 3
        assert len(sweep.rows()) == 3
        assert sweep.best() in sweep.results
        assert sweep.best().network_lifetime_days == max(
            sweep.lifetimes_days
        )
        assert sweep.energies_j == [
            r.total_energy_j for r in sweep.results
        ]


class TestAdaptiveReplication:
    """ci_target network runs: replication 0 stays bit-identical and
    worker settings never change adaptive decisions."""

    CFG = NetworkScenarioConfig(
        topology=LineTopology(3),
        horizon=5.0,
        thresholds=(1e-9, 1.0),
        seed=9,
    )

    def test_scenario_replication0_bit_identical(self):
        single = run_network_scenario(self.CFG)
        replicated = run_network_scenario(
            self.CFG, exec_cfg=ExecutionConfig(ci_target=0.5, max_replications=4)
        )
        first = replicated.values[0]
        assert first.total_energy_j == single.total_energy_j
        assert [n.energy_j for n in first.nodes] == [
            n.energy_j for n in single.nodes
        ]
        assert 2 <= replicated.replications <= 4
        energy = replicated.interval(lambda r: r.total_energy_j)
        assert energy.batches == replicated.replications

    def test_sweep_adaptive_sharding_invariant(self):
        plain = run_network_lifetime_sweep(
            self.CFG, exec_cfg=ExecutionConfig(ci_target=0.5, max_replications=3)
        )
        parallel = run_network_lifetime_sweep(
            self.CFG,
            exec_cfg=ExecutionConfig(ci_target=0.5, max_replications=3, workers=2),
        )
        assert [
            [r.total_energy_j for r in run.values] for run in plain.runs
        ] == [[r.total_energy_j for r in run.values] for run in parallel.runs]
        assert [run.converged for run in plain.runs] == [
            run.converged for run in parallel.runs
        ]

    def test_sweep_cap_reports_unconverged_points(self):
        sweep = run_network_lifetime_sweep(
            self.CFG, exec_cfg=ExecutionConfig(ci_target=1e-12, max_replications=2)
        )
        assert [run.converged for run in sweep.runs] == [False, False]
        assert [run.replications for run in sweep.runs] == [2, 2]
        assert all(
            run.interval(lambda r: r.total_energy_j).batches == 2
            for run in sweep.runs
        )

    def test_fixed_sweep_has_no_replicates(self):
        sweep = run_network_lifetime_sweep(self.CFG)
        assert [run.replications for run in sweep.runs] == [1, 1]
        assert [run.converged for run in sweep.runs] == [None, None]

    @pytest.mark.parametrize(
        "policy", [{}, {"ci_target": 0.5, "max_replications": 3}]
    )
    def test_failing_run_raises_its_own_error(self, policy):
        # A network run's error (here its backend's) surfaces as
        # raised, under either policy.
        class FailingBackend:
            parallelism = 1

            def map(self, fn, items, chunk_size=None):
                raise KeyError("backend down")

        rx = ResolvedExecution(backend=FailingBackend(), **policy)
        with pytest.raises(KeyError, match="backend down"):
            run_network_scenario(self.CFG, exec_cfg=rx)


class TestOneDispatch:
    """Every network run is one ``run_replications`` call over node tasks."""

    CFG = NetworkScenarioConfig(
        topology=LineTopology(3),
        horizon=5.0,
        thresholds=(1e-9, 0.01, 1.0),
        seed=5,
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        run = adaptive.run_replications

        def counting(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(adaptive, "run_replications", counting)
        return calls

    @pytest.mark.parametrize(
        "policy",
        [{}, {"ci_target": 0.05, "max_replications": 8}],
        ids=["fixed", "adaptive"],
    )
    @pytest.mark.parametrize(
        "run", [run_network_scenario, run_network_lifetime_sweep]
    )
    def test_one_call_per_run(self, calls, run, policy):
        run(self.CFG, exec_cfg=ExecutionConfig(**policy))
        assert len(calls) == 1

    def test_sweep_nodes_share_one_ensemble(self, monkeypatch):
        # 6 thresholds x 5 nodes: 30 node tasks, one lockstep ensemble.
        calls = []
        ensemble = network_module.simulate_node_ensemble_task

        def counting(tasks):
            calls.append(len(tasks))
            return ensemble(tasks)

        monkeypatch.setattr(
            network_module, "simulate_node_ensemble_task", counting
        )
        cfg = NetworkScenarioConfig(topology=LineTopology(5), horizon=5.0)
        sweep = run_network_lifetime_sweep(cfg)
        assert calls == [30]
        assert sweep == run_network_lifetime_sweep(
            cfg, exec_cfg=ExecutionConfig(engine="interpreted")
        )

    def test_scenario_store_serves_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        rx = ResolvedExecution(store=store)
        singles = [
            run_network_scenario(self.CFG, threshold=t, exec_cfg=rx)
            for t in self.CFG.thresholds
        ]
        store.hits = store.misses = 0
        sweep = run_network_lifetime_sweep(self.CFG, exec_cfg=rx)
        assert (store.hits, store.misses) == (3, 0)  # one fold entry a point
        assert sweep.results == singles
        # Without the fold entries the sweep recomputes every point to
        # the same results and writes each point's entry back.
        assert drop_fold_entries(store) == 3
        store.hits = store.misses = store.puts = 0
        sweep = run_network_lifetime_sweep(self.CFG, exec_cfg=rx)
        assert (store.hits, store.misses, store.puts) == (0, 3, 3)
        assert sweep.results == singles


class TestSweepHeader:
    def test_warm_geometric_sweep_resolves_no_layout(self, tmp_path):
        """The report header comes from the folded results: a warm sweep
        never builds the deployment it only describes."""
        from pathlib import Path

        from repro.scenarios import load_scenario, scenario_report
        from repro.topology.generators import _resolve_layout

        gallery = Path(__file__).resolve().parents[2] / "scenarios"
        spec = load_scenario(
            gallery / "geo1000.yaml",
            [
                "params.nodes=40",
                "params.horizon=2.0",
                "execution.workers=1",
                f"execution.store_dir={tmp_path}",
            ],
        )
        rx = spec.execution.resolve()
        _resolve_layout.cache_clear()
        cold = scenario_report(spec, rx)
        assert _resolve_layout.cache_info().currsize == 1
        assert "Network lifetime sweep: random geometric" in cold
        _resolve_layout.cache_clear()
        assert scenario_report(spec, rx) == cold
        assert _resolve_layout.cache_info().currsize == 0
