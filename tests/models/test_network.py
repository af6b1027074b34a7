"""Tests for the multi-node network layer."""

import pickle
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import repro.models.network as network_module
from repro.energy import LinearBattery
from repro.experiments import NetworkScenarioConfig, run_network_lifetime_sweep
from repro.models import (
    GridTopology,
    LineTopology,
    NetworkResult,
    NodeParameters,
    SensorNetworkModel,
    StarTopology,
)
from repro.models.network import replication_key, run_networks
from repro.models.wsn_node import simulate_node_task
from repro.runtime import TaskError
from repro.runtime.config import ExecutionConfig, ResolvedExecution
from repro.runtime.store import ENTRY_MAGIC, ResultStore, StoreWarning, task_key
from repro.topology.dynamics import ChurnModel
from repro.topology.traffic import MMPPTraffic


def drop_fold_entries(store):
    """Delete every folded :class:`NetworkResult` entry of ``store``.

    What is left are the node entries: the store as a run that wrote
    no fold entries would have left it.  Returns how many were dropped.
    """
    header = len(ENTRY_MAGIC) + 32  # magic + SHA-256 of the payload
    dropped = 0
    for path in store._entry_files():
        if isinstance(pickle.loads(path.read_bytes()[header:]), NetworkResult):
            path.unlink()
            dropped += 1
    return dropped


def fail_on_seed_102(task):
    """``simulate_node_task``, except that the node seeded 102 fails."""
    if task[3] == 102:
        raise ValueError("node 3 blew up")
    return simulate_node_task(task)


class TestTopologies:
    def test_line_rates_gradient(self):
        rates = LineTopology(4).effective_rates(0.5)
        assert rates == [2.0, 1.5, 1.0, 0.5]

    def test_star_rates(self):
        topo = StarTopology(3)
        assert topo.n_nodes == 4
        assert topo.effective_rates(1.0) == [4.0, 1.0, 1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            LineTopology(0)
        with pytest.raises(ValueError):
            StarTopology(0)
        with pytest.raises(ValueError):
            LineTopology(2).effective_rates(0.0)

    def test_describe(self):
        assert "line" in LineTopology(3).describe()
        assert "star" in StarTopology(2).describe()
        assert "grid" in GridTopology(3, 2).describe()


class TestGridTopology:
    def test_node_count_and_positions(self):
        topo = GridTopology(4, 3)
        assert topo.n_nodes == 12
        assert topo.position(0) == (0, 0)
        assert topo.position(3) == (1, 0)
        assert topo.position(11) == (3, 2)
        with pytest.raises(ValueError):
            topo.position(12)

    def test_corner_node_carries_everything(self):
        topo = GridTopology(5, 4)
        rates = topo.effective_rates(1.0)
        # node (0, 0) drains the whole 20-node deployment
        assert rates[0] == 20.0
        assert max(rates) == rates[0]

    def test_column_then_row_tree_conserves_traffic(self):
        # Each sink-row node drains its own column plus all columns
        # beyond it; interior nodes drain the rest of their column.
        topo = GridTopology(3, 3)
        rates = topo.effective_rates(1.0)
        # columns are [x*3 .. x*3+2]; sink row is indices 0, 3, 6
        assert [rates[i] for i in (0, 3, 6)] == [9.0, 6.0, 3.0]
        assert [rates[i] for i in (1, 2)] == [2.0, 1.0]
        # every node's inflow equals the sum of its children plus itself
        assert rates[0] == 1 + rates[1] + rates[3]
        assert rates[3] == 1 + rates[4] + rates[6]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridTopology(0, 3)
        with pytest.raises(ValueError):
            GridTopology(3, 0)
        with pytest.raises(ValueError):
            GridTopology(2, 2).effective_rates(0.0)


class TestNetworkSimulation:
    def network(self, n=3, pdt=0.01):
        return SensorNetworkModel(
            LineTopology(n),
            NodeParameters(power_down_threshold=pdt),
            LinearBattery(1000.0, 4.5, usable_fraction=0.85),
        )

    def test_result_shape(self):
        r = self.network().simulate(horizon=60.0, seed=1, base_rate=0.5)
        assert len(r.nodes) == 3
        assert r.total_energy_j == pytest.approx(
            sum(n.energy_j for n in r.nodes)
        )
        assert r.power_down_threshold == 0.01

    def test_hotspot_is_sink_adjacent(self):
        r = self.network().simulate(horizon=120.0, seed=1, base_rate=0.5)
        # node 1 relays everyone: most events, most energy, dies first
        assert r.hotspot.node_id == 1
        assert r.nodes[0].events_completed > r.nodes[-1].events_completed
        assert r.nodes[0].energy_j > r.nodes[-1].energy_j

    def test_network_lifetime_is_min(self):
        r = self.network().simulate(horizon=120.0, seed=1, base_rate=0.5)
        assert r.network_lifetime_days == min(
            n.lifetime_days for n in r.nodes
        )
        assert r.network_lifetime_days == r.hotspot.lifetime_days

    def test_lifetime_imbalance_above_one(self):
        r = self.network().simulate(horizon=120.0, seed=1, base_rate=0.5)
        assert r.lifetime_imbalance() > 1.0

    def test_star_hub_is_hotspot(self):
        net = SensorNetworkModel(
            StarTopology(3), NodeParameters(power_down_threshold=0.01)
        )
        r = net.simulate(horizon=120.0, seed=2, base_rate=0.5)
        assert r.hotspot.node_id == 1

    def test_threshold_sweep(self):
        net = self.network()
        results = run_network_lifetime_sweep(
            NetworkScenarioConfig(
                topology=net.topology,
                horizon=60.0,
                base_rate=0.5,
                seed=3,
                thresholds=(1e-9, 0.01, 100.0),
                params=net.params,
                battery=net.battery,
            )
        ).results
        assert len(results) == 3
        lifetimes = [r.network_lifetime_days for r in results]
        # interior threshold beats both extremes (the Fig. 14 U-shape
        # carries over to the network metric)
        assert lifetimes[1] > lifetimes[0]
        assert lifetimes[1] > lifetimes[2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SensorNetworkModel(LineTopology(2), workload="bogus")
        with pytest.raises(ValueError):
            self.network().simulate(horizon=0.0)

    def test_reproducible(self):
        a = self.network().simulate(horizon=60.0, seed=5, base_rate=0.5)
        b = self.network().simulate(horizon=60.0, seed=5, base_rate=0.5)
        assert a.total_energy_j == pytest.approx(b.total_energy_j)


class TestNetworkResultMerge:
    def run_parts(self, n=4, horizon=30.0):
        """One serial run plus the same run split into per-node parts."""
        net = SensorNetworkModel(
            LineTopology(n), NodeParameters(power_down_threshold=0.01)
        )
        whole = net.simulate(horizon=horizon, seed=2, base_rate=0.5)
        parts = [
            NetworkResult(
                topology=whole.topology,
                power_down_threshold=whole.power_down_threshold,
                horizon_s=whole.horizon_s,
                nodes=[node],
            )
            for node in whole.nodes
        ]
        return whole, parts

    def test_merge_recovers_whole(self):
        whole, parts = self.run_parts()
        assert NetworkResult.merge(parts) == whole
        # order independence
        assert NetworkResult.merge(parts[::-1]) == whole

    def test_merge_associative(self):
        whole, parts = self.run_parts()
        left = NetworkResult.merge(
            [NetworkResult.merge(parts[:2]), NetworkResult.merge(parts[2:])]
        )
        right = NetworkResult.merge(
            [parts[0], NetworkResult.merge(parts[1:])]
        )
        assert left == right == NetworkResult.merge(parts)

    def test_merged_aggregates_decompose_over_shards(self):
        whole, parts = self.run_parts()
        merged = NetworkResult.merge(parts)
        assert merged.total_energy_j == pytest.approx(
            sum(p.total_energy_j for p in parts)
        )
        assert merged.network_lifetime_days == min(
            p.network_lifetime_days for p in parts
        )
        assert merged.hotspot == min(
            (p.hotspot for p in parts), key=lambda n: n.lifetime_days
        )

    def test_merge_validation(self):
        whole, parts = self.run_parts()
        with pytest.raises(ValueError):
            NetworkResult.merge([])
        with pytest.raises(ValueError):
            NetworkResult.merge([parts[0], parts[0]])  # duplicate node id
        mismatched = NetworkResult(
            topology=parts[0].topology,
            power_down_threshold=0.5,
            horizon_s=parts[0].horizon_s,
            nodes=parts[1].nodes,
        )
        with pytest.raises(ValueError):
            NetworkResult.merge([parts[0], mismatched])


class TestShardedSimulation:
    """The node set split into executor chunks over several workers."""

    def network(self, topology):
        return SensorNetworkModel(
            topology, NodeParameters(power_down_threshold=0.01)
        )

    def test_shards_bit_identical_to_serial(self):
        # Every worker count, and so every chunking of the node tasks,
        # must reproduce the serial run exactly.
        net = self.network(LineTopology(5))
        serial = net.simulate(horizon=20.0, seed=7, base_rate=0.5)
        for workers in (2, 3):
            parallel = net.simulate(
                horizon=20.0,
                seed=7,
                base_rate=0.5,
                exec_cfg=ExecutionConfig(workers=workers),
            )
            assert parallel == serial

    def test_sweep_thresholds_sharded(self):
        cfg = NetworkScenarioConfig(
            topology=LineTopology(3),
            horizon=10.0,
            base_rate=0.5,
            seed=4,
            thresholds=(1e-9, 0.01),
        )
        serial = run_network_lifetime_sweep(cfg)
        parallel = run_network_lifetime_sweep(
            cfg, exec_cfg=ExecutionConfig(workers=2)
        )
        assert parallel == serial

    def test_hundred_node_grid_through_sharded_path(self):
        # A >= 100-node grid completes on a process pool, in node order,
        # and its total energy is the sum over its nodes.
        net = self.network(GridTopology(10, 10))
        result = net.simulate(
            horizon=40.0, seed=1, base_rate=0.004, exec_cfg=ExecutionConfig(workers=2)
        )
        assert len(result.nodes) == 100
        assert [n.node_id for n in result.nodes] == list(range(1, 101))
        assert result.total_energy_j == pytest.approx(
            sum(n.energy_j for n in result.nodes)
        )
        # energy-hole structure: the sink-adjacent corner relays all
        # 100 nodes' traffic
        assert result.nodes[0].event_rate == pytest.approx(0.4)
        assert result.hotspot.node_id == 1


class TestNodeDispatch:
    """Each node is one task of the runtime's one dispatch."""

    PARAMS = NodeParameters(power_down_threshold=0.01)
    RUN = dict(horizon=5.0, seed=100, base_rate=0.5)

    def network(self):
        return SensorNetworkModel(LineTopology(5), self.PARAMS)

    def node_task(self, i):
        rate = LineTopology(5).effective_rates(self.RUN["base_rate"])[i]
        return (
            replace(self.PARAMS, arrival_rate=rate),
            "open",
            self.RUN["horizon"],
            self.RUN["seed"] + i,
        )

    def test_partially_warm_store_computes_only_the_missing_nodes(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in (0, 2, 4):
            task = self.node_task(i)
            store.put(task_key(simulate_node_task, task), simulate_node_task(task))
        store.puts = 0
        warm = self.network().simulate(
            **self.RUN, exec_cfg=ResolvedExecution(store=store)
        )
        # The store holds node entries only: its fold entry misses,
        # three nodes hit and the two others are computed and written.
        assert store.hits == 3
        assert (store.misses, store.puts) == (2 + 1, 2 + 1)
        assert store.contains(replication_key(self.network(), **self.RUN))
        assert warm == self.network().simulate(**self.RUN)

    @pytest.mark.parametrize(
        "dynamics, traffic",
        [
            (None, None),
            (None, MMPPTraffic(2.0, 3.0, 0.2)),
            (ChurnModel(failure_rate=0.05, duty_spread=0.3), MMPPTraffic(2.0, 3.0)),
        ],
        ids=["static", "bursty", "churn"],
    )
    def test_interpreted_store_serves_a_vectorized_run(
        self, tmp_path, dynamics, traffic
    ):
        # Node keys do not depend on the engine: a store filled by the
        # interpreted engine serves a lockstep run without one miss.
        net = SensorNetworkModel(
            GridTopology(3, 3), self.PARAMS, dynamics=dynamics, traffic=traffic
        )
        store = ResultStore(tmp_path)
        cold = net.simulate(
            **self.RUN, exec_cfg=ResolvedExecution(store=store, engine="interpreted")
        )
        vectorized = ResolvedExecution(store=store, engine="vectorized")
        store.hits = store.misses = 0
        assert net.simulate(**self.RUN, exec_cfg=vectorized) == cold
        assert (store.hits, store.misses) == (1, 0)  # the fold entry
        # Without the fold entry every node entry serves the lockstep
        # run; the one miss is the dropped fold entry.
        assert drop_fold_entries(store) == 1
        store.hits = store.misses = 0
        warm = net.simulate(**self.RUN, exec_cfg=vectorized)
        assert (store.hits, store.misses) == (9, 1)
        assert warm == cold

    def test_each_distinct_rate_builds_its_parameters_once(
        self, tmp_path, monkeypatch
    ):
        built = []

        def counting_replace(obj, **changes):
            if isinstance(obj, NodeParameters):
                built.append(changes["arrival_rate"])
            return replace(obj, **changes)

        monkeypatch.setattr(network_module, "replace", counting_replace)
        topology = GridTopology(10, 10)
        store = ResultStore(tmp_path)
        SensorNetworkModel(topology, self.PARAMS).simulate(
            horizon=1.0, seed=1, base_rate=0.5,
            exec_cfg=ResolvedExecution(store=store),
        )
        rates = topology.effective_rates(0.5)
        assert sorted(built) == sorted(set(rates))
        assert len(built) == 19
        # The shared parameter sets key exactly as per-node ones would.
        for i, rate in enumerate(rates):
            task = (replace(self.PARAMS, arrival_rate=rate), "open", 1.0, 1 + i)
            assert store.contains(task_key(simulate_node_task, task))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_node_raises_task_error_with_its_task(
        self, monkeypatch, workers
    ):
        monkeypatch.setattr(network_module, "simulate_node_task", fail_on_seed_102)
        with pytest.raises(TaskError) as excinfo:
            self.network().simulate(
                **self.RUN, exec_cfg=ExecutionConfig(workers=workers)
            )
        assert excinfo.value.item == self.node_task(2)
        assert excinfo.value.index == 2


class TestFoldEntries:
    """A network replication's folded result is one store entry."""

    PARAMS = NodeParameters(power_down_threshold=0.01)
    RUN = dict(horizon=5.0, seed=100, base_rate=0.5)

    def network(self, **kwargs):
        return SensorNetworkModel(GridTopology(3, 2), self.PARAMS, **kwargs)

    def test_fold_key_is_none_of_the_node_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        net = self.network()
        net.simulate(**self.RUN, exec_cfg=ResolvedExecution(store=store))
        tasks, _fold = net._node_run(
            self.RUN["horizon"], self.RUN["seed"], self.RUN["base_rate"]
        )
        node_keys = {task_key(simulate_node_task, task) for task in tasks}
        fold = replication_key(net, **self.RUN)
        assert fold not in node_keys
        assert {p.name for p in store._entry_files()} == node_keys | {fold}

    def test_battery_change_misses_the_fold_entry_and_reuses_nodes(self, tmp_path):
        # The battery reaches only the fold, so node keys never see it;
        # the fold key must, or a warm run would serve stale lifetimes.
        store = ResultStore(tmp_path)
        rx = ResolvedExecution(store=store)
        self.network().simulate(**self.RUN, exec_cfg=rx)
        small = LinearBattery(capacity_mah=100.0, voltage_v=3.0)
        store.hits = store.misses = 0
        warm = self.network(battery=small).simulate(**self.RUN, exec_cfg=rx)
        assert (store.hits, store.misses) == (6, 1)
        assert warm == self.network(battery=small).simulate(**self.RUN)
        assert warm != self.network().simulate(**self.RUN)

    def test_corrupt_fold_entry_falls_back_to_node_entries_and_heals(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        rx = ResolvedExecution(store=store)
        cold = self.network().simulate(**self.RUN, exec_cfg=rx)
        entry = Path(store._entry_file(replication_key(self.network(), **self.RUN)))
        entry.write_bytes(entry.read_bytes()[:-5])
        store.hits = store.misses = store.puts = 0
        with pytest.warns(StoreWarning, match="recomputing"):
            warm = self.network().simulate(**self.RUN, exec_cfg=rx)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        assert (store.hits, store.corrupt, store.puts) == (6, 1, 1)
        store.hits = store.misses = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreWarning)
            assert self.network().simulate(**self.RUN, exec_cfg=rx) == cold
        assert (store.hits, store.misses) == (1, 0)

    def test_node_only_store_serves_identical_bytes_then_gains_fold_entries(
        self, tmp_path
    ):
        # A store filled before fold entries existed holds node entries
        # only: it serves every node, and gains one fold entry for each
        # replication.
        store = ResultStore(tmp_path)
        rx = ResolvedExecution(store=store, max_replications=3)
        every = dict(ci_target=1e-12)  # never converges: all 3 replications
        [cold] = run_networks([self.network()], 5.0, 0.5, 100, rx, **every)
        assert drop_fold_entries(store) == 3
        entries = len(store._entry_files())
        store.hits = store.misses = store.puts = 0
        [warm] = run_networks([self.network()], 5.0, 0.5, 100, rx, **every)
        assert pickle.dumps(warm.values) == pickle.dumps(cold.values)
        assert (store.hits, store.misses, store.puts) == (3 * 6, 3, 3)
        assert len(store._entry_files()) == entries + 3

    @pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
    def test_adaptive_run_is_a_prefix_of_the_fixed_run(self, tmp_path, stored):
        store = ResultStore(tmp_path) if stored else None
        rx = ResolvedExecution(store=store, max_replications=6)
        net = self.network()
        [adaptive] = run_networks([net], 5.0, 0.5, 100, rx, ci_target=0.25)
        [fixed] = run_networks([net], 5.0, 0.5, 100, rx, ci_target=1e-12)
        assert fixed.replications == 6
        assert 2 <= adaptive.replications < 6
        assert fixed.values[: adaptive.replications] == adaptive.values
        if stored:
            # The fixed run read the adaptive run's fold entries, and a
            # warm adaptive run reads its own back.
            store.hits = store.misses = 0
            [again] = run_networks([net], 5.0, 0.5, 100, rx, ci_target=0.25)
            assert again.values == adaptive.values
            assert (store.hits, store.misses) == (adaptive.replications, 0)
        assert fixed.values == run_networks(
            [net], 5.0, 0.5, 100, ResolvedExecution(max_replications=6),
            ci_target=1e-12,
        )[0].values

    def test_warm_geo1000_smoke_is_one_store_read(self, tmp_path, monkeypatch):
        from repro.scenarios.runner import scenario_report
        from repro.scenarios.spec import load_scenario

        gallery = Path(__file__).resolve().parents[2] / "scenarios"
        spec = load_scenario(
            gallery / "geo1000.yaml", ["execution.workers=1"], smoke=True
        )
        rx = spec.execution.with_overrides(store_dir=str(tmp_path)).resolve()
        cold = scenario_report(spec, rx)
        reads = []
        get = ResultStore.get

        def counting_get(store, key):
            reads.append(key)
            return get(store, key)

        monkeypatch.setattr(ResultStore, "get", counting_get)
        assert scenario_report(spec, rx) == cold
        assert len(reads) == 1
