"""The bit-identity invariant matrix, extended to dynamic topologies.

The static network layer already guarantees that every ``workers`` /
backend combination reproduces the serial run exactly.  Churn and
bursty traffic must not loosen that by one bit: the schedule is drawn
in the parent, so a churn run is the same pure function of
``(topology, horizon, seed, base_rate)`` no matter how the node set is
distributed.  This suite replays the workers / backend invariant
matrix on a churning, bursty cluster tree, pins the warm/cold store
equivalence of the new task tuples, and runs the 1000-node gallery
scenario end-to-end through both ``scenario run`` and the serving API.
"""

import io
import threading
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.models.network import NetworkResult, SensorNetworkModel
from repro.models.wsn_node import NodeParameters
from repro.runtime import ExecutionConfig
from repro.runtime.remote import SocketBackend, serve_worker
from repro.runtime.store import ResultStore
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serving import SweepService
from repro.topology import (
    ChurnModel,
    ClusterTreeTopology,
    MMPPTraffic,
    RandomGeometricTopology,
)
from repro.runtime.config import ResolvedExecution
from tests.models.test_network import drop_fold_entries

CHURN = ChurnModel(failure_rate=0.05, duty_spread=0.3)
BURSTY = MMPPTraffic(burst_on_s=2.0, burst_off_s=6.0)
RUN = dict(horizon=10.0, seed=7, base_rate=0.5)


def dynamic_network(topology=None):
    return SensorNetworkModel(
        topology if topology is not None else ClusterTreeTopology(2, 2),
        NodeParameters(power_down_threshold=0.01),
        dynamics=CHURN,
        traffic=BURSTY,
    )


@pytest.fixture(scope="module")
def serial():
    """The ground truth every distributed spelling must reproduce."""
    return dynamic_network().simulate(**RUN)


@pytest.fixture(scope="module")
def socket_port():
    """One in-process socket worker shared by the whole module."""
    ready = threading.Event()
    ports = []

    def announce(line):
        ports.append(int(line.rsplit(":", 1)[1]))
        ready.set()

    threading.Thread(
        target=serve_worker,
        args=(0,),
        kwargs={"max_sessions": None, "announce": announce},
        daemon=True,
    ).start()
    assert ready.wait(10), "worker never announced its port"
    return ports[0]


class TestChurnBitIdentity:
    def test_churn_run_actually_churns(self, serial):
        # Guard against vacuous identity: the matrix below only means
        # something if this configuration exercises the dynamic path.
        assert serial.dynamics is not None
        assert serial.dynamics.failures > 0

    def test_process_workers_match_serial(self, serial):
        parallel = dynamic_network().simulate(
            **RUN, exec_cfg=ExecutionConfig(workers=2)
        )
        assert parallel == serial

    def test_socket_backend_matches_serial(self, serial, socket_port):
        remote = dynamic_network().simulate(
            **RUN,
            exec_cfg=ResolvedExecution(
                backend=SocketBackend([f"127.0.0.1:{socket_port}"])
            ),
        )
        assert remote == serial

    def test_geometric_topology_shards_identically(self):
        net = dynamic_network(RandomGeometricTopology(30, seed=5))
        reference = net.simulate(horizon=5.0, seed=3, base_rate=0.2)
        parallel = net.simulate(
            horizon=5.0, seed=3, base_rate=0.2, exec_cfg=ExecutionConfig(workers=2)
        )
        assert parallel == reference

    def test_warm_store_matches_cold(self, tmp_path, serial):
        # The worker count never enters a key: a serial cold run warms
        # every entry a two-worker run reads.
        store = ResultStore(tmp_path)
        cold = dynamic_network().simulate(
            **RUN, exec_cfg=ResolvedExecution(store=store)
        )
        assert cold == serial
        assert (store.misses, store.puts) == (1, 1), "one fold entry written"
        two_workers = ResolvedExecution(workers=2, store=store)
        store.hits = store.misses = 0
        assert dynamic_network().simulate(**RUN, exec_cfg=two_workers) == serial
        assert (store.hits, store.misses) == (1, 0), "one fold entry read"
        assert drop_fold_entries(store) == 1
        store.hits = store.misses = store.puts = 0
        warm = dynamic_network().simulate(**RUN, exec_cfg=two_workers)
        assert warm == serial
        assert (store.hits, store.misses, store.puts) == (0, 1, 1), (
            "without its fold entry the run recomputes and writes it back"
        )

    def test_failed_nodes_lifetime_clipped(self, serial):
        sched = CHURN.schedule(ClusterTreeTopology(2, 2), 0.5, 10.0, seed=7)
        for node in serial.nodes:
            t_fail = sched.failure_time(node.node_id - 1)
            if t_fail is not None:
                assert node.lifetime_days <= t_fail / 86400.0 + 1e-12


class TestLegacyPathUntouched:
    def test_inert_dynamics_normalised_away(self):
        topo = ClusterTreeTopology(2, 2)
        params = NodeParameters(power_down_threshold=0.01)
        inert = SensorNetworkModel(topo, params, dynamics=ChurnModel())
        assert inert.dynamics is None
        plain = SensorNetworkModel(topo, params)
        assert inert.simulate(**RUN) == plain.simulate(**RUN)

    def test_static_runs_carry_no_churn_report(self):
        topo = ClusterTreeTopology(2, 2)
        result = SensorNetworkModel(
            topo, NodeParameters(power_down_threshold=0.01)
        ).simulate(**RUN)
        assert result.dynamics is None

    def test_bursty_without_churn_shards_identically(self):
        # Traffic-only runs use the legacy single-segment task path
        # (with MMPP workloads substituted) and must still split over
        # workers exactly.
        net = SensorNetworkModel(
            ClusterTreeTopology(2, 2),
            NodeParameters(power_down_threshold=0.01),
            traffic=BURSTY,
        )
        reference = net.simulate(**RUN)
        assert reference.dynamics is None
        parallel = net.simulate(**RUN, exec_cfg=ExecutionConfig(workers=2))
        assert parallel == reference

    def test_merge_never_invents_a_report(self, serial):
        shard_like = NetworkResult(
            topology=serial.topology,
            power_down_threshold=serial.power_down_threshold,
            horizon_s=serial.horizon_s,
            nodes=serial.nodes[:3],
        )
        other = NetworkResult(
            topology=serial.topology,
            power_down_threshold=serial.power_down_threshold,
            horizon_s=serial.horizon_s,
            nodes=serial.nodes[3:],
        )
        assert NetworkResult.merge([shard_like, other]).dynamics is None


GEO1000_SMOKE = {
    "version": 2,
    "name": "geo1000-serving-test",
    "model": "network",
    "params": {
        "topology": "geometric",
        "nodes": 1000,
        "threshold": 0.01,
        "sweep": False,
        "horizon": 2.0,
        "base_rate": 0.1,
        "seed": 2010,
    },
    "execution": {"workers": 2},
}


class TestThousandNodeEndToEnd:
    @pytest.fixture(scope="class")
    def reference(self):
        """``scenario run`` ground truth for the smoke-scale geo1000."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run_scenario(ScenarioSpec.from_dict(GEO1000_SMOKE))
        assert code == 0
        return buf.getvalue()

    def test_scenario_run_covers_all_nodes(self, reference):
        assert "1000" in reference
        assert "random geometric" in reference

    def test_serving_api_matches_scenario_run(self, tmp_path, reference):
        with SweepService(
            ExecutionConfig(store_dir=tmp_path / "store"),
            progress_interval=0.0,
        ) as service:
            job = service.run({"scenario": GEO1000_SMOKE}, timeout=600)
            assert job.state == "done"
            assert job.result["output"] == reference

    def test_gallery_file_smoke_runs(self, capsys):
        gallery = __file__.rsplit("/tests/", 1)[0] + "/scenarios"
        pytest.importorskip("yaml", reason="gallery scenarios are YAML")
        assert main(["scenario", "run", f"{gallery}/churn_tree.yaml", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "churn" in out
