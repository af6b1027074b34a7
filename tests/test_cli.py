"""Tests for the command-line interface (fast paths only)."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figures" in out
        assert "validate" in out

    def test_fig7_short(self, capsys):
        assert main(["fig", "7", "--horizon", "60"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "Simulation (J)" in out

    def test_fig4_short(self, capsys):
        assert main(["fig", "4", "--horizon", "60"]) == 0
        out = capsys.readouterr().out
        assert "simulation" in out
        assert "markov" in out
        assert "petri" in out

    def test_table5_short(self, capsys):
        assert main(["table", "5", "--horizon", "60"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "RMSE" in out

    def test_node_sweep_short(self, capsys):
        assert main(["node-sweep", "--horizon", "30"]) == 0
        out = capsys.readouterr().out
        assert "optimum Power_Down_Threshold" in out

    def test_lifetime(self, capsys):
        assert (
            main(
                [
                    "lifetime",
                    "--threshold",
                    "0.01",
                    "--horizon",
                    "30",
                    "--capacity-mah",
                    "1000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "days" in out

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--horizon", "0"),
            ("--capacity-mah", "-5"),
            ("--voltage", "0"),
            ("--threshold", "-1"),
            ("--horizon", "nan"),
            ("--threshold", "inf"),
        ],
    )
    def test_lifetime_bad_values_are_argparse_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["lifetime", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    def test_invalid_figure_rejected(self, capsys):
        assert main(["fig", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: params.number must be one of")
        assert captured.out == ""

    def test_node_sweep_with_workers_and_replications(self, capsys):
        assert (
            main(
                [
                    "node-sweep",
                    "--horizon",
                    "2",
                    "--workers",
                    "2",
                    "--replications",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "optimum Power_Down_Threshold" in out
        assert "across 2 replications" in out
        assert "±" in out

    def test_validate_with_replications(self, capsys):
        # Replications re-run the whole Section V protocol with spawned
        # seeds and report the headline metric's uncertainty.
        assert main(["validate", "--replications", "2"]) == 0
        out = capsys.readouterr().out
        assert "percent difference across 2 replications" in out

    def test_validate_single_replication_prints_na_not_inf(self, capsys):
        # An R=1 interval has infinite half-width; the CLI must say so
        # instead of printing "± inf".
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "n/a (1 replication)" in out
        assert "inf" not in out

    def test_node_sweep_adaptive(self, capsys):
        assert (
            main(
                [
                    "node-sweep",
                    "--horizon",
                    "2",
                    "--ci-target",
                    "0.5",
                    "--max-replications",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "adaptive replications (ci-target 0.5" in out
        assert "reps," in out

    def test_network_sweep_adaptive(self, capsys):
        assert (
            main(
                [
                    "network",
                    "--topology",
                    "star",
                    "--nodes",
                    "2",
                    "--horizon",
                    "5",
                    "--sweep",
                    "--ci-target",
                    "0.5",
                    "--max-replications",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "adaptive replications (ci-target 0.5" in out
        assert "best threshold for the network" in out

    def test_bad_ci_target_rejected(self, capsys):
        assert main(["node-sweep", "--ci-target", "0"]) == 2
        assert "error: execution: ci_target" in capsys.readouterr().err
        # NaN never meets the stopping rule: every point would run to
        # --max-replications instead of failing.
        assert main(["node-sweep", "--ci-target", "nan"]) == 2
        assert "error: execution: ci_target" in capsys.readouterr().err

    def test_replications_floor_above_cap_rejected(self, capsys):
        # --replications acts as the per-point floor under --ci-target,
        # so it must fit below the cap — a clean error, not a traceback
        # from the adaptive controller.
        assert (
            main(
                [
                    "node-sweep",
                    "--ci-target",
                    "0.5",
                    "--replications",
                    "100",
                    "--max-replications",
                    "64",
                ]
            )
            == 2
        )
        assert "per-point floor" in capsys.readouterr().err

    def test_network_single_run(self, capsys):
        assert (
            main(
                [
                    "network",
                    "--topology",
                    "line",
                    "--nodes",
                    "3",
                    "--horizon",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "network lifetime" in out
        assert out.startswith("network scenario (workers=1)\n")

    def test_network_sharded_grid(self, capsys):
        assert (
            main(
                [
                    "network",
                    "--topology",
                    "grid",
                    "--grid",
                    "4x3",
                    "--horizon",
                    "5",
                    "--base-rate",
                    "0.05",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4x3 grid of 12 nodes" in out
        assert out.startswith("network scenario (workers=2)\n")

    def test_network_sweep(self, capsys):
        assert (
            main(
                [
                    "network",
                    "--topology",
                    "star",
                    "--nodes",
                    "2",
                    "--horizon",
                    "5",
                    "--sweep",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Network lifetime sweep" in out
        assert "best threshold for the network" in out

    def test_network_bad_grid_spec_rejected(self, capsys):
        assert main(["network", "--topology", "grid", "--grid", "10by10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: params.grid must be")
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("argv", "key", "value"),
        [
            (["fig", "14", "--horizon", "nan"], "horizon", "nan"),
            (["node-sweep", "--horizon", "inf"], "horizon", "inf"),
            (["network", "--nodes", "0"], "nodes", "0"),
            (["network", "--grid", "0x3"], "grid", "0x3"),
            (["network", "--duty-spread", "1.5"], "duty_spread", "1.5"),
            (["network", "--burst-on", "0"], "burst_on", "0"),
            (["fig", "3"], "number", "3"),
            # Execution settings: ``value`` lists the overrides.
            (["validate", "--workers", "0"], "execution", ("workers=0",)),
            (["validate", "--engine", "bogus"], "execution", ("engine=bogus",)),
            (["validate", "--ci-target", "nan"], "execution", ("ci_target=nan",)),
            (
                ["validate", "--ci-target", "0.5", "--replications", "100"],
                "execution",
                ("ci_target=0.5", "replications=100"),
            ),
            (
                ["validate", "--backend", "socket", "--connect", "nonsense"],
                "execution",
                ("backend=socket", 'connect=["nonsense"]'),
            ),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, (list, tuple)) else None,
    )
    def test_bad_flag_fails_like_its_override(
        self, capsys, tmp_path, argv, key, value
    ):
        """A flag and its ``--override`` share one check and one line."""
        assert main(argv) == 2
        flag = capsys.readouterr()
        assert flag.out == ""
        if key == "execution":
            assert flag.err.startswith("error: execution: ")
            overrides = [f"execution.{v}" for v in value]
        else:
            assert flag.err.startswith(f"error: params.{key} ")
            overrides = [f"params.{key}={value}"]
        model = argv[0]
        params = {"number": int(argv[1])} if model == "fig" else {}
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"name": model, "model": model, "params": params})
        )
        argv_override = ["scenario", "run", str(path)]
        for override in overrides:
            argv_override += ["--override", override]
        assert main(argv_override) == 2
        override = capsys.readouterr()
        assert override.out == ""
        assert override.err == flag.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["node-sweep", "--horizon", "0"],
            ["table", "4", "--horizon", "0"],
            ["network", "--base-rate", "0", "--horizon", "2"],
        ],
        ids=["node-sweep", "table", "network"],
    )
    def test_bad_run_values_fail_cleanly(self, capsys, argv):
        """Flags report bad values the way scenario files do: exit 2."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--topology", "geometric", "--nodes", "5", "--radius", "-1"],
            ["--base-rate", "-1"],
        ],
        ids=["radius", "base-rate"],
    )
    def test_bad_topology_values_fail_cleanly(self, capsys, flags):
        """``topology describe`` reports a refused value, not a traceback."""
        assert main(["topology", "describe", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestBackendSelection:
    def test_backend_local_matches_default(self, capsys):
        args = ["network", "--topology", "line", "--nodes", "3", "--horizon", "5"]
        assert main(args) == 0
        default_out = capsys.readouterr().out
        assert main([*args, "--backend", "local"]) == 0
        local_out = capsys.readouterr().out
        assert local_out == default_out

    def test_backend_processes(self, capsys):
        assert (
            main(
                [
                    "node-sweep",
                    "--horizon",
                    "2",
                    "--backend",
                    "processes",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        assert "optimum Power_Down_Threshold" in capsys.readouterr().out

    def test_socket_without_connect_rejected(self, capsys):
        assert main(["network", "--backend", "socket"]) == 2
        assert (
            "backend='socket' requires at least one connect"
            in capsys.readouterr().err
        )

    def test_connect_without_socket_rejected(self, capsys):
        assert main(["network", "--connect", "localhost:9000"]) == 2
        assert (
            "connect only applies with backend='socket'"
            in capsys.readouterr().err
        )

    def test_unknown_backend_rejected(self, capsys):
        assert main(["node-sweep", "--backend", "quantum"]) == 2
        assert "error: execution: backend" in capsys.readouterr().err

    def test_socket_backend_end_to_end(self, capsys):
        """worker --serve + --backend socket vs --backend local: same bits."""
        from tests.runtime.test_remote import _cli_worker

        args = [
            "network",
            "--topology",
            "line",
            "--nodes",
            "3",
            "--horizon",
            "5",
            "--sweep",
        ]
        assert main([*args, "--backend", "local"]) == 0
        local_out = capsys.readouterr().out
        worker, port = _cli_worker()
        try:
            assert (
                main(
                    [
                        *args,
                        "--backend",
                        "socket",
                        "--connect",
                        f"127.0.0.1:{port}",
                    ]
                )
                == 0
            )
            socket_out = capsys.readouterr().out
        finally:
            worker.terminate()
            worker.wait(10)
        assert socket_out == local_out


class TestStoreFlags:
    def test_store_and_no_store_conflict_rejected(self, capsys):
        # Passing both is contradictory; the CLI must say so up front
        # instead of silently letting one win.
        with pytest.raises(SystemExit):
            main(
                [
                    "node-sweep",
                    "--horizon",
                    "2",
                    "--store",
                    "/tmp/ignored",
                    "--no-store",
                ]
            )
        err = capsys.readouterr().err
        assert "--store DIR and --no-store contradict each other" in err
        assert "$REPRO_STORE" in err

    def test_no_store_overrides_env(self, capsys, tmp_path, monkeypatch):
        # $REPRO_STORE is the ambient default; --no-store must beat it
        # for one run (that is its whole purpose).
        store_dir = tmp_path / "envstore"
        monkeypatch.setenv("REPRO_STORE", str(store_dir))
        assert main(["node-sweep", "--horizon", "2", "--no-store"]) == 0
        capsys.readouterr()
        assert not store_dir.exists()
        assert main(["node-sweep", "--horizon", "2"]) == 0
        capsys.readouterr()
        assert store_dir.exists()


class TestScenarioSubcommand:
    def _write(self, tmp_path, data):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _valid(self):
        return {
            "version": 1,
            "name": "cli-test",
            "model": "fig",
            "params": {"number": 14, "horizon": 2.0},
            "execution": {"replications": 2},
        }

    def test_validate_ok(self, capsys, tmp_path):
        path = self._write(tmp_path, self._valid())
        assert main(["scenario", "validate", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "cli-test" in out

    def test_validate_rejects_a_malformed_worker_address(self, capsys, tmp_path):
        # `scenario validate` rejects what `scenario run` would: the
        # address format is ExecutionConfig's check.
        path = self._write(tmp_path, self._valid())
        argv = [
            "scenario", "validate", path,
            "--override", "execution.backend=socket",
            "--override", 'execution.connect=["host:99999"]',
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: execution: connect entry ")
        assert "port must be in 1..65535, got 99999" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_show_prints_normalised_spec(self, capsys, tmp_path):
        import json

        path = self._write(tmp_path, self._valid())
        assert main(["scenario", "show", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["params"]["seed"] == 2010  # default filled in
        assert shown["execution"]["replications"] == 2

    def test_run_matches_flag_invocation(self, capsys, tmp_path):
        path = self._write(tmp_path, self._valid())
        assert main(["scenario", "run", path]) == 0
        scenario_out = capsys.readouterr().out
        assert (
            main(["fig", "14", "--horizon", "2.0", "--replications", "2"])
            == 0
        )
        assert scenario_out == capsys.readouterr().out

    def test_override_applied(self, capsys, tmp_path):
        path = self._write(tmp_path, self._valid())
        assert (
            main(
                [
                    "scenario",
                    "run",
                    path,
                    "--override",
                    "params.number=15",
                ]
            )
            == 0
        )
        assert "Figure 15" in capsys.readouterr().out

    def test_schema_error_names_key_and_exits_2(self, capsys, tmp_path):
        data = self._valid()
        data["params"]["number"] = 3
        path = self._write(tmp_path, data)
        assert main(["scenario", "validate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "params.number" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert (
            main(["scenario", "run", str(tmp_path / "absent.json")]) == 2
        )
        assert "cannot read" in capsys.readouterr().err

    def test_vectorized_network_spec_matches_interpreted(self, capsys, tmp_path):
        # A network spec runs on either engine and prints the same bytes.
        outputs = []
        for engine in ("vectorized", "interpreted"):
            path = self._write(
                tmp_path,
                {
                    "version": 1,
                    "name": "grid",
                    "model": "network",
                    "params": {"topology": "grid", "grid": [3, 3], "horizon": 5.0},
                    "execution": {"engine": engine},
                },
            )
            assert main(["scenario", "run", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "9 nodes" in outputs[0]

    def test_spec_with_shards_key_is_clean_error(self, capsys, tmp_path):
        # The removed execution keys fail loudly: no alias, no silent drop.
        path = self._write(
            tmp_path,
            {
                "version": 1,
                "name": "old-spelling",
                "model": "network",
                "params": {"horizon": 5.0},
                "execution": {"shards": 2},
            },
        )
        assert main(["scenario", "run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: execution: unknown execution key 'shards' (known keys: "
        )


    def test_spec_with_min_replications_key_is_clean_error(
        self, capsys, tmp_path
    ):
        # ``replications`` is the adaptive floor; the old second field
        # for it is rejected, not silently ignored.
        data = self._valid()
        data["execution"] = {"ci_target": 0.5, "min_replications": 3}
        assert main(["scenario", "run", self._write(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: execution: unknown execution key 'min_replications'"
        )


class TestWorkerSubcommand:
    def test_worker_requires_serve(self):
        with pytest.raises(SystemExit):
            main(["worker"])

    def test_worker_serves_and_exits_after_max_sessions(self, capsys):
        import socket as socket_module
        import threading
        import time

        from repro.runtime.remote import SocketBackend

        # Reserve a free port, then hand it to the worker (announcing
        # through capsys-captured stdout is racy to read back).
        with socket_module.socket() as probe_sock:
            probe_sock.bind(("127.0.0.1", 0))
            port = probe_sock.getsockname()[1]
        ready = threading.Event()
        result_holder = {}

        def run_worker():
            result_holder["code"] = main(
                ["worker", "--serve", str(port), "--max-sessions", "1"]
            )
            ready.set()

        thread = threading.Thread(target=run_worker, daemon=True)
        thread.start()
        backend = SocketBackend([f"127.0.0.1:{port}"], connect_timeout=10.0)
        for attempt in range(50):  # retry until the worker binds
            try:
                assert backend.map(lambda_free_square, [1, 2, 3]) == [1, 4, 9]
                break
            except Exception:
                if attempt == 49:
                    raise
                time.sleep(0.1)
        assert ready.wait(10), "worker did not exit after its only session"
        assert result_holder["code"] == 0
        assert "3 chunk(s) served" in capsys.readouterr().out


def lambda_free_square(x):
    return x * x


class TestOnePoolPerRun:
    """A CLI run owns one backend: one process pool for every round."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """``(built, shut down)`` process pools, in order."""
        from concurrent.futures import ProcessPoolExecutor

        built, closed = [], []
        init, shutdown = ProcessPoolExecutor.__init__, ProcessPoolExecutor.shutdown

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counting_shutdown(self, *args, **kwargs):
            closed.append(self)
            shutdown(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        monkeypatch.setattr(ProcessPoolExecutor, "shutdown", counting_shutdown)
        return built, closed

    @pytest.mark.parametrize(
        "argv",
        [
            ["node-sweep", "--horizon", "2", "--ci-target", "0.02",
             "--max-replications", "16"],
            ["network", "--topology", "grid", "--grid", "4x4", "--horizon",
             "2", "--sweep"],
        ],
        ids=["adaptive-node-sweep", "grid-network-sweep"],
    )
    def test_one_pool_per_run(self, pools, capsys, argv):
        built, closed = pools
        assert main([*argv, "--workers", "2"]) == 0
        assert len(built) == 1
        assert closed == built  # the run closed its pool on the way out

    def test_pool_closed_on_error(self, pools, monkeypatch):
        import repro.cli as cli

        built, closed = pools

        def fail(**kwargs):
            kwargs["rx"].executor().map(abs, [-1, -2])
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "run_node_sweep", fail)
        with pytest.raises(RuntimeError, match="run failed"):
            main(["node-sweep", "--workers", "2"])
        assert len(built) == 1
        assert closed == built


class TestNodeSweepReportReads:
    """The Figs. 14/15 report reads each replication's energy twice:
    once for the point means behind the optimum and both savings, once
    for the interval rows."""

    def test_each_energy_is_read_once_per_pass(self, monkeypatch):
        from repro.cli import _node_sweep_report
        from repro.experiments import NodeSweepConfig, run_node_energy_sweep
        from repro.experiments.tables import format_optimum_summary
        from repro.models.wsn_node import WSNNodeResult
        from repro.runtime.config import ExecutionConfig

        sweep = run_node_energy_sweep(
            NodeSweepConfig(horizon=2.0, thresholds=(1e-9, 0.0018, 1.0)),
            exec_cfg=ExecutionConfig(replications=2),
        )
        t_opt, e_opt = sweep.optimum()
        expected = format_optimum_summary(
            "closed", t_opt, e_opt,
            sweep.savings_vs_immediate(), sweep.savings_vs_never(),
        )
        reads = []
        energy = WSNNodeResult.total_energy_j
        monkeypatch.setattr(
            WSNNodeResult,
            "total_energy_j",
            property(lambda self: reads.append(self) or energy.fget(self)),
        )
        report = _node_sweep_report(sweep, "closed", "Figure 14")
        assert len(reads) == 2 * 3 * 2
        assert expected in report
