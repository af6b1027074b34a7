"""The ``repro.cli query`` client and ``serve`` argument handling.

``query`` must print the served output *verbatim* — CI diffs its
stdout byte-for-byte against ``scenario run`` — and route every
failure (unreachable server, schema rejection, failed job) to stderr
with exit code 2, mirroring ``scenario run``'s error contract.
"""

import io
import json
import os
import signal
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime import ExecutionConfig
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serving import SweepService, query_server, serve_http

REPO_ROOT = Path(__file__).resolve().parents[2]

SCENARIO = {
    "version": 1,
    "name": "serving-cli-test",
    "model": "fig",
    "params": {"number": 14, "horizon": 2.0},
    "execution": {"replications": 2},
}


@pytest.fixture(scope="module")
def reference():
    spec = ScenarioSpec.from_dict(SCENARIO)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_scenario(spec)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("serving-cli") / "store"
    service = SweepService(
        ExecutionConfig(store_dir=store_dir), progress_interval=0.0
    )
    server, _thread = serve_http(service)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestQuery:
    @pytest.mark.parametrize("mode", ["sync", "poll", "stream"])
    def test_output_is_verbatim_scenario_run(
        self, live, spec_file, reference, capsys, mode
    ):
        ref_code, ref_out = reference
        code = main(
            ["query", spec_file, "--server", live, "--mode", mode]
        )
        captured = capsys.readouterr()
        assert code == ref_code
        assert captured.out == ref_out
        assert captured.err == ""

    def test_overrides_travel_to_the_server(
        self, live, spec_file, reference, capsys
    ):
        _, ref_out = reference
        code = main(
            [
                "query", spec_file, "--server", live,
                "--override", "params.horizon=1.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out != ref_out  # different horizon, different rows
        assert "1 s" in captured.out

    def test_stats_flag_prints_server_stats(self, live, capsys):
        code = main(["query", "--server", live, "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        stats = json.loads(captured.out)
        assert stats["store"]["enabled"]
        assert stats["requests"]["total"] > 0

    def test_schema_rejection_is_exit_2_on_stderr(
        self, live, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO, version=99)))
        code = main(["query", str(bad), "--server", live])
        captured = capsys.readouterr()
        assert code == 2
        assert "version 99" in captured.err
        assert captured.out == ""

    def test_unreachable_server_is_exit_2(self, spec_file, capsys):
        code = main(
            ["query", spec_file, "--server", "http://127.0.0.1:1", "--timeout", "2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_missing_file_is_exit_2(self, live, tmp_path, capsys):
        code = main(
            ["query", str(tmp_path / "absent.json"), "--server", live]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_unparseable_spec_file_is_exit_2(self, live, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["query", str(bad), "--server", live])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid JSON" in captured.err

    def test_no_file_without_stats_is_a_usage_error(self, live, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--server", live])
        assert exc.value.code == 2
        assert "FILE" in capsys.readouterr().err


class TestServeArgs:
    def test_port_out_of_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "70000"])
        assert exc.value.code == 2
        assert "--port" in capsys.readouterr().err

    def test_store_conflict_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["serve", "--store", str(tmp_path / "s"), "--no-store"]
            )
        assert exc.value.code == 2
        assert "--no-store" in capsys.readouterr().err


class TestServeShutdown:
    @pytest.mark.parametrize(
        "sig", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
    )
    def test_signal_closes_cleanly_and_persists_the_counters(
        self, tmp_path, capsys, sig
    ):
        store_dir = str(tmp_path / "store")
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", store_dir, "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            base = "http://" + line.strip().rsplit(" ", 1)[1]
            request = {"scenario": SCENARIO}
            query_server(base, request, timeout=120)
            warm = query_server(base, request, timeout=120)["result"]["store"]
            assert warm["misses"] == 0
            assert warm["hits"] > 0
            # The counters are live in /stats, not yet in the manifest.
            assert main(["store", "stats", "--store", store_dir]) == 0
            assert "hits    : 0\n" in capsys.readouterr().out
            # The client still holds its idle keep-alive connection.
            process.send_signal(sig)
            out, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "repro serve done: " in out
        assert main(["store", "stats", "--store", store_dir]) == 0
        assert f"hits    : {warm['hits']}\n" in capsys.readouterr().out
