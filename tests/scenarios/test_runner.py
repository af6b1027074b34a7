"""Integration: scenario runs are byte-identical to flag-spelled runs.

Each gallery scenario's ``--smoke`` shape is executed through
``repro.cli scenario run`` and through the equivalent flag-spelled
subcommand recorded in the scenario's header comment; stdout must match
byte for byte — across both engines and both the serial and processes
backends — and a scenario run must share the result store (same
task keys) with a flag run.
"""

from pathlib import Path

import pytest

from repro.cli import main

pytest.importorskip("yaml", reason="gallery scenarios are YAML")

GALLERY = Path(__file__).resolve().parents[2] / "scenarios"


def run_cli(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


#: (scenario file, extra scenario args, equivalent flag invocation)
SMOKE_EQUIVALENTS = [
    (
        "fig14.yaml",
        [],
        ["fig", "14", "--horizon", "2.0", "--replications", "2"],
    ),
    (
        "fig15.yaml",
        [],
        ["fig", "15", "--horizon", "2.0", "--replications", "2"],
    ),
    (
        "validation.yaml",
        [],
        ["validate"],
    ),
    (
        "grid100.yaml",
        [],
        [
            "network",
            "--topology",
            "grid",
            "--grid",
            "3x3",
            "--threshold",
            "0.01",
            "--horizon",
            "5.0",
            "--workers",
            "2",
        ],
    ),
    (
        # threshold 0 (power down at once) is valid in both spellings.
        "grid100.yaml",
        ["--override", "params.threshold=0"],
        [
            "network",
            "--topology",
            "grid",
            "--grid",
            "3x3",
            "--threshold",
            "0",
            "--horizon",
            "5.0",
            "--workers",
            "2",
        ],
    ),
    (
        "churn_tree.yaml",
        [],
        [
            "network",
            "--topology",
            "cluster-tree",
            "--fanout",
            "3",
            "--depth",
            "3",
            "--failure-rate",
            "0.02",
            "--duty-spread",
            "0.3",
            "--traffic",
            "bursty",
            "--base-rate",
            "0.2",
            "--horizon",
            "5",
            "--workers",
            "1",
        ],
    ),
    (
        "geo1000.yaml",
        [],
        [
            "network",
            "--topology",
            "geometric",
            "--nodes",
            "1000",
            "--base-rate",
            "0.1",
            "--horizon",
            "2",
            "--workers",
            "2",
        ],
    ),
]


class TestGalleryBitIdentity:
    @pytest.mark.parametrize(
        ("scenario", "extra", "flags"),
        SMOKE_EQUIVALENTS,
        ids=[" ".join([s, *extra]) for s, extra, _ in SMOKE_EQUIVALENTS],
    )
    def test_smoke_scenario_matches_flags(self, capsys, scenario, extra, flags):
        scenario_out = run_cli(
            capsys,
            ["scenario", "run", str(GALLERY / scenario), "--smoke", *extra],
        )
        flag_out = run_cli(capsys, flags)
        assert scenario_out == flag_out

    @pytest.mark.parametrize("engine", ["interpreted", "vectorized"])
    def test_engines_match_flags(self, capsys, engine):
        scenario_out = run_cli(
            capsys,
            [
                "scenario",
                "run",
                str(GALLERY / "fig14.yaml"),
                "--smoke",
                "--override",
                f"execution.engine={engine}",
            ],
        )
        flag_out = run_cli(
            capsys,
            [
                "fig",
                "14",
                "--horizon",
                "2.0",
                "--replications",
                "2",
                "--engine",
                engine,
            ],
        )
        assert scenario_out == flag_out

    @pytest.mark.parametrize("backend", ["local", "processes"])
    def test_backends_match_flags(self, capsys, backend):
        scenario_out = run_cli(
            capsys,
            [
                "scenario",
                "run",
                str(GALLERY / "fig14.yaml"),
                "--smoke",
                "--override",
                f"execution.backend={backend}",
                "--override",
                "execution.workers=2",
            ],
        )
        flag_out = run_cli(
            capsys,
            [
                "fig",
                "14",
                "--horizon",
                "2.0",
                "--replications",
                "2",
                "--backend",
                backend,
                "--workers",
                "2",
            ],
        )
        assert scenario_out == flag_out


class TestStoreSharing:
    def test_scenario_run_hits_flag_run_entries(self, capsys, tmp_path):
        """Same task keys: a flag run warms the store for a scenario run."""
        from repro.runtime.store import ResultStore

        store_dir = str(tmp_path / "store")
        flag_out = run_cli(
            capsys,
            [
                "fig",
                "14",
                "--horizon",
                "2.0",
                "--replications",
                "2",
                "--store",
                store_dir,
            ],
        )
        cold = ResultStore(store_dir).stats()
        assert cold.entries > 0
        assert cold.misses == cold.entries
        scenario_out = run_cli(
            capsys,
            [
                "scenario",
                "run",
                str(GALLERY / "fig14.yaml"),
                "--smoke",
                "--override",
                f"execution.store_dir={store_dir}",
            ],
        )
        assert scenario_out == flag_out
        warm = ResultStore(store_dir).stats()
        assert warm.entries == cold.entries  # nothing new simulated
        assert warm.hits >= cold.entries  # every entry served the rerun

    def test_cli_run_flushes_the_counters_once_on_exit(
        self, capsys, tmp_path, monkeypatch
    ):
        """``scenario_report`` leaves the counters in the store; the CLI
        run that owns the store writes them to the manifest on exit."""
        from repro.runtime.store import ResultStore
        from repro.scenarios import load_scenario, scenario_report

        writes = []
        write = ResultStore._write_manifest

        def counting_write(store, manifest):
            writes.append(manifest)
            write(store, manifest)

        monkeypatch.setattr(ResultStore, "_write_manifest", counting_write)
        store_dir = tmp_path / "store"
        argv = [
            "scenario",
            "run",
            str(GALLERY / "fig14.yaml"),
            "--smoke",
            "--override",
            f"execution.store_dir={store_dir}",
        ]
        cold_out = run_cli(capsys, argv)
        cold = ResultStore(store_dir).stats()
        assert cold.entries > 0
        assert (cold.hits, cold.misses, cold.puts) == (0, cold.entries, cold.entries)
        assert len(writes) == 2  # the fresh manifest, then the flush
        assert run_cli(capsys, argv) == cold_out
        warm = ResultStore(store_dir).stats()
        assert (warm.hits, warm.misses) == (cold.entries, cold.entries)
        assert len(writes) == 3

        spec = load_scenario(GALLERY / "fig14.yaml", smoke=True)
        rx = spec.execution.with_overrides(store_dir=str(store_dir)).resolve()
        manifest = rx.store.manifest_path.read_bytes()
        try:
            assert scenario_report(spec, rx) == cold_out
        finally:
            rx.backend.close()
        assert rx.store.hits == cold.entries  # counted, not yet written
        assert rx.store.manifest_path.read_bytes() == manifest
        assert len(writes) == 3

    def test_canonical_dict_shared_across_spellings(self):
        """Two spellings of one run canonicalise (and hash) identically."""
        from repro.scenarios import load_scenario
        from repro.runtime.store import canonical_json

        json_spec = load_scenario(
            GALLERY / "fig14.yaml", smoke=True
        ).with_overrides(["execution.workers=8", "name=renamed"])
        yaml_spec = load_scenario(GALLERY / "fig14.yaml", smoke=True)
        assert canonical_json(json_spec.canonical_dict()) == canonical_json(
            yaml_spec.canonical_dict()
        )
