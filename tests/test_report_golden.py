"""Byte-for-byte golden reports of every replicated CLI spelling.

Each case runs one run subcommand in-process at a tiny horizon and
compares its whole stdout with ``tests/golden/<name>.txt``.  Together
the cases reach every renderer of a replicated point: the node sweep
(``fig 14`` / ``node-sweep``), the CPU comparison (``fig 7`` /
``table 4``), ``validate`` and the network scenario and sweep, each
with a fixed replication count and with ``--ci-target``.

A golden file is the command's own output; to re-record one after a
deliberate report change, run it from the repository root::

    PYTHONPATH=src python -m repro.cli <argv> > tests/golden/<name>.txt
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

CI = ["--ci-target", "0.5", "--max-replications", "3"]
NET_CI = ["--ci-target", "0.5", "--max-replications", "2"]

CASES = {
    "fig14-reps2": ["fig", "14", "--horizon", "2", "--replications", "2"],
    "fig14-ci": ["fig", "14", "--horizon", "2", *CI],
    "node-sweep-reps2": ["node-sweep", "--horizon", "2", "--replications", "2"],
    "node-sweep-ci": ["node-sweep", "--horizon", "2", *CI],
    "fig7-reps2": ["fig", "7", "--horizon", "20", "--replications", "2"],
    "fig7-ci": ["fig", "7", "--horizon", "20", *CI],
    "table4-reps2": ["table", "4", "--horizon", "20", "--replications", "2"],
    "table4-ci": ["table", "4", "--horizon", "20", *CI],
    "validate-reps1": ["validate", "--replications", "1"],
    "validate-reps2": ["validate", "--replications", "2"],
    "validate-ci": ["validate", *CI],
    "network": ["network", "--topology", "line", "--nodes", "3", "--horizon", "5"],
    "network-ci": [
        "network", "--topology", "line", "--nodes", "3", "--horizon", "5", *NET_CI
    ],
    "network-sweep": [
        "network", "--topology", "star", "--nodes", "2", "--horizon", "5", "--sweep"
    ],
    "network-sweep-ci": [
        "network", "--topology", "star", "--nodes", "2", "--horizon", "5",
        "--sweep", *NET_CI,
    ],
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text()
