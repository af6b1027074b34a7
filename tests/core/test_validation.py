"""Unit tests for net validation lints."""

import pytest

from repro.core import Deterministic, PetriNet, tokens_gt
from repro.core.validation import validate_net
from repro.models import (
    CPUPetriModel,
    NodeParameters,
    SimpleNodeModel,
    WSNNodeModel,
)


class TestValidation:
    def test_clean_net(self):
        net = PetriNet("ok")
        net.add_place("A", initial_tokens=1)
        net.add_place("B")
        net.add_transition("t", Deterministic(1.0), inputs=["A"], outputs=["B"])
        report = validate_net(net)
        assert report.ok
        assert not report.issues
        report.raise_on_error()  # no-op

    def test_empty_net_errors(self):
        report = validate_net(PetriNet("empty"))
        assert not report.ok
        codes = {i.code for i in report.errors}
        assert "no-places" in codes
        assert "no-transitions" in codes

    def test_isolated_place_warning(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("island")
        net.add_transition("t", Deterministic(1.0), inputs=["A"])
        report = validate_net(net)
        assert report.ok  # warning, not error
        assert any(i.code == "isolated-place" for i in report.warnings)

    def test_guard_connection_counts_as_connected(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("G")
        net.add_transition(
            "t", Deterministic(1.0), inputs=["A"], guard=tokens_gt("G", 0)
        )
        report = validate_net(net)
        assert not any(i.code == "isolated-place" for i in report.issues)

    def test_immediate_source_error(self):
        net = PetriNet()
        net.add_place("B")
        net.add_transition("boom", outputs=["B"])  # immediate, no inputs/guard
        report = validate_net(net)
        assert any(i.code == "immediate-source" for i in report.errors)
        with pytest.raises(ValueError):
            report.raise_on_error()

    def test_priority_on_timed_warning(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_transition("t", Deterministic(1.0), inputs=["A"], priority=5)
        report = validate_net(net)
        assert any(i.code == "priority-on-timed" for i in report.warnings)

    def test_dead_input_error(self):
        net = PetriNet()
        net.add_place("never")  # no tokens, no producer
        net.add_place("B")
        net.add_transition("t", Deterministic(1.0), inputs=["never"], outputs=["B"])
        report = validate_net(net)
        assert any(i.code == "dead-input" for i in report.errors)

    def test_producible_place_not_dead(self):
        net = PetriNet()
        net.add_place("A", initial_tokens=1)
        net.add_place("mid")
        net.add_place("B")
        net.add_transition("t1", Deterministic(1.0), inputs=["A"], outputs=["mid"])
        net.add_transition("t2", Deterministic(1.0), inputs=["mid"], outputs=["B"])
        report = validate_net(net)
        assert report.ok

    def test_report_str(self):
        net = PetriNet("named")
        net.add_place("A", initial_tokens=1)
        net.add_transition("t", Deterministic(1.0), inputs=["A"])
        assert "clean" in str(validate_net(net))


SHIPPED_NETS = {
    "fig10-simple-node": lambda: SimpleNodeModel().build(),
    "wsn-node-closed": lambda: WSNNodeModel(NodeParameters(), "closed").build(),
    "wsn-node-open": lambda: WSNNodeModel(NodeParameters(), "open").build(),
    "fig3-cpu": lambda: CPUPetriModel(1.0, 10.0, 0.1, 0.3).build(),
}


@pytest.mark.parametrize("build", SHIPPED_NETS.values(), ids=SHIPPED_NETS.keys())
def test_shipped_nets_have_no_errors(build):
    report = validate_net(build())
    assert report.errors == [], str(report)
