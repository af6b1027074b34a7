"""Unit tests for energy accounting."""

import struct

import numpy as np
import pytest

from repro.energy import EnergyAccount, NodeEnergyAccount, PowerStateTable
from repro.energy.accounting import dwell_energy_j


def table():
    return PowerStateTable("t", {"on": 100.0, "off": 10.0})


class TestEnergyAccount:
    def test_credit_and_energy(self):
        acc = EnergyAccount(table())
        acc.credit("on", 2.0)
        acc.credit("off", 10.0)
        assert acc.energy_j() == pytest.approx(0.3)
        assert acc.total_time() == pytest.approx(12.0)

    def test_credit_accumulates(self):
        acc = EnergyAccount(table())
        acc.credit("on", 1.0)
        acc.credit("on", 1.0)
        assert acc.dwell_s["on"] == pytest.approx(2.0)

    def test_credit_all(self):
        acc = EnergyAccount(table())
        acc.credit_all({"on": 1.0, "off": 2.0})
        assert acc.total_time() == pytest.approx(3.0)

    def test_unknown_state_rejected(self):
        acc = EnergyAccount(table())
        with pytest.raises(KeyError):
            acc.credit("ghost", 1.0)

    def test_negative_rejected(self):
        acc = EnergyAccount(table())
        with pytest.raises(ValueError):
            acc.credit("on", -1.0)

    def test_energy_by_state(self):
        acc = EnergyAccount(table())
        acc.credit("on", 2.0)
        assert acc.energy_by_state_j() == {"on": pytest.approx(0.2)}

    def test_mean_power(self):
        acc = EnergyAccount(table())
        acc.credit("on", 5.0)
        acc.credit("off", 5.0)
        assert acc.mean_power_mw() == pytest.approx(55.0)

    def test_fractions(self):
        acc = EnergyAccount(table())
        acc.credit("on", 3.0)
        acc.credit("off", 1.0)
        assert acc.fractions() == {
            "on": pytest.approx(0.75),
            "off": pytest.approx(0.25),
        }

    def test_empty_account(self):
        acc = EnergyAccount(table())
        assert acc.energy_j() == 0.0
        assert acc.mean_power_mw() == 0.0
        assert acc.fractions() == {}


class TestNodeEnergyAccount:
    def test_components_aggregate(self):
        node = NodeEnergyAccount()
        cpu = node.add_component("cpu", table())
        radio = node.add_component("radio", PowerStateTable("r", {"tx": 50.0}))
        cpu.credit("on", 10.0)
        radio.credit("tx", 2.0)
        assert node.total_energy_j() == pytest.approx(1.0 + 0.1)
        assert set(node.components) == {"cpu", "radio"}

    def test_duplicate_component_rejected(self):
        node = NodeEnergyAccount()
        node.add_component("cpu", table())
        with pytest.raises(ValueError):
            node.add_component("cpu", table())

    def test_breakdown_nested(self):
        node = NodeEnergyAccount()
        cpu = node.add_component("cpu", table())
        cpu.credit("on", 1.0)
        nested = node.breakdown_j()
        assert nested["cpu"]["on"] == pytest.approx(0.1)

    def test_component_results_immutable_rows(self):
        node = NodeEnergyAccount()
        cpu = node.add_component("cpu", table())
        cpu.credit("off", 1.0)
        rows = node.component_results()
        assert rows[0].component == "cpu"
        assert rows[0].energy_j == pytest.approx(0.01)

    def test_account_lookup(self):
        node = NodeEnergyAccount()
        acc = node.add_component("cpu", table())
        assert node.account("cpu") is acc
        with pytest.raises(KeyError):
            node.account("ghost")


class TestDwellEnergy:
    """``dwell_energy_j``: a fresh account's credit, per state and row."""

    def test_matches_a_fresh_account_bit_for_bit(self):
        seconds = [[0.0, -0.0, 1.5], [3.3e-7, 12345.678, 0.0]]
        expected = []
        for row in zip(*seconds):
            acc = EnergyAccount(table())
            for state, s in zip(("on", "off"), row):
                acc.credit(state, s)
            expected.append(list(acc.energy_by_state_j().values()))
        got = dwell_energy_j(table(), ("on", "off"), np.array(seconds))
        assert got.shape == (2, 3)
        flat = [v for row in got.T.tolist() for v in row]
        assert struct.pack("6d", *flat) == struct.pack(
            "6d", *[v for row in expected for v in row]
        )

    def test_fails_as_credit_does(self):
        with pytest.raises(KeyError) as vec:
            dwell_energy_j(table(), ("on", "ghost"), np.array([[1.0], [1.0]]))
        with pytest.raises(KeyError) as ref:
            EnergyAccount(table()).credit("ghost", 1.0)
        assert vec.value.args == ref.value.args
        # Row by row, state by state: row 0's "off" is the first bad value.
        with pytest.raises(ValueError, match=r"seconds must be >= 0, got -3\.0$"):
            dwell_energy_j(table(), ("on", "off"), np.array([[1.0, -2.0], [-3.0, 1.0]]))
