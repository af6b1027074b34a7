"""Energy accounting: turning state-time ledgers into Joules.

Implements the paper's Eq. (7) (CPU) and Eq. (8) (simple node), plus a
multi-component account for the full node (CPU + radio) whose
per-component, per-state breakdown feeds the Fig. 14/15 stacked series.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .power import PowerStateTable

__all__ = [
    "EnergyAccount",
    "ComponentEnergy",
    "NodeEnergyAccount",
    "dwell_energy_j",
]


@dataclass
class EnergyAccount:
    """Single-component energy ledger.

    Parameters
    ----------
    table:
        The component's power-state table.
    dwell_s:
        State → seconds.  May be filled incrementally with :meth:`credit`.
    """

    table: PowerStateTable
    dwell_s: dict[str, float] = field(default_factory=dict)

    def credit(self, state: str, seconds: float) -> None:
        """Add ``seconds`` of dwell in ``state``."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if not self.table.has_state(state):
            raise KeyError(
                f"state {state!r} not in power table {self.table.name!r}"
            )
        self.dwell_s[state] = self.dwell_s.get(state, 0.0) + seconds

    def credit_all(self, dwell: Mapping[str, float]) -> None:
        """Merge a dwell dict."""
        for state, seconds in dwell.items():
            self.credit(state, seconds)

    # ------------------------------------------------------------------
    def total_time(self) -> float:
        """Total credited seconds."""
        return sum(self.dwell_s.values())

    def energy_j(self) -> float:
        """Total energy in Joules (Eq. 7 with measured dwell times)."""
        return self.table.energy_from_dwell_j(self.dwell_s)

    def energy_by_state_j(self) -> dict[str, float]:
        """Energy per state in Joules."""
        return {
            state: self.table.rate_mw(state) * t / 1000.0
            for state, t in self.dwell_s.items()
        }

    def mean_power_mw(self) -> float:
        """Average power over the credited time."""
        t = self.total_time()
        return (self.energy_j() * 1000.0 / t) if t > 0 else 0.0

    def fractions(self) -> dict[str, float]:
        """State-time fractions."""
        t = self.total_time()
        if t <= 0:
            return {}
        return {state: s / t for state, s in self.dwell_s.items()}


def dwell_energy_j(
    table: PowerStateTable, states: Sequence[str], seconds: np.ndarray
) -> np.ndarray:
    """Joules per state and row: ``seconds[k]`` is ``states[k]``'s dwell.

    Row ``r`` of the result is what a fresh :class:`EnergyAccount`
    credited with ``seconds[:, r]`` reports per state, with the same
    float operations, so the energies are bit-identical.  Bad input
    fails as :meth:`EnergyAccount.credit` does: the rows are credited
    to such an account, which raises its own error.
    """
    if (seconds < 0).any() or not all(map(table.has_state, states)):
        for row in seconds.T.tolist():
            account = EnergyAccount(table)
            for state, s in zip(states, row):
                account.credit(state, s)
    rates = np.array([table.rate_mw(state) for state in states])
    # A fresh ledger's first credit adds to 0.0, so -0.0 credits as 0.0.
    return rates[:, None] * (0.0 + seconds) / 1000.0


@dataclass(frozen=True)
class ComponentEnergy:
    """Immutable per-component result row."""

    component: str
    energy_j: float
    energy_by_state_j: dict[str, float]
    dwell_s: dict[str, float]


class NodeEnergyAccount:
    """Multi-component account (CPU + radio for the Figs. 12–15 node).

    Each component has its own power table and dwell ledger; totals and
    per-state breakdowns aggregate across components.
    """

    def __init__(self) -> None:
        self._accounts: dict[str, EnergyAccount] = {}

    def add_component(self, name: str, table: PowerStateTable) -> EnergyAccount:
        """Register a component; returns its (mutable) account."""
        if name in self._accounts:
            raise ValueError(f"component {name!r} already registered")
        account = EnergyAccount(table)
        self._accounts[name] = account
        return account

    def account(self, name: str) -> EnergyAccount:
        """The account of component ``name``."""
        return self._accounts[name]

    @property
    def components(self) -> tuple[str, ...]:
        """Registered component names."""
        return tuple(self._accounts)

    def total_energy_j(self) -> float:
        """Node-level total energy in Joules."""
        return sum(acc.energy_j() for acc in self._accounts.values())

    def component_results(self) -> list[ComponentEnergy]:
        """Immutable per-component rows."""
        return [
            ComponentEnergy(
                component=name,
                energy_j=acc.energy_j(),
                energy_by_state_j=acc.energy_by_state_j(),
                dwell_s=dict(acc.dwell_s),
            )
            for name, acc in self._accounts.items()
        ]

    def breakdown_j(self) -> dict[str, dict[str, float]]:
        """``{component: {state: Joules}}`` nested breakdown."""
        return {
            name: acc.energy_by_state_j()
            for name, acc in self._accounts.items()
        }
