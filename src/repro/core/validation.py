"""Well-formedness validation beyond construction-time checks.

:func:`validate_net` runs a battery of structural lints and returns a
:class:`ValidationReport`.  The builders in :mod:`repro.models` do not
call it; the tests check that every net they ship is clean.  Call it on
a hand-built net so that a malformed one fails fast with a readable
message instead of deadlocking silently mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distributions import Immediate
from .guards import TRUE
from .net import PetriNet

__all__ = ["ValidationIssue", "ValidationReport", "validate_net"]


@dataclass(frozen=True)
class ValidationIssue:
    """One finding: ``severity`` is ``"error"`` or ``"warning"``."""

    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}:{self.code}] {self.message}"


@dataclass
class ValidationReport:
    """All findings for one net."""

    net_name: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def errors(self) -> list[ValidationIssue]:
        """Hard errors only."""
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[ValidationIssue]:
        """Warnings only."""
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no hard errors were found."""
        return not self.errors

    def raise_on_error(self) -> None:
        """Raise ``ValueError`` listing every hard error."""
        if self.errors:
            details = "; ".join(str(i) for i in self.errors)
            raise ValueError(
                f"net {self.net_name!r} failed validation: {details}"
            )

    def __str__(self) -> str:
        if not self.issues:
            return f"net {self.net_name!r}: clean"
        lines = [f"net {self.net_name!r}: {len(self.issues)} issue(s)"]
        lines += [f"  {i}" for i in self.issues]
        return "\n".join(lines)


def validate_net(net: PetriNet) -> ValidationReport:
    """Run all structural lints over ``net``."""
    report = ValidationReport(net.name)
    _check_emptiness(net, report)
    _check_isolated_places(net, report)
    _check_unguarded_sources(net, report)
    _check_immediate_priorities(net, report)
    _check_token_supply(net, report)
    return report


def _check_emptiness(net: PetriNet, report: ValidationReport) -> None:
    if not net.places:
        report.issues.append(
            ValidationIssue("error", "no-places", "net has no places")
        )
    if not net.transitions:
        report.issues.append(
            ValidationIssue("error", "no-transitions", "net has no transitions")
        )


def _check_isolated_places(net: PetriNet, report: ValidationReport) -> None:
    touched: set[str] = set()
    for t in net.transitions:
        touched |= t.input_places()
        touched |= t.output_places()
        touched |= {a.place for a in t.inhibitors}
        touched |= t.guard.places()
    for p in net.places:
        if p.name not in touched:
            report.issues.append(
                ValidationIssue(
                    "warning",
                    "isolated-place",
                    f"place {p.name!r} is connected to nothing",
                )
            )


def _check_unguarded_sources(net: PetriNet, report: ValidationReport) -> None:
    for t in net.transitions:
        if t.inputs or t.inhibitors:
            continue
        if t.guard is TRUE and isinstance(t.distribution, Immediate):
            report.issues.append(
                ValidationIssue(
                    "error",
                    "immediate-source",
                    f"immediate transition {t.name!r} has no inputs, no "
                    "inhibitors and no guard: it would fire forever at t=0",
                )
            )


def _check_immediate_priorities(net: PetriNet, report: ValidationReport) -> None:
    for t in net.transitions:
        if not t.is_immediate and t.priority != 1:
            report.issues.append(
                ValidationIssue(
                    "warning",
                    "priority-on-timed",
                    f"transition {t.name!r} is timed; its priority "
                    f"{t.priority} is ignored (priorities order immediates only)",
                )
            )


def _check_token_supply(net: PetriNet, report: ValidationReport) -> None:
    """Transitions that can never fire because an input place can never
    be marked (no initial tokens and no producer)."""
    producible = {p.name for p in net.places if p.initial_count > 0}
    for t in net.transitions:
        producible |= t.output_places()
    for t in net.transitions:
        for arc in t.inputs:
            if arc.place not in producible:
                report.issues.append(
                    ValidationIssue(
                        "error",
                        "dead-input",
                        f"transition {t.name!r} consumes from {arc.place!r}, "
                        "which has no initial tokens and no producing "
                        "transition — it can never fire",
                    )
                )
