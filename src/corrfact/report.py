"""Structured pass/fail reports shared by all verifiers, the one Pauli-or-dense
decision (decide), and the JSON object a command prints (report_json)."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .linalg import ToleranceConfig


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; `value` carries an optional payload number."""

    name: str
    passed: bool
    deviation: float = 0.0
    note: str = ""
    value: float | int | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return max((c.deviation for c in self.checks), default=0.0)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def decide(report, fast, dense) -> VerificationReport:
    """The report of the bounds `fast` when they are given and it passes, else the report of `dense()`.

    `report` builds a VerificationReport from deviations; `fast` holds upper
    bounds on them (None when none could be taken), and `dense` computes them
    exactly, only when the bounds do not decide.  So a pass is a proof and a
    failure is the dense report.
    """
    if fast is not None:
        first = report(*fast)
        if first.passed:
            return first
    return report(*dense())


def report_json(command: str, report: VerificationReport, tol: ToleranceConfig, seed: int | None) -> dict:
    """The JSON object of a command's report: its outcome, each check in order, and the tolerances and seed."""
    details = []
    for c in report.checks:
        entry = {"name": c.name, "passed": c.passed, "deviation": c.deviation}
        if c.note:
            entry["note"] = c.note
        if c.value is not None:
            entry["value"] = c.value
        details.append(entry)
    return {
        "command": command,
        "pass": report.passed,
        "max_deviation": report.max_deviation,
        "details": details,
        "tolerances": asdict(tol),
        "seed": seed,
    }
