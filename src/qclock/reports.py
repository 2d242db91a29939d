"""Structured pass/fail reports for numerical verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """A single named identity with its observed maximum error."""

    name: str
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_error": float(self.max_error),
            "tol": float(self.tol),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Report:
    """A batch of checks with optional free-form notes and stated facts.

    ``facts`` holds the JSON-ready values a verdict states besides its checks
    (sizes, supports, ranks, ...); ``as_dict`` merges them at the top level.
    """

    title: str
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)
    facts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_error(self) -> float:
        return max((c.max_error for c in self.checks), default=0.0)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "pass": self.passed,
            "max_error": float(self.max_error),
            "checks": [c.as_dict() for c in self.checks],
            "notes": list(self.notes),
            **self.facts,
        }

    def summary(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            flag = "ok " if c.passed else "FAIL"
            lines.append(f"  [{flag}] {c.name}: max error {c.max_error:.3e} (tol {c.tol:.1e})")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)
