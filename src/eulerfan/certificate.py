"""Machine-checkable certificates: lists of equation residuals and signed
inequality margins, each with an explicit tolerance and verdict."""

from __future__ import annotations

from dataclasses import dataclass

EQUATION = "equation-residual"
STRICT = "strict-inequality-margin"
NONSTRICT = "nonstrict-inequality-margin"


def scale_of(*terms: float) -> float:
    """Tolerance scale max(1, |t|) over the compared terms.

    The systems verified here mix pressures, velocities and energies of very
    different magnitude, so every tolerance is taken relative to the terms
    actually compared in its own entry.
    """
    s = 1.0
    for t in terms:
        a = abs(t)
        if a > s:
            s = a
    return s


def entry_passes(kind: str, value: float, tolerance: float) -> bool:
    if kind == EQUATION:
        return abs(value) <= tolerance
    if kind == STRICT:
        return value > tolerance
    if kind == NONSTRICT:
        return value >= -tolerance
    raise ValueError(f"unknown certificate entry kind {kind!r}")


@dataclass(frozen=True)
class CertEntry:
    label: str
    kind: str
    value: float
    tolerance: float
    passed: bool


def make_entry(label: str, kind: str, value: float, tolerance: float) -> CertEntry:
    return CertEntry(label, kind, value, tolerance, entry_passes(kind, value, tolerance))


def equation(label: str, lhs: float, rhs: float, rel_tol: float) -> CertEntry:
    return make_entry(label, EQUATION, lhs - rhs, rel_tol * scale_of(lhs, rhs))


def strict(label: str, value: float, rel_tol: float, *terms: float) -> CertEntry:
    return make_entry(label, STRICT, value, rel_tol * scale_of(value, *terms))


def nonstrict(label: str, value: float, rel_tol: float, *terms: float) -> CertEntry:
    return make_entry(label, NONSTRICT, value, rel_tol * scale_of(value, *terms))


@dataclass(frozen=True)
class Certificate:
    entries: tuple[CertEntry, ...]

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, label: str) -> CertEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def failed(self) -> tuple[CertEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "label": e.label,
                    "kind": e.kind,
                    "value": e.value,
                    "tolerance": e.tolerance,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
            "overall": self.overall,
        }

    @staticmethod
    def from_dict(d: dict) -> "Certificate":
        entries = tuple(
            CertEntry(
                e["label"], e["kind"], e["value"], e["tolerance"], e["passed"]
            )
            for e in d["entries"]
        )
        return Certificate(entries)
