"""Machine-checkable certificates: lists of equation residuals and signed
inequality margins, each an immutable named tuple (CertEntry) with an explicit
tolerance and the verdict for its kind, fixed when the entry is built."""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError

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
    raise DomainError(f"unknown certificate entry kind {kind!r}")


CertEntry = namedtuple("CertEntry", "label kind value tolerance passed")


def make_entry(label: str, kind: str, value: float, tolerance: float) -> CertEntry:
    return CertEntry(label, kind, value, tolerance, entry_passes(kind, value, tolerance))


def equation(label: str, lhs: float, rhs: float, rel_tol: float) -> CertEntry:
    value, tolerance = lhs - rhs, rel_tol * scale_of(lhs, rhs)
    return CertEntry(label, EQUATION, value, tolerance, abs(value) <= tolerance)


def strict(label: str, value: float, rel_tol: float, *terms: float) -> CertEntry:
    tolerance = rel_tol * scale_of(value, *terms)
    return CertEntry(label, STRICT, value, tolerance, value > tolerance)


def nonstrict(label: str, value: float, rel_tol: float, *terms: float) -> CertEntry:
    tolerance = rel_tol * scale_of(value, *terms)
    return CertEntry(label, NONSTRICT, value, tolerance, value >= -tolerance)


class Certificate(namedtuple("Certificate", "entries")):
    """A tuple of CertEntry; it compares as a tuple."""

    __slots__ = ()

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
    def from_dict(d) -> "Certificate":
        """The certificate that to_dict wrote as ``d``, each verdict
        recomputed from its entry's kind, value and tolerance.  DomainError
        if ``d`` lacks a field or holds one of another type, names an
        unknown kind, holds a non-finite value or a tolerance that is not
        finite and positive, or records a verdict, an entry's or the overall
        one, that its numbers do not give."""
        _check_fields("certificate", d, _CERTIFICATE_FIELDS)
        entries = []
        for i, e in enumerate(d["entries"]):
            where = f"certificate entry {i}"
            _check_fields(where, e, _ENTRY_FIELDS)
            if not (abs(e["value"]) < math.inf and 0.0 < e["tolerance"] < math.inf):
                raise DomainError(
                    f"{where}: value {e['value']!r} must be finite, tolerance {e['tolerance']!r} finite and positive"
                )
            entry = make_entry(e["label"], e["kind"], e["value"], e["tolerance"])
            if entry.passed is not e["passed"]:
                raise DomainError(
                    f"{where} ({entry.label!r}): recorded passed={e['passed']!r}, "
                    f"but value {entry.value!r} and tolerance {entry.tolerance!r} give {entry.passed!r}"
                )
            entries.append(entry)
        certificate = Certificate(tuple(entries))
        if certificate.overall is not d["overall"]:
            raise DomainError(
                f"certificate: recorded overall={d['overall']!r}, but its entries give {certificate.overall!r}"
            )
        return certificate


# The fields of a certificate and of each entry, with the exact type each
# holds as JSON data.
_CERTIFICATE_FIELDS = {"entries": list, "overall": bool}
_ENTRY_FIELDS = {"label": str, "kind": str, "value": float, "tolerance": float, "passed": bool}


def _check_fields(where: str, d, fields: dict) -> None:
    """DomainError unless ``d`` is a dict holding each of ``fields`` with
    its type."""
    if type(d) is not dict:
        raise DomainError(f"{where}: expected an object, got {type(d).__name__}")
    for name, kind in fields.items():
        if name not in d:
            raise DomainError(f"{where}: missing field {name!r}")
        if type(d[name]) is not kind:
            raise DomainError(f"{where}: field {name!r} must be {kind.__name__}, got {d[name]!r:.40}")
