"""Certificate entries: the three constructors against the generic
make_entry path, and CertEntry's value semantics."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerfan import (
    Certificate,
    CertEntry,
    GasLaw,
    RiemannProblem,
    State,
    lift_to_full,
    reduced_from,
    search_feasible,
    solve_standard,
    verify_full,
    verify_standard,
)
from eulerfan.certificate import EQUATION, NONSTRICT, STRICT, equation, make_entry, nonstrict, scale_of, strict

# Any double, with the edges drawn often: NaN, the infinities, both zeros,
# the smallest subnormal, the smallest normal and values near the largest.
EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0]
floats = st.floats() | st.sampled_from(EDGES)
rel_tols = st.sampled_from([1e-12, 1e-9]) | floats
labels = st.text(max_size=6)


def bits(entry):
    """The entry's type and five fields, each float as its 64 bits."""
    return type(entry), [struct.pack("<d", x) if type(x) is float else (type(x), x) for x in entry]


@settings(max_examples=500, deadline=None)
@given(labels, floats, floats, rel_tols)
def test_equation_is_make_entry(label, lhs, rhs, rel_tol):
    generic = make_entry(label, EQUATION, lhs - rhs, rel_tol * scale_of(lhs, rhs))
    assert bits(equation(label, lhs, rhs, rel_tol)) == bits(generic)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([(STRICT, strict), (NONSTRICT, nonstrict)]), labels, floats, rel_tols, st.lists(floats, max_size=4))
def test_inequalities_are_make_entry(kind_and_constructor, label, value, rel_tol, terms):
    # up to four extra terms: the entropy-production entry compares four
    kind, constructor = kind_and_constructor
    generic = make_entry(label, kind, value, rel_tol * scale_of(value, *terms))
    assert bits(constructor(label, value, rel_tol, *terms)) == bits(generic)


def test_a_nan_term_is_skipped():
    assert scale_of(math.nan, 4.0) == scale_of(4.0, math.nan) == 4.0 and scale_of(math.nan) == 1.0
    assert equation("x", math.nan, 4.0, 0.5).tolerance == 2.0
    assert strict("x", 1.0, 0.5, math.nan, -4.0) == CertEntry("x", STRICT, 1.0, 2.0, False)
    assert nonstrict("x", math.nan, 0.5, 4.0) == CertEntry("x", NONSTRICT, math.nan, 2.0, False)
    assert not equation("x", 1.0, math.nan, 0.5).passed


def test_a_non_finite_entry_fails():
    # an infinite term makes the tolerance infinite too, which compared
    # alone would pass the entry
    assert equation("x", math.inf, 1.0, 1e-12) == CertEntry("x", EQUATION, math.inf, math.inf, False)
    assert nonstrict("y", -math.inf, 1e-12, 1.0) == CertEntry("y", NONSTRICT, -math.inf, math.inf, False)
    assert make_entry("w", EQUATION, math.inf, math.inf) == CertEntry("w", EQUATION, math.inf, math.inf, False)
    for kind, value in ((EQUATION, 0.0), (STRICT, 1.0), (NONSTRICT, 0.0)):
        assert make_entry("ok", kind, value, 1e-12).passed
        for bad_value, bad_tolerance in ((math.inf, 1e-12), (-math.inf, 1e-12), (math.nan, 1e-12),
                                         (value, math.inf), (value, -math.inf), (value, math.nan)):
            assert not make_entry("bad", kind, bad_value, bad_tolerance).passed, (kind, bad_value, bad_tolerance)


ENTRY = make_entry("mass", EQUATION, 1e-13, 1e-12)


@pytest.mark.parametrize("name", ["label", "kind", "value", "tolerance", "passed", "other"])
def test_an_entry_cannot_be_assigned(name):
    with pytest.raises(AttributeError):
        setattr(ENTRY, name, False)
    assert ENTRY == CertEntry("mass", EQUATION, 1e-13, 1e-12, True)


def test_entries_are_hashable_values():
    twin = equation("mass", 1e-13, 0.0, 1e-12)
    assert twin == ENTRY and twin is not ENTRY and hash(twin) == hash(ENTRY)
    assert len({ENTRY, twin, make_entry("mass", EQUATION, 2e-12, 1e-12)}) == 2


def test_repr_names_every_field():
    assert repr(ENTRY) == "CertEntry(label='mass', kind='equation-residual', value=1e-13, tolerance=1e-12, passed=True)"


def test_an_unknown_label_is_a_key_error():
    with pytest.raises(KeyError):
        Certificate((ENTRY,)).entry("momentum")


def test_standard_and_full_certificates_round_trip():
    p = RiemannProblem(GasLaw(1.0, 1.0), State(1, 0, 0), State(4, 0, -1))
    rho1, delta2 = search_feasible(p)
    certificates = [
        verify_standard(p, solve_standard(p)),
        verify_full(p, lift_to_full(p, reduced_from(p, rho1, delta2))),
    ]
    for c in certificates:
        assert c.overall and all(type(e) is CertEntry for e in c.entries)
        assert Certificate.from_dict(c.to_dict()) == c
