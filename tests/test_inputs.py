"""The input rules of the public entry points, each checked in one place.

An exponent vector has the dimension of its ring and no negative entry
(arith._check_exponents, which runs arith._check_dim).  A degree t and
every entry of an exponent vector or a lattice row is an int and not a bool
(arith._check_int).
Every entry point that takes one raises the same ValueError with the same
message.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from frobgb import (
    AperyTable,
    Binomial,
    GroebnerBasis,
    MonomialIdeal,
    OrderConfig,
    Solution,
    Weights,
    compare,
    component_ideal,
    contains_monomial,
    dp_representable,
    hilbert_value,
    initial_ideal,
    is_representable,
    lattice_groebner,
    lll_reduce,
    normal_form,
    solve_degree,
    validate_basis,
)
from frobgb.monideal import staircase

SRC = Path(__file__).resolve().parents[1] / "src" / "frobgb"


@pytest.fixture(scope="module")
def sol():
    return Solution((6, 10, 15))


def with_element(G, g):
    """G with its first element replaced by g."""
    return GroebnerBasis((g,) + G.elements[1:], G.order)


# each takes the solution of (6, 10, 15) and an exponent vector in 3 variables
EXPONENT_ENTRY_POINTS = {
    "compare": lambda s, v: compare(v, (0, 0, 0), s.basis.order),
    "compare, second": lambda s, v: compare((0, 0, 0), v, s.basis.order),
    "normal_form": lambda s, v: normal_form(v, s.basis),
    "contains_monomial": lambda s, v: contains_monomial(initial_ideal(s.basis), v),
    "MonomialIdeal": lambda s, v: MonomialIdeal(3, frozenset({v})),
    "staircase": lambda s, v: staircase(3, [v]),
    "validate_basis head": lambda s, v: validate_basis(
        with_element(s.basis, Binomial(v, s.basis.elements[0].tail))
    ),
    "validate_basis tail": lambda s, v: validate_basis(
        with_element(s.basis, Binomial(s.basis.elements[0].head, v))
    ),
}


@pytest.mark.parametrize("name", EXPONENT_ENTRY_POINTS)
def test_exponent_vectors_have_one_rule(sol, name):
    call = EXPONENT_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=re.escape("expected a vector of dimension 3, got 2")):
        call(sol, (1, 2))
    with pytest.raises(ValueError, match=re.escape("(0, -1, 2) has a negative entry")):
        call(sol, (0, -1, 2))
    with pytest.raises(ValueError, match=re.escape("exponent 1.5 is not an integer")):
        call(sol, (0, 1.5, 0))
    with pytest.raises(ValueError, match=re.escape("exponent True is not an integer")):
        call(sol, (0, True, 0))


def test_component_ideal_has_the_negative_entry_rule():
    # its dimension is the length of its vector, so only the sign can fail
    with pytest.raises(ValueError, match=re.escape("(0, -1, 2) has a negative entry")):
        component_ideal((0, -1, 2))


DEGREE_ENTRY_POINTS = {
    "is_representable": lambda s, t: is_representable(s.weights, t, s.basis),
    "solve_degree": lambda s, t: solve_degree(s.weights, t),
    "hilbert_value": lambda s, t: hilbert_value(s, t),
    "dp_representable": lambda s, t: dp_representable(s.weights, t),
    "AperyTable.representable": lambda s, t: AperyTable.build(s.weights).representable(t),
    "AperyTable.witness": lambda s, t: AperyTable.build(s.weights).witness(t),
}


@pytest.mark.parametrize("t", [True, 30.0, -7.0, "30"])
@pytest.mark.parametrize("name", DEGREE_ENTRY_POINTS)
def test_degrees_have_one_integer_rule(sol, name, t):
    # the integer rule comes before any test of the sign of t
    with pytest.raises(ValueError, match=re.escape(f"t {t!r} is not an integer")):
        DEGREE_ENTRY_POINTS[name](sol, t)


@pytest.mark.parametrize(
    "rows, bad",
    [
        (((1.5, 2.0), (3.0, 1.0)), 1.5),
        (((1, 2), (3, True)), True),
        (((1, 2), (Fraction(3), 1)), Fraction(3)),
    ],
)
def test_lll_rows_have_the_integer_rule(rows, bad):
    with pytest.raises(ValueError, match=re.escape(f"row entry {bad!r} is not an integer")):
        lll_reduce(rows)


def test_lattice_groebner_rows_have_the_integer_rule():
    for p, rows, bad in [
        # float kernel rows pass the degree check (their degree is 0.0 == 0),
        # so the rule must hold before any Buchberger run sees them
        ((6, 10, 15), ((5.0, -3.0, 0.0), (0.0, 3.0, -2.0)), 5.0),
        # and it comes before the degree check, which would call these rows
        # inhomogeneous or fail to multiply them
        ((2, 3), ((3.5, -2),), 3.5),
        ((2, 3), ((True, 0),), True),
        ((2, 3), (("a", "b"),), "a"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"row entry {bad!r} is not an integer")):
            lattice_groebner(p, rows, OrderConfig(Weights(p)))


@pytest.mark.parametrize(
    "message", ["expected a vector of dimension", "has a negative entry", "is not an integer"]
)
def test_each_input_message_is_raised_from_one_place(message):
    places = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and message in ast.get_source_segment(text, node):
                places.append(f"{path.name}:{node.lineno}")
    assert len(places) == 1, places
