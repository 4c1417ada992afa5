"""Tests for representability decisions and Frobenius numbers."""

from __future__ import annotations

import random

import pytest

from frobgb import (
    AperyTable,
    OrderConfig,
    Weights,
    compute_mp,
    contains_monomial,
    frobenius_number,
    initial_ideal,
    irreducible_decomposition_general,
    is_representable,
    kernel_basis,
    lattice_groebner,
    pdegree,
)

from helpers import dot, random_weights
from test_grobner import make_gb

SEED = 660231


def test_is_representable_fixture():
    p = Weights((6, 10, 15))
    G = make_gb((6, 10, 15))
    no = is_representable(p, 29, G)
    assert no == (False, None)
    yes = is_representable(p, 30, G)
    assert yes.representable and yes.witness == (5, 0, 0)
    assert is_representable(p, 0, G) == (True, (0, 0, 0))
    assert is_representable(p, -7, G) == (False, None)
    got = is_representable(p, 25, G)
    assert got.representable and dot(got.witness, p.entries) == 25


def test_plain_sequences_accepted():
    # entry points coerce iterables of ints, so callers can skip Weights
    assert frobenius_number((6, 10, 15)) == 29
    assert frobenius_number([2, 3]) == 1
    G = make_gb((6, 10, 15))
    assert is_representable([6, 10, 15], 30, G).witness == (5, 0, 0)
    assert compute_mp((6, 10, 15), G) == frozenset({(-1, 2, 1)})
    with pytest.raises(ValueError):
        frobenius_number([4, 6])


def test_is_representable_single_weight():
    p = Weights((1,))
    G = lattice_groebner(p, (), OrderConfig(p))
    assert is_representable(p, 7, G) == (True, (7,))
    assert is_representable(p, -1, G) == (False, None)


def test_is_representable_rejects_mismatched_basis():
    G = make_gb((6, 10, 15))
    with pytest.raises(ValueError):
        is_representable(Weights((2, 3)), 5, G)
    p = Weights((6, 10, 15))
    G2 = lattice_groebner(p, kernel_basis(p), OrderConfig(p, revlex_variable=3))
    with pytest.raises(ValueError):
        is_representable(p, 5, G2)


def test_is_representable_window_against_oracle():
    rng = random.Random(SEED)
    for _ in range(8):
        entries = random_weights(rng, 2, 4, 2, 80)
        p = Weights(entries)
        G = make_gb(entries)
        table = AperyTable.build(p)
        fstar = max(table.least) - table.modulus
        for t in range(2 * fstar + 6):
            res = is_representable(p, t, G)
            assert res.representable == table.representable(t), (entries, t)
            if res.representable:
                assert all(x >= 0 for x in res.witness)
                assert dot(res.witness, entries) == t


def test_huge_degree_witness():
    p = Weights((6, 10, 15))
    G = make_gb((6, 10, 15))
    t = 10**30 + 1  # far above the Frobenius number, hence representable
    res = is_representable(p, t, G)
    assert res.representable
    assert dot(res.witness, p.entries) == t


def test_compute_mp_fixture():
    assert compute_mp(Weights((2, 3)), make_gb((2, 3))) == frozenset({(-1, 1)})
    assert compute_mp(Weights((3, 5)), make_gb((3, 5))) == frozenset({(-1, 2)})
    assert compute_mp(Weights((6, 10, 15)), make_gb((6, 10, 15))) == frozenset(
        {(-1, 2, 1)}
    )
    assert compute_mp(Weights((7, 11, 13)), make_gb((7, 11, 13))) == frozenset(
        {(-1, 1, 2), (-1, 2, 0)}
    )


def test_compute_mp_empty_when_a_weight_is_one():
    p = Weights((1, 5))
    G = lattice_groebner(p, kernel_basis(p), OrderConfig(p))
    assert compute_mp(p, G) == frozenset()


def test_corner_vectors_are_maximal_gaps():
    # x^(a+) standard, every bump x^((a+e_i)+) inside the head ideal
    for entries in [(6, 10, 15), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        G = make_gb(entries)
        I = initial_ideal(G)
        corners = compute_mp(p, G)
        assert corners
        table = AperyTable.build(p)
        for a in corners:
            assert a[0] == -1 and all(x >= 0 for x in a[1:])
            plus = (0,) + a[1:]
            assert not contains_monomial(I, plus)
            for i in range(1, p.n):
                bumped = tuple(x + (1 if j == i else 0) for j, x in enumerate(plus))
                assert contains_monomial(I, bumped)
            assert not table.representable(pdegree(a, p))


def test_shifted_corners_equal_decomposition():
    for entries in [(2, 3), (6, 10, 15), (7, 11, 13), (6, 9, 20)]:
        p = Weights(entries)
        G = make_gb(entries)
        shifted = {tuple(x + 1 for x in a) for a in compute_mp(p, G)}
        assert shifted == irreducible_decomposition_general(initial_ideal(G))


def test_frobenius_number_fixture():
    assert frobenius_number(Weights((6, 10, 15))) == 29
    assert frobenius_number(Weights((2, 3))) == 1
    assert frobenius_number(Weights((3, 5))) == 7
    assert frobenius_number(Weights((6, 9, 20))) == 43
    assert frobenius_number(Weights((6, 6, 35))) == 169
    assert frobenius_number(Weights((1,))) == -1
    assert frobenius_number(Weights((1, 7))) == -1
    assert frobenius_number(Weights((5, 1, 9))) == -1


def test_frobenius_number_routes_agree():
    rng = random.Random(SEED + 1)
    cases = [(6, 10, 15), (7, 11, 13)] + [
        random_weights(rng, 2, 4, 2, 60) for _ in range(10)
    ]
    for entries in cases:
        p = Weights(entries)
        base = frobenius_number(p)
        assert frobenius_number(p, use_lll=False) == base
        assert frobenius_number(p, tie_break="lex") == base


def test_frobenius_number_against_oracle():
    rng = random.Random(SEED + 2)
    from frobgb import apery_frobenius

    for _ in range(15):
        entries = random_weights(rng, 2, 5, 2, 120)
        p = Weights(entries)
        assert frobenius_number(p) == apery_frobenius(p), entries


def test_frobenius_boundary_is_sharp():
    for entries in [(6, 10, 15), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        G = make_gb(entries)
        fstar = frobenius_number(p)
        assert not is_representable(p, fstar, G).representable
        for k in range(1, 2 * min(entries) + 1):
            assert is_representable(p, fstar + k, G).representable
