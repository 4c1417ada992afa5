"""Tests for the shortest-path representability oracle.

The oracle referees the basis-driven code elsewhere, so it gets checked
directly here: frozen residue tables, the classical two-weight formula,
an elementary sieve comparison, and witness verification.
"""

from __future__ import annotations

import random
from math import gcd

import pytest

from frobgb import (
    AperyTable,
    OracleScaleExceeded,
    Weights,
    apery_frobenius,
    dp_representable,
)
from frobgb.oracle import MODULUS_LIMIT

from helpers import dot, random_weights

SEED = 424243


def sieve(entries, limit):
    """Plain coin-problem sieve: ok[t] iff t is a nonnegative combination."""
    ok = [False] * (limit + 1)
    ok[0] = True
    for t in range(1, limit + 1):
        ok[t] = any(t >= w and ok[t - w] for w in entries)
    return ok


def test_frozen_residue_tables():
    tab = AperyTable.build(Weights((6, 10, 15)))
    assert tab.modulus == 6
    assert tab.least == (0, 25, 20, 15, 10, 35)
    tab = AperyTable.build(Weights((6, 9, 20)))
    assert tab.least == (0, 49, 20, 9, 40, 29)
    tab = AperyTable.build(Weights((7, 11, 13)))
    assert tab.least == (0, 22, 37, 24, 11, 26, 13)


def test_frozen_frobenius_values():
    assert apery_frobenius(Weights((6, 10, 15))) == 29
    assert apery_frobenius(Weights((2, 3))) == 1
    assert apery_frobenius(Weights((3, 5))) == 7
    assert apery_frobenius(Weights((6, 9, 20))) == 43
    assert apery_frobenius(Weights((6, 6, 35))) == 169  # duplicate weight
    assert apery_frobenius(Weights((9, 12, 16))) == 47


def test_plain_sequences_accepted():
    assert apery_frobenius((6, 10, 15)) == 29
    assert apery_frobenius([2, 3]) == 1
    assert dp_representable([6, 10, 15], 30)
    assert AperyTable.build([3, 5]).least == (0, 10, 5)


def test_least_entries_lie_in_their_classes():
    for entries in [(6, 10, 15), (7, 11, 13), (9, 12, 16), (5, 7)]:
        tab = AperyTable.build(Weights(entries))
        for r, v in enumerate(tab.least):
            assert v % tab.modulus == r
            assert v == 0 or v >= min(entries)


def test_matches_elementary_sieve():
    rng = random.Random(SEED)
    for _ in range(25):
        entries = random_weights(rng, 2, 4, 2, 60)
        p = Weights(entries)
        tab = AperyTable.build(p)
        fstar = max(tab.least) - tab.modulus
        limit = max(fstar, 0) + 2 * max(entries) + 5
        ok = sieve(entries, limit)
        for t in range(limit + 1):
            assert tab.representable(t) == ok[t], (entries, t)
        # the sieve sees no gap past fstar and a gap at fstar itself
        if fstar >= 0:
            assert not ok[fstar]
        assert all(ok[fstar + 1 :])


def test_two_weight_formula():
    rng = random.Random(SEED + 1)
    done = 0
    while done < 40:
        a, b = rng.randint(2, 300), rng.randint(2, 300)
        if gcd(a, b) != 1:
            continue
        assert apery_frobenius(Weights((a, b))) == a * b - a - b
        done += 1


def test_weight_one_means_everything_representable():
    assert apery_frobenius(Weights((1,))) == -1
    assert apery_frobenius(Weights((1, 7))) == -1
    tab = AperyTable.build(Weights((1, 7)))
    for t in range(50):
        assert tab.representable(t)


def test_negative_input_never_representable():
    tab = AperyTable.build(Weights((6, 10, 15)))
    for t in (-1, -5, -29):
        assert not tab.representable(t)
        assert tab.witness(t) is None


def test_witnesses_are_exact():
    rng = random.Random(SEED + 2)
    for _ in range(15):
        entries = random_weights(rng, 2, 5, 2, 120)
        p = Weights(entries)
        tab = AperyTable.build(p)
        fstar = max(tab.least) - tab.modulus
        for t in range(max(fstar, 0) + 2 * min(entries) + 1):
            w = tab.witness(t)
            if tab.representable(t):
                assert w is not None
                assert all(x >= 0 for x in w)
                assert dot(w, entries) == t
            else:
                assert w is None


def test_additivity_of_representable_values():
    rng = random.Random(SEED + 3)
    tab = AperyTable.build(Weights((7, 11, 13)))
    reps = [t for t in range(200) if tab.representable(t)]
    for _ in range(200):
        s, t = rng.choice(reps), rng.choice(reps)
        assert tab.representable(s + t)


def test_dp_representable_window():
    p = Weights((6, 10, 15))
    ok = sieve((6, 10, 15), 70)
    for t in range(71):
        assert dp_representable(p, t) == ok[t]


def test_modulus_cap():
    with pytest.raises(OracleScaleExceeded):
        AperyTable.build(Weights((11, 13)), limit=10)
    beyond = Weights((MODULUS_LIMIT + 1, MODULUS_LIMIT + 3))
    with pytest.raises(OracleScaleExceeded):
        apery_frobenius(beyond)
    with pytest.raises(OracleScaleExceeded):
        dp_representable(beyond, 5)
    # min(p) past str()'s 4300-digit limit still gets the typed error
    huge = (10**4400 + 1, 10**4400 + 3)
    with pytest.raises(OracleScaleExceeded):
        apery_frobenius(huge)
    with pytest.raises(OracleScaleExceeded):
        dp_representable(huge, 5)
