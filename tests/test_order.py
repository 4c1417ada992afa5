"""Tests for the degree-first term order with x_1 cheapest."""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from frobgb import OrderConfig, Weights, compare, pdegree
from frobgb.order import EQ, GT, LT

SEED = 777001


def cfg23(**kw):
    return OrderConfig(Weights((2, 3)), **kw)


def test_reference_chain():
    # 1 < x1 < x1^3 < x2^2 < x1^4*x2^5 under weights (2, 3)
    chain = [(0, 0), (1, 0), (3, 0), (0, 2), (4, 5)]
    cfg = cfg23()
    for a, b in zip(chain, chain[1:]):
        assert compare(a, b, cfg) == LT
        assert compare(b, a, cfg) == GT
    for a in chain:
        assert compare(a, a, cfg) == EQ


def test_degree_decides_first():
    rng = random.Random(SEED)
    p = Weights((6, 10, 15))
    cfg = OrderConfig(p)
    for _ in range(200):
        a = tuple(rng.randint(0, 8) for _ in range(3))
        b = tuple(rng.randint(0, 8) for _ in range(3))
        da, db = pdegree(a, p), pdegree(b, p)
        if da < db:
            assert compare(a, b, cfg) == LT
        elif da > db:
            assert compare(a, b, cfg) == GT


def test_cheapest_variable_loses_ties():
    # equal degree: the monomial with more of x1 is smaller
    cfg = cfg23()
    assert compare((3, 0), (0, 2), cfg) == LT
    p = Weights((6, 10, 15))
    assert compare((5, 0, 0), (0, 3, 0), OrderConfig(p)) == LT
    assert compare((5, 0, 0), (0, 0, 2), OrderConfig(p)) == LT
    # equal degree and x1 exponent: the scan goes on in ascending position
    assert compare((0, 1, 0), (0, 0, 1), OrderConfig(Weights((1, 2, 2)))) == LT


def test_total_order_properties():
    rng = random.Random(SEED + 1)
    cfg = OrderConfig(Weights((4, 6, 9)))
    vecs = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(60)]
    for a in vecs:
        for b in vecs:
            c = compare(a, b, cfg)
            assert c == -compare(b, a, cfg)
            assert (c == EQ) == (a == b)
    ordered = sorted(vecs, key=cfg.sort_key)
    for a, b in zip(ordered, ordered[1:]):
        assert compare(a, b, cfg) in (LT, EQ)


def test_translation_invariance():
    rng = random.Random(SEED + 2)
    cfg = OrderConfig(Weights((6, 10, 15)))
    for _ in range(200):
        a = tuple(rng.randint(0, 7) for _ in range(3))
        b = tuple(rng.randint(0, 7) for _ in range(3))
        c = tuple(rng.randint(0, 7) for _ in range(3))
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert compare(ac, bc, cfg) == compare(a, b, cfg)


def test_one_is_minimal():
    rng = random.Random(SEED + 3)
    cfg = OrderConfig(Weights((7, 11, 13)))
    zero = (0, 0, 0)
    for _ in range(100):
        a = tuple(rng.randint(0, 9) for _ in range(3))
        if a != zero:
            assert compare(zero, a, cfg) == LT


def test_permuted_weights_move_the_cheap_variable():
    # x2^2 against x1^3 under (2, 3): x1 is cheapest, so x1^3 is smaller;
    # with the weights and coordinates swapped, the weight 3 is cheapest
    assert compare((0, 2), (3, 0), OrderConfig(Weights((2, 3)))) == GT
    assert compare((2, 0), (0, 3), OrderConfig(Weights((3, 2)))) == LT


def test_one_field():
    assert [f.name for f in fields(OrderConfig)] == ["weights"]


def test_validation():
    p = Weights((2, 3))
    cfg = OrderConfig(p)
    with pytest.raises(ValueError):
        compare((1, 0, 0), (0, 1), cfg)
    with pytest.raises(ValueError):
        compare((-1, 0), (0, 1), cfg)
