"""Tests for the weighted Hilbert function of head-ideal quotients."""

from __future__ import annotations

from itertools import product

import pytest

from frobgb import (
    AperyTable,
    Solution,
    Weights,
    contains_monomial,
    hilbert_value,
    index_of_regularity,
)


def ctx_for(entries):
    return Solution(entries)


def brute_count(ctx, t):
    """Count standard monomials of weighted degree t by full enumeration."""
    p = ctx.weights.entries
    n = len(p)
    count = 0
    for m in product(*(range(t // p[i] + 1) for i in range(n))):
        if sum(x * w for x, w in zip(m, p)) == t and not contains_monomial(
            ctx.ideal, m
        ):
            count += 1
    return count


def test_values_fixture():
    ctx = ctx_for((6, 10, 15))
    assert hilbert_value(ctx, 0) == 1
    assert hilbert_value(ctx, 25) == 1
    assert hilbert_value(ctx, 29) == 0
    assert hilbert_value(ctx, 30) == 1
    assert hilbert_value(ctx, 1) == 0


def test_values_are_zero_or_one_and_match_brute_force():
    for entries in [(2, 3), (6, 10, 15), (4, 6, 9), (7, 11, 13)]:
        ctx = ctx_for(entries)
        for t in range(0, 61):
            v = hilbert_value(ctx, t)
            assert v in (0, 1)
            assert v == brute_count(ctx, t), (entries, t)


def test_values_match_oracle_representability():
    for entries in [(6, 10, 15), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        ctx = ctx_for(entries)
        table = AperyTable.build(p)
        fstar = max(table.least) - table.modulus
        for t in range(fstar + entries[0] + 1):
            assert hilbert_value(ctx, t) == int(table.representable(t))


def test_index_of_regularity():
    assert index_of_regularity(ctx_for((6, 10, 15))) == 30
    assert index_of_regularity(ctx_for((2, 3))) == 2
    assert index_of_regularity(ctx_for((3, 5))) == 8
    assert index_of_regularity(ctx_for((6, 9, 20))) == 44
    assert index_of_regularity(ctx_for((1, 2))) == 0
    assert index_of_regularity(ctx_for((1,))) == 0


def test_regularity_is_where_the_function_locks_at_one():
    for entries in [(6, 10, 15), (4, 6, 9), (7, 11, 13)]:
        ctx = ctx_for(entries)
        r = index_of_regularity(ctx)
        assert r >= 1
        assert hilbert_value(ctx, r - 1) == 0
        for t in range(r, r + 2 * entries[0]):
            assert hilbert_value(ctx, t) == 1


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        hilbert_value(ctx_for((2, 3)), -1)


def test_two_weights_follow_sylvester():
    # f* = ab - a - b; a box walk at these degrees spans over 10^8 candidates
    a, b = 100000007, 100000037
    ctx = ctx_for((a, b))
    fstar = a * b - a - b
    assert fstar == 10000004200000215
    assert hilbert_value(ctx, fstar) == 0
    assert hilbert_value(ctx, fstar + 1) == 1
    assert hilbert_value(ctx, 10**17) == 1
    assert hilbert_value(ctx_for((2, 3)), 10**9) == 1

