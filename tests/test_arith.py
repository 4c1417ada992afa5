"""Tests for the exact integer vector layer: weights, gcd chains, signed
degree solutions, kernel lattice bases, and rational LLL."""

from __future__ import annotations

import random
from math import gcd

import pytest

from frobgb import (
    CoprimeViolation,
    Weights,
    as_weights,
    gcd_chain,
    kernel_basis,
    lll_reduce,
    pdegree,
    solve_degree,
)
import frobgb.arith
from frobgb.arith import negative_part, positive_part, xgcd

from helpers import (
    _det,
    benchmark_ladders,
    check_lll,
    dot,
    integer_combination,
    maximal_minors_gcd,
    random_weights,
    reference_lll,
    same_lattice,
)

SEED = 90125


def test_weights_validation():
    assert Weights((6, 10, 15)).n == 3
    assert list(Weights((2, 3))) == [2, 3]
    assert len(Weights((1,))) == 1
    Weights((6, 6, 35))  # duplicates are fine
    with pytest.raises(CoprimeViolation) as e:
        Weights((4, 6))
    assert str(e.value) == "gcd is 2, not 1"
    with pytest.raises(CoprimeViolation):
        Weights((10, 15, 35))
    with pytest.raises(ValueError):
        Weights(())
    with pytest.raises(ValueError):
        Weights((0, 3))
    with pytest.raises(ValueError):
        Weights((-2, 3))


def test_as_weights():
    p = Weights((6, 10, 15))
    assert as_weights(p) is p
    assert as_weights((6, 10, 15)) == p
    assert as_weights([6, 10, 15]) == p
    assert as_weights(iter((2, 3))) == Weights((2, 3))
    with pytest.raises(CoprimeViolation):
        as_weights([4, 6])
    with pytest.raises(ValueError):
        as_weights([])


def test_pdegree():
    assert pdegree((4, 5), Weights((2, 3))) == 23
    assert pdegree((0, 0, 0), Weights((6, 10, 15))) == 0
    assert pdegree((-1, 2, 1), Weights((6, 10, 15))) == 29
    with pytest.raises(ValueError):
        pdegree((1, 2), Weights((6, 10, 15)))


def test_signed_parts():
    rng = random.Random(SEED)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        plus, minus = positive_part(v), negative_part(v)
        assert all(x >= 0 for x in plus + minus)
        assert tuple(a - b for a, b in zip(plus, minus)) == v
        assert all(a == 0 or b == 0 for a, b in zip(plus, minus))


def test_xgcd():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g
    assert xgcd(0, 0) == (0, 1, 0)


def test_gcd_chain():
    assert gcd_chain(Weights((6, 10, 15))) == (-14, 7, 1)
    assert gcd_chain(Weights((2, 3))) == (-1, 1)
    assert gcd_chain(Weights((1,))) == (1,)
    # one extended-gcd fold gives the chain as row 0 and kernel_basis below it
    rng = random.Random(SEED + 2)
    cases = [random_weights(rng, 1, 6, 1, 500) for _ in range(50)]
    cases += [random_weights(rng, 2, 7, 1, 10**40) for _ in range(20)]
    cases += [(1,), (10**99 + 7, 10**99 + 9), (10**99 + 1, 3 * 10**99 + 7, 10**100 - 1)]
    for entries in cases:
        p = Weights(entries)
        chain = gcd_chain(p)
        assert dot(chain, entries) == 1, entries
        assert _det((chain,) + kernel_basis(p)) in (1, -1), entries


def test_solve_degree_examples():
    p = Weights((6, 10, 15))
    assert solve_degree(p, 29) == (-406, 203, 29)
    assert solve_degree(p, 30) == (-420, 210, 30)
    assert solve_degree(p, 0) == (0, 0, 0)


def test_solve_degree_contract():
    rng = random.Random(SEED + 3)
    for _ in range(100):
        entries = random_weights(rng, 2, 6, 1, 300)
        p = Weights(entries)
        t = rng.randint(0, 10**6)
        a = solve_degree(p, t)
        assert a[0] <= 0 and all(x >= 0 for x in a[1:])
        assert pdegree(a, p) == t
    # huge t stays exact
    t = 10**40 + 7
    a = solve_degree(Weights((6, 10, 15)), t)
    assert pdegree(a, Weights((6, 10, 15))) == t


def test_solve_degree_errors():
    with pytest.raises(ValueError):
        solve_degree(Weights((6, 10, 15)), -1)
    with pytest.raises(ValueError):
        solve_degree(Weights((1,)), 5)


def test_kernel_basis_frozen():
    assert kernel_basis(Weights((6, 10, 15))) == ((-5, 3, 0), (-30, 15, 2))
    assert kernel_basis(Weights((2, 3))) == ((-3, 2),)
    assert kernel_basis(Weights((1,))) == ()


def test_kernel_basis_spans_whole_kernel():
    rng = random.Random(SEED + 4)
    for _ in range(40):
        entries = random_weights(rng, 2, 6, 1, 200)
        p = Weights(entries)
        rows = kernel_basis(p)
        assert len(rows) == p.n - 1
        for r in rows:
            assert pdegree(r, p) == 0
        # index 1 in the full kernel: all maximal minors are coprime
        assert maximal_minors_gcd(rows) == 1


def test_kernel_basis_membership_small():
    # every short kernel vector must be an integer combination of the rows
    for entries in [(2, 3), (3, 5), (6, 10, 15), (4, 6, 9)]:
        p = Weights(entries)
        rows = kernel_basis(p)
        n = p.n
        span = 8
        vecs = [()]
        for _ in range(n):
            vecs = [v + (x,) for v in vecs for x in range(-span, span + 1)]
        for v in vecs:
            if pdegree(v, p) == 0:
                assert integer_combination(rows, v) is not None, v


def test_lll_preserves_lattice_and_reduces():
    rng = random.Random(SEED + 5)
    for _ in range(30):
        entries = random_weights(rng, 2, 6, 2, 10**6)
        rows = kernel_basis(Weights(entries))
        red = lll_reduce(rows)
        assert same_lattice(rows, red)
        check_lll(red)


def test_lll_frozen_small():
    red = lll_reduce(((-5, 3, 0), (-30, 15, 2)))
    assert same_lattice(red, ((-5, 3, 0), (-30, 15, 2)))
    check_lll(red)
    assert max(abs(x) for r in red for x in r) <= 5


def test_lll_shrinks_huge_entries():
    rng = random.Random(SEED + 6)
    entries = tuple(rng.randrange(10**29, 10**30) for _ in range(4))
    assert gcd(gcd(entries[0], entries[1]), gcd(entries[2], entries[3])) == 1
    rows = kernel_basis(Weights(entries))
    red = lll_reduce(rows)
    assert same_lattice(rows, red)
    check_lll(red)
    assert max(abs(x) for r in red for x in r) < max(abs(x) for r in rows for x in r)
    assert red == reference_lll(rows)


def test_lll_matches_the_full_recompute_reference(pool):
    # keeping the Gram-Schmidt data of the rows above a step must not change
    # a single step: the rows equal those of the loop that recomputes all of
    # it after every step
    rng = random.Random(SEED + 7)
    weights = [inst.weights.entries for inst in pool]
    for ladder in benchmark_ladders().values():
        weights += ladder
    for n in range(2, 9):
        for digits in (1, 3, 6, 9, 12):
            weights.append(random_weights(rng, n, n, 2, 10**digits))
    for entries in weights:
        rows = kernel_basis(Weights(entries))
        assert lll_reduce(rows) == reference_lll(rows), entries


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        lll_reduce(((1, 2), (2, 4, 5)))
    with pytest.raises(ValueError):
        lll_reduce(((0, 0), (1, 0)))


def test_lll_rejects_a_dependent_row_the_loop_reaches_late():
    # lll_reduce computes a row's Gram-Schmidt data only when k first
    # reaches it, so a dependent last row raises only after the rows above
    # it have been reduced
    dependent = "basis rows are linearly dependent"
    with pytest.raises(ValueError, match=dependent):
        lll_reduce(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    rows = kernel_basis(Weights((1001, 1234, 5678, 9999)))
    assert lll_reduce(rows) != rows  # the loop reduces rows 0..2 first
    last = tuple(2 * a - 3 * b + c for a, b, c in zip(*rows))
    with pytest.raises(ValueError, match=dependent):
        lll_reduce(rows + (last,))


def test_lll_computes_gram_schmidt_rows_only_as_it_reaches_them(monkeypatch):
    # the rows are identical whether a step recomputes only the rows it
    # changed or every row below them, so only this count tells them apart
    # (recomputing every row from the first one a step changes gives 2,466)
    computed = 0
    gram_schmidt = frobgb.arith._gram_schmidt

    def counting(rows, start, stop, gs=None):
        nonlocal computed
        computed += stop - start
        return gram_schmidt(rows, start, stop, gs)

    monkeypatch.setattr(frobgb.arith, "_gram_schmidt", counting)
    ladder = benchmark_ladders()["fstar-n56"]
    assert len(ladder) == 21
    for entries in ladder:
        lll_reduce(kernel_basis(Weights(entries)))
    assert computed == 1433


def test_lll_trivial_inputs():
    assert lll_reduce(()) == ()
    assert lll_reduce(((7, -3),)) == ((7, -3),)

