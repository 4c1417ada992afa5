"""Tests for monomial ideals, intersections, and irreducible decomposition.

Decompositions are certified three ways: pointwise membership on a grid,
exact equality of the generator sets of the recomputed intersection, and a
constructed witness monomial per component for irredundancy.  The staircase
walk is also compared with the plain reference walk, with the general
splitting decomposition and, on artinian ideals, with a brute-force search
for the maximal standard monomials.
"""

from __future__ import annotations

import random
import time
from itertools import product

import pytest

from frobgb import (
    MonomialIdeal,
    Solution,
    Weights,
    component_ideal,
    contains_monomial,
    format_component,
    initial_ideal,
    intersect,
    irreducible_decomposition,
    irreducible_decomposition_general,
)
from frobgb.monideal import minimalize, staircase

from helpers import benchmark_ladders, reference_decomposition
from test_grobner import make_gb

SEED = 331144


def intersect_all(n, comps):
    out = None
    for v in comps:
        out = component_ideal(v) if out is None else intersect(out, component_ideal(v))
    assert out is not None
    return out


def certify_decomposition(I, comps, grid=6):
    """Pointwise equality on a grid, exact intersection, and irredundancy."""
    assert comps
    ideals = {v: component_ideal(v) for v in comps}
    for m in product(range(grid), repeat=I.n):
        assert contains_monomial(I, m) == all(
            contains_monomial(f, m) for f in ideals.values()
        ), m
    assert intersect_all(I.n, comps) == I
    big = max((x for v in comps for x in v), default=0) + 1
    for v in comps:
        witness = tuple(x - 1 if x > 0 else big for x in v)
        assert not contains_monomial(ideals[v], witness)
        for w in comps:
            if w != v:
                assert contains_monomial(ideals[w], witness), (v, w)


def test_minimalize_and_constructor():
    gens = minimalize([(2, 0), (3, 1), (0, 4), (2, 0)])
    assert gens == frozenset({(2, 0), (0, 4)})
    I = MonomialIdeal.from_generators(2, [(2, 0), (3, 1), (0, 4)])
    assert I.sorted_generators() == ((0, 4), (2, 0))
    with pytest.raises(ValueError):
        MonomialIdeal(2, frozenset({(2, 0), (3, 1)}))  # not minimal
    with pytest.raises(ValueError):
        MonomialIdeal(2, frozenset({(2, 0, 1)}))  # wrong dimension
    with pytest.raises(ValueError):
        MonomialIdeal(2, frozenset({(-1, 0)}))


def brute_colength(n, gens):
    """Count the standard monomials in the box [0, top]^n, top one past the
    largest exponent; a standard monomial with a coordinate equal to top stays
    standard however far that coordinate grows, so the count is infinite."""
    top = max((x for g in gens for x in g), default=0) + 1
    count = 0
    for m in product(range(top + 1), repeat=n):
        if not any(all(a <= b for a, b in zip(g, m)) for g in gens):
            if top in m:
                return None
            count += 1
    return count


def brute_maximal(n, gens):
    """The standard monomials m of an artinian ideal with every m + e_j
    inside, from the same box as brute_colength."""
    top = max((x for g in gens for x in g), default=0) + 1

    def inside(m):
        return any(all(a <= b for a, b in zip(g, m)) for g in gens)

    return {
        m
        for m in product(range(top), repeat=n)
        if not inside(m) and all(inside(m[:j] + (m[j] + 1,) + m[j + 1:]) for j in range(n))
    }


def test_colength_matches_enumeration():
    rng = random.Random(SEED + 3)
    finite = infinite = 0
    for k in range(400):
        n = k % 5
        gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        if k % 2:  # artinian: a pure power of every variable
            gens += [tuple(rng.randint(1, 5) if j == i else 0 for j in range(n)) for i in range(n)]
            assert staircase(n, gens)[1] == brute_maximal(n, gens), (n, gens)
        expected = brute_colength(n, gens)
        assert staircase(n, gens)[0] == expected, (n, gens)
        finite += expected is not None
        infinite += expected is None
    assert finite >= 200 and infinite >= 50


def test_staircase_needs_no_minimal_generators():
    # the walk takes its generators as they come: multiples and duplicates
    # of generators change neither the count nor the maximal standard
    # monomials
    rng = random.Random(SEED + 4)
    redundant = 0
    for k in range(300):
        n = k % 5
        gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        if k % 2:
            gens += [tuple(rng.randint(1, 5) if j == i else 0 for j in range(n)) for i in range(n)]
        gens += [tuple(x + rng.randint(0, 2) for x in g) for g in gens[:3]]
        redundant += len(set(gens)) > len(minimalize(gens))
        assert staircase(n, gens) == staircase(n, minimalize(gens)), (n, gens)
    assert redundant >= 100


def test_colength_edge_cases():
    assert staircase(0, [])[0] == 1  # the ring k itself
    assert staircase(0, [()])[0] == 0
    assert staircase(3, [])[0] is None
    assert staircase(2, [(0, 0), (1, 2)])[0] == 0  # the unit ideal
    assert staircase(2, [(2, 0), (1, 1), (0, 3)])[0] == 4
    assert staircase(2, [(2, 0), (1, 1)])[0] is None
    start = time.perf_counter()
    big = [(10**100, 0, 0), (0, 10**99, 0), (0, 0, 7), (1, 1, 1)]
    assert staircase(3, big)[0] == 7 * 10**199 - 6 * (10**100 - 1) * (10**99 - 1)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="expected a vector of dimension"):
        staircase(2, [(1, 2, 3)])
    with pytest.raises(ValueError, match="negative"):
        staircase(2, [(-1, 2)])


def test_apery_count_on_pool_bases(pool):
    # the x_1-free standard monomials of every basis are one per residue
    # class mod p_1, each of degree the least representable in its class
    for inst in pool:
        heads = inst.basis.heads()
        p = inst.weights.entries
        n, p1 = len(p), p[0]
        standard, stack = [], [((0,) * n, 1)]  # raise coordinates >= first
        while stack:
            m, first = stack.pop()
            if any(all(a <= b for a, b in zip(h, m)) for h in heads):
                continue
            standard.append(m)
            assert len(standard) <= p1, p
            stack += [(m[:i] + (m[i] + 1,) + m[i + 1:], i) for i in range(first, n)]
        degrees = [sum(a * w for a, w in zip(m, p)) for m in standard]
        assert sorted(d % p1 for d in degrees) == list(range(p1)), p
        for d in degrees:
            assert inst.apery.representable(d) and not inst.apery.representable(d - p1), (p, d)
        assert staircase(n - 1, [h[1:] for h in heads])[0] == p1, p


def test_zero_and_unit_flags():
    assert MonomialIdeal(2, frozenset()).is_zero
    assert not MonomialIdeal(2, frozenset()).is_unit
    assert MonomialIdeal(2, frozenset({(0, 0)})).is_unit


def test_initial_ideal_fixture():
    I = initial_ideal(make_gb((6, 10, 15)))
    assert I == MonomialIdeal(3, frozenset({(0, 3, 0), (0, 0, 2)}))
    I = initial_ideal(make_gb((7, 11, 13)))
    assert I.sorted_generators() == ((0, 0, 3), (0, 2, 1), (0, 3, 0))


def test_contains_monomial():
    I = MonomialIdeal(2, frozenset({(2, 0), (0, 3)}))
    assert contains_monomial(I, (2, 0))
    assert contains_monomial(I, (5, 7))
    assert not contains_monomial(I, (1, 2))
    assert not contains_monomial(I, (0, 0))
    with pytest.raises(ValueError):
        contains_monomial(I, (1, 2, 3))
    with pytest.raises(ValueError):
        contains_monomial(I, (-1, 2))


def test_component_ideal():
    assert component_ideal((0, 3, 2)).sorted_generators() == ((0, 0, 2), (0, 3, 0))
    assert component_ideal((0, 0)).is_zero
    with pytest.raises(ValueError):
        component_ideal((1, -2))


def test_intersect_matches_pointwise_membership():
    rng = random.Random(SEED)
    for _ in range(40):
        n = rng.randint(2, 3)
        I = MonomialIdeal.from_generators(
            n, [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(3)]
        )
        J = MonomialIdeal.from_generators(
            n, [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(3)]
        )
        K = intersect(I, J)
        assert intersect(J, I) == K
        for m in product(range(6), repeat=n):
            assert contains_monomial(K, m) == (
                contains_monomial(I, m) and contains_monomial(J, m)
            )
    assert intersect(
        MonomialIdeal(2, frozenset()), MonomialIdeal(2, frozenset({(1, 0)}))
    ).is_zero


def test_decomposition_frozen():
    p = Weights((6, 10, 15))
    comps = irreducible_decomposition(initial_ideal(make_gb((6, 10, 15))), p)
    assert comps == frozenset({(0, 3, 2)})
    p = Weights((7, 11, 13))
    comps = irreducible_decomposition(initial_ideal(make_gb((7, 11, 13))), p)
    assert comps == frozenset({(0, 2, 3), (0, 3, 1)})


def test_decomposition_certified_on_fixtures():
    for entries in [(2, 3), (6, 10, 15), (6, 9, 20), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        I = initial_ideal(make_gb(entries))
        comps = irreducible_decomposition(I, p)
        certify_decomposition(I, comps)
        assert all(v[0] == 0 for v in comps)


def test_decomposition_rejects_bad_shapes():
    p3 = Weights((6, 10, 15))
    with pytest.raises(ValueError, match="cheapest variable"):
        irreducible_decomposition(
            MonomialIdeal(3, frozenset({(1, 0, 0)})), p3
        )
    with pytest.raises(ValueError, match="artinian"):
        irreducible_decomposition(
            MonomialIdeal(3, frozenset({(0, 3, 0), (0, 1, 2)})), p3
        )
    with pytest.raises(ValueError, match="unit"):
        irreducible_decomposition(MonomialIdeal(3, frozenset({(0, 0, 0)})), p3)
    with pytest.raises(ValueError, match="dimension"):
        irreducible_decomposition(MonomialIdeal(2, frozenset({(0, 1)})), p3)
    with pytest.raises(ValueError, match="artinian"):
        irreducible_decomposition(MonomialIdeal(2, frozenset()), Weights((2, 3)))


def test_decomposition_single_variable():
    assert irreducible_decomposition(
        MonomialIdeal(1, frozenset()), Weights((1,))
    ) == frozenset({(0,)})


def test_general_decomposition_textbook_example():
    I = MonomialIdeal.from_generators(2, [(2, 0), (1, 1)])
    comps = irreducible_decomposition_general(I)
    assert comps == frozenset({(1, 0), (2, 1)})
    certify_decomposition(I, comps)


def test_general_decomposition_random_ideals():
    rng = random.Random(SEED + 1)
    done = 0
    while done < 40:
        n = rng.randint(2, 3)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        I = MonomialIdeal.from_generators(n, gens)
        if I.is_unit or I.is_zero:
            continue
        comps = irreducible_decomposition_general(I)
        certify_decomposition(I, comps)
        done += 1


def test_general_decomposition_agrees_with_staircase_path():
    for entries in [(2, 3), (6, 10, 15), (6, 9, 20), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        I = initial_ideal(make_gb(entries))
        assert irreducible_decomposition(I, p) == irreducible_decomposition_general(I)
    with pytest.raises(ValueError, match="unit"):
        irreducible_decomposition_general(MonomialIdeal(2, frozenset({(0, 0)})))


def random_head_ideal(rng, n):
    """A head-shaped ideal that no Groebner basis produced: a pure power of
    every variable but x_1, plus random generators free of x_1 with small
    exponents and a few zeros, so many generators share an exponent and
    many slices repeat."""
    powers = [rng.randint(2, 6) for _ in range(n - 1)]
    gens = []
    for i, a in enumerate(powers, start=1):
        g = [0] * n
        g[i] = a
        gens.append(tuple(g))
    for _ in range(rng.randint(1, 6 * n)):
        g = (0,) + tuple(
            0 if rng.random() < 0.3 else rng.randint(1, a - 1) for a in powers
        )
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, minimalize(gens))


def test_decomposition_matches_reference_on_pool(pool):
    # the pool, and the instances the benchmark times frob number on
    ladder = [Solution(p) for p in benchmark_ladders()["fstar-n56"]]
    assert len(ladder) == 21
    for sol in [*pool, *ladder]:
        expected = reference_decomposition(sol.ideal)
        got = irreducible_decomposition(sol.ideal, sol.weights)
        assert sol.components == expected == got, sol.weights.entries


def test_decomposition_matches_reference_on_random_head_ideals():
    rng = random.Random(SEED + 2)
    general_checked = 0
    for k in range(300):
        n = 2 + k % 5
        I = random_head_ideal(rng, n)
        comps = irreducible_decomposition(I, Weights((1,) * n))
        assert comps == reference_decomposition(I), sorted(I.generators)
        if n <= 5 and len(I.generators) <= 10:
            assert comps == irreducible_decomposition_general(I), sorted(I.generators)
            general_checked += 1
    assert general_checked >= 200


def test_format_component():
    assert format_component((0, 3, 2)) == "(0,3,2)"
    assert format_component((0,)) == "(0)"
