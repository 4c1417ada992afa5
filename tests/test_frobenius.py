"""Tests for representability decisions and Frobenius numbers."""

from __future__ import annotations

import json
import random
import re
import sys
import time
from math import gcd

import pytest

import frobgb.cli
import frobgb.frobenius
from frobgb import (
    AperyTable,
    OrderConfig,
    Solution,
    Weights,
    apery_frobenius,
    contains_monomial,
    frobenius_number,
    hilbert_value,
    initial_ideal,
    irreducible_decomposition,
    irreducible_decomposition_general,
    is_representable,
    kernel_basis,
    lattice_groebner,
    lll_reduce,
    pdegree,
    solve_degree,
)

from helpers import benchmark_ladders, dot, random_weights
from test_cli import invoke
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
    assert Solution((6, 10, 15)).corners == frozenset({(-1, 2, 1)})
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


@pytest.mark.parametrize("t", [30.0, 7.5, -7.0, 10**20 + 0.5, True, False])
def test_non_integer_degrees_are_rejected(t):
    # a float or bool t used to give a wrong witness, a float solution or
    # an AssertionError; t must be an int, by the rule Weights applies to
    # its weights, before any shortcut on a negative t or a single weight
    sol, one = Solution((6, 10, 15)), Solution((1,))
    for call in (
        lambda: is_representable(sol.weights, t, sol.basis),
        lambda: is_representable(one.weights, t, one.basis),
        lambda: solve_degree(sol.weights, t),
    ):
        with pytest.raises(ValueError, match=re.escape(f"t {t!r} is not an integer")):
            call()
    with pytest.raises(ValueError):
        hilbert_value(sol, t)


def test_is_representable_window_against_oracle(pool):
    # every t in [0, 2f*+5] and 20 seeded random t below 10^30 against the
    # residue table, on seeded random instances, the test pool and inputs
    # with a weight 1.  Each witness is checked on its own terms: nonnegative,
    # of degree t and outside the head ideal.  A degree has one standard
    # monomial, so that pins the witness.
    rng = random.Random(SEED)
    cases = [Solution(random_weights(rng, 2, 4, 2, 80)) for _ in range(8)]
    cases += [Solution(e) for e in [(5, 1, 9), (1, 7), (1,)]]
    cases = [(sol, AperyTable.build(sol.weights)) for sol in cases]
    cases += [(inst, inst.apery) for inst in pool]
    for sol, table in cases:
        p, G = sol.weights, sol.basis
        fstar = max(table.least) - table.modulus
        ts = list(range(2 * fstar + 6)) + [rng.randrange(10**30) for _ in range(20)]
        for t in ts:
            got = is_representable(p, t, G)
            assert got.representable == table.representable(t), (p.entries, t)
            if got.representable:
                w = got.witness
                assert min(w) >= 0 and dot(w, p.entries) == t, (p.entries, t)
                assert not contains_monomial(sol.ideal, w), (p.entries, t)
            else:
                assert got.witness is None, (p.entries, t)


def test_huge_degree_witness():
    p = Weights((6, 10, 15))
    G = make_gb((6, 10, 15))
    t = 10**30 + 1  # far above the Frobenius number, hence representable
    res = is_representable(p, t, G)
    assert res.representable
    assert dot(res.witness, p.entries) == t


def test_corners_fixture():
    assert Solution(Weights((2, 3))).corners == frozenset({(-1, 1)})
    assert Solution(Weights((3, 5))).corners == frozenset({(-1, 2)})
    assert Solution(Weights((6, 10, 15))).corners == frozenset({(-1, 2, 1)})
    assert Solution(Weights((7, 11, 13))).corners == frozenset(
        {(-1, 1, 2), (-1, 2, 0)}
    )


def test_corners_when_a_weight_is_one():
    # the shifted components that `frob decomp` prints, (0,1) and (0,5,1)
    assert Solution((1, 5)).corners == frozenset({(-1, 0)})
    assert Solution((5, 1, 9)).corners == frozenset({(-1, 4, 0)})


def test_weight_one_skips_the_basis():
    # f* needs no basis when some weight is 1
    sol = Solution((92363017, 1, 18956779, 58102191, 70656068))
    assert sol.frobenius == -1
    assert "basis" not in sol.__dict__ and "kernel_rows" not in sol.__dict__


def test_light_weight_does_not_stall_saturation():
    # a first saturation pass with the weight-1 or weight-2 variable cheapest
    # ran for about 20 s on these LLL rows
    for entries in [
        (92363017, 2, 18956779, 58102191, 70656069),
        (92363017, 1, 18956779, 58102191, 70656068),
    ]:
        start = time.perf_counter()
        sol = Solution(entries)
        assert sol.frobenius == apery_frobenius(entries)
        assert len(sol.basis) > 0
        assert time.perf_counter() - start < 10.0


def test_cli_builds_the_basis_once(monkeypatch):
    calls = []
    original = frobgb.frobenius.lattice_groebner

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frobgb.frobenius, "lattice_groebner", counting)
    for command in ("decomp", "regularity"):
        calls.clear()
        assert invoke(command, "7", "11", "13")[0] == 0
        assert len(calls) == 1, command
    # regularity reads f* = -1 off a weight 1 and builds no basis at all
    calls.clear()
    weight_one = ("92363017", "1", "18956779", "58102191", "70656068")
    assert invoke("regularity", *weight_one)[:2] == (0, "0\n")
    assert calls == []


def test_cli_phase_timers_never_nest(monkeypatch):
    # a stage counted under two phases, or twice under one, would push the
    # phase sum past the total.  The LLL reduction and the staircase
    # corners, and so f*, come out of the groebner phase; extraction is the
    # normal form of test/hilbert.
    def slowed(original):
        def slow(*args):
            time.sleep(0.05)
            return original(*args)

        return slow

    monkeypatch.setattr(frobgb.frobenius, "lattice_groebner", slowed(lattice_groebner))
    for name in ("is_representable", "hilbert_value"):
        monkeypatch.setattr(frobgb.cli, name, slowed(getattr(frobgb.cli, name)))
    commands = (
        ["number"], ["test", "--t", "30"], ["gb"], ["decomp"], ["hilbert", "--t", "25"],
        ["regularity"],
    )
    for command in commands:
        code, out, _ = invoke(*command, "--json", "6", "10", "15")
        assert code == 0
        elapsed = json.loads(out)["elapsed"]
        phases = [elapsed[k] for k in ("basis", "groebner", "extraction")]
        assert sum(phases) <= elapsed["total"] + 1e-5, (command, elapsed)
        assert elapsed["groebner"] >= 0.05, (command, elapsed)
        if command[0] in ("test", "hilbert"):
            assert elapsed["extraction"] >= 0.05, (command, elapsed)


def test_one_lll_reduction_per_basis(monkeypatch, pool):
    # lattice_groebner is the one place on the route from weights to basis
    # that reduces rows: Solution hands it the kernel rows as they are
    calls = []

    def counted(rows):
        calls.append(tuple(rows))
        return lll_reduce(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("frobgb.") and getattr(module, "lll_reduce", None) is lll_reduce:
            monkeypatch.setattr(module, "lll_reduce", counted)
    for p in (pool[0].weights, benchmark_ladders()["fstar-n56"][0]):
        calls.clear()
        sol = Solution(p)
        sol.basis
        assert calls == [sol.kernel_rows], p


def test_corner_vectors_are_maximal_gaps():
    # x^(a+) standard, every bump x^((a+e_i)+) inside the head ideal
    for entries in [(6, 10, 15), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        sol = Solution(p)
        I = sol.ideal
        corners = sol.corners
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
        sol = Solution(entries)
        shifted = {tuple(x + 1 for x in a) for a in sol.corners}
        assert shifted == irreducible_decomposition_general(sol.ideal)


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
    # Solution reduces the kernel rows; the basis of the unreduced rows,
    # built directly, gives the same f*
    rng = random.Random(SEED + 1)
    cases = [(6, 10, 15), (7, 11, 13)] + [
        random_weights(rng, 2, 4, 2, 60) for _ in range(10)
    ]
    for entries in cases:
        p = Weights(entries)
        G = lattice_groebner(p, kernel_basis(p), OrderConfig(p))
        comps = irreducible_decomposition(initial_ideal(G), p)
        unreduced = max(pdegree(tuple(x - 1 for x in v), p) for v in comps)
        assert Solution(p).frobenius == unreduced, entries
    # the switch to unreduced rows is gone from the library
    for entry_point in (Solution, frobenius_number):
        with pytest.raises(TypeError):
            entry_point((6, 10, 15), use_lll=False)


def test_frobenius_number_against_oracle():
    rng = random.Random(SEED + 2)
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


def test_thousand_digit_weights():
    # the scale of the paper's title.  Two weights: Sylvester's
    # f* = ab - a - b.  The arithmetic sequences a, a + d, ..., a + s*d with
    # gcd(a, d) = 1: Roberts' f* = (floor((a - 2) / s) + 1) * a
    # + (d - 1) * (a - 1) - 1.  With four terms the heads carry exponents of
    # about 3,300 bits.
    rng = random.Random(SEED + 3)

    def coprime_pair():
        while True:
            a, d = (rng.randint(10**999, 10**1000 - 1) for _ in range(2))
            if gcd(a, d) == 1:
                return a, d

    a, b = coprime_pair()
    assert frobenius_number((a, b)) == a * b - a - b
    a, d = coprime_pair()
    for s in (2, 3):
        p = tuple(a + j * d for j in range(s + 1))
        assert frobenius_number(p) == ((a - 2) // s + 1) * a + (d - 1) * (a - 1) - 1, s
