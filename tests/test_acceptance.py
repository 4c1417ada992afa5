"""Acceptance suite: one test per shipped criterion, run with -v for a
pass/fail line per criterion (each test also prints a PASS summary with
the measured numbers, visible under -s or in captured output).

 1. frob number 6 10 15 prints 29 in under a second
 2. the reference order chain for weights (2, 3) reproduces exactly
 3. frobenius_number matches the shortest-path oracle on 55 instances
 4. is_representable matches the oracle on whole windows, witnesses verified
 5. structural invariants hold on every computed basis
 6. 1000 reducibility checks on oracle-representable signed vectors
 7. the irreducible decomposition equals the reference walk's, certified
 8. Hilbert values are 0/1 indicators of representability; regularity f*+1
 9. a 25-digit 4-weight instance is self-consistent within the time budget,
    and the 6-weight, 6-digit wall instance matches the oracle in time
10. LLL-reduced and unreduced kernel rows give the same results
"""

from __future__ import annotations

import io
import os
import random
import time
from itertools import product
from math import gcd

import pytest

from frobgb import (
    OrderConfig,
    Solution,
    Weights,
    apery_frobenius,
    compare,
    component_ideal,
    contains_monomial,
    frobenius_number,
    hilbert_value,
    index_of_regularity,
    initial_ideal,
    intersect,
    irreducible_decomposition,
    is_representable,
    kernel_basis,
    lattice_groebner,
    lll_reduce,
    pdegree,
    solve_degree,
)
from frobgb.cli import run
from frobgb.order import LT

from helpers import dot, reference_decomposition

SEED = 87512040


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_c01_cli_number_example():
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run(["number", "6", "10", "15"], stdout=out, stderr=err)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.getvalue() == "29\n"
    assert elapsed < 1.0
    report("criterion 1", f"frob number 6 10 15 -> 29 in {elapsed:.3f}s")


def test_c02_order_chain_fixture():
    chain = [(0, 0), (1, 0), (3, 0), (0, 2), (4, 5)]
    cfg = OrderConfig(Weights((2, 3)))
    for a, b in zip(chain, chain[1:]):
        assert compare(a, b, cfg) == LT
    report("criterion 2", "reference chain of 5 monomials ascends exactly")


def test_c03_frobenius_matches_oracle(pool):
    assert len(pool) >= 50
    start = time.perf_counter()
    for inst in pool:
        entries = inst.weights.entries
        assert 2 <= len(entries) <= 5
        assert all(2 <= w <= 200 for w in entries)
        assert frobenius_number(inst.weights) == inst.fstar_oracle, entries
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report("criterion 3", f"{len(pool)} instances agree with the oracle in {elapsed:.2f}s")


def test_c04_representability_matches_oracle(pool, small20):
    assert len(small20) >= 20
    assert all(inst in pool for inst in small20)
    checked = 0
    for inst in small20:
        p, G, table = inst.weights, inst.basis, inst.apery
        for t in range(2 * inst.fstar_oracle + 6):
            res = is_representable(p, t, G)
            assert res.representable == table.representable(t), (p.entries, t)
            if res.representable:
                assert all(x >= 0 for x in res.witness)
                assert dot(res.witness, p.entries) == t
            else:
                assert res.witness is None
            checked += 1
    report("criterion 4", f"{checked} window values agree on {len(small20)} instances")


def test_c05_structural_invariants(pool):
    bases = 0
    for inst in pool:
        p, G = inst.weights, inst.basis
        heads = G.heads()
        for g in G.elements:
            assert pdegree(g.head, p) == pdegree(g.tail, p)  # p-homogeneous
            assert g.head[0] == 0  # head never divisible by x1
        for i, h in enumerate(heads):
            for j, g in enumerate(G.elements):
                if i != j:
                    assert not all(a <= b for a, b in zip(h, g.head))
                assert not all(a <= b for a, b in zip(h, g.tail))  # reduced
        ideal = inst.ideal
        p1 = p.entries[0]
        for i in range(1, p.n):
            power = tuple(p1 if j == i else 0 for j in range(p.n))
            assert contains_monomial(ideal, power)  # x_i^(p_1) in the head ideal
        bases += 1
    report("criterion 5", f"invariants hold on all {bases} bases, zero violations")


def test_c06_reducibility_of_representable_signed_vectors(pool):
    rng = random.Random(SEED)
    checked = 0
    k = 0
    while checked < 1000:
        inst = pool[k % len(pool)]
        k += 1
        p, table = inst.weights, inst.apery
        n = p.n
        if k % 2:
            # representable by construction, then forced negative in slot 1
            b = tuple(rng.randint(0, 6) for _ in range(n))
            a = solve_degree(p, dot(b, p.entries))
            if a[0] == 0:
                s = sum(p.entries[1:])
                a = (a[0] - s,) + tuple(x + p.entries[0] for x in a[1:])
        else:
            a = (-rng.randint(1, 9),) + tuple(rng.randint(0, 6) for _ in range(n - 1))
            if pdegree(a, p) < 0 or not table.representable(pdegree(a, p)):
                continue
        assert a[0] < 0 and all(x >= 0 for x in a[1:])
        assert table.representable(pdegree(a, p))
        plus = (0,) + a[1:]
        assert any(
            all(h <= m for h, m in zip(head, plus)) for head in inst.basis.heads()
        ), (p.entries, a)
        checked += 1
    report("criterion 6", f"{checked} signed vectors reducible, zero violations")


def test_c07_corners_equal_decomposition(pool):
    grids = 0
    for inst in pool:
        comps = inst.components
        assert comps == reference_decomposition(inst.ideal), inst.weights.entries

        # exact intersection equality of the decomposition
        acc = None
        for v in sorted(comps):
            f = component_ideal(v)
            acc = f if acc is None else intersect(acc, f)
        assert acc == inst.ideal, inst.weights.entries

        # irredundancy: a monomial per component inside every other component
        big = max(x for v in comps for x in v) + 1
        for v in comps:
            witness = tuple(x - 1 if x > 0 else big for x in v)
            assert not contains_monomial(component_ideal(v), witness)
            for w in comps:
                if w != v:
                    assert contains_monomial(component_ideal(w), witness)

        # literal membership grid where it stays small
        spans = [
            max(g[i] for g in inst.ideal.generators) + 2 for i in range(inst.weights.n)
        ]
        points = 1
        for s in spans:
            points *= s
        if points <= 20000:
            grids += 1
            ideals = [component_ideal(v) for v in comps]
            for m in product(*(range(s) for s in spans)):
                assert contains_monomial(inst.ideal, m) == all(
                    contains_monomial(f, m) for f in ideals
                )
    report(
        "criterion 7",
        f"decomposition matches the reference walk on {len(pool)} instances"
        f" ({grids} verified pointwise on full grids)",
    )


def test_c08_hilbert_indicator_and_regularity(small20):
    values = 0
    for inst in small20:
        table = inst.apery
        fstar = inst.fstar_oracle
        for t in range(fstar + inst.weights.entries[0] + 1):
            v = hilbert_value(inst, t)
            assert v in (0, 1)
            assert v == int(table.representable(t)), (inst.weights.entries, t)
            values += 1
        assert index_of_regularity(inst) == fstar + 1, inst.weights.entries
    report(
        "criterion 8",
        f"{values} Hilbert values are representability indicators;"
        f" regularity f*+1 on {len(small20)} instances",
    )


def _random_coprime(rng, n, digits):
    lo, hi = 10 ** (digits - 1), 10**digits
    while True:
        entries = tuple(rng.randrange(lo, hi) for _ in range(n))
        g = 0
        for w in entries:
            g = gcd(g, w)
        if g == 1:
            return entries


def test_c09_self_consistency_at_scale():
    rng = random.Random(SEED + 9)
    entries = _random_coprime(rng, 4, 25)
    p = Weights(entries)
    start = time.perf_counter()
    cfg = OrderConfig(p)
    G = lattice_groebner(p, kernel_basis(p), cfg)  # reduces the rows itself
    comps = irreducible_decomposition(initial_ideal(G), p)
    fstar = max(pdegree(tuple(x - 1 for x in v), p) for v in comps)
    assert not is_representable(p, fstar, G).representable
    for k in range(1, 1001):
        res = is_representable(p, fstar + k, G)
        assert res.representable, k
        assert all(x >= 0 for x in res.witness)
        assert dot(res.witness, entries) == fstar + k
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        "criterion 9",
        f"25-digit n=4 instance: f* has {len(str(fstar))} digits, gap at f*,"
        f" 1000 verified witnesses above, {elapsed:.2f}s",
    )


def test_c09_six_weight_wall():
    # six 6-digit weights; the unpruned staircase walk ran for minutes here
    entries = (257944, 678733, 891319, 506944, 373844, 292562)
    start = time.perf_counter()
    fstar = frobenius_number(entries)
    elapsed = time.perf_counter() - start
    assert fstar == 20546661
    assert fstar == apery_frobenius(entries)
    assert elapsed < 60.0
    report("criterion 9 wall", f"n=6 wall instance: f* = {fstar} in {elapsed:.2f}s")


@pytest.mark.skipif(
    not os.environ.get("FROBGB_STRETCH"),
    reason="stretch scale check; set FROBGB_STRETCH=1 to run",
)
def test_c09_stretch_hundred_digits():
    rng = random.Random(SEED + 99)
    entries = _random_coprime(rng, 4, 100)
    p = Weights(entries)
    start = time.perf_counter()
    G = lattice_groebner(p, kernel_basis(p), OrderConfig(p))  # reduces the rows itself
    comps = irreducible_decomposition(initial_ideal(G), p)
    fstar = max(pdegree(tuple(x - 1 for x in v), p) for v in comps)
    assert not is_representable(p, fstar, G).representable
    for k in range(1, 11):
        assert is_representable(p, fstar + k, G).representable
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    report("criterion 9 stretch", f"100-digit n=4 instance in {elapsed:.2f}s")


def test_c10_route_independence(pool):
    rng = random.Random(SEED + 10)
    small = [inst for inst in pool if max(inst.weights.entries) <= 40][:20]
    assert len(small) == 20
    for inst in small:
        p = inst.weights
        rows = kernel_basis(p)
        bases = [
            lattice_groebner(p, lll_reduce(rows), OrderConfig(p)),
            lattice_groebner(p, rows, OrderConfig(p)),
        ]
        unreduced = irreducible_decomposition(initial_ideal(bases[1]), p)
        fstar = Solution(p).frobenius
        assert fstar == max(pdegree(tuple(x - 1 for x in v), p) for v in unreduced), p.entries

        samples = {max(fstar - 1, 0), fstar, fstar + 1}
        samples.update(rng.randint(0, 2 * fstar + 5) for _ in range(7))
        for t in sorted(samples):
            verdicts = {is_representable(p, t, G).representable for G in bases}
            assert len(verdicts) == 1, (p.entries, t)
    report("criterion 10", "identical results across 2 routes on 20 instances")
