"""Tests for reduced bases of kernel lattice ideals and binomial division.

The congruence x^u = x^v mod the ideal holds exactly when u and v share a
weighted degree (the kernel lattice is the full degree-zero sublattice), so
normal forms give a sharp equality test that the suite leans on heavily.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from operator import le, sub

import pytest

import frobgb.grobner as grobner
from frobgb import (
    AperyTable,
    Binomial,
    GroebnerBasis,
    OrderConfig,
    Solution,
    Weights,
    apery_frobenius,
    compare,
    contains_monomial,
    format_binomial,
    format_monomial,
    initial_ideal,
    kernel_basis,
    lattice_groebner,
    lll_reduce,
    normal_form,
    pdegree,
    reduce_binomial,
    solve_degree,
    validate_basis,
)
from frobgb.arith import negative_part, positive_part
from frobgb.monideal import _divides
from frobgb.order import EQ, LT

from helpers import (
    _ref_key,
    _ref_nf,
    benchmark_ladders,
    binomial_shape_ok,
    dot,
    integer_combination,
    permuted,
    random_weights,
    reference_groebner,
    reference_reducedness,
)

SEED = 550123


def make_gb(entries, use_lll=True):
    p = Weights(entries)
    rows = kernel_basis(p)
    if use_lll:
        rows = lll_reduce(rows)
    return lattice_groebner(p, rows, OrderConfig(p))


FROZEN = {
    (2, 3): ["x2^2 - x1^3"],
    (3, 5): ["x2^3 - x1^5"],
    (6, 10, 15): ["x2^3 - x1^5", "x3^2 - x1^5"],
    (6, 9, 20): ["x2^2 - x1^3", "x3^3 - x1^10"],
    (4, 6, 9): ["x2^2 - x1^3", "x3^2 - x1^3*x2"],
    (7, 11, 13): ["x2^3 - x1*x3^2", "x2^2*x3 - x1^5", "x3^3 - x1^4*x2"],
    (9, 12, 16): ["x2^3 - x1^4", "x3^3 - x1^4*x2"],
}


def test_frozen_bases():
    for entries, expected in FROZEN.items():
        G = make_gb(entries)
        assert [format_binomial(g) for g in G.elements] == expected, entries
    G = make_gb((6, 10, 15))
    assert G.heads() == ((0, 3, 0), (0, 0, 2))
    assert len(G) == 2
    assert G.elements[0].vector == (-5, 3, 0)
    # the weights may also come as a plain tuple
    rows = lll_reduce(kernel_basis(Weights((6, 10, 15))))
    assert lattice_groebner((6, 10, 15), rows, OrderConfig(Weights((6, 10, 15)))) == G


def test_reduction_route_does_not_change_the_basis():
    rng = random.Random(SEED)
    cases = list(FROZEN) + [random_weights(rng, 2, 5, 2, 150) for _ in range(12)]
    for entries in cases:
        assert make_gb(entries, use_lll=True) == make_gb(entries, use_lll=False)
    # saturating the unreduced kernel rows of these weights as given ran for
    # about 19 s, 42 s and more than 90 s; lattice_groebner reduces them first
    start = time.perf_counter()
    for entries in [(638, 868, 447, 182, 875),
                    (30257681, 97050281, 56522195, 60637701, 81240897),
                    (281125, 702870, 582731, 139062, 106386)]:
        assert make_gb(entries, use_lll=True) == make_gb(entries, use_lll=False)
    assert time.perf_counter() - start < 10.0


def test_deterministic_rebuild():
    for entries in [(6, 10, 15), (7, 11, 13)]:
        assert make_gb(entries) == make_gb(entries)


def test_elements_lie_in_the_kernel_lattice():
    for entries in [(6, 10, 15), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        rows = kernel_basis(p)
        G = make_gb(entries)
        for g in G.elements:
            assert pdegree(g.vector, p) == 0
            assert integer_combination(rows, g.vector) is not None


def lattice_vectors(entries, span):
    """All nonzero kernel vectors whose coordinates 2..n lie in [-span, span]."""
    tails = [()]
    for _ in range(len(entries) - 1):
        tails = [t + (x,) for t in tails for x in range(-span, span + 1)]
    out = []
    for t in tails:
        s = dot(t, entries[1:])
        if s % entries[0] == 0:
            v = (-s // entries[0],) + t
            if any(v):
                out.append(v)
    return out


def test_every_kernel_binomial_reduces_to_zero():
    # completeness of the saturation: the basis must reach the whole lattice
    cases = [((2, 3), 40), ((6, 10, 15), 25), ((7, 11, 13), 25), ((5, 6, 7, 8), 8)]
    for entries, span in cases:
        G = make_gb(entries)
        for v in lattice_vectors(entries, span):
            u = normal_form(positive_part(v), G)
            w = normal_form(negative_part(v), G)
            assert u == w, (entries, v)


def test_equal_degree_monomials_share_a_normal_form():
    rng = random.Random(SEED + 1)
    for entries in [(6, 10, 15), (7, 11, 13), (9, 12, 16)]:
        p = Weights(entries)
        G = make_gb(entries)
        table = AperyTable.build(p)
        for _ in range(60):
            u = tuple(rng.randint(0, 9) for _ in range(p.n))
            w = table.witness(pdegree(u, p))
            assert normal_form(u, G) == normal_form(w, G)


def test_distinct_degrees_never_collide():
    rng = random.Random(SEED + 2)
    p = Weights((6, 10, 15))
    G = make_gb((6, 10, 15))
    for _ in range(100):
        u = tuple(rng.randint(0, 9) for _ in range(3))
        v = tuple(rng.randint(0, 9) for _ in range(3))
        if pdegree(u, p) != pdegree(v, p):
            assert normal_form(u, G) != normal_form(v, G)


def test_normal_form_contract():
    rng = random.Random(SEED + 3)
    for entries in [(6, 10, 15), (7, 11, 13)]:
        p = Weights(entries)
        G = make_gb(entries)
        heads = G.heads()
        for _ in range(80):
            m = tuple(rng.randint(0, 12) for _ in range(p.n))
            nf = normal_form(m, G)
            assert pdegree(nf, p) == pdegree(m, p)
            assert normal_form(nf, G) == nf
            assert not any(all(h <= x for h, x in zip(head, nf)) for head in heads)
            # reduction never climbs the order
            from frobgb import compare

            assert compare(nf, m, G.order) in (LT, EQ)


def test_normal_form_handles_huge_exponents_quickly():
    G = make_gb((6, 10, 15))
    e = 10**20
    q, r = divmod(e, 3)
    start = time.perf_counter()
    assert normal_form((0, e, 0), G) == (5 * q, r, 0)
    assert normal_form((10**30, 0, 0), G) == (10**30, 0, 0)
    assert time.perf_counter() - start < 0.1


def test_confluence_against_random_single_steps():
    rng = random.Random(SEED + 4)
    for entries in [(6, 10, 15), (7, 11, 13), (4, 6, 9)]:
        G = make_gb(entries)
        pairs = [(g.head, g.tail) for g in G.elements]
        for _ in range(60):
            m = tuple(rng.randint(0, 10) for _ in range(len(entries)))
            cur = m
            while True:
                hits = [
                    (h, t) for h, t in pairs if all(x <= y for x, y in zip(h, cur))
                ]
                if not hits:
                    break
                h, t = rng.choice(hits)
                cur = tuple(x - a + b for x, a, b in zip(cur, h, t))
            assert cur == normal_form(m, G)


def test_reduce_binomial_frozen():
    G = make_gb((6, 10, 15))
    assert reduce_binomial((-1, 2, 1), G) == ((0, 0, 0), (-1, 2, 1))
    assert reduce_binomial((0, 3, 0), G) == ((0, 0, 0), (5, 0, 0))
    assert reduce_binomial((0, 0, 0), G) == ((0, 0, 0), (0, 0, 0))
    # the signed solutions for degrees 29 and 30 leave a common x1 factor
    assert reduce_binomial((-406, 203, 29), G) == ((405, 0, 0), (-1, 2, 1))
    assert reduce_binomial((-420, 210, 30), G) == ((420, 0, 0), (5, 0, 0))


def test_reduce_binomial_contract():
    rng = random.Random(SEED + 5)
    for entries in [(6, 10, 15), (7, 11, 13)]:
        p = Weights(entries)
        G = make_gb(entries)
        table = AperyTable.build(p)
        for _ in range(120):
            a = (rng.randint(-40, 0),) + tuple(
                rng.randint(0, 12) for _ in range(p.n - 1)
            )
            t = pdegree(a, p)
            if t < 0:
                continue
            w, c = reduce_binomial(a, G)
            assert all(x >= 0 for x in w)
            assert pdegree(c, p) == t
            assert all(x >= 0 for x in c[1:])  # only x1 may go negative
            assert (min(c) >= 0) == table.representable(t), (entries, a)
            u = tuple(x + y for x, y in zip(w, positive_part(c)))
            v = tuple(x + y for x, y in zip(w, negative_part(c)))
            assert u == normal_form(positive_part(a), G)
            assert v == normal_form(negative_part(a), G)


def test_reduce_binomial_is_bounded_in_t():
    # the signed solution of a huge degree is folded below p_1 before
    # division, so dividing it costs about what a small degree does
    p = Weights((34, 139, 111, 75, 51))
    G = make_gb(p.entries)
    table = AperyTable.build(p)
    rng = random.Random(SEED + 9)
    start = time.perf_counter()
    for t in [rng.randrange(10**30) for _ in range(20)]:
        _, c = reduce_binomial(solve_degree(p, t), G)
        assert pdegree(c, p) == t and (min(c) >= 0) == table.representable(t), t
    assert time.perf_counter() - start < 5


def test_reduce_binomial_rejects_bad_inputs():
    G = make_gb((6, 10, 15))
    with pytest.raises(ValueError):
        reduce_binomial((1, 2, 0), G)
    with pytest.raises(ValueError):
        reduce_binomial((-1, -2, 0), G)
    with pytest.raises(ValueError):
        reduce_binomial((-1, 2), G)


def test_lattice_groebner_rejects_bad_rows():
    p = Weights((6, 10, 15))
    cfg = OrderConfig(p)
    with pytest.raises(ValueError):
        lattice_groebner(p, (( -5, 3, 0),), cfg)  # too few rows
    with pytest.raises(ValueError):
        lattice_groebner(p, ((-5, 3, 0), (1, 0, 0)), cfg)  # not homogeneous
    with pytest.raises(ValueError):
        lattice_groebner(p, ((-5, 3, 0), (-10, 6, 0)), cfg)  # dependent
    with pytest.raises(ValueError):
        lattice_groebner(p, ((-5, 3), (-30, 15)), cfg)  # wrong dimension
    with pytest.raises(ValueError):
        lattice_groebner(Weights((2, 3)), ((-3, 2),), cfg)  # wrong weights
    with pytest.raises(ValueError, match="different weights"):
        lattice_groebner((2, 3), ((-3, 2),), cfg)


def test_wrong_dimension_has_one_message():
    G = make_gb((6, 10, 15))
    for call in (
        lambda: normal_form((1, 2), G),
        lambda: reduce_binomial((-1, 2), G),
        lambda: contains_monomial(initial_ideal(G), (1, 2, 3, 4)),
        lambda: compare((1, 2), (0, 1, 2), G.order),
    ):
        with pytest.raises(ValueError, match="expected a vector of dimension"):
            call()


def test_dependent_rows_share_the_lll_message():
    p = Weights((6, 10, 15))
    rows = ((-5, 3, 0), (-10, 6, 0))
    with pytest.raises(ValueError, match="linearly dependent"):
        lattice_groebner(p, rows, OrderConfig(p))
    with pytest.raises(ValueError, match="linearly dependent"):
        lll_reduce(rows)
    with pytest.raises(ValueError, match="linearly dependent"):
        lll_reduce(((0, 0),))


def test_validate_basis_catches_damage():
    cfg = OrderConfig(Weights((6, 10, 15)))
    a = Binomial((0, 3, 0), (5, 0, 0))
    b = Binomial((0, 0, 2), (5, 0, 0))
    validate_basis(GroebnerBasis((a, b), cfg))
    with pytest.raises(ValueError, match="ascending"):
        validate_basis(GroebnerBasis((b, a), cfg))
    with pytest.raises(ValueError, match="homogeneous"):
        validate_basis(GroebnerBasis((Binomial((0, 3, 0), (4, 0, 0)), b), cfg))
    with pytest.raises(ValueError, match="oriented"):
        validate_basis(GroebnerBasis((Binomial((5, 0, 0), (0, 3, 0)), b), cfg))
    with pytest.raises(ValueError, match="support"):
        validate_basis(GroebnerBasis((Binomial((1, 3, 0), (6, 0, 0)), b), cfg))
    # a head that uses the cheapest variable x1 sorts below an x1-free tail
    with pytest.raises(ValueError, match="oriented"):
        validate_basis(GroebnerBasis((a, Binomial((5, 0, 2), (0, 6, 0))), cfg))
    # a missing or too high pure power shows in the Apery count
    with pytest.raises(ValueError, match="infinitely many standard monomials free of x1"):
        validate_basis(GroebnerBasis((a,), cfg))
    with pytest.raises(ValueError, match="leave 24 standard monomials free of x1, not p_1 = 6"):
        validate_basis(GroebnerBasis((a, Binomial((0, 0, 8), (20, 0, 0))), cfg))
    with pytest.raises(ValueError, match="divides tail"):
        validate_basis(GroebnerBasis((a, Binomial((0, 0, 2), (0, 3, 0))), cfg))
    with pytest.raises(ValueError, match="divides head"):
        validate_basis(GroebnerBasis((a, Binomial((0, 6, 0), (10, 0, 0))), cfg))


def test_validate_basis_rejects_a_proper_sub_ideal():
    # every shape check passes, but x3^4 - x1^10 leaves x3^2 - x1^5 out: the
    # heads leave 12 monomials free of x1 where I_L leaves p_1 = 6, and
    # normal_form's fold, which assumes I_L, would send x3^6 to x1^15
    # where division gives x1^10*x3^2
    cfg = OrderConfig(Weights((6, 10, 15)))
    G = GroebnerBasis(
        (Binomial((0, 3, 0), (5, 0, 0)), Binomial((0, 0, 4), (10, 0, 0))), cfg
    )
    with pytest.raises(ValueError, match="12 standard monomials free of x1, not p_1 = 6"):
        validate_basis(G)


def damaged_copies(elements, p):
    """Copies of a basis, as (side, elements), in which the tail of element
    j (side "tail"), or its head (side "head"), is replaced by a multiple of
    the head h_i of another element: m - t_i + h_i for the side m, when t_i
    divides m.  The degree stays, the heads are sorted again, and only the
    copies that pass every shape check (helpers.binomial_shape_ok) are
    kept, so that only the divisibility of the new side is wrong."""
    key = _ref_key(p, 1)
    for side in ("tail", "head"):
        for j, (hj, tj) in enumerate(elements):
            m = tj if side == "tail" else hj
            for i, (hi, ti) in enumerate(elements):
                if i == j or not all(map(le, ti, m)):
                    continue
                new = tuple(a - b + c for a, b, c in zip(m, ti, hi))
                g = (hj, new) if side == "tail" else (new, tj)
                copy = sorted(elements[:j] + [g] + elements[j + 1:], key=lambda e: key(e[0]))
                if binomial_shape_ok(copy, p):
                    yield side, copy


def test_validate_basis_agrees_with_the_reference_reducedness(pool):
    # validate_basis divides each head and each tail by the earlier heads
    # with _reduce_step, where it used to run the pairwise mask loop of
    # helpers.reference_reducedness.  Both pass every pool and
    # benchmark-ladder basis and reject every damaged copy, for the side
    # that was damaged: 154 tail and 90 head copies on these bases.
    ladders = benchmark_ladders()
    sols = [*pool, *map(Solution, ladders["fstar-n56"] + ladders["cli-small"])]
    tested = Counter()
    for sol in sols:
        G = sol.basis
        elements = [(g.head, g.tail) for g in G.elements]
        assert reference_reducedness(elements) == []
        validate_basis(G)
        for side, copy in damaged_copies(elements, sol.weights.entries):
            found = reference_reducedness(copy)
            assert found and all(f"divides {side}" in msg for msg in found), copy
            damaged = GroebnerBasis(tuple(Binomial(h, t) for h, t in copy), G.order)
            with pytest.raises(ValueError, match=f"divides {side}"):
                validate_basis(damaged)
            tested[side] += 1
    assert tested["tail"] >= 100 and tested["head"] >= 50, tested


def test_normal_form_rejects_bad_vectors():
    G = make_gb((6, 10, 15))
    with pytest.raises(ValueError):
        normal_form((1, 2), G)
    with pytest.raises(ValueError):
        normal_form((-1, 0, 0), G)


def test_rendering():
    assert format_monomial((0, 0, 0)) == "1"
    assert format_monomial((1, 0, 2)) == "x1*x3^2"
    assert format_monomial((0, 1, 0)) == "x2"
    assert format_binomial(Binomial((0, 0, 2), (0, 3, 0))) == "x3^2 - x2^3"
    assert format_binomial(Binomial((0, 1), (3, 0))) == "x2 - x1^3"


def test_matches_the_all_pairs_reference(pool):
    # neither the pair criteria, the reducer lookup nor the lazy saturation
    # (two runs when the Apery count certifies them) may change any basis,
    # on reduced or unreduced rows.  Nor may normal_form's fold of the
    # exponents mod p_1 change a normal form: random monomials with
    # exponents up to 3 * p_1 are held to plain division by the reference.
    # Every weight takes its turn as p_1, the rows permuted alike, so every
    # variable is the cheapest once.
    rng = random.Random(SEED + 8)
    for inst in pool:
        for rows in (lll_reduce(inst.kernel_rows), inst.kernel_rows):
            for rv in range(1, inst.weights.n + 1):
                q, q_rows = permuted(inst.weights.entries, rows, rv)
                G = lattice_groebner(q, q_rows, OrderConfig(Weights(q)))
                expected = reference_groebner(q_rows, q)
                assert [(g.head, g.tail) for g in G.elements] == expected, (q, q_rows)
                for _ in range(8):
                    m = tuple(rng.randint(0, 3 * q[0]) for _ in q)
                    assert normal_form(m, G) == _ref_nf(m, expected), (q, m)


@pytest.mark.parametrize("entries", [(100, 1669, 1571, 825, 1873, 769, 1101),
                                     (1274, 300, 1959, 1673, 853, 1371, 177)])
def test_seven_weights_match_the_all_pairs_reference(entries):
    # the pool stops at n = 5 and the ladders at n = 6, while the queue the
    # pair criteria prune grows fastest with n: on LLL rows with x_1
    # cheapest, the basis is the reference's and f* the oracle's
    sol = Solution(entries)
    expected = reference_groebner(lll_reduce(sol.kernel_rows), sol.weights)
    assert [(g.head, g.tail) for g in sol.basis.elements] == expected
    assert sol.frobenius == apery_frobenius(entries)


def test_packed_heads_agree_with_tuples():
    # the pair update's packed arithmetic against the tuple operations it
    # replaces, for every new head h among random vectors of up to 3,200
    # bits: the excesses (a - h)^+ of the other heads, coprimality, whether
    # h divides a, and criterion M's test of one excess dividing another,
    # which the integer order of the packed excesses must refine.  Then a
    # wider head arrives and everything is repacked.
    rng = random.Random(SEED + 9)

    def check(vecs, width):
        n = len(vecs[0])
        guards = grobner._pack((1 << width,) * n, width)
        packed = {v: grobner._pack(v, width) for v in vecs}
        for h in vecs:
            excesses = {}
            for a in vecs:
                q, above = grobner._colon(packed[a], packed[h], width, guards)
                excess = tuple(map(sub, map(max, a, h), h))
                assert q == grobner._pack(excess, width), (a, h)
                assert (above == guards) == _divides(h, a), (a, h)
                coprime = not grobner._support(a) & grobner._support(h)
                assert (q == packed[a]) == coprime, (a, h)
                excesses[excess] = q
            for x, qx in excesses.items():
                for y, qy in excesses.items():
                    divides = ((qy | guards) - qx) & guards == guards
                    assert divides == _divides(x, y), (x, y)
                    assert qx <= qy or not divides, (x, y)

    for bits in (1, 2, 5, 17, 64, 3200):
        for n in (1, 2, 5, 8):
            vecs = [tuple(rng.getrandbits(rng.randint(0, bits)) * rng.randint(0, 1)
                          for _ in range(n)) for _ in range(10)]
            vecs.append(tuple(map(max, vecs[0], vecs[1])))  # a multiple of both
            width = max(max(v) for v in vecs).bit_length()
            check(vecs, width)
            head = tuple(x | rng.randint(0, 1) << width + rng.randint(0, 40)
                         for x in vecs[2])
            head = (head[0] | 1 << width,) + head[1:]  # wider than the packing
            check(vecs + [head], max(head).bit_length())


@pytest.mark.parametrize("entries", [(3, 1000, 1001), (23, 29, 31, 37)])
def test_a_wider_head_repacks_mid_run(monkeypatch, entries):
    # a head wider than the packing arrives after the first, so the active
    # heads are repacked in the middle of a run; with every weight first in
    # turn, the basis is still the reference's
    runs = []
    pack, buchberger = grobner._pack, grobner._buchberger

    def recording_pack(v, width):
        runs[-1].add(width)
        return pack(v, width)

    def recording_buchberger(gens, weights, var):
        runs.append(set())
        return buchberger(gens, weights, var)

    monkeypatch.setattr(grobner, "_pack", recording_pack)
    monkeypatch.setattr(grobner, "_buchberger", recording_buchberger)
    rows = lll_reduce(kernel_basis(Weights(entries)))
    for rv in range(1, len(entries) + 1):
        q, q_rows = permuted(entries, rows, rv)
        G = lattice_groebner(q, q_rows, OrderConfig(Weights(q)))
        assert [(g.head, g.tail) for g in G.elements] == reference_groebner(q_rows, q)
    assert any(len(widths) > 1 for widths in runs)


def test_benchmark_ladders_queue_the_same_pairs(monkeypatch):
    # the pair criteria pin the queue: the S-pairs queued on the path
    # frobenius_number takes, summed over each benchmark ladder
    pushed = []
    push = grobner.heappush

    def counting(heap, item):
        pushed.append(item)
        push(heap, item)

    monkeypatch.setattr(grobner, "heappush", counting)
    for name, count in (("fstar-n56", 4999), ("cli-small", 962)):
        pushed.clear()
        for entries in benchmark_ladders()[name]:
            Solution(entries).basis
        assert len(pushed) == count, name


@pytest.fixture
def buchberger_runs(monkeypatch):
    """The cheapest variable of every Buchberger run, in call order."""
    runs = []
    original = grobner._buchberger

    def counting(gens, weights, var):
        runs.append(var)
        return original(gens, weights, var)

    monkeypatch.setattr(grobner, "_buchberger", counting)
    return runs


def row_degree_order(p, rows):
    """The variables x_2, ..., x_n by decreasing largest row degree."""
    return sorted(
        range(2, len(p) + 1),
        key=lambda v: -p[v - 1] * max(abs(r[v - 1]) for r in rows),
    )


def test_certified_saturation_takes_two_runs(buchberger_runs):
    # the first variable of the row-degree order of the LLL rows, then the
    # target order; the Apery count certifies these inputs, so nothing else
    # runs.  Every weight takes its turn as p_1.
    rng = random.Random(SEED + 7)
    cases = [random_weights(rng, 2, 6, 2, 60) for _ in range(12)]
    cases += [(1, 7, 9), (5, 1, 9, 13), (2, 9), (9, 2, 15, 31), (61, 2, 37, 45, 13, 1)]
    for entries in cases:
        p = Weights(entries)
        for rows in (kernel_basis(p), lll_reduce(kernel_basis(p))):
            for rv in range(1, p.n + 1):
                q, q_rows = permuted(entries, rows, rv)
                buchberger_runs.clear()
                G = lattice_groebner(q, q_rows, OrderConfig(Weights(q)))
                assert buchberger_runs == [row_degree_order(q, lll_reduce(q_rows))[0], 1], (
                    q, buchberger_runs)
                expected = reference_groebner(q_rows, q)
                assert [(g.head, g.tail) for g in G.elements] == expected, (q, q_rows)


def test_one_weight_takes_one_run_on_x1(buchberger_runs):
    # n = 1 has no kernel rows and no other variable to saturate, so the
    # first schedule is the x_1 run alone, and the empty basis it gives
    # leaves p_1 = 1 standard monomial, which certifies it
    G = lattice_groebner((1,), (), OrderConfig(Weights((1,))))
    assert buchberger_runs == [1]
    assert G.elements == ()


# Inputs whose two runs leave an Apery count above p_1, on LLL rows, with
# the Buchberger runs they take.
UNCERTIFIED = [((713, 9905, 8871, 6232, 7073), [4, 1, 3, 5, 1]),
               ((9, 7, 6, 4, 9, 6), [5, 1, 2, 3, 6, 1])]


@pytest.mark.parametrize("entries, runs", UNCERTIFIED)
def test_uncertified_saturation_falls_back(buchberger_runs, entries, runs):
    # every other variable but the second of the order is saturated, then
    # the target order runs again
    p = Weights(entries)
    rows = lll_reduce(kernel_basis(p))
    G = lattice_groebner(p, rows, OrderConfig(p))
    order = row_degree_order(entries, rows)
    assert buchberger_runs == runs == [order[0], 1, *order[2:], 1]
    assert [(g.head, g.tail) for g in G.elements] == reference_groebner(rows, entries)


def test_benchmark_ladder_takes_two_runs(buchberger_runs):
    # regression guard for the fstar-n56 benchmark: every instance of its
    # ladder is certified after two runs on the path frobenius_number takes
    ladder = benchmark_ladders()["fstar-n56"]
    assert len(ladder) == 21
    for entries in ladder:
        buchberger_runs.clear()
        Solution(entries).basis
        assert len(buchberger_runs) == 2 and buchberger_runs[-1] == 1, (
            entries, buchberger_runs)


def test_saturation_matches_sympy():
    # an ideal check independent of our Buchberger: sympy saturates the
    # kernel-row ideal I by eliminating t from I + <1 - t*x1*...*xn>, and
    # equal ideals have equal reduced bases in sympy's grevlex; it saturates
    # by every variable, where lattice_groebner mostly runs two passes
    sympy = pytest.importorskip("sympy")

    def binomial(xs, v):
        return sympy.Mul(*(x**a for x, a in zip(xs, v) if a > 0)) - sympy.Mul(
            *(x**-a for x, a in zip(xs, v) if a < 0)
        )

    rng = random.Random(SEED + 6)
    cases = [random_weights(rng, 3, 4, 2, 15) for _ in range(20)]
    cases += [random_weights(rng, 2, 2, 2, 15) for _ in range(3)]
    cases += [random_weights(rng, 5, 5, 2, 9) for _ in range(3)]
    for entries in cases:
        p = Weights(entries)
        xs = sympy.symbols(f"x1:{p.n + 1}")
        t = sympy.Symbol("t")
        for rows in (kernel_basis(p), lll_reduce(kernel_basis(p))):
            gens = [binomial(xs, r) for r in rows] + [1 - t * sympy.Mul(*xs)]
            elim = sympy.groebner(gens, t, *xs, order="lex")
            saturation = [g for g in elim.exprs if not g.has(t)]
            expected = sympy.groebner(saturation, *xs, order="grevlex").exprs
            for rv in range(1, p.n + 1):
                # x_rv cheapest: the weights, rows and variables permuted to
                # put x_rv first
                q, q_rows = permuted(entries, rows, rv)
                qxs = permuted(xs, (), rv)[0]
                G = lattice_groebner(q, q_rows, OrderConfig(Weights(q)))
                ours = [binomial(qxs, g.vector) for g in G.elements]
                got = sympy.groebner(ours, *xs, order="grevlex").exprs
                assert got == expected, (p, rows, rv)
