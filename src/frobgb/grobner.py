"""Reduced Groebner bases of kernel lattice ideals, and binomial division.

A lattice vector v with v.p = 0 corresponds to the binomial
x^(v+) - x^(v-); both sides have the same weighted degree, so the whole
ideal is homogeneous for the grading.  Buchberger's algorithm stays inside
binomials: every S-polynomial and every reduction of a binomial is again a
binomial, represented here as an oriented pair of exponent tuples.

The basis rows only generate the kernel ideal up to saturation by the
product of the variables.  One pass per variable saturates: under an order
whose cheapest variable is x_i, the head of a primitive homogeneous binomial
is x_i-free, and stripping common variable factors from a basis computed in
that order realises the quotient by powers of x_i.  The grading is positive,
so a single pass over the variables suffices, and one variable x_j may be
left out: for any Z-basis B of the lattice L and any j,

    I_B : (prod_{i != j} x_i)^inf = I_L.

Write u in L as u = sum_b c_b * b and walk from u- to u+ by the moves
sign(c_b) * b, first every move that raises the x_j exponent, then every
move that lowers it.  That exponent climbs from u-_j >= 0 and then falls to
u+_j >= 0, so it stays >= 0 throughout.  A move w -> w + s is
x^w - x^(w+s) = x^(w-s-) * (x^(s-) - x^(s+)), and x^(w-s-) has x_j
exponent min(w_j, w_j + s_j) >= 0, so x^(u+) - x^(u-) lies in
I_B * k[x][x_i^-1 : i != j], and a power of prod_{i != j} x_i multiplies it
into I_B.  Every pass stays inside I_L, so saturating all variables but one
already gives I_L.

Most inputs need only two runs, and a count of standard monomials says
which.  Let J, inside I_L, be the ideal of a reduced basis G in the order
with x_rv cheapest.  The x_rv-free monomials outside in(J) number exactly
p_rv if and only if J = I_L:

1. in(J + x_rv) = in(J) + x_rv.  Take f = g + x_rv * h homogeneous with
   g in J and an x_rv-free head.  In one degree every x_rv-free monomial
   is above every x_rv-divisible one, and the x_rv-free terms of g are
   those of f, so in(f) = in(g) lies in in(J).  So the count is
   dim k[x]/(J + x_rv).
2. dim k[x]/(I_L + x_rv) = p_rv.  k[x]/I_L is the semigroup ring of the
   weights, and dividing it by t^(p_rv) leaves one monomial per element
   of the Apery set of p_rv, one per residue class mod p_rv.
3. J + x_rv is inside I_L + x_rv, so the count is at least p_rv, and
   equality makes the two ideals equal.  Then J = I_L: let f be a
   homogeneous element of I_L of least degree outside J, and write
   f = g + x_rv * h with g in J.  x_rv * h = f - g lies in I_L, which is
   prime and holds no variable, so h lies in I_L, hence in J by the
   minimality of f, and f lies in J.

The count comes from the one staircase walk, monideal.staircase, on the
heads with the x_rv coordinate removed; it is None, and certifies nothing,
when some variable has no pure power among them.  The same walk yields the
maximal standard monomials of that projection, the staircase corners that
f* is read from (frobenius.Solution.corners).  Compare Bigatti, La Scala
and Robbiano 1999, "Computing toric ideals".

The basis does not depend on the pass order, but the time can.  The first
pass is the only one on the unsaturated ideal, and on skewed weights nearly
all of the time goes there; on balanced weights no pass dominates.  The
variables are ordered by decreasing max |r_i| * p_i over the rows r, the
largest degree x_i reaches in a row; on LLL rows this is close to
decreasing weight.  The choice weighs little as measured: on the LLL rows
of (92363017, 2, 18956779, 58102191, 70656069) the first two runs take
11 ms with x_2 cheapest first and 7 ms with x_5.

Every basis lattice_groebner returns is in the target order, the one
with x_1 cheapest (order.OrderConfig), so the order of the passes above
ranks x_2, ..., x_n only.  lattice_groebner LLL-reduces the rows it is
given, so every run starts from reduced rows; it runs the first variable
of this order and then x_1, so the second run is in the target order, and
counts.  When the count is not p_1 it saturates the rest of the order but
its second variable, then runs x_1 again: n runs in all for n >= 4.
For n <= 3 the two runs already saturate all variables but one, so the
count certifies them and no third run is taken.  On LLL rows
of 160 seeded random inputs (n = 3..6, 2 to 8 digits, half with one weight
<= 30, x_1 cheapest) none ran past a 3 s limit.  All 21 fstar-n56
benchmark instances and all 40 cli-small instances take two runs.

Each Buchberger run prunes its S-pairs with the Gebauer-Moeller update
(criteria M and F and the product criterion, see _buchberger) and drops
elements whose head a newer head divides.  Input binomials and S-pairs
enter a run by one route, the inputs first, in the order given, then the
S-pairs from one queue in ascending term order.  Each is only top-reduced,
so the larger side is divided until the two sides meet or that side is
irreducible, and a nonzero remainder is made primitive and inserted.
Every head in a run is then irreducible by the others, and the run returns
the reduced basis once its tails are reduced, at the end.  A run works in
coordinates permuted into its order's revlex scan, where two monomials of
one degree compare as plain tuples, so no sort key is built in its loops;
the basis is permuted back on return.  The pair update holds every active
head also as one packed integer, one field per exponent under a guard
bit, and one subtraction and one mask per active head give the colon by
the new head, coprimality and both divisibility tests.  Division looks
reducers up by the support bitmask of their heads, so a head that uses a
variable the monomial lacks is passed over without scanning exponents, and
the other heads are scanned over their nonzero entries only.
validate_basis, normal_form and reduce_binomial divide on plain tuples, so
the certificate does not lean on the packing.  validate_basis takes the
same Apery count, so a basis it accepts generates I_L, as normal_form
assumes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from operator import add

from .arith import (
    Vector,
    Weights,
    _check_dim,
    _check_exponents,
    as_weights,
    decimal_str,
    lll_reduce,
    negative_part,
    pdegree,
    positive_part,
)
from .monideal import staircase
from .order import OrderConfig, _scan_order

__all__ = [
    "Binomial",
    "GroebnerBasis",
    "format_binomial",
    "format_monomial",
    "lattice_groebner",
    "normal_form",
    "reduce_binomial",
    "validate_basis",
]


@dataclass(frozen=True)
class Binomial:
    """Oriented binomial x^head - x^tail, head above tail in the basis order."""

    head: Vector
    tail: Vector

    @property
    def vector(self) -> Vector:
        """The lattice vector head - tail."""
        return tuple(h - t for h, t in zip(self.head, self.tail))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis of a kernel lattice ideal, sorted ascending by head."""

    elements: tuple[Binomial, ...]
    order: OrderConfig

    @property
    def weights(self) -> Weights:
        return self.order.weights

    def heads(self) -> tuple[Vector, ...]:
        return tuple(g.head for g in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _reducers(self) -> tuple:
        """Division data of the elements for normal forms, built on first use."""
        return tuple(_reducer(g.head, g.tail) for g in self.elements)

    @cached_property
    def _staircase(self) -> tuple[int | None, frozenset[Vector]]:
        """monideal.staircase of the heads without the coordinate of the
        cheapest variable x_1, walked once: the number of x_1-free monomials
        outside the head ideal, which is p_1 exactly when the elements
        generate the lattice ideal I_L (see the module docstring), and the
        maximal ones among them, the staircase corners."""
        return staircase(self.weights.n - 1, (h[1:] for h in self.heads()))


# -- internal monomial helpers (pairs of plain tuples, no validation) --------


def _strip(h: Vector, t: Vector) -> tuple[Vector, Vector]:
    """Divide out the common monomial factor of the two sides."""
    m = tuple(min(a, b) for a, b in zip(h, t))
    if any(m):
        h = tuple(a - b for a, b in zip(h, m))
        t = tuple(a - b for a, b in zip(t, m))
    return h, t


def _support(v: Vector) -> int:
    """Bitmask of the coordinates where v is nonzero."""
    mask = 0
    bit = 1
    for a in v:
        if a:
            mask |= bit
        bit <<= 1
    return mask


def _multiplicity(m: Vector, support) -> int:
    """Largest k with x^(k*h) dividing x^m, for the head h whose nonzero
    entries are support = ((i, h_i), ...); 0 when h does not divide m."""
    k = 0
    for i, e in support:
        q = m[i] // e
        if not q:
            return 0
        if not k or q < k:
            k = q
    return k


# A reducer is the division data of one element head -> tail, built once:
# (support mask of the head, the head's nonzero (index, exponent) pairs,
# tail - head).  x^h can only divide x^m when the head's support lies inside
# the monomial's, so a reducer whose mask has a bit outside the monomial's
# mask is skipped with one integer operation; the others scan only the
# head's support.


def _reducer(h: Vector, t: Vector):
    support = tuple((i, e) for i, e in enumerate(h) if e)
    return _support(h), support, tuple(b - a for a, b in zip(h, t))


def _reduce_step(m: Vector, reducers) -> Vector | None:
    """One division step: the first reducer whose head divides x^m, applied
    with full multiplicity so that the step count does not scale with the
    size of the exponents; None when no head divides x^m."""
    outside = ~_support(m)
    for mask, support, step in reducers:
        if mask & outside:
            continue
        k = _multiplicity(m, support)
        if k:
            return tuple(a + k * d for a, d in zip(m, step))
    return None


def _nf_monomial(m: Vector, reducers) -> Vector:
    """Normal form of a monomial: division steps while one applies."""
    while (r := _reduce_step(m, reducers)) is not None:
        m = r
    return m


def _pack(v: Vector, width: int) -> int:
    """v as one integer: entry j, which must be below 2**width, in the
    (width + 1)-bit field j, whose top bit, the guard, is left 0."""
    x = 0
    for e in reversed(v):
        x = x << width + 1 | e
    return x


def _colon(a: int, b: int, width: int, guards: int) -> tuple[int, int]:
    """For monomials a and b packed at width, with guards the guard bit of
    every field: the packed excess (a - b)^+, the exponent of x^a : x^b, and
    the guards of the fields where a_j >= b_j.

    Setting the guards of a and subtracting b leaves a_j - b_j + 2**width
    in field j.  That lies in [1, 2**(width + 1)), so no field borrows from
    the next, and the guard stays set exactly when a_j >= b_j, when the
    field's low bits are a_j - b_j.  So b divides a exactly when every
    guard stays set, and a and b are coprime exactly when the excess is a.
    """
    d = (a | guards) - b
    above = d & guards
    return d & (above - (above >> width)), above


def _buchberger(gens, weights: Weights, var: int):
    """Reduced Groebner basis of the binomials gens in the degree-first order
    of the weights with x_var cheapest, sorted by head.

    gens are the two sides of each binomial, in either order.  Every
    binomial enters by one route, enter: its larger side in the order takes
    division steps (see _reduce_step), one at a time, until the two sides
    meet (a zero reduction, and it is dropped) or the larger side is
    irreducible.  Then the pair is made primitive and inserted with its
    tail as it stands.  So every head that enters is irreducible by the
    current basis, and as insert drops the older heads it divides, the heads
    stay an antichain and no element enters twice.  An input is made
    primitive before it enters as well: it is a row or an element of the
    previous run, and stripping the common factors of a basis computed with
    x_i cheapest is what saturates x_i, while a multiple of a binomial can
    reduce to zero where the binomial does not.

    The run works in permuted coordinates: the order's revlex scan
    (order._scan_order(n, var)) comes first, so two monomials of one degree
    compare as plain tuples, the larger monomial being the smaller tuple,
    and both sides of a binomial have one degree.  In these coordinates the
    order with x_var cheapest is the target order of the permuted weights,
    so the queue and the final sort read its OrderConfig.sort_key.  The
    result is permuted back.

    Every insertion of an element k runs the Gebauer-Moeller update on the
    new pairs only:

    - criterion M drops a new pair (i, k) whose lcm is strictly divided by
      the lcm of another new pair;
    - criterion F keeps one new pair per lcm, and the product criterion
      drops every new pair whose lcm equals that of a pair with coprime
      heads (coprime pairs included);
    - older elements whose head is divisible by head k leave the basis:
      they stop reducing and forming pairs, while their queued pairs stay.

    The update runs on packed heads (_pack): every active head is also held
    as one integer, at a field width that fits every exponent so far, and
    the active heads are repacked when a wider head arrives.  One _colon of
    each active head by the new head h gives the excess q_i of head i over
    h, so lcm(i, k) = h + q_i, and tells whether the heads are coprime and
    whether h divides head i.  lcm(j, k) divides lcm(i, k) exactly when
    q_j divides q_i, again one subtraction and one mask.  The q_i are sorted
    as integers, which orders every strict divisor first and keeps equal
    lcms adjacent, ties by index.  Division steps keep the tuples.

    Criterion B, which drops queued pairs, is left out: an S-pair is only
    top-reduced, so the zero reductions it saves are cheap, and scanning
    the whole queue on every insertion cost about as much as they do.

    The inputs enter first, in the order given: LLL-reduced rows or the
    basis of the previous run (lattice_groebner).  The S-pairs then wait in
    the pair queue in ascending term order of the lcm of their heads (ties
    by the indices), as (sort_key(lcm), i, k, lcm).  The order is
    degree-first and the binomials are homogeneous, so an S-pair enters
    only after every S-pair of lower degree has.  At the end every tail is
    reduced to its normal form by the basis, which gives the reduced basis.
    """
    scan = _scan_order(weights.n, var)
    sort_key = OrderConfig(Weights(tuple(weights.entries[j] for j in scan))).sort_key
    n = len(scan)
    heads: list[Vector] = []
    steps: list[Vector] = []  # tail - head of every element
    active: list[tuple[int, int]] = []  # (index, packed head) of the current basis
    reducers: list = []  # their reducer data, in the same order
    width = guards = 0  # the packing of the active heads
    # (sort_key(lcm), i, j, lcm) for the pair (i, j); (i, j) is unique,
    # so no lcm is compared
    heap: list = []

    def insert(h: Vector, t: Vector) -> None:
        nonlocal active, reducers, width, guards
        k = len(heads)
        top = max(h)
        if top >> width:
            width = top.bit_length()
            guards = _pack((1 << width,) * n, width)
            active = [(i, _pack(heads[i], width)) for i, _ in active]
        ph = _pack(h, width)

        new = []
        kept = []
        for (i, pi), r in zip(active, reducers):
            q, above = _colon(pi, ph, width, guards)
            new.append((q, i, q == pi))
            if above != guards:  # h does not divide head i, which stays
                kept.append((i, pi, r))
        new.sort()
        # criterion M keeps the lcms with no strict divisor among the new
        # ones; criterion F keeps the first pair of each lcm, and the
        # product criterion drops the lcm when any of its pairs is coprime
        groups: list[list] = []
        for q, i, coprime in new:
            if groups and groups[-1][0] == q:
                groups[-1][2] |= coprime
                continue
            qg = q | guards
            for g in groups:
                if (qg - g[0]) & guards == guards:
                    break
            else:
                groups.append([q, i, coprime])
        for _, i, coprime in groups:
            if not coprime:
                lcm = tuple(map(max, heads[i], h))
                heappush(heap, (sort_key(lcm), i, k, lcm))

        reducer = _reducer(h, t)
        active = [(i, pi) for i, pi, _ in kept] + [(k, ph)]
        reducers = [r for _, _, r in kept] + [reducer]
        heads.append(h)
        steps.append(reducer[2])

    def enter(u: Vector, v: Vector) -> None:
        while u != v:
            if u > v:  # the larger monomial is the smaller tuple
                u, v = v, u
            r = _reduce_step(u, reducers)
            if r is None:
                insert(*_strip(u, v))
                return
            u = r

    for u, v in gens:
        enter(*_strip(tuple(u[j] for j in scan), tuple(v[j] for j in scan)))
    while heap:
        _, i, j, lcm = heappop(heap)
        enter(tuple(map(add, lcm, steps[i])), tuple(map(add, lcm, steps[j])))
    back = [scan.index(j) for j in range(n)]
    out = []
    for i in sorted((i for i, _ in active), key=lambda i: sort_key(heads[i])):
        h = heads[i]
        t = _nf_monomial(tuple(map(add, h, steps[i])), reducers)
        out.append((tuple(h[j] for j in back), tuple(t[j] for j in back)))
    return out


def lattice_groebner(
    p: Weights | Iterable[int], basis_rows, cfg: OrderConfig
) -> GroebnerBasis:
    """Reduced Groebner basis of the saturated kernel lattice ideal, in the
    degree-first order with x_1 cheapest.

    p is a Weights or any iterable of the weights.  basis_rows may be any
    basis of the kernel lattice of p: n-1 linearly independent rows of
    weighted degree 0 each.  They are LLL-reduced first (arith.lll_reduce,
    which raises on dependent rows and returns reduced rows unchanged), so
    unreduced rows give the same basis.  Solution passes the kernel rows as
    they are, so this is the one reduction per basis; it also applies the
    integer rule to every entry, before the degree check.

    One loop runs two schedules of Buchberger runs, each followed by a run
    in the target order, with x_1 cheapest: first the variable of largest
    row degree among x_2, ..., x_n, then the rest of that row-degree order
    but its second variable.  After each schedule the ideal J of the basis
    is inside I_L, and the loop stops once J = I_L, which holds exactly
    when the x_1-free monomials outside the head ideal number p_1 (the
    Apery count); after the second schedule it always does.  For n = 1
    the one run is on x_1.  The module docstring has the proofs.
    """
    p = as_weights(p)
    if cfg.weights != p:
        raise ValueError("order configuration was built for different weights")
    n = p.n
    rows = [tuple(r) for r in basis_rows]
    if len(rows) != n - 1:
        raise ValueError(f"expected {n - 1} basis rows, got {len(rows)}")
    reduced = lll_reduce(rows)  # the integer rule; raises on dependent rows
    for r in rows:
        if pdegree(r, p) != 0:
            raise ValueError(f"basis row {r} is not homogeneous: degree {pdegree(r, p)}")

    passes = sorted(
        range(2, n + 1),
        key=lambda v: -p.entries[v - 1] * max(abs(r[v - 1]) for r in reduced),
    )
    cur = [(positive_part(r), negative_part(r)) for r in reduced]
    # the second variable of passes is never saturated
    for schedule in (passes[:1], passes[2:]):
        for var in schedule + [1]:
            cur = _buchberger(cur, p, var)
        basis = GroebnerBasis(tuple(Binomial(h, t) for h, t in cur), cfg)
        if basis._staircase[0] == p.entries[0]:
            break
    validate_basis(basis)  # on the certified path it reads the count taken above
    return basis


def validate_basis(G: GroebnerBasis) -> None:
    """Check the structural invariants of a reduced kernel-ideal basis.

    Raises ValueError on: sides that are not exponent vectors of the
    weights' dimension, inhomogeneous or misoriented elements, overlapping
    supports, elements out of ascending order, or a head dividing another
    head or any tail.  Last, it takes the Apery count: the x_1-free
    monomials outside the head ideal must number p_1, or the elements
    generate a proper sub-ideal of I_L, on which normal_form's fold is
    wrong.

    It reads the pipeline's own tools: one OrderConfig.sort_key per side
    gives the degree (key[0]), the orientation and the ascending order, and
    two _reduce_step calls per element divide its head and its tail by the
    earlier heads.  No later head can divide either: a head divides no
    monomial of lower degree, and at equal degree only itself, while a
    later head sorts above this head, and the tail sorts below it.

    Two shapes of the heads follow from these checks.  No head uses x_1,
    the cheapest variable: at equal degree a monomial that uses x_1 sorts
    below an x_1-free one, so such a head is either below its tail or
    shares x_1 with it.  And every other variable x_i has a pure power
    x_i^e with e <= p_1 among the heads: the powers of x_i below its least
    pure-power head are all standard, so a count of p_1 needs one, of
    exponent at most p_1.
    """
    p = G.weights
    key = G.order.sort_key
    prev: tuple = ()
    for g in G.elements:
        _check_exponents(g.head, p.n)
        _check_exponents(g.tail, p.n)
        kh, kt = key(g.head), key(g.tail)
        if kh[0] != kt[0]:
            raise ValueError(f"element {g} is not homogeneous")
        if kh <= kt:
            raise ValueError(f"element {g} is not oriented head-first")
        if any(a and b for a, b in zip(g.head, g.tail)):
            raise ValueError(f"element {g} has overlapping support")
        if kh <= prev:
            raise ValueError("elements are not in ascending head order")
        prev = kh
    reducers = G._reducers
    for i, g in enumerate(G.elements):
        if _reduce_step(g.head, reducers[:i]) is not None:
            raise ValueError(f"an earlier head divides head {g.head}")
        if _reduce_step(g.tail, reducers[:i]) is not None:
            raise ValueError(f"an earlier head divides tail {g.tail}")
    count = G._staircase[0]
    if count != p.entries[0]:
        left = "infinitely many" if count is None else decimal_str(count)
        raise ValueError(
            f"the heads leave {left} standard monomials free of x1, not"
            f" p_1 = {decimal_str(p.entries[0])}: the elements generate"
            " a proper sub-ideal of the lattice ideal"
        )


def normal_form(m: Vector, G: GroebnerBasis) -> Vector:
    """Normal form of the monomial x^m modulo the basis; the division runs on
    exponents below p_1, whatever the size of m.

    x_1 is the cheapest variable, and x_i^(p_1) - x_1^(p_i) lies in I_L, so
    x^m is congruent to x_1^k * x^b with b_i = m_i mod p_1 (i >= 2),
    b_1 = 0 and k = (m.p - b.p) / p_1.  No head uses x_1 (validate_basis),
    so x_1^k times the normal form of x^b is standard, and it is the normal
    form of x^m.  reduce_binomial and frobenius.is_representable divide
    through here.
    """
    p = G.weights
    _check_exponents(m, p.n)
    p1 = p.entries[0]
    b = (0, *(x % p1 for x in m[1:]))
    r = _nf_monomial(b, G._reducers)
    k = (pdegree(m, p) - pdegree(b, p)) // p1
    return (r[0] + k,) + r[1:]


def reduce_binomial(a: Vector, G: GroebnerBasis) -> tuple[Vector, Vector]:
    """Divide x^(a+) - x^(a-) by the basis; return (w, c) with remainder
    x^w * (x^(c+) - x^(c-)) and x^(c-) below x^(c+) in the order.

    Requires the sign pattern a_1 <= 0, a_i >= 0 for i >= 2.  x_1 is the
    cheapest variable of the basis order, so no head touches x^(a-), and c
    can only be negative in its first coordinate.  The work is that
    of one normal_form, bounded in the size of a.  On a = solve_degree(p, t)
    this is the paper's representability test, and
    frobenius.is_representable decides through it.
    """
    _check_dim(a, G.weights.n)
    if a[0] > 0 or any(x < 0 for x in a[1:]):
        raise ValueError("expected a_1 <= 0 and a_i >= 0 for i >= 2")
    u = normal_form(positive_part(a), G)
    v = negative_part(a)  # a pure x_1 power, which no head divides
    w = tuple(min(x, y) for x, y in zip(u, v))
    if u == v:
        return w, (0,) * len(a)
    if G.order.sort_key(u) < G.order.sort_key(v):
        u, v = v, u
    c = tuple(x - y for x, y in zip(u, v))
    return w, c


def format_monomial(v: Vector) -> str:
    """Render x^v like ``x1^2*x3``; the empty exponent renders as ``1``."""
    parts = []
    for i, e in enumerate(v):
        if e == 0:
            continue
        parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{decimal_str(e)}")
    return "*".join(parts) if parts else "1"


def format_binomial(b: Binomial) -> str:
    """Render a binomial like ``x3^2 - x2^3``."""
    return f"{format_monomial(b.head)} - {format_monomial(b.tail)}"
