"""Monomial ideals: membership, intersections, and irreducible decomposition.

A monomial ideal is stored by its minimal generating exponent vectors.  An
irreducible component is the vector v of the ideal generated by x_i^(v_i)
for the coordinates with v_i > 0; the functions here return components as
plain tuples.

One recursion, staircase, walks the staircase: it slices on the last
variable and returns both the number of standard monomials and, when that
number is finite, the maximal ones.  The count certifies every Groebner
basis (grobner.validate_basis), and the maximal standard monomials, shifted
by one, are the irreducible components.  The main decomposition path
targets head ideals of kernel lattice bases: generators free of the first
variable and, for every other variable, some pure power present, so the
x_1-free projection is artinian.  A splitting-based path for arbitrary
proper monomial ideals is provided as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .arith import Vector, Weights, _check_exponents, decimal_str

__all__ = [
    "MonomialIdeal",
    "component_ideal",
    "contains_monomial",
    "format_component",
    "initial_ideal",
    "intersect",
    "irreducible_decomposition",
    "irreducible_decomposition_general",
    "minimalize",
    "staircase",
]


def _divides(a: Vector, b: Vector) -> bool:
    return all(map(le, a, b))


def minimalize(gens) -> frozenset[Vector]:
    """Drop every generator strictly divisible by another one."""
    gens = set(gens)
    kept = set()
    for g in sorted(gens, key=lambda v: (sum(v), v)):
        if not any(_divides(k, g) for k in kept):
            kept.add(g)
    return frozenset(kept)


def staircase(n: int, gens) -> tuple[int | None, frozenset[Vector]]:
    """The number of monomials in n variables outside the ideal generated by
    gens (None when there are infinitely many) and, when it is finite, the
    maximal ones among them: the m outside with every m + e_j inside.

    Slices on the last variable.  Between consecutive distinct last
    exponents c < c' of the generators (0 included), x^m * x_n^e with
    c <= e < c' lies in the ideal exactly when x^m lies in the slice S_c
    generated by the g[:-1] with g_n <= c, so that interval adds c' - c
    times the count of S_c in n - 1 variables.  Past the largest last
    exponent the slice must be the unit ideal, or the count is infinite.
    x^m * x_n^e is maximal outside exactly when e = c' - 1, x^m is maximal
    outside S_c, and x^m lies in S_c', that is, some generator of S_c' that
    S_c lacks divides it.  Equal slices are walked once, and every count is
    an exact integer, so the cost depends on the generators, not on the size
    of their exponents.
    """
    gens = [tuple(g) for g in gens]
    for g in gens:
        _check_exponents(g, n)
    memo: dict[frozenset[Vector], tuple[int | None, list[Vector]]] = {}

    def walk(k: int, ideal: frozenset[Vector]) -> tuple[int | None, list[Vector]]:
        if not ideal:
            return (None, []) if k else (1, [()])
        if (0,) * k in ideal:
            return 0, []
        if ideal in memo:
            return memo[ideal]
        layers: dict[int, list[Vector]] = {0: []}
        for g in ideal:
            layers.setdefault(g[-1], []).append(g[:-1])
        total, tops = 0, []
        last, cut, inner, inner_tops = 0, frozenset(), 0, []
        for c in sorted(layers):
            total += (c - last) * inner
            # on minimal input the generators of one last exponent are an
            # antichain, so the slice stays minimal if each enters unless a
            # kept one divides it, and removes the kept ones it divides;
            # other input only gives slices with redundant generators
            new = [g for g in layers[c] if not any(_divides(m, g) for m in cut)]
            cut = frozenset(
                [m for m in cut if not any(_divides(g, m) for g in new)] + new
            )
            tops += [m + (c - 1,) for m in inner_tops if any(_divides(g, m) for g in new)]
            inner, inner_tops = walk(k - 1, cut)
            if inner is None:
                break
            last = c
        # a finite count needs the last slice to be the unit ideal
        memo[ideal] = out = (total if inner == 0 else None), tops
        return out

    count, tops = walk(n, frozenset(gens))
    return count, frozenset(tops)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in n variables, held by minimal generators."""

    n: int
    generators: frozenset[Vector]

    def __post_init__(self) -> None:
        gens = frozenset(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            _check_exponents(g, self.n)
        for a in gens:
            for b in gens:
                if a != b and _divides(a, b):
                    raise ValueError(f"generators not minimal: {a} divides {b}")

    @classmethod
    def from_generators(cls, n: int, gens) -> "MonomialIdeal":
        return cls(n, minimalize(tuple(g) for g in gens))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return (0,) * self.n in self.generators

    def sorted_generators(self) -> tuple[Vector, ...]:
        return tuple(sorted(self.generators))


def initial_ideal(G) -> MonomialIdeal:
    """The head ideal of a reduced basis; heads are already minimal."""
    return MonomialIdeal(G.weights.n, frozenset(G.heads()))


def contains_monomial(I: MonomialIdeal, m: Vector) -> bool:
    """True iff x^m lies in I, i.e. some generator divides m."""
    _check_exponents(m, I.n)
    return any(_divides(g, m) for g in I.generators)


def component_ideal(v: Vector) -> MonomialIdeal:
    """The irreducible ideal of v: generated by x_i^(v_i) for v_i > 0."""
    n = len(v)
    _check_exponents(v, n)
    gens = []
    for i, e in enumerate(v):
        if e > 0:
            g = [0] * n
            g[i] = e
            gens.append(tuple(g))
    return MonomialIdeal(n, frozenset(gens))


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection: generated by the lcms of generator pairs."""
    if I.n != J.n:
        raise ValueError("ideals live in different polynomial rings")
    if I.is_zero or J.is_zero:
        return MonomialIdeal(I.n, frozenset())
    lcms = {
        tuple(max(x, y) for x, y in zip(a, b))
        for a in I.generators
        for b in J.generators
    }
    return MonomialIdeal.from_generators(I.n, lcms)


def irreducible_decomposition(I: MonomialIdeal, p: Weights) -> frozenset[Vector]:
    """Irredundant irreducible decomposition of a head-shaped ideal.

    Components v have v_1 = 0, and v is a component exactly when the
    shifted monomial m with m_1 = 0, m_i = v_i - 1 is outside I while every
    m + e_j, j >= 2, lies inside: the maximal standard monomials of the
    x_1-free projection of I, which staircase returns.  Raises ValueError
    when a generator uses x_1, or when the projection is not artinian (some
    x_i, i >= 2, has no pure power, and staircase counts infinitely many
    standard monomials).
    """
    if I.n != p.n:
        raise ValueError("ideal and weights have different dimensions")
    if I.is_unit:
        raise ValueError("the unit ideal has no irreducible decomposition")
    for g in I.generators:
        if g[0]:
            raise ValueError(f"generator {g} is divisible by the cheapest variable")
    count, tops = staircase(I.n - 1, (g[1:] for g in I.generators))
    if count is None:
        raise ValueError("ideal is not artinian after projecting out the cheapest variable")
    return frozenset((0,) + tuple(x + 1 for x in m) for m in tops)


def irreducible_decomposition_general(I: MonomialIdeal) -> frozenset[Vector]:
    """Irredundant irreducible decomposition of any proper monomial ideal.

    Splits a generator with at least two variables in its support into two
    coprime factors until every branch is generated by pure powers, then
    removes redundant components.  Intended for desk-scale cross-checks.
    """
    if I.is_unit:
        raise ValueError("the unit ideal has no irreducible decomposition")
    n = I.n
    components: set[Vector] = set()
    stack = [I.generators]
    while stack:
        gens = stack.pop()
        split = None
        for g in sorted(gens):
            support = [i for i, e in enumerate(g) if e]
            if len(support) >= 2:
                split = (g, support[0])
                break
        if split is None:
            v = [0] * n
            for g in gens:
                for i, e in enumerate(g):
                    if e:
                        v[i] = e
            components.add(tuple(v))
            continue
        g, i = split
        power = [0] * n
        power[i] = g[i]
        rest = list(g)
        rest[i] = 0
        stack.append(minimalize(set(gens) | {tuple(power)}))
        stack.append(minimalize(set(gens) | {tuple(rest)}))

    # The standard monomials of an irreducible ideal form a box, so a
    # component contains the intersection of the others only when it
    # contains one of them: keep the components that contain no other.
    return frozenset(
        v
        for v in components
        if not any(w != v and all(0 < a <= b for a, b in zip(v, w) if b) for w in components)
    )


def format_component(v: Vector) -> str:
    """Render a component vector like ``(0,3,2)``."""
    return "(" + ",".join(decimal_str(x) for x in v) + ")"
