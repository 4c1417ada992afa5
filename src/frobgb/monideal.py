"""Monomial ideals: membership, intersections, and irreducible decomposition.

A monomial ideal is stored by its minimal generating exponent vectors.  An
irreducible component is the vector v of the ideal generated by x_i^(v_i)
for the coordinates with v_i > 0; the functions here return components as
plain tuples.

The main decomposition path targets head ideals of kernel lattice bases:
generators free of the first variable and, for every other variable, some
pure power present.  Components of such an ideal are its maximal standard
monomials m shifted by one: m is outside I while every m + e_j, j >= 2, is
inside.  Each coordinate of a component is therefore some generator
exponent, and each j needs a witness generator g with g_j = m_j + 1 and
g_k <= m_k elsewhere.  The walk assigns the coordinates in turn, tests
membership only against the generators whose last nonzero coordinate was
just assigned, and prunes a partial assignment as soon as some assigned
coordinate has no witness left.  A splitting-based path for arbitrary proper
monomial ideals is provided as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import le

from .arith import Vector, Weights, _check_dim, decimal_str

__all__ = [
    "MonomialIdeal",
    "colength",
    "component_ideal",
    "contains_monomial",
    "format_component",
    "initial_ideal",
    "intersect",
    "irreducible_decomposition",
    "irreducible_decomposition_general",
    "minimalize",
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


def colength(n: int, gens) -> int | None:
    """The number of monomials in n variables outside the ideal generated by
    gens, or None when there are infinitely many.

    Slices on the last variable.  Between consecutive distinct last
    exponents c < c' of the generators (0 included), x^m * x_n^e with
    c <= e < c' lies in the ideal exactly when x^m lies in the slice
    generated by the g[:-1] with g_n <= c, so that interval adds c' - c
    times the count of the slice in n - 1 variables.  Past the largest last
    exponent the slice must be the unit ideal, or the count is infinite.
    Equal slices are counted once, and every count is an exact integer, so
    the cost depends on the generators, not on the size of their exponents.
    """
    gens = [tuple(g) for g in gens]
    for g in gens:
        _check_dim(g, n)
        if any(x < 0 for x in g):
            raise ValueError(f"generator {g} has a negative exponent")
    memo: dict[frozenset[Vector], int | None] = {}

    def count(k: int, ideal: frozenset[Vector]) -> int | None:
        if not ideal:
            return None if k else 1
        if (0,) * k in ideal:
            return 0
        if ideal in memo:
            return memo[ideal]
        levels = sorted({g[-1] for g in ideal} | {0})
        total: int | None = 0
        below: set[Vector] = set()
        for c, nxt in zip(levels, levels[1:] + [None]):
            below.update(g[:-1] for g in ideal if g[-1] == c)
            inner = count(k - 1, minimalize(below))
            if nxt is None or inner is None:
                if inner != 0:  # an infinite slice, or a last one that is not the unit
                    total = None
                break
            total += (nxt - c) * inner
        memo[ideal] = total
        return total

    return count(n, minimalize(gens))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in n variables, held by minimal generators."""

    n: int
    generators: frozenset[Vector]

    def __post_init__(self) -> None:
        gens = frozenset(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != self.n:
                raise ValueError(f"generator {g} has dimension {len(g)}, expected {self.n}")
            if any(x < 0 for x in g):
                raise ValueError(f"generator {g} has a negative exponent")
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
    _check_dim(m, I.n)
    if any(x < 0 for x in m):
        raise ValueError(f"monomial {m} has a negative exponent")
    return any(_divides(g, m) for g in I.generators)


def component_ideal(v: Vector) -> MonomialIdeal:
    """The irreducible ideal of v: generated by x_i^(v_i) for v_i > 0."""
    if any(x < 0 for x in v):
        raise ValueError(f"component {v} has a negative entry")
    n = len(v)
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


def _pure_power(g: Vector, i: int) -> int | None:
    """g_i when x^g is a pure power of variable i, else None."""
    return g[i] if g[i] and not any(g[:i] + g[i + 1 :]) else None


def _check_head_shape(heads, n: int, cheap: int = 0, bound: int | None = None) -> None:
    """The shape of the head ideal of a kernel lattice basis: no head uses
    the cheapest variable (index cheap), and every other variable has a pure
    power among the heads, of exponent at most bound when one is given."""
    for h in heads:
        if h[cheap]:
            raise ValueError(f"head {h} is divisible by the cheapest variable")
    for i in range(n):
        powers = [e for h in heads if (e := _pure_power(h, i))]
        if i != cheap and (not powers or (bound is not None and min(powers) > bound)):
            at_most = "" if bound is None else f" at most {bound}"
            raise ValueError(
                f"ideal is not artinian after projecting out the cheapest variable:"
                f" no pure power of variable {i + 1}{at_most}"
            )


def irreducible_decomposition(I: MonomialIdeal, p: Weights) -> frozenset[Vector]:
    """Irredundant irreducible decomposition of a head-shaped ideal.

    Components v have v_1 = 0 and v_i drawn from generator exponents; v is a
    component exactly when the shifted monomial m with m_1 = 0, m_i = v_i - 1
    is outside I while every m + e_j, j >= 2, lies inside.  Given m outside
    I, m + e_j lies inside exactly when some generator g is a witness for j:
    g_j = m_j + 1 and g_k <= m_k for every k != j.

    The walk assigns m_2, ..., m_n in turn.  After assigning m_i it tests
    membership against the generators whose last nonzero coordinate is i
    (the others were tested at their own level, or cannot be decided yet),
    and stops the ascending candidate loop at the first value inside I,
    since every larger one is inside too.  It then keeps, for every assigned
    j <= i, the witnesses for j that still fit the assigned coordinates, and
    prunes when some j has none left.  A free coordinate k > i reaches at
    most a_k - 1, where x_k^(a_k) is the pure power, and every generator
    other than that pure power already has g_k < a_k, so free coordinates
    never rule a witness out.  At the last level every j has a witness, so
    each leaf is a component.  Generator sets are bit masks over the
    generators.
    """
    if I.n != p.n:
        raise ValueError("ideal and weights have different dimensions")
    if I.is_unit:
        raise ValueError("the unit ideal has no irreducible decomposition")
    _check_head_shape(I.generators, I.n)
    n = I.n
    gens = I.sorted_generators()
    candidates = [sorted({g[i] for g in gens if g[i]}) for i in range(n)]

    # ending[i]: generators whose last nonzero coordinate is i.
    # exact[i][c]: generators with g_i == c, the witnesses for m_i = c - 1.
    # below[i][c]: generators with g_i < c, i.e. g_i <= m_i for m_i = c - 1.
    ending = [0] * n
    exact: list[dict[int, int]] = [{} for _ in range(n)]
    below: list[dict[int, int]] = [{} for _ in range(n)]
    for b, g in enumerate(gens):
        bit = 1 << b
        ending[max(i for i in range(n) if g[i])] |= bit
        for i in range(1, n):
            exact[i][g[i]] = exact[i].get(g[i], 0) | bit
    for i in range(1, n):
        acc = exact[i].get(0, 0)
        for c in candidates[i]:
            below[i][c] = acc
            acc |= exact[i][c]

    out: list[Vector] = []
    v = [0] * n

    def walk(i: int, divides: int, witnesses: list[int]) -> None:
        # divides: generators with g_k <= m_k for every assigned k;
        # witnesses: for each assigned j in turn, its witnesses that fit
        # every assigned k != j.
        if i == n:
            out.append(tuple(v))
            return
        for c in candidates[i]:
            fits = below[i][c]
            inner = divides & fits
            if inner & ending[i]:
                break
            own = exact[i][c] & divides
            if not own:
                continue
            kept = [w & fits for w in witnesses]
            if all(kept):
                v[i] = c
                walk(i + 1, inner, kept + [own])

    walk(1, (1 << len(gens)) - 1, [])
    return frozenset(out)


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

    # Drop dominated components, then any whose removal keeps the intersection.
    comps = set(components)
    for v, w in combinations(sorted(components), 2):
        fv, fw = component_ideal(v), component_ideal(w)
        if _ideal_subset(fv, fw):
            comps.discard(w)
        elif _ideal_subset(fw, fv):
            comps.discard(v)
    changed = True
    while changed:
        changed = False
        for v in sorted(comps):
            rest = [w for w in comps if w != v]
            if not rest:
                break
            K = component_ideal(rest[0])
            for w in rest[1:]:
                K = intersect(K, component_ideal(w))
            if K == intersect(K, component_ideal(v)):
                comps.discard(v)
                changed = True
                break
    return frozenset(comps)


def _ideal_subset(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """True iff I is contained in J."""
    return all(contains_monomial(J, g) for g in I.generators)


def format_component(v: Vector) -> str:
    """Render a component vector like ``(0,3,2)``."""
    return "(" + ",".join(decimal_str(x) for x in v) + ")"
