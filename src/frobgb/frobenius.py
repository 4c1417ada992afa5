"""Representability of integers in the numerical semigroup of the weights,
and the Frobenius number (the largest integer outside the semigroup).

An integer t >= 0 is representable exactly when the division of the signed
solution from solve_degree by the kernel basis ends in a nonnegative vector;
that vector is then a witness.  The Frobenius number is the largest weighted
degree over the corner vectors of the staircase of the head ideal; the
corners are the irreducible components of the head ideal shifted by -1 in
every coordinate, so they come from the one staircase walk in monideal.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple, Optional

from .arith import (
    Vector,
    Weights,
    as_weights,
    kernel_basis,
    lll_reduce,
    pdegree,
    solve_degree,
)
from .grobner import GroebnerBasis, lattice_groebner, reduce_binomial
from .monideal import initial_ideal, irreducible_decomposition
from .order import OrderConfig

__all__ = [
    "RepresentabilityResult",
    "compute_mp",
    "frobenius_number",
    "is_representable",
]


class RepresentabilityResult(NamedTuple):
    representable: bool
    witness: Optional[Vector]


def _check_match(p: Weights, G: GroebnerBasis) -> None:
    if G.weights != p:
        raise ValueError("basis was computed for different weights")
    if G.order.revlex_variable != 1:
        raise ValueError("representability needs a basis with cheapest variable 1")


def is_representable(
    p: Weights | Iterable[int], t: int, G: GroebnerBasis
) -> RepresentabilityResult:
    """Decide whether t is a nonnegative integer combination of the weights.

    Negative t is trivially not representable.  On success the witness w
    satisfies w >= 0 and w.p = t.
    """
    p = as_weights(p)
    _check_match(p, G)
    if t < 0:
        return RepresentabilityResult(False, None)
    if p.n == 1:
        # the only valid single weight is 1
        return RepresentabilityResult(True, (t,))
    a = solve_degree(p, t)
    _, c = reduce_binomial(a, G)
    if min(c) >= 0:
        if pdegree(c, p) != t:
            raise AssertionError("witness degree mismatch")
        return RepresentabilityResult(True, c)
    return RepresentabilityResult(False, None)


def compute_mp(p: Weights | Iterable[int], G: GroebnerBasis) -> frozenset[Vector]:
    """Corner vectors of the staircase: a_1 = -1, a_i >= 0 for i >= 2,
    x^(a+) is not reducible by the basis, but every x^((a+e_i)+) for i >= 2
    is.  Their weighted degrees are exactly the non-representable integers
    maximal in that pointwise sense; the largest is the Frobenius number.

    The corners are the irreducible components of the head ideal shifted by
    -1 in every coordinate.  When some weight is 1 every integer >= 0 is
    representable and the set is empty.
    """
    p = as_weights(p)
    _check_match(p, G)
    if any(w == 1 for w in p.entries):
        return frozenset()
    comps = irreducible_decomposition(initial_ideal(G), p)
    return frozenset(tuple(x - 1 for x in v) for v in comps)


def frobenius_number(
    p: Weights | Iterable[int],
    *,
    use_lll: bool = True,
    tie_break: str = "revlex",
) -> int:
    """The largest integer that is not representable; -1 when every
    nonnegative integer is (single weight, or some weight equal to 1).

    Accepts a Weights instance or any iterable of positive coprime integers.
    f* is the largest weighted degree of a staircase corner (compute_mp),
    read off the irreducible decomposition of the head ideal.  Bases built
    with or without LLL reduction and with either tie-break completion give
    the same value.
    """
    p = as_weights(p)
    if p.n == 1 or any(w == 1 for w in p.entries):
        return -1
    cfg = OrderConfig(p, tie_break=tie_break)
    basis = kernel_basis(p)
    if use_lll:
        basis = lll_reduce(basis)
    corners = compute_mp(p, lattice_groebner(p, basis, cfg))
    if not corners:
        raise AssertionError("staircase corner set is empty for coprime weights >= 2")
    return max(pdegree(a, p) for a in corners)
