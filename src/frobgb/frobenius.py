"""Representability of integers in the numerical semigroup of the weights,
and the Frobenius number (the largest integer outside the semigroup).

Representability follows the paper: divide the signed solution
a = solve_degree(p, t), with a_1 <= 0 and a_i >= 0 otherwise, by the basis G
with x_1 cheapest.  The remainder x^w * (x^(c+) - x^(c-)) has c >= 0
exactly when t is representable, and c is then the standard monomial of
degree t, the witness.  grobner.normal_form folds the exponents mod p_1,
so the work depends on p_1 and G, not on t.

The Frobenius number is the largest weighted degree over the corner vectors
of the staircase of the head ideal; the corners are the irreducible
components of the head ideal shifted by -1 in every coordinate.  They come
from the one staircase walk in monideal, taken once per basis, when
lattice_groebner certifies it (GroebnerBasis._staircase).

Solution is the one pipeline, computed lazily and timed per phase;
frobenius_number and the frob command both read from it.  Its one route
hands the kernel rows to lattice_groebner, in the degree-first order with
x_1 cheapest (order.OrderConfig); lattice_groebner LLL-reduces them, the
one reduction on the way from weights to basis, so LLL time counts under
the groebner phase.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from functools import cached_property
from typing import NamedTuple, Optional

from .arith import (
    Vector,
    Weights,
    _check_int,
    as_weights,
    kernel_basis,
    pdegree,
    solve_degree,
)
from .grobner import GroebnerBasis, lattice_groebner, reduce_binomial
from .monideal import MonomialIdeal, initial_ideal
from .order import OrderConfig

__all__ = [
    "RepresentabilityResult",
    "Solution",
    "frobenius_number",
    "is_representable",
]


class RepresentabilityResult(NamedTuple):
    representable: bool
    witness: Optional[Vector]


def is_representable(
    p: Weights | Iterable[int], t: int, G: GroebnerBasis
) -> RepresentabilityResult:
    """Decide whether t is a nonnegative integer combination of the weights.

    t must be an int (not a bool); negative t is trivially not
    representable.  G is in the order with x_1 cheapest, as every basis is.
    t is representable exactly when the remainder c of
    reduce_binomial(solve_degree(p, t), G) is >= 0; c is then the witness,
    the standard monomial of degree t, with c >= 0 and c.p = t.
    """
    p = as_weights(p)
    if G.weights != p:
        raise ValueError("basis was computed for different weights")
    _check_int(t, "t")
    if t < 0:
        return RepresentabilityResult(False, None)
    if p.n == 1:
        # the only valid single weight is 1
        return RepresentabilityResult(True, (t,))
    _, c = reduce_binomial(solve_degree(p, t), G)
    if min(c) < 0:
        return RepresentabilityResult(False, None)
    if pdegree(c, p) != t:
        raise AssertionError("witness degree mismatch")
    return RepresentabilityResult(True, c)


PHASES = ("basis", "groebner", "extraction")


class Solution:
    """The pipeline for one weight vector, each stage cached on first use.

    timings holds the wall time per phase; timed() adds one call's time to a
    phase.  Timed calls never nest, so the phases sum to at most the total.
    kernel_rows is the basis phase; basis is the groebner phase, which is
    lattice_groebner's LLL reduction of those rows, its Buchberger runs and
    the staircase walk that certifies them.
    """

    def __init__(self, p: Weights | Iterable[int]) -> None:
        self.weights = as_weights(p)
        self.timings = dict.fromkeys(PHASES, 0.0)

    def timed(self, phase: str, fn, *args):
        """Call fn(*args) and add its wall time to timings[phase]."""
        start = time.perf_counter()
        out = fn(*args)
        self.timings[phase] += time.perf_counter() - start
        return out

    @cached_property
    def kernel_rows(self) -> tuple[Vector, ...]:
        return self.timed("basis", kernel_basis, self.weights)

    @cached_property
    def basis(self) -> GroebnerBasis:
        cfg = OrderConfig(self.weights)
        return self.timed("groebner", lattice_groebner, self.weights, self.kernel_rows, cfg)

    @cached_property
    def ideal(self) -> MonomialIdeal:
        return initial_ideal(self.basis)

    @cached_property
    def corners(self) -> frozenset[Vector]:
        """Staircase corners: a_1 = -1, x^(a+) is standard and every
        x^((a+e_i)+), i >= 2, is not.  Their degrees are the pointwise
        maximal gaps; the largest is f*.  The basis has x_1 cheapest, and
        its staircase walk, taken when it was certified, found the a+."""
        return frozenset((-1,) + m for m in self.basis._staircase[1])

    @cached_property
    def components(self) -> frozenset[Vector]:
        """The irreducible components of the head ideal: the corners
        shifted by +1, as monideal.irreducible_decomposition returns them."""
        return frozenset(tuple(x + 1 for x in a) for a in self.corners)

    @cached_property
    def frobenius(self) -> int:
        """f*; -1, without building the basis, when some weight is 1."""
        if 1 in self.weights.entries:
            return -1
        if not self.corners:
            raise AssertionError("staircase corner set is empty for coprime weights >= 2")
        return max(pdegree(a, self.weights) for a in self.corners)


def frobenius_number(p: Weights | Iterable[int]) -> int:
    """The largest integer that is not representable; -1 when every
    nonnegative integer is (single weight, or some weight equal to 1).

    Accepts a Weights instance or any iterable of positive coprime integers.
    f* is the largest weighted degree of a staircase corner (Solution.corners),
    the irreducible components of the head ideal shifted by -1.
    """
    return Solution(p).frobenius
