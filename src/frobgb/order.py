"""Degree-first term order on exponent vectors, with x_1 cheapest.

Monomials are compared by weighted degree first; ties are broken by a
reverse lexicographic scan that starts at x_1, so x_1 is the cheapest
variable (a larger exponent there makes a monomial smaller).  The degree
comparison comes first, so this is a term order.  Every public basis is
computed in this order; the saturation passes of grobner make other
variables cheapest by permuting coordinates (_scan_order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul, neg

from .arith import Vector, Weights, _check_exponents

LT, EQ, GT = -1, 0, 1

__all__ = ["EQ", "GT", "LT", "OrderConfig", "compare"]


@lru_cache(maxsize=None)
def _scan_order(n: int, var: int) -> tuple[int, ...]:
    """The coordinates with var's (1-indexed) moved to the front: the revlex
    scan of the order in which var is cheapest."""
    first = var - 1
    return (first,) + tuple(i for i in range(n) if i != first)


@dataclass(frozen=True)
class OrderConfig:
    """The weighted degree-first order with x_1 cheapest.

    Between monomials of equal degree the comparison scans the coordinates
    in ascending position, declaring the vector with the larger entry at the
    first difference to be the smaller monomial.
    """

    weights: Weights

    def sort_key(self, v: Vector) -> tuple[int, ...]:
        """Monotone embedding of the order into tuples under lexicographic
        comparison; usable as a sort or heap key."""
        return (sum(map(mul, v, self.weights.entries)), *map(neg, v))


def compare(a: Vector, b: Vector, cfg: OrderConfig) -> int:
    """LT, EQ or GT for the monomials x^a versus x^b."""
    n = cfg.weights.n
    _check_exponents(a, n)
    _check_exponents(b, n)
    ka, kb = cfg.sort_key(a), cfg.sort_key(b)
    return (ka > kb) - (ka < kb)
