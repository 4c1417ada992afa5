"""Degree-first term order on exponent vectors.

Monomials are compared by weighted degree first; ties are broken by a
reverse lexicographic scan that starts at the distinguished variable, so
that variable is the cheapest one (a larger exponent there makes a monomial
smaller).  The degree comparison comes first, so this is a term order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul

from .arith import Vector, Weights, _check_dim

LT, EQ, GT = -1, 0, 1

__all__ = ["EQ", "GT", "LT", "OrderConfig", "compare"]


@lru_cache(maxsize=None)
def _scan_order(n: int, revlex_variable: int) -> tuple[int, ...]:
    first = revlex_variable - 1
    return (first,) + tuple(i for i in range(n) if i != first)


@dataclass(frozen=True)
class OrderConfig:
    """A weighted degree-first order with a distinguished cheapest variable.

    revlex_variable is 1-indexed.  Between monomials of equal degree the
    comparison scans that coordinate first and then the rest in ascending
    position, declaring the vector with the larger entry at the first
    difference to be the smaller monomial.
    """

    weights: Weights
    revlex_variable: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.revlex_variable <= self.weights.n:
            raise ValueError(
                f"revlex_variable must be in 1..{self.weights.n},"
                f" got {self.revlex_variable}"
            )

    def with_revlex(self, variable: int) -> "OrderConfig":
        return replace(self, revlex_variable=variable)

    def sort_key(self, v: Vector) -> tuple[int, ...]:
        """Monotone embedding of the order into tuples under lexicographic
        comparison; usable as a sort or heap key."""
        p = self.weights.entries
        scan = _scan_order(len(p), self.revlex_variable)
        return (sum(map(mul, v, p)), *[-v[i] for i in scan])


def _validate(v: Vector, n: int) -> None:
    _check_dim(v, n)
    if any(x < 0 for x in v):
        raise ValueError("term order comparisons are defined on nonnegative vectors")


def compare(a: Vector, b: Vector, cfg: OrderConfig) -> int:
    """LT, EQ or GT for the monomials x^a versus x^b."""
    n = cfg.weights.n
    _validate(a, n)
    _validate(b, n)
    ka = cfg.sort_key(a)
    kb = cfg.sort_key(b)
    return (ka > kb) - (ka < kb)
