"""Weighted Hilbert function of the quotient by the head ideal of a Solution.

For the head ideal of a kernel lattice basis the quotient has a 0/1-valued
weighted Hilbert function: the value at t counts the standard monomials of
weighted degree t, which is 1 exactly when t is representable.  The smallest
degree from which the function is constantly 1 (the index of regularity) is
the Frobenius number plus one, so index_of_regularity reads Solution.frobenius.

Both functions take a Solution, whose ideal comes from a basis that passed
validate_basis and so has the head shape: no generator uses the first
variable, and every other variable has a pure power.  hilbert_value is a
verification tool: values are found by bounded enumeration and requests with
too large a candidate box are refused.
"""

from __future__ import annotations

from math import prod

from .arith import decimal_str
from .frobenius import Solution
from .monideal import _pure_power

__all__ = ["EnumerationTooLarge", "enumeration_caps", "hilbert_value", "index_of_regularity"]

ENUMERATION_LIMIT = 10_000_000


class EnumerationTooLarge(ValueError):
    """The candidate monomial box for this degree exceeds the fixed budget."""


def enumeration_caps(sol: Solution, t: int) -> list[int]:
    """Largest exponent per variable in the degree-t enumeration: t // p_i,
    and beyond the first variable also one below its smallest pure-power
    generator.  hilbert_value solves x_1 from the remaining degree."""
    p = sol.weights.entries
    gens = sol.ideal.generators
    caps = [t // p[0]]
    for i in range(1, len(p)):
        pure = min(e for g in gens if (e := _pure_power(g, i)))
        caps.append(min(t // p[i], pure - 1))
    return caps


def hilbert_value(sol: Solution, t: int) -> int:
    """Number of standard monomials of weighted degree t.

    Exponents are capped by enumeration_caps; the product of the candidate
    counts of x_2..x_n must stay within the enumeration budget.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p = sol.weights.entries
    n = len(p)
    gens = sol.ideal.sorted_generators()

    bounds = enumeration_caps(sol, t)
    box = prod(b + 1 for b in bounds[1:])
    if box > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(
            f"degree {decimal_str(t)} spans {decimal_str(box)} candidate monomials,"
            f" over the limit {ENUMERATION_LIMIT}"
        )

    m = [0] * n
    count = 0

    def blocked(low: int) -> bool:
        # a generator supported on the assigned coordinates low..n-1 puts the
        # whole subtree inside the ideal
        for g in gens:
            if all(x == 0 for x in g[1:low]) and all(g[j] <= m[j] for j in range(low, n)):
                return True
        return False

    def walk(i: int, rem: int) -> None:
        nonlocal count
        if i == 0:
            if rem % p[0] == 0:
                count += 1
            return
        for val in range(min(rem // p[i], bounds[i]) + 1):
            m[i] = val
            if not blocked(i):
                walk(i - 1, rem - val * p[i])
        m[i] = 0

    walk(n - 1, t)
    return count


def index_of_regularity(sol: Solution) -> int:
    """Smallest r with hilbert_value equal to 1 from r on: f* + 1, read off
    the same staircase corners as f*, and 0 when no degree is missing."""
    return sol.frobenius + 1
