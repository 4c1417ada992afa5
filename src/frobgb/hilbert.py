"""Weighted Hilbert function of the quotient by the head ideal of a Solution.

The head ideal in(I_L) and the lattice ideal I_L have the same Hilbert
function, and k[x]/I_L is the semigroup ring of the weights, whose degree-t
part is spanned by one monomial when t is representable and is zero
otherwise.  So the function is 0/1-valued, its value at t is the
representability verdict, and the one standard monomial of degree t is the
normal form of any monomial of that degree, the witness of
is_representable.  The smallest degree from which the function is
constantly 1 (the index of regularity) is the Frobenius number plus one, so
index_of_regularity reads Solution.frobenius.
"""

from __future__ import annotations

from .frobenius import Solution, is_representable

__all__ = ["EnumerationTooLarge", "hilbert_value", "index_of_regularity"]


# nothing raises it; kept because bench/run.py reads frobgb.EnumerationTooLarge
class EnumerationTooLarge(ValueError):
    """Unused: nothing in frobgb raises it."""


def hilbert_value(sol: Solution, t: int) -> int:
    """Number of standard monomials of weighted degree t: 1 when t is
    representable, else 0, decided by one bounded normal form."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return int(is_representable(sol.weights, t, sol.basis).representable)


def index_of_regularity(sol: Solution) -> int:
    """Smallest r with hilbert_value equal to 1 from r on: f* + 1, read off
    the same staircase corners as f*, and 0 when no degree is missing."""
    return sol.frobenius + 1
