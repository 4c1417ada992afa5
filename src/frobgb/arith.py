"""Exact integer vector arithmetic: weight vectors, extended-gcd chains,
kernel lattice bases, and rational-arithmetic LLL reduction.

LLL keeps exact Fraction Gram-Schmidt data for rows 0..k_max only, the rows
its loop has reached.  A swap updates the data of the swapped pair in place;
a size reduction recomputes its row.  It is not the integral LLL; see
lll_reduce.

Exponent vectors and lattice vectors are plain ``tuple[int, ...]``.  Python
integers keep every operation exact at any magnitude, so nothing here is
limited to machine words.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd

Vector = tuple[int, ...]

__all__ = [
    "CoprimeViolation",
    "Vector",
    "Weights",
    "as_weights",
    "decimal_str",
    "gcd_chain",
    "kernel_basis",
    "lll_reduce",
    "negative_part",
    "pdegree",
    "positive_part",
    "solve_degree",
    "xgcd",
]


def decimal_str(n: int) -> str:
    """``str(n)`` at any length.

    ``str`` refuses ints past ``sys.get_int_max_str_digits()`` (4300 digits
    by default); ``Decimal`` converts without that process-wide limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


class CoprimeViolation(ValueError):
    """The weight entries do not have greatest common divisor 1."""


def _check_int(x, what: str) -> None:
    """Raise ValueError unless x is an int; a bool is not one here."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} {x!r} is not an integer")


@dataclass(frozen=True)
class Weights:
    """Positive integers (p_1, ..., p_n) with gcd 1, used as a grading.

    The weighted degree of an exponent vector v is the dot product v.p;
    duplicates among the entries are allowed.
    """

    entries: Vector

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("weights must be non-empty")
        for w in entries:
            _check_int(w, "weight")
            if w <= 0:
                raise ValueError(f"weight {decimal_str(w)} is not positive")
        g = 0
        for w in entries:
            g = gcd(g, w)
        if g != 1:
            raise CoprimeViolation(f"gcd is {decimal_str(g)}, not 1")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def as_weights(p: Weights | Iterable[int]) -> Weights:
    """A Weights instance passes through; any other iterable of integers is
    validated by the Weights constructor."""
    if isinstance(p, Weights):
        return p
    return Weights(tuple(p))


def _check_dim(v: Vector, n: int) -> None:
    if len(v) != n:
        raise ValueError(f"expected a vector of dimension {n}, got {len(v)}")


def _check_exponents(v: Vector, n: int) -> None:
    """The one check of an exponent vector: n entries, none negative."""
    _check_dim(v, n)
    if any(x < 0 for x in v):
        raise ValueError(f"exponent vector {v} has a negative entry")


def pdegree(v: Vector, p: Weights) -> int:
    """Weighted degree of v: the dot product v.p."""
    _check_dim(v, p.n)
    return sum(a * b for a, b in zip(v, p.entries))


def positive_part(v: Vector) -> Vector:
    """Componentwise max(v, 0)."""
    return tuple(x if x > 0 else 0 for x in v)


def negative_part(v: Vector) -> Vector:
    """Componentwise max(-v, 0), so that v = positive_part - negative_part."""
    return tuple(-x if x < 0 else 0 for x in v)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _gcd_fold(p: Weights) -> list[list[int]]:
    """Rows of a unimodular U with U.p = (1, 0, ..., 0), by a left fold of
    extended gcds: row 0 is gcd_chain(p), rows 1.. are kernel_basis(p)."""
    n = p.n
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d = p.entries[0]
    for i, w in enumerate(p.entries[1:], 1):
        g, x, y = xgcd(d, w)
        q0, qi = d // g, w // g
        u[0], u[i] = (
            [x * a + y * b for a, b in zip(u[0], u[i])],
            [-qi * a + q0 * b for a, b in zip(u[0], u[i])],
        )
        d = g
    if d != 1:  # unreachable for a validated Weights; kept as a guard
        raise CoprimeViolation(f"gcd is {d}, not 1")
    return u


def gcd_chain(p: Weights) -> Vector:
    """A vector v with v.p = 1: row 0 of the extended-gcd fold.

    The coefficients are whatever back-substitution produces; they are not
    normalised beyond the defining identity.
    """
    return tuple(_gcd_fold(p)[0])


def _ceildiv(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def solve_degree(p: Weights, t: int) -> Vector:
    """A vector a with a.p = t, a_1 <= 0 and a_i >= 0 for i >= 2.

    Starts from t times a gcd chain and adds the minimal k >= 0 multiples of
    (-(p_2+...+p_n), p_1, ..., p_1) needed to reach the sign pattern, so
    the entries grow with t.  frobenius.is_representable divides this vector
    by the basis, and grobner.normal_form folds it back below p_1 first.
    """
    _check_int(t, "t")
    if t < 0:
        raise ValueError("t must be >= 0")
    if p.n < 2:
        raise ValueError("solve_degree needs at least two weights")
    base = gcd_chain(p)
    a = [t * c for c in base]
    p1 = p.entries[0]
    s = sum(p.entries[1:])
    k = max(0, _ceildiv(a[0], s), max(_ceildiv(-ai, p1) for ai in a[1:]))
    out = (a[0] - k * s,) + tuple(ai + k * p1 for ai in a[1:])
    if out[0] > 0 or any(x < 0 for x in out[1:]) or pdegree(out, p) != t:
        raise AssertionError("solve_degree postcondition failed")
    return out


def kernel_basis(p: Weights) -> tuple[Vector, ...]:
    """n-1 rows spanning the full integer kernel lattice {v : v.p = 0}.

    They are rows 1.. of the extended-gcd fold, whose row 0 is gcd_chain(p).
    The fold is unimodular and reduces the column p to (1, 0, ..., 0), so
    they span the whole kernel, not just a finite-index sublattice.
    """
    rows = tuple(tuple(row) for row in _gcd_fold(p)[1:])
    for r in rows:
        if pdegree(r, p) != 0:
            raise AssertionError("kernel basis row has nonzero weighted degree")
    return rows


def _gram_schmidt(rows, start: int, stop: int, gs=None):
    """Exact Gram-Schmidt data (mu, norm2, star) of rows start..stop-1 over
    Fractions; raises on linearly dependent rows.

    Row i's data depends only on rows 0..i, so with gs from an earlier call
    on rows that agree above start, only rows start..stop-1 are computed, in
    place; the rows above keep their data.
    """
    m = len(rows)
    if gs is None:
        gs = [[Fraction(0)] * m for _ in range(m)], [None] * m, [None] * m
    mu, norm2, star = gs
    for i in range(start, stop):
        row = rows[i]
        b = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(row, star[j])) / norm2[j]
            b = [a - mu[i][j] * c for a, c in zip(b, star[j])]
        n2 = sum(x * x for x in b)
        if n2 == 0:
            raise ValueError("basis rows are linearly dependent")
        star[i] = b
        norm2[i] = n2
    return gs


def _swap_gram_schmidt(k: int, gs) -> None:
    """Update gs in place for rows k-1 and k swapped (Cohen 1993, Alg.
    2.6.3, SWAP, without its loop over the rows i > k).

    Only the data of rows k-1 and k changes, and rows 0..k are independent,
    so the new norm2[k-1] is positive.
    """
    mu, norm2, star = gs
    u = mu[k][k - 1]
    b = norm2[k] + u * u * norm2[k - 1]
    v = u * norm2[k - 1] / b
    old = star[k - 1]
    new = [x + u * y for x, y in zip(star[k], old)]
    star[k - 1] = new
    star[k] = [x - v * y for x, y in zip(old, new)]
    norm2[k] = norm2[k - 1] * norm2[k] / b
    norm2[k - 1] = b
    mu[k][k - 1] = v
    mu[k - 1][: k - 1], mu[k][: k - 1] = mu[k][: k - 1], mu[k - 1][: k - 1]


LLL_DELTA = Fraction(99, 100)


def lll_reduce(basis) -> tuple[Vector, ...]:
    """LLL reduction with exact rational Gram-Schmidt (no floating point).

    Returns rows spanning the same lattice, size-reduced and satisfying the
    Lovasz condition with delta = LLL_DELTA; raises on linearly dependent
    rows.  Correctness of callers never depends on this step; it only
    shrinks entries.  Rows that are already reduced come back unchanged:
    every |mu| <= 1/2 rounds to 0 and every Lovasz test passes.

    Every entry must be an int (a bool is not one), or ValueError is
    raised.

    The Gram-Schmidt data is computed only for the rows the loop has
    reached, rows 0..k_max (Cohen 1993, Alg. 2.6.3): row k's data is first
    computed when k passes k_max.  Size-reducing row k changes neither b*_k
    nor the data of any row below it, so only row k is recomputed.
    Swapping rows k-1 and k updates those two rows' data in place with
    Cohen's SWAP formulas (_swap_gram_schmidt) and sets k_max = k, so the
    rows after them are recomputed when the loop reaches them again.  A
    dependent row therefore raises only when k reaches it.  The arithmetic
    is exact, so the steps and the output are those of a full recomputation
    after every step (tests/helpers.reference_lll).

    The rest of Cohen's SWAP step (updating mu[i][k-1] and mu[i][k] for the
    rows i > k), in-place mu updates on size reduction, and integral LLL
    (Cohen, Alg. 2.6.7) would do less still.  They wait until the
    benchmark's peak RSS stops growing with its op count: it keeps every
    op's output, so a faster LLL shows as more RSS on its small-instance
    workload.  Measured in 50 s benchmark pairs, the full SWAP step raised
    that peak RSS by 14.2% and 21.1% and the integral LLL by 77%, against
    a 15% bound; this swapped-pair update alone raised it by 4.5% in the
    median of ten pairs, 9.9% at most (ROADMAP.md, items 1 and 3).
    """
    rows = [list(r) for r in basis]
    m = len(rows)
    if m == 0:
        return ()
    width = len(rows[0])
    for r in rows:
        _check_dim(r, width)
        for x in r:
            _check_int(x, "row entry")
    gs = _gram_schmidt(rows, 0, 1)
    mu, norm2, _ = gs
    k, k_max = 1, 0
    while k < m:
        if k > k_max:
            _gram_schmidt(rows, k, k + 1, gs)
            k_max = k
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
                _gram_schmidt(rows, k, k + 1, gs)
        if norm2[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * norm2[k - 1]:
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            _swap_gram_schmidt(k, gs)
            k_max = k
            k = k - 1 if k > 1 else 1
    return tuple(tuple(r) for r in rows)
