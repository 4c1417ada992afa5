"""Shared checks: exact lattice comparisons, reduction certificates, random
instance generation, a reference LLL, a reference Buchberger with its plain
division (_ref_nf), a reference reducedness check and a reference staircase
walk.  Everything here is independent of the library internals so it can
act as a referee."""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import combinations
from math import gcd
from pathlib import Path


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def integer_combination(rows, target):
    """Integer coefficients c with sum c_i * rows[i] = target, or None.

    Solves the linear system exactly over the rationals and rejects
    non-integer solutions; the result is verified before returning.
    """
    m = len(rows)
    if m == 0:
        return () if not any(target) else None
    n = len(rows[0])
    # one equation per coordinate, unknowns are the coefficients
    mat = [
        [Fraction(rows[i][j]) for i in range(m)] + [Fraction(target[j])]
        for j in range(n)
    ]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((k for k in range(r, n) if mat[k][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for k in range(n):
            if k != r and mat[k][c]:
                f = mat[k][c] / mat[r][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        pivots.append((r, c))
        r += 1
    for k in range(r, n):
        if mat[k][m]:
            return None
    coeffs = [Fraction(0)] * m
    for row, col in pivots:
        coeffs[col] = mat[row][m] / mat[row][col]
    if any(c.denominator != 1 for c in coeffs):
        return None
    out = tuple(int(c) for c in coeffs)
    if any(dot(out, [rows[i][j] for i in range(m)]) != target[j] for j in range(n)):
        return None
    return out


def same_lattice(rows_a, rows_b):
    """True iff the two row sets generate the same integer lattice."""
    return all(integer_combination(rows_b, r) is not None for r in rows_a) and all(
        integer_combination(rows_a, r) is not None for r in rows_b
    )


def _det(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return int(det)


def maximal_minors_gcd(rows):
    """gcd of all maximal minors; 1 means the rows span a saturated lattice."""
    m = len(rows)
    n = len(rows[0])
    g = 0
    for cols in combinations(range(n), m):
        g = gcd(g, _det([[row[j] for j in cols] for row in rows]))
    return g


def _ref_gram_schmidt(rows):
    """mu and the squared Gram-Schmidt norms of the rows, over Fractions,
    recomputed from scratch."""
    m = len(rows)
    mu = [[Fraction(0)] * m for _ in range(m)]
    star = []
    norm2 = []
    for i in range(m):
        b = [Fraction(x) for x in rows[i]]
        for j in range(i):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(rows[i], star[j])) / norm2[j]
            b = [a - mu[i][j] * c for a, c in zip(b, star[j])]
        star.append(b)
        norm2.append(sum(x * x for x in b))
        assert norm2[i] > 0, f"row {i} is dependent on earlier rows"
    return mu, norm2


def check_lll(rows, delta=Fraction(99, 100)):
    """Recompute Gram-Schmidt data and assert size reduction plus the
    Lovasz condition; raises AssertionError with the offending indices."""
    m = len(rows)
    mu, norm2 = _ref_gram_schmidt(rows)
    for i in range(m):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2), f"mu[{i}][{j}] = {mu[i][j]}"
    for k in range(1, m):
        lhs = norm2[k]
        rhs = (delta - mu[k][k - 1] ** 2) * norm2[k - 1]
        assert lhs >= rhs, f"Lovasz condition fails at k={k}"
    return True


def reference_lll(basis, delta=Fraction(99, 100)):
    """The LLL loop lll_reduce ran before it kept the Gram-Schmidt data of
    unchanged rows: the same steps, with all of the data recomputed after
    every size-reduction step and every swap."""
    rows = [list(r) for r in basis]
    m = len(rows)
    if m == 0:
        return ()
    mu, norm2 = _ref_gram_schmidt(rows)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
                mu, norm2 = _ref_gram_schmidt(rows)
        if norm2[k] >= (delta - mu[k][k - 1] ** 2) * norm2[k - 1]:
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            mu, norm2 = _ref_gram_schmidt(rows)
            k = k - 1 if k > 1 else 1
    return tuple(tuple(r) for r in rows)


def random_weights(rng, n_lo, n_hi, lo, hi):
    """A coprime tuple of rng-chosen length and entry range (resamples
    until the gcd is 1)."""
    while True:
        n = rng.randint(n_lo, n_hi)
        entries = tuple(rng.randint(lo, hi) for _ in range(n))
        g = 0
        for w in entries:
            g = gcd(g, w)
        if g == 1:
            return entries


@cache
def benchmark_ladders():
    """The weights of each benchmark workload by name, from its own setup in
    bench/workloads.py: {"fstar-n56": [...], "cli-small": [...]}."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    # neither setup uses the frobgb module it is handed
    return {name: w.setup(None) for name, w in workloads.make_workloads().items()}


# -- reference Buchberger ----------------------------------------------------
#
# The plain all-pairs binomial Buchberger that lattice_groebner used before
# it gained pair criteria and a reducer lookup: every pair of inserted
# elements is queued (only coprime heads are skipped), and every inserted
# element stays a reducer.  It saturates every variable, in index order, so
# it also checks that the library may skip one pass.  The reduced basis is
# unique, so the library's faster loop must return exactly the same elements.


def _ref_strip(h, t):
    m = tuple(min(a, b) for a, b in zip(h, t))
    return tuple(a - b for a, b in zip(h, m)), tuple(a - b for a, b in zip(t, m))


def _ref_orient(u, v, key):
    ku, kv = key(u), key(v)
    if ku == kv:
        return None
    return (u, v) if ku > kv else (v, u)


def _ref_divides(h, m):
    return all(a <= b for a, b in zip(h, m))


def _ref_nf(m, basis):
    while True:
        for h, t in basis:
            if _ref_divides(h, m):
                k = min(b // a for a, b in zip(h, m) if a)
                m = tuple(x + k * (b - a) for x, a, b in zip(m, h, t))
                break
        else:
            return m


def _ref_buchberger(gens, key):
    basis = []
    seen = set()
    heap = []

    def push(h, t):
        if (h, t) in seen:
            return
        seen.add((h, t))
        j = len(basis)
        for i, (hi, _) in enumerate(basis):
            lcm = tuple(max(a, b) for a, b in zip(hi, h))
            heappush(heap, (key(lcm), i, j))
        basis.append((h, t))

    for h, t in gens:
        push(h, t)
    while heap:
        _, i, j = heappop(heap)
        (hf, tf), (hg, tg) = basis[i], basis[j]
        if all(a == 0 or b == 0 for a, b in zip(hf, hg)):
            continue
        lcm = tuple(max(a, b) for a, b in zip(hf, hg))
        u = _ref_nf(tuple(l - a + b for l, a, b in zip(lcm, hf, tf)), basis)
        v = _ref_nf(tuple(l - a + b for l, a, b in zip(lcm, hg, tg)), basis)
        if u != v:
            push(*_ref_strip(*_ref_orient(u, v, key)))
    return basis


def _ref_interreduce(basis, key):
    items = sorted(set(basis), key=lambda b: (key(b[0]), key(b[1])))
    kept = []
    for h, t in items:
        if not any(_ref_divides(h2, h) for h2, _ in kept):
            kept.append((h, t))
    return [(h, _ref_nf(t, kept)) for h, t in kept]


def _ref_scan(n, var):
    """The coordinates with x_var's first, the others in ascending position."""
    return [var - 1] + [i for i in range(n) if i != var - 1]


def _ref_key(p, var):
    """Sort key of the degree-first order of the weights p with x_var
    cheapest: degree, then the negated exponents in _ref_scan order."""
    scan = _ref_scan(len(p), var)
    return lambda v: (dot(v, p), *[-v[i] for i in scan])


def reference_groebner(rows, p):
    """Reduced basis of the saturated lattice ideal of the kernel rows of the
    weights p, in the order with x_1 cheapest, as a list of (head, tail)
    pairs in ascending head order.

    The full-saturation reference: one pass for every variable, in index
    order with x_1 last, where lattice_groebner skips one pass and picks its
    own order.  Each pass builds its own sort key; nothing is borrowed from
    the library."""
    p = tuple(p)
    cur = [
        (tuple(max(x, 0) for x in r), tuple(max(-x, 0) for x in r)) for r in rows
    ]
    for var in [*range(2, len(p) + 1), 1]:
        key = _ref_key(p, var)
        oriented = []
        for a, b in cur:
            pair = _ref_orient(a, b, key)
            if pair is not None:
                oriented.append(_ref_strip(*pair))
        cur = _ref_interreduce(_ref_buchberger(oriented, key), key)
    return cur


def permuted(p, rows, var):
    """The weights p and the rows in _ref_scan order of their coordinates,
    so the order with x_var cheapest becomes the one with x_1 cheapest."""
    scan = _ref_scan(len(p), var)
    return tuple(p[i] for i in scan), [tuple(r[i] for i in scan) for r in rows]


# -- reference reducedness check --------------------------------------------
#
# The pairwise loop validate_basis ran before it divided by _reduce_step:
# every head against every other head and every tail, a pair passed over
# when the head's support bitmask has a bit outside the other monomial's,
# the exponents scanned otherwise.


def _ref_support(v):
    return sum(1 << i for i, a in enumerate(v) if a)


def reference_reducedness(elements):
    """Every "head h divides head g" and "head h divides tail t" among the
    (head, tail) pairs, as messages; empty when the heads are an antichain
    and no head divides a tail."""
    head_masks = [_ref_support(h) for h, _ in elements]
    tail_masks = [_ref_support(t) for _, t in elements]
    out = []
    for i, (h, _) in enumerate(elements):
        mask = head_masks[i]
        for j, (g, t) in enumerate(elements):
            if i != j and not mask & ~head_masks[j] and _ref_divides(h, g):
                out.append(f"head {h} divides head {g}")
            if not mask & ~tail_masks[j] and _ref_divides(h, t):
                out.append(f"head {h} divides tail {t}")
    return out


def binomial_shape_ok(elements, p):
    """True when the (head, tail) pairs pass every shape check of a reduced
    basis in the order with x_1 cheapest: nonnegative, homogeneous, head
    above tail, disjoint supports and heads strictly ascending."""
    key = _ref_key(p, 1)
    prev = None
    for h, t in elements:
        kh, kt = key(h), key(t)
        if min(h + t) < 0 or kh[0] != kt[0] or kh <= kt:
            return False
        if any(a and b for a, b in zip(h, t)) or (prev is not None and kh <= prev):
            return False
        prev = kh
    return True


# -- reference staircase walk ------------------------------------------------
#
# A plain walk over the shifted monomials, independent of the slice recursion
# behind irreducible_decomposition: every candidate exponent of every
# coordinate is tried, each partial assignment is tested against all
# generators, and each leaf is tested by bumping every coordinate in turn.


def reference_decomposition(I):
    """Irreducible components of a head-shaped monomial ideal I (generators
    free of x_1, a pure power of every other variable), by the plain walk
    over the shifted monomials m = v - 1."""
    n = I.n
    gens = I.sorted_generators()
    candidates = [sorted({g[i] for g in gens if g[i]}) for i in range(1, n)]

    out = []
    m = [0] * n

    def in_ideal_partial(upto):
        # True when some generator supported on assigned coordinates (1..upto)
        # divides the partial monomial, forcing every completion into I.
        for g in gens:
            if all(x == 0 for x in g[upto + 1 :]) and all(
                g[j] <= m[j] for j in range(1, upto + 1)
            ):
                return True
        return False

    def walk(i):
        if i == n:
            for j in range(1, n):
                m[j] += 1
                inside = any(_ref_divides(g, m) for g in gens)
                m[j] -= 1
                if not inside:
                    return
            out.append(tuple(0 if j == 0 else m[j] + 1 for j in range(n)))
            return
        for val in candidates[i - 1]:
            m[i] = val - 1
            if not in_ideal_partial(i):
                walk(i + 1)
        m[i] = 0

    walk(1)
    return frozenset(out)
