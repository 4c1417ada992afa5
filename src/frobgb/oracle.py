"""Shortest-path oracle for representability, independent of basis machinery.

For m = min(p), the least representable integer in each residue class mod m
is the length of a shortest path on the residues 0..m-1 with an arc of
weight p_i from r to (r + p_i) mod m.  An integer t >= 0 is representable
exactly when t is at least the least representable integer in its class,
and the Frobenius number is the largest least value minus m.

The table is indexed by residues, so min(p) must stay small; the weights
themselves may be arbitrarily large.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .arith import Vector, Weights, _check_int, as_weights, decimal_str, pdegree

__all__ = ["AperyTable", "OracleScaleExceeded", "apery_frobenius", "dp_representable"]

MODULUS_LIMIT = 10**6


class OracleScaleExceeded(ValueError):
    """min(p) is too large to index a residue table."""


@dataclass(frozen=True)
class AperyTable:
    """Least representable integer per residue class modulo min(p)."""

    weights: Weights
    modulus: int
    least: tuple[int, ...]
    pred: tuple[Optional[tuple[int, int]], ...]

    @classmethod
    def build(
        cls, p: Weights | Iterable[int], limit: int = MODULUS_LIMIT
    ) -> "AperyTable":
        p = as_weights(p)
        m = min(p.entries)
        if m > limit:
            raise OracleScaleExceeded(
                f"min(p) = {decimal_str(m)} exceeds the table limit {limit}"
            )
        dist: list[Optional[int]] = [None] * m
        pred: list[Optional[tuple[int, int]]] = [None] * m
        dist[0] = 0
        heap: list[tuple[int, int]] = [(0, 0)]
        while heap:
            d, r = heappop(heap)
            if d != dist[r]:
                continue
            for i, w in enumerate(p.entries):
                nr = (r + w) % m
                if nr == r:
                    continue
                nd = d + w
                if dist[nr] is None or nd < dist[nr]:
                    dist[nr] = nd
                    pred[nr] = (r, i)
                    heappush(heap, (nd, nr))
        if any(d is None for d in dist):  # unreachable: the weights are coprime
            raise AssertionError("residue class unreachable")
        return cls(p, m, tuple(dist), tuple(pred))

    def representable(self, t: int) -> bool:
        """t is an int (not a bool) at least the least representable
        value of its residue class; negative t never is."""
        _check_int(t, "t")
        return t >= 0 and t >= self.least[t % self.modulus]

    def witness(self, t: int) -> Optional[Vector]:
        """A nonnegative vector w with w.p = t, or None."""
        if not self.representable(t):
            return None
        counts = [0] * self.weights.n
        r = t % self.modulus
        extra = (t - self.least[r]) // self.modulus
        while r:
            prev, i = self.pred[r]
            counts[i] += 1
            r = prev
        counts[self.weights.entries.index(self.modulus)] += extra
        w = tuple(counts)
        if pdegree(w, self.weights) != t:
            raise AssertionError("oracle witness degree mismatch")
        return w


def apery_frobenius(p: Weights | Iterable[int]) -> int:
    """Frobenius number by the residue table; -1 when some weight is 1."""
    table = AperyTable.build(p)
    return max(table.least) - table.modulus


def dp_representable(p: Weights | Iterable[int], t: int) -> bool:
    """True iff t is at least the least representable value in its class."""
    return AperyTable.build(p).representable(t)
