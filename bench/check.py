"""The answer checker.  It runs after the timed phase and uses only plain
arithmetic and frobgb's residue-table oracle, which shares no code with the
Groebner pipeline.  Every check raises WrongAnswer on a wrong result.
"""

from __future__ import annotations


class WrongAnswer(Exception):
    pass


def _fail(what: str, p, detail: str):
    raise WrongAnswer(f"{what} for p={list(p)}: {detail}")


class Checker:
    """Caches one oracle table per instance whose min(p) it can index."""

    def __init__(self, limit: int | None = None):
        from frobgb.oracle import MODULUS_LIMIT, AperyTable

        self.build = AperyTable.build
        self.limit = MODULUS_LIMIT if limit is None else limit
        self._tables: dict = {}

    def table(self, p):
        """The residue table of p, or None when min(p) is over the limit."""
        if min(p) > self.limit:
            return None
        if p not in self._tables:
            self._tables[p] = self.build(p, self.limit)
        return self._tables[p]

    def oracle_fstar(self, p) -> int | None:
        table = self.table(p)
        return None if table is None else max(table.least) - table.modulus

    def fstar(self, p, fstar: int) -> None:
        """f* must equal the oracle's wherever min(p) is within its limit."""
        expected = self.oracle_fstar(p)
        if expected is not None and fstar != expected:
            _fail("f*", p, f"got {fstar}, oracle says {expected}")

    def verdict(self, p, t: int, representable: bool, witness, fstar: int | None) -> None:
        """A "yes" needs a nonnegative witness w with w.p = t.  A "no" must
        match the oracle where it applies; beyond it t = f* must be "no"
        and every t > f* must be "yes"."""
        if representable:
            if witness is None or len(witness) != len(p) or min(witness) < 0:
                _fail("witness", p, f"t={t}: {witness} is not a nonnegative vector")
            if sum(w * x for w, x in zip(witness, p)) != t:
                _fail("witness", p, f"t={t}: {witness} has the wrong degree")
        table = self.table(p)
        if table is not None:
            if representable != table.representable(t):
                _fail("verdict", p, f"t={t}: got {representable}, oracle disagrees")
        elif fstar is not None and (t > fstar) != representable and t >= fstar:
            _fail("verdict", p, f"t={t}: got {representable} with f*={fstar}")

    def cli(self, kind: str, p, t, code: int, doc: dict) -> None:
        """One ``frob <kind> --json`` result on an instance the oracle covers."""
        fstar = self.oracle_fstar(p)
        if fstar is None:
            _fail(kind, p, "instance is beyond the oracle")
        if kind == "number":
            if code != 0:
                _fail("number", p, f"exit code {code}")
            self.fstar(p, int(doc["frobenius"]))
        elif kind == "test":
            yes = doc["representable"]
            if code != (0 if yes else 1):
                _fail("test", p, f"exit code {code} with representable={yes}")
            witness = [int(x) for x in doc["witness"]] if yes else None
            self.verdict(p, t, yes, witness, fstar)
        elif kind == "gb":
            if not doc["basis"]:
                _fail("gb", p, "empty basis")
            for g in doc["basis"]:
                head, tail = [int(x) for x in g["head"]], [int(x) for x in g["tail"]]
                if sum(h * w for h, w in zip(head, p)) != sum(x * w for x, w in zip(tail, p)):
                    _fail("gb", p, f"{g['text']} is not homogeneous")
                if any(h and x for h, x in zip(head, tail)) or min(head + tail) < 0:
                    _fail("gb", p, f"{g['text']} is not a binomial of disjoint monomials")
        elif kind == "decomp":
            # each component shifts to a corner a = v - 1 with a_1 = -1, whose
            # degree is a gap; the largest gap is f*
            degrees = [
                sum((int(x) - 1) * w for x, w in zip(v, p)) for v in doc["components"]
            ]
            table = self.table(p)
            if not degrees or max(degrees) != fstar or any(table.representable(d) for d in degrees):
                _fail("decomp", p, f"corner degrees {sorted(degrees)} with f*={fstar}")
        elif kind == "hilbert":
            if int(doc["value"]) != int(self.table(p).representable(t)):
                _fail("hilbert", p, f"value {doc['value']} at t={t}")
        elif kind == "regularity":
            if int(doc["index_of_regularity"]) != fstar + 1:
                _fail("regularity", p, f"got {doc['index_of_regularity']}, f*+1={fstar + 1}")
        else:
            _fail(kind, p, "unknown command")
