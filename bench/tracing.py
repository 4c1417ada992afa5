"""Spans around frobgb's public functions, and the per-call budget.

The tracer wraps functions from outside: each wrapper goes into every
``frobgb`` namespace that binds the original, so calls between modules
(``cli`` calling ``lattice_groebner``, ``frobenius`` calling
``reduce_binomial``) are seen as well.  Spans stay in memory as
``(name, start, end, parent, op)`` tuples; a span's self time is its duration
minus the durations of the spans it directly contains.
"""

from __future__ import annotations

import signal
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

# Public functions that get a span.  OrderConfig.sort_key runs millions of
# times inside Buchberger, so the order layer has none; its cost lands in
# grobner.lattice_groebner.
TRACED = (
    "arith.kernel_basis",
    "arith.lll_reduce",
    "arith.solve_degree",
    "grobner.lattice_groebner",
    "grobner.validate_basis",
    "grobner.reduce_binomial",
    "grobner.normal_form",
    "monideal.initial_ideal",
    "monideal.irreducible_decomposition",
    "frobenius.is_representable",
    "hilbert.hilbert_value",
    "hilbert.index_of_regularity",
    "cli.run",
)


def _out_bits(v) -> int:
    return max(abs(x).bit_length() for x in v)


# Work counts summed over calls, computed from each call's result.
COUNTS = {
    "grobner.lattice_groebner": ("basis_size", len),
    "monideal.irreducible_decomposition": ("components", len),
    "arith.solve_degree": ("out_bits", _out_bits),
}
CALL_COUNTS = ("grobner.normal_form", "frobenius.is_representable", "cli.run")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [name, start, index, child_time]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.over_budget: Counter = Counter()
        self.op = None
        self.measure = False  # add closing spans to self_s and the counts

    @contextmanager
    def installed(self):
        """Wrap every TRACED function while the block runs."""
        patched = []
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"frobgb.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "frobgb" or mod_name.startswith("frobgb.")) and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    @contextmanager
    def tagged(self, op, measure=True):
        """Attribute the spans opened inside to ``op``; with ``measure`` off
        they are kept as spans but left out of the per-layer metrics."""
        previous = self.op, self.measure
        self.op, self.measure = op, measure
        try:
            yield
        finally:
            self.op, self.measure = previous

    def innermost(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][2] if self.stack else None
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so parents precede children
            frame = [name, time.perf_counter(), index, 0.0]
            self.stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if count is not None and self.measure:
                    self.counts[f"{name}.{count[0]}"] += count[1](out)
                return out
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                self.spans[index] = (name, frame[1], end, parent, self.op)
                if self.measure:
                    self.self_s[name] += duration - frame[3]
                    self.calls[name] += 1
                if self.stack:
                    self.stack[-1][3] += duration

        return wrapper


class OverBudget(BaseException):
    """Raised into a call that ran past its budget.  A BaseException, so no
    ``except Exception`` in the program can swallow it."""

    def __init__(self, where):
        super().__init__(where)
        self.where = where


def _innermost_frobgb_frame(frame) -> str | None:
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("frobgb."):
            return f"{module[len('frobgb.'):]}.{frame.f_code.co_name}"
        frame = frame.f_back
    return None


def call_with_budget(seconds: float, fn, tracer: Tracer | None = None):
    """Run ``fn()``; raise OverBudget if it is still running after ``seconds``.

    An interval timer delivers SIGALRM to this process; the handler raises
    inside whatever frobgb code is running.  ``OverBudget.where`` names the
    innermost open span when traced, else the innermost frobgb function.
    """

    def alarm(signum, frame):
        where = tracer.innermost() if tracer is not None else None
        if where is not None:
            tracer.over_budget[where] += 1
        else:
            where = _innermost_frobgb_frame(frame)
        raise OverBudget(where)

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
