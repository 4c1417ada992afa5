"""Workloads: the inputs of each run and the operations timed on them.

Every workload runs in *passes*.  A pass is a list of steps; a step is a
callable that runs one or more operations through ``execute`` (see run.py),
so the runner can time, budget and record every call into frobgb.  The timed
phase keeps starting whole passes until its time is up and at least
``MIN_PASSES`` (run.py) have run; a traced run makes exactly one pass.

Instance ladders.  Random instances of one rung differ in cost by a factor
of 10 to 1000, and some stall for minutes, so inputs drawn afresh from each
run's seed can neither hold the spread bounds nor promise that no operation
fails.  The instances are therefore drawn once, from ``LADDER_SEED``; the
run's seed sets the order of each pass.  The known walls run as probes
(``Workload.probes``) in traced runs only, under their own budgets.

``make_workloads(smoke=True)`` shrinks every ladder and probe budget so the
benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

LADDER_SEED = 702040

# (number of weights, decimal digits per weight, instances)
FSTAR_RUNGS = ((5, 4, 8), (6, 3, 8), (5, 5, 2), (6, 4, 2), (5, 6, 1))
SMOKE_FSTAR_RUNGS = ((4, 2, 2),)
CLI_SMALL_INSTANCES = 40

ROADMAP_WALL = (257944, 678733, 891319, 506944, 373844, 292562)
REP_WALL = (1926, 2500, 2390, 6915, 3770)


def coprime_weights(rng: random.Random, n: int, digits: int) -> tuple[int, ...]:
    """n weights of exactly ``digits`` decimal digits with gcd 1."""
    while True:
        p = tuple(rng.randint(10 ** (digits - 1), 10**digits - 1) for _ in range(n))
        if gcd(*p) == 1:
            return p


def small_weights(rng: random.Random) -> tuple[int, ...]:
    """3 to 5 coprime weights in 2..200, the shape of the test pool."""
    while True:
        p = tuple(rng.randint(2, 200) for _ in range(rng.randint(3, 5)))
        if gcd(*p) == 1:
            return p


def ladder(rungs) -> list[tuple[int, ...]]:
    rng = random.Random(LADDER_SEED)
    return [coprime_weights(rng, n, d) for n, d, k in rungs for _ in range(k)]


@dataclass
class Op:
    """One call into frobgb: ``kind`` names it for the checker."""

    kind: str
    p: tuple[int, ...]
    t: int | None
    call: Callable[[], object]
    fstar: int | None = None  # the f* a representability verdict is checked against


@dataclass
class CliResult:
    code: int
    text: str  # what --json printed

    @property
    def doc(self) -> dict:
        # parsed on use, so the parse is not part of the op's time
        return json.loads(self.text)


def cli_op(frob, command: str, p, t=None) -> Op:
    argv = [command, "--json", *map(str, p)]
    if t is not None:
        argv[1:1] = ["--t", str(t)]

    def call():
        out = io.StringIO()
        code = frob.cli.run(argv, stdout=out, stderr=io.StringIO())
        return CliResult(code, out.getvalue())

    return Op(command, tuple(p), t, call)


def rep_op(frob, inst, t) -> Op:
    return Op("is_representable", inst.p, t,
              lambda: frob.is_representable(inst.weights, t, inst.G), inst.fstar)


@dataclass
class RepInstance:
    p: tuple[int, ...]
    weights: object
    G: object
    fstar: int


def build_rep_instance(frob, p) -> RepInstance:
    """The README recipe: LLL-reduced kernel basis, Groebner basis, and f*
    read off the irreducible decomposition of the head ideal."""
    w = frob.Weights(p)
    G = frob.lattice_groebner(w, frob.lll_reduce(frob.kernel_basis(w)), frob.OrderConfig(w))
    comps = frob.irreducible_decomposition(frob.initial_ideal(G), w)
    fstar = max(frob.pdegree(tuple(x - 1 for x in v), w) for v in comps)
    return RepInstance(p, w, G, fstar)


@dataclass
class Workload:
    name: str
    budget_s: float  # per-call wall-clock budget
    setup: Callable  # frob -> the fixed inputs every pass uses
    make_pass: Callable  # (frob, state, rng) -> steps, each a callable(execute)
    probes: Callable | None = None  # frob -> [(budget_s, Op)], traced runs only


def _steps(ops):
    return [lambda execute, op=op: execute(op) for op in ops]


def _fstar_pass(frob, instances, rng):
    order = list(instances)
    rng.shuffle(order)
    return _steps(cli_op(frob, "number", p) for p in order)


def _cli_instance(frob, p):
    """``number`` first, then the other five subcommands at the f* it printed."""

    def run(execute):
        res = execute(cli_op(frob, "number", p))
        if res is None:
            return
        fstar = int(res.doc["frobenius"])
        execute(cli_op(frob, "test", p, fstar))
        execute(cli_op(frob, "test", p, fstar + 1))
        execute(cli_op(frob, "gb", p))
        execute(cli_op(frob, "decomp", p))
        execute(cli_op(frob, "hilbert", p, fstar + 1))
        execute(cli_op(frob, "regularity", p))

    return run


def _cli_pass(frob, instances, rng):
    order = list(instances)
    rng.shuffle(order)
    return [_cli_instance(frob, p) for p in order]


def make_workloads(smoke: bool = False) -> dict[str, Workload]:
    fstar_rungs = SMOKE_FSTAR_RUNGS if smoke else FSTAR_RUNGS
    cli_count = 3 if smoke else CLI_SMALL_INSTANCES
    wall_s, rep_wall_s = (0.2, 0.2) if smoke else (15.0, 1.0)

    def rep_probes(frob):
        inst = build_rep_instance(frob, REP_WALL)
        ts = (inst.fstar - 3, inst.fstar, inst.fstar + 1)
        return [(rep_wall_s, rep_op(frob, inst, t)) for t in ts]

    def cli_setup(frob):
        rng = random.Random(LADDER_SEED)
        return [small_weights(rng) for _ in range(cli_count)]

    return {
        w.name: w
        for w in (
            Workload(
                "fstar-n56", 60.0,
                lambda frob: ladder(fstar_rungs),
                _fstar_pass,
                lambda frob: [(wall_s, cli_op(frob, "number", ROADMAP_WALL))],
            ),
            Workload("cli-small", 10.0, cli_setup, _cli_pass, rep_probes),
        )
    }
