"""Command-line interface.

    frob number 6 10 15            largest non-representable integer
    frob test --t 30 6 10 15       representability with a witness
    frob gb 6 10 15                reduced basis, one binomial per line
    frob decomp 6 10 15            irreducible components of the head ideal
    frob hilbert --t 25 6 10 15    weighted Hilbert value at t
    frob regularity 6 10 15        index of regularity

Weights come either as arguments or from a file (--file, whitespace-separated
tokens, # starts a comment), never both.  --json switches to a
machine-readable report with big integers as decimal strings; --time writes
the wall times of the basis, groebner and extraction phases, and the total,
to standard error.  Options are spelled out in full; abbreviations are
rejected.  Exit codes: 0 on success, 1 when a test verdict is "no", 2 on
invalid input, 141 (128 + SIGPIPE) when the reader of standard output goes
away.

Each subcommand builds one frobenius.Solution and formats what it reads
from it; the phase times come from the Solution's timings.  The argument
parser is built once per process, on the first run, and never mutated;
each run parses into a fresh namespace.  --help writes through run's
stdout and returns 0.  Integers of any length are read and printed exactly,
past the interpreter's limit on str <-> int conversion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from decimal import Decimal

from .arith import Weights, decimal_str
from .frobenius import Solution, is_representable
from .grobner import format_binomial
from .hilbert import hilbert_value, index_of_regularity
from .monideal import format_component

__all__ = ["main", "run"]


class _CLIError(Exception):
    pass


class _HelpRequested(Exception):  # carries the help text out of parse_args
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # --t must not stand for --time
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # keep diagnostics to one line and our exit codes
        raise _CLIError(message)

    def print_help(self, file=None):  # run writes it to its own stdout
        raise _HelpRequested(self.format_help())


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="frob", description="Frobenius numbers via lattice bases")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("weights", nargs="*", metavar="p", help="positive coprime integers")
    common.add_argument("--file", help="read weights from a file instead")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--time", dest="timing", action="store_true",
                        help="print per-phase wall times to stderr")

    sub.add_parser("number", parents=[common], help="largest non-representable integer")
    t = sub.add_parser("test", parents=[common], help="test one integer")
    t.add_argument("--t", required=True, metavar="T", help="integer to test")
    sub.add_parser("gb", parents=[common], help="print the reduced basis")
    sub.add_parser("decomp", parents=[common], help="irreducible components")
    h = sub.add_parser("hilbert", parents=[common], help="Hilbert value at a degree")
    h.add_argument("--t", required=True, metavar="T", help="degree to evaluate")
    sub.add_parser("regularity", parents=[common], help="index of regularity")
    return parser


# int()'s own grammar: what it rejects below the digit limit stays rejected
_INT_TOKEN = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _parse_int(tok: str) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        pass
    if _INT_TOKEN.fullmatch(tok):  # past sys.get_int_max_str_digits()
        return int(Decimal(tok))
    raise _CLIError(f"not an integer: {tok!r}")


def _read_weights(args) -> Weights:
    if args.file is not None:
        if args.weights:
            raise _CLIError("weights given both as arguments and with --file")
        try:
            with open(args.file, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise _CLIError(str(e))
        tokens = []
        for line in text.splitlines():
            tokens.extend(line.split("#", 1)[0].split())
    else:
        tokens = args.weights
    if not tokens:
        raise _CLIError("no weights given")
    return Weights(tuple(_parse_int(tok) for tok in tokens))


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    total_start = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        p = _read_weights(args)
        sol = Solution(p)
        code = 0
        payload: dict = {}
        lines: list[str] = []

        if args.command == "number":
            fstar = sol.frobenius
            payload["frobenius"] = decimal_str(fstar)
            lines.append(decimal_str(fstar))

        elif args.command == "test":
            t = _parse_int(args.t)
            res = sol.timed("extraction", is_representable, p, t, sol.basis)
            payload["t"] = decimal_str(t)
            payload["representable"] = res.representable
            payload["witness"] = (
                [decimal_str(x) for x in res.witness] if res.representable else None
            )
            if res.representable:
                lines.append("yes " + " ".join(decimal_str(x) for x in res.witness))
            else:
                lines.append("no")
                code = 1

        elif args.command == "gb":
            G = sol.basis
            payload["basis"] = [
                {
                    "head": [decimal_str(x) for x in g.head],
                    "tail": [decimal_str(x) for x in g.tail],
                    "text": format_binomial(g),
                }
                for g in G.elements
            ]
            lines.extend(format_binomial(g) for g in G.elements)

        elif args.command == "decomp":
            ordered = sorted(sol.components)
            payload["components"] = [[decimal_str(x) for x in v] for v in ordered]
            lines.extend(format_component(v) for v in ordered)

        elif args.command == "hilbert":
            t = _parse_int(args.t)
            sol.basis  # build the basis under its own phases, not inside extraction
            value = sol.timed("extraction", hilbert_value, sol, t)
            payload["t"] = decimal_str(t)
            payload["value"] = decimal_str(value)
            lines.append(decimal_str(value))

        elif args.command == "regularity":
            reg = index_of_regularity(sol)  # the corners come with the basis
            payload["index_of_regularity"] = decimal_str(reg)
            lines.append(decimal_str(reg))

        elapsed = {**sol.timings, "total": time.perf_counter() - total_start}
        if args.json:
            doc = {
                "command": args.command,
                "p": [decimal_str(w) for w in p.entries],
                **payload,
                "elapsed": {k: round(v, 6) for k, v in elapsed.items()},
            }
            print(json.dumps(doc), file=out)
        else:
            for line in lines:
                print(line, file=out)
        if args.timing:
            for phase, seconds in elapsed.items():
                print(f"{phase:<11} {seconds:.6f}s", file=err)
        return code
    except _HelpRequested as e:
        out.write(str(e))
        return 0
    except (_CLIError, ValueError) as e:
        print(str(e), file=err)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, inside the try
    except BrokenPipeError:
        # the reader went away: point stdout at the null device so the
        # interpreter's last flush is silent, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141
    sys.exit(code)
