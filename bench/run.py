"""frobgb benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload fstar-n56 --seed 1 --seconds 50 --trace 0

Run from the root of a frobgb checkout; frobgb is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
provenance.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from check import Checker, WrongAnswer  # noqa: E402
from tracing import CALL_COUNTS, COUNTS, TRACED, OverBudget, Tracer, call_with_budget  # noqa: E402
from workloads import CliResult, make_workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The timed phase makes at least MIN_PASSES whole passes, so every run has at
# least as many samples as that and the tail metric always reads the same
# percentile of a workload.
MIN_PASSES = 4
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
# The speed of a shared host drifts by up to 1.5x over seconds to minutes
# (the same pass took from 6.8 s to 9.6 s of user time in one process), more
# than any bound a change could be held to.  So the timed phase also runs a
# fixed pure-Python loop between steps, and scales every time it reports by
# REFERENCE_S over the loop's median time in the same pass: the times are
# seconds on a host where the loop takes REFERENCE_S, about what it takes
# on the 2-vCPU Xeon the bounds were set on.
REFERENCE_LOOPS = 40_000
REFERENCE_S = 0.0044
REFERENCE_EVERY_S = 0.25  # the least time between two runs of the loop


class SetupError(Exception):
    pass


def import_frobgb():
    """Import frobgb from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "frobgb" / "__init__.py").is_file():
        raise SetupError(f"no frobgb package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import frobgb
        import frobgb.cli  # noqa: F401
    except ImportError as e:
        raise SetupError(f"cannot import frobgb from {src}: {e}")
    if Path(frobgb.__file__).resolve().parent != (src / "frobgb").resolve():
        raise SetupError(f"imported frobgb from {frobgb.__file__}, not from {src}")
    return frobgb


@dataclass
class Outcome:
    op: object
    elapsed: float
    status: str  # "ok", "over_budget" or "error"
    value: object = None
    where: str | None = None  # innermost layer when stopped at the budget


class Recorder:
    """Runs ops one at a time under the per-call budget and keeps outcomes."""

    def __init__(self, frob, budget_s: float, tracer=None, measure=True):
        self.frob = frob
        self.budget_s = budget_s
        self.tracer = tracer
        self.measure = measure  # passed to Tracer.tagged
        self.outcomes: list[Outcome] = []

    def execute(self, op, budget_s: float | None = None):
        resource_errors = (self.frob.EnumerationTooLarge, self.frob.OracleScaleExceeded)
        start = time.perf_counter()
        out = Outcome(op, 0.0, "ok")
        op_id = len(self.outcomes) if self.measure else f"probe{len(self.outcomes)}"
        try:
            with self.tracer.tagged(op_id, self.measure) if self.tracer else nullcontext():
                out.value = call_with_budget(budget_s or self.budget_s, op.call, self.tracer)
        except OverBudget as e:
            out.status, out.where = "over_budget", e.where
        except resource_errors as e:
            out.status, out.value = "error", repr(e)
        out.elapsed = time.perf_counter() - start
        if self.tracer:
            # a stop that lands inside a wrapper's own bookkeeping can leave a
            # span open; every op starts with none
            self.tracer.stack.clear()
        if isinstance(out.value, CliResult) and out.value.code == 2:
            out.status = "error"
        self.outcomes.append(out)
        return out.value if out.status == "ok" else None

    def run_pass(self, steps, gauge: list | None = None) -> float:
        """Run ``steps``; with ``gauge``, time reference_loop at the start
        and then before a step once REFERENCE_EVERY_S have passed, into it."""
        start = time.perf_counter()
        last = None
        for step in steps:
            if gauge is not None and (last is None or time.perf_counter() - last >= REFERENCE_EVERY_S):
                gauge.append(reference_loop())
                last = time.perf_counter()
            step(self.execute)
        return time.perf_counter() - start


def reference_loop() -> float:
    """Seconds a fixed loop of plain Python arithmetic takes now."""
    start = time.perf_counter()
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


def check_all(checker, outcomes) -> None:
    for o in outcomes:
        if o.status != "ok":
            continue
        op = o.op
        if op.kind == "is_representable":
            checker.verdict(op.p, op.t, o.value.representable, o.value.witness, op.fstar)
        else:
            checker.cli(op.kind, op.p, op.t, o.value.code, o.value.doc)


def tail_percentile(min_samples: int) -> int:
    """The highest whole percentile, from 50 to 99, whose nearest rank among
    ``min_samples`` samples leaves TAIL_BEYOND samples above it."""
    return min(99, max(50, 100 * (min_samples - TAIL_BEYOND) // min_samples))


def nearest_rank(xs, q: int):
    """The q-th percentile of ``xs`` by nearest rank, and the samples above it."""
    xs = sorted(xs)
    rank = max(1, -(-q * len(xs) // 100))
    return xs[rank - 1], len(xs) - rank


def fresh_setup_s(args) -> float:
    """``setup_s`` of a fresh process that imports frobgb, sets the workload
    up and stops there, timed from that process's start."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"setup in a fresh process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def describe(o: Outcome) -> dict:
    return {"kind": o.op.kind, "p": " ".join(map(str, o.op.p)), "t": str(o.op.t),
            "status": o.status, "elapsed_s": o.elapsed, "where": o.where}


def provenance(args, workload, outcomes, extra) -> dict:
    instances = list(dict.fromkeys(o.op.p for o in outcomes))
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "budget_s": workload.budget_s,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "instances": [" ".join(map(str, p)) for p in instances],
        "t_values": [str(o.op.t) for o in outcomes if o.op.t is not None],
        "over_budget": [describe(o) for o in outcomes if o.status == "over_budget"],
        **extra,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args, workload):
    frob = import_frobgb()
    state = workload.setup(frob)
    setup_s = time.perf_counter() - _START

    # Whole passes until --seconds have passed and MIN_PASSES have run.
    # After each pass one fresh process sets up once more, so the setup_s
    # samples are spread over the run like the passes.
    rec = Recorder(frob, workload.budget_s)
    rng = random.Random(args.seed)
    passes, wall_setups = [], [setup_s]  # passes: (first outcome, end, scale)
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        first, gauge = len(rec.outcomes), []
        rec.run_pass(workload.make_pass(frob, state, rng), gauge)
        passes.append((first, len(rec.outcomes), REFERENCE_S / statistics.median(gauge)))
        wall_setups.append(fresh_setup_s(args))
    rss_mb = peak_rss_mb()  # before the checker builds its oracle tables
    check_all(Checker(), rec.outcomes)

    # This process set up just before the first pass; each fresh process
    # just after its pass.
    scales = [scale for _, _, scale in passes]
    setups = [t * scale for t, scale in zip(wall_setups, scales[:1] + scales)]
    wall = [o.elapsed for o in rec.outcomes]
    latencies = [o.elapsed * scale for first, end, scale in passes
                 for o in rec.outcomes[first:end]]
    rates = [sum(o.status == "ok" for o in rec.outcomes[first:end])
             / sum(latencies[first:end]) for first, end, _ in passes]
    done = sum(o.status == "ok" for o in rec.outcomes)
    tail_pct = tail_percentile(MIN_PASSES * len(latencies) // len(passes))
    tail_s, beyond = nearest_rank(latencies, tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "setup_runs_s": setups,
        "wall_setup_runs_s": wall_setups,
        "pass_ops_per_s": rates,
        "pass_reference_scale": scales,
        "wall_latency_p50_s": statistics.median(wall),
        "wall_latency_tail_s": nearest_rank(wall, tail_pct)[0],
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "fail_ratio": (len(latencies) - done) / len(latencies),
    }
    return rec.outcomes, metrics, extra


def run_traced(args, workload):
    frob = import_frobgb()
    tracer = Tracer()
    with tracer.installed(), tracer.tagged("setup"):
        state = workload.setup(frob)
    steps = workload.make_pass(frob, state, random.Random(args.seed))

    # Each step runs once untraced and once traced, alternating which goes
    # first, so drift in the machine's speed falls on both sides alike.
    plain = Recorder(frob, workload.budget_s)
    traced = Recorder(frob, workload.budget_s, tracer)
    plain_s = traced_s = 0.0
    for i, step in enumerate(steps):
        for side in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                plain_s += plain.run_pass([step])
            else:
                with tracer.installed():
                    traced_s += traced.run_pass([step])
    with tracer.installed():
        probes = Recorder(frob, workload.budget_s, tracer, measure=False)
        if workload.probes is not None:
            with tracer.tagged("probe", measure=False):
                probe_ops = workload.probes(frob)
            for budget_s, op in probe_ops:
                probes.execute(op, budget_s)
    outcomes = plain.outcomes + traced.outcomes
    check_all(Checker(), outcomes + probes.outcomes)

    def ok_per_s(rec, seconds):
        return sum(o.status == "ok" for o in rec.outcomes) / seconds

    metrics = {f"{name}.self_s": (tracer.self_s[name], "s") for name in TRACED}
    for name, (count, _) in COUNTS.items():
        metrics[f"{name}.{count}"] = (tracer.counts[f"{name}.{count}"], "count")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in TRACED:
        metrics[f"{name}.over_budget"] = (tracer.over_budget[name], "count")
    metrics["bench.untraced_ops_per_s"] = (ok_per_s(plain, plain_s), "1/s")
    metrics["bench.traced_ops_per_s"] = (ok_per_s(traced, traced_s), "1/s")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{workload.name}-seed{args.seed}-spans.json"
    with open(spans_path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, f)
    extra = {
        "tracing_overhead": plain_s and traced_s / plain_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "probes": [describe(o) for o in probes.outcomes],
    }
    return outcomes, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny ladders and probe budgets, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit (one setup_s sample)")
    args = parser.parse_args(argv)
    workloads = make_workloads(args.smoke)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]

    try:
        if args.setup_only:
            workload.setup(import_frobgb())
            print(json.dumps({"setup_s": time.perf_counter() - _START}))
            return 0
        run = run_traced if args.trace else run_untraced
        outcomes, metrics, extra = run(args, workload)
    except SetupError as e:
        print(f"setup failed: {e}", file=sys.stderr)
        return 2
    except WrongAnswer as e:
        print(f"wrong answer: {e}", file=sys.stderr)
        return 3
    print(json.dumps({"provenance": provenance(args, workload, outcomes, extra)}))
    print(json.dumps({
        "correct": True,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
