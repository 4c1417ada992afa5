"""Tests of the benchmark itself, on tiny ladders (``--smoke``):

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from check import Checker, WrongAnswer  # noqa: E402
from workloads import ROADMAP_WALL, cli_op, make_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result_of(run_bench(workload, 1)) for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units(first).items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["cli.run.calls"]["value"] or \
        first["metrics"]["frobenius.is_representable.calls"]["value"]


def test_probes_stop_in_the_layer_of_each_wall():
    fstar = result_of(run_bench("fstar-n56", 1))["metrics"]
    assert fstar["grobner.lattice_groebner.over_budget"]["value"] == 1
    cli = result_of(run_bench("cli-small", 1))["metrics"]
    assert cli["grobner.normal_form.over_budget"]["value"] == 3


def test_checker_rejects_wrong_answers():
    p = (6, 10, 15)  # f* = 29
    checker = Checker()
    checker.fstar(p, 29)
    checker.verdict(p, 31, True, (1, 1, 1), None)
    with pytest.raises(WrongAnswer):
        checker.fstar(p, 28)
    with pytest.raises(WrongAnswer):  # witness of the wrong degree
        checker.verdict(p, 30, True, (1, 1, 0), None)
    with pytest.raises(WrongAnswer):  # negative witness entry
        checker.verdict(p, 4, True, (-1, 1, 0), None)
    with pytest.raises(WrongAnswer):  # "no" where the oracle says yes
        checker.verdict(p, 31, False, None, None)
    with pytest.raises(WrongAnswer):  # a component whose corner is representable
        checker.cli("decomp", p, None, 0, {"components": [["0", "3", "2"], ["0", "1", "3"]]})
    with pytest.raises(WrongAnswer):
        checker.cli("regularity", p, None, 0, {"index_of_regularity": "29"})

    beyond = Checker(limit=1)  # no oracle: only f* separates yes from no
    beyond.verdict(p, 7, False, None, 29)
    with pytest.raises(WrongAnswer):
        beyond.verdict(p, 30, False, None, 29)
    with pytest.raises(WrongAnswer):
        beyond.verdict(p, 30, True, (5, 0, 0), 30)


def test_tiny_budget_stops_a_call_and_counts_it_as_failed():
    frob = bench.import_frobgb()
    rec = bench.Recorder(frob, budget_s=0.01)
    assert rec.execute(cli_op(frob, "number", ROADMAP_WALL)) is None
    [outcome] = rec.outcomes
    assert outcome.status == "over_budget" and outcome.where
    assert 0.01 <= outcome.elapsed < 1.0

    workload = dataclasses.replace(make_workloads(smoke=True)["fstar-n56"], budget_s=1e-4)
    args = argparse.Namespace(workload="fstar-n56", seed=3, seconds=0.5, smoke=True)
    outcomes, metrics, extra = bench.run_untraced(args, workload)
    assert extra["fail_ratio"] > 0
    assert any(o.status == "over_budget" for o in outcomes)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("cli-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("min_samples", [84, 105, 1120, 5000])
def test_tail_percentile_leaves_ten_samples_beyond_at_any_count_from_the_minimum(min_samples):
    q = bench.tail_percentile(min_samples)
    for n in (min_samples, min_samples + 21, 2 * min_samples):
        _, beyond = bench.nearest_rank(range(n), q)
        assert beyond >= bench.TAIL_BEYOND
    _, beyond = bench.nearest_rank(range(min_samples), q + 1)
    assert q == 99 or beyond < bench.TAIL_BEYOND
