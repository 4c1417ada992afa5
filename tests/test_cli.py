"""Tests for the command-line front end: output contracts and exit codes."""

from __future__ import annotations

import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from decimal import Decimal

from frobgb import apery_frobenius
from frobgb.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_number():
    code, out, err = invoke("number", "6", "10", "15")
    assert (code, out, err) == (0, "29\n", "")
    assert invoke("number", "2", "3")[1] == "1\n"
    assert invoke("number", "1")[1] == "-1\n"
    assert invoke("number", "1", "7")[1] == "-1\n"


def test_test_verdicts_and_exit_codes():
    code, out, err = invoke("test", "--t", "30", "6", "10", "15")
    assert (code, out) == (0, "yes 5 0 0\n")
    code, out, err = invoke("test", "--t", "29", "6", "10", "15")
    assert (code, out) == (1, "no\n")
    code, out, _ = invoke("test", "--t", "0", "6", "10", "15")
    assert (code, out) == (0, "yes 0 0 0\n")
    code, out, _ = invoke("test", "--t", "-5", "6", "10", "15")
    assert (code, out) == (1, "no\n")


def test_test_time_does_not_grow_with_t():
    # dividing the t-sized signed solution without folding its exponents
    # mod p_1 took over a minute at t = 3 * 10^6 on these weights; the
    # largest t goes through the module entry point
    start = time.perf_counter()
    for t in (10**5, 10**9, 10**30):
        argv = ["test", "--t", str(t), "54", "140", "71", "85"]
        if t < 10**30:
            code, out, _ = invoke(*argv)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "frobgb", *argv], capture_output=True, text=True
            )
            code, out = proc.returncode, proc.stdout
        assert code == 0 and out.startswith("yes "), (t, out)
        w = [int(x) for x in out.split()[1:]]
        assert min(w) >= 0
        assert sum(a * b for a, b in zip(w, (54, 140, 71, 85))) == t
    assert time.perf_counter() - start < 5.0


def test_gb_listing():
    code, out, _ = invoke("gb", "6", "10", "15")
    assert code == 0
    assert out == "x2^3 - x1^5\nx3^2 - x1^5\n"
    assert invoke("gb", "2", "3")[1] == "x2^2 - x1^3\n"


def test_decomp_listing():
    code, out, _ = invoke("decomp", "6", "10", "15")
    assert (code, out) == (0, "(0,3,2)\n")
    code, out, _ = invoke("decomp", "7", "11", "13")
    assert (code, out) == (0, "(0,2,3)\n(0,3,1)\n")


def test_hilbert_and_regularity():
    assert invoke("hilbert", "--t", "25", "6", "10", "15")[:2] == (0, "1\n")
    assert invoke("hilbert", "--t", "29", "6", "10", "15")[:2] == (0, "0\n")
    assert invoke("regularity", "6", "10", "15")[:2] == (0, "30\n")
    assert invoke("regularity", "2", "3")[:2] == (0, "2\n")


def test_invalid_inputs_exit_2():
    code, out, err = invoke("number", "4", "6")
    assert (code, out) == (2, "")
    assert err == "gcd is 2, not 1\n"
    code, _, err = invoke("number", "0", "3")
    assert code == 2 and "not positive" in err
    code, _, err = invoke("number", "2", "x")
    assert code == 2 and "not an integer" in err
    code, _, err = invoke("number")
    assert code == 2 and err == "no weights given\n"
    code, _, err = invoke("test", "6", "10", "15")  # missing --t
    assert code == 2 and err.strip()
    code, _, err = invoke("hilbert", "--t", "-2", "6", "10", "15")
    assert code == 2 and "t must be >= 0" in err
    assert invoke("frobenius", "6")[0] == 2  # unknown subcommand
    assert len(invoke("number", "4", "6")[2].splitlines()) == 1


def test_hilbert_large_degrees_exit_0():
    # Sylvester: f* = ab - a - b, answered without walking the exponent box
    a, b = 100000007, 100000037
    for t, value in ((a * b - a - b, "0"), (a * b - a - b + 1, "1"), (10**17, "1")):
        assert invoke("hilbert", "--t", str(t), str(a), str(b)) == (0, value + "\n", "")
    assert invoke("hilbert", "--t", "100000000", "2", "3")[:2] == (0, "1\n")


def test_hilbert_time_does_not_grow_with_t():
    # walking the exponent box took 41 s at f* + 1 on these weights
    weights = ["798661", "916874", "482643", "991167", "942049"]
    start = time.perf_counter()
    for t, value in ((92176972, "0\n"), (92176973, "1\n")):
        proc = subprocess.run(
            [sys.executable, "-m", "frobgb", "hilbert", "--t", str(t), *weights],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, value, ""), t
    assert time.perf_counter() - start < 5.0


def test_option_abbreviations_are_rejected(tmp_path):
    # a prefix of a long option is not that option: --t is not --time, nor
    # --js --json
    for argv, token in (
        (("number", "--t", "5", "6", "10"), "--t"),
        (("gb", "--t", "7", "3", "5"), "--t"),
        (("number", "--js", "6", "10", "15"), "--js"),
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and token in err, err
    # spelled out in full, every option still works
    path = tmp_path / "weights.txt"
    path.write_text("6 10 15\n")
    assert invoke("number", "--file", str(path))[:2] == (0, "29\n")
    assert json.loads(invoke("number", "--json", "6", "10", "15")[1])["frobenius"] == "29"
    code, out, err = invoke("number", "--time", "6", "10", "15")
    assert (code, out) == (0, "29\n") and err.startswith("basis ")
    assert invoke("test", "--t", "30", "6", "10", "15")[:2] == (0, "yes 5 0 0\n")
    assert invoke("hilbert", "--t", "29", "6", "10", "15")[:2] == (0, "0\n")


def test_file_input(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("6 10 # the first two\n15\n# trailing comment\n")
    assert invoke("number", "--file", str(path))[:2] == (0, "29\n")
    # weights come from the file or the arguments, never both
    code, out, err = invoke("number", "3", "5", "--file", str(path))
    assert (code, out, err) == (2, "", "weights given both as arguments and with --file\n")
    code, _, err = invoke("number", "--file", str(tmp_path / "missing.txt"))
    assert code == 2 and err.strip()
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    assert invoke("number", "--file", str(empty))[0] == 2


def test_file_input_closes_the_file(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("6 10 15\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert invoke("number", "--file", str(path))[:2] == (0, "29\n")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_json_reports():
    code, out, _ = invoke("number", "--json", "6", "10", "15")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "number"
    assert doc["p"] == ["6", "10", "15"]
    assert doc["frobenius"] == "29"
    assert set(doc["elapsed"]) == {"basis", "groebner", "extraction", "total"}
    assert all(isinstance(v, float) for v in doc["elapsed"].values())

    doc = json.loads(invoke("test", "--json", "--t", "30", "6", "10", "15")[1])
    assert doc["representable"] is True
    assert doc["witness"] == ["5", "0", "0"]
    doc = json.loads(invoke("test", "--json", "--t", "29", "6", "10", "15")[1])
    assert doc["representable"] is False and doc["witness"] is None

    doc = json.loads(invoke("gb", "--json", "6", "10", "15")[1])
    assert doc["basis"][0] == {
        "head": ["0", "3", "0"],
        "tail": ["5", "0", "0"],
        "text": "x2^3 - x1^5",
    }
    doc = json.loads(invoke("decomp", "--json", "6", "10", "15")[1])
    assert doc["components"] == [["0", "3", "2"]]
    doc = json.loads(invoke("regularity", "--json", "6", "10", "15")[1])
    assert doc["index_of_regularity"] == "30"


def test_json_big_integers_stay_decimal():
    big = str(10**30 + 1)
    doc = json.loads(invoke("test", "--json", "--t", big, "6", "10", "15")[1])
    assert doc["t"] == big
    assert doc["representable"] is True
    total = sum(
        int(c) * w for c, w in zip(doc["witness"], (6, 10, 15))
    )
    assert total == 10**30 + 1
    assert "e" not in json.dumps(doc["witness"])


def test_timing_output():
    code, out, err = invoke("number", "--time", "6", "10", "15")
    assert code == 0 and out == "29\n"
    lines = err.splitlines()
    assert len(lines) == 4
    for name, line in zip(("basis", "groebner", "extraction", "total"), lines):
        assert re.fullmatch(rf"{name}\s+\d+\.\d{{6}}s", line)
    stamps = [float(line.split()[1].rstrip("s")) for line in lines]
    assert sum(stamps[:3]) <= stamps[3] + 1e-5  # phases fit inside the total


def test_one_route_to_the_basis():
    # saturating the unreduced kernel rows of these weights runs for more
    # than 90 s, and their LLL rows take milliseconds: the one route to the
    # basis, lattice_groebner, reduces the rows it gets, so no command can
    # skip that
    weights = ["281125", "702870", "582731", "139062", "106386"]
    start = time.perf_counter()
    outs = []
    for command in ("number", "gb"):
        proc = subprocess.run(
            [sys.executable, "-m", "frobgb", command, *weights],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        outs.append(proc.stdout)
    assert time.perf_counter() - start < 10.0
    assert outs[0] == f"{apery_frobenius(tuple(map(int, weights)))}\n"
    assert outs[1] and outs[1] == invoke("gb", *weights)[1]
    code, out, err = invoke("number", "--no-lll", "6", "10", "15")
    assert (code, out) == (2, "") and "--no-lll" in err


def test_deterministic_output():
    first = invoke("test", "--t", "1234", "7", "11", "13")
    second = invoke("test", "--t", "1234", "7", "11", "13")
    assert first == second


def test_interleaved_runs_share_no_state():
    # neither an option (--json, --t) nor an error may carry over from one
    # run into the next, whether or not the runs share a parser
    sequence = [
        (("number", "--json", "4", "6"), 2, ""),
        (("test", "--t", "30", "6", "10", "15"), 0, "yes 5 0 0\n"),
        (("number", "6", "10", "15"), 0, "29\n"),
        (("test", "6", "10", "15"), 2, ""),
    ]
    for _ in range(2):
        for argv, code, out in sequence:
            assert invoke(*argv)[:2] == (code, out), argv


def test_help_returns_through_stdout():
    cases = ((["--help"], "usage: frob [-h]"), (["number", "--help"], "usage: frob number"))
    for argv, usage in cases:
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage), out
    proc = subprocess.run(
        [sys.executable, "-m", "frobgb", "--help"], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: frob")


def test_parser_is_built_once_per_process():
    script = (
        "import io\n"
        "from frobgb import cli\n"
        "print(cli._build_parser.cache_info().currsize)\n"
        "for _ in range(2):\n"
        "    assert cli.run(['number', '6', '10', '15'], stdout=io.StringIO()) == 0\n"
        "print(cli._build_parser.cache_info().misses)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0\n1\n"), proc.stderr


def test_integers_past_the_str_digit_limit():
    # str <-> int stops at 4300 digits by default; tokens and outputs here
    # are longer, so every check goes through Decimal, never str(int)
    big = "1" + "0" * 5000
    p1, p2 = 10**2200 + 1, 10**2200 + 3
    weights = ["1" + "0" * 2199 + d for d in "13"]
    for flag in ([], ["--json"]):
        code, out, err = invoke("test", *flag, "--t", big, "6", "10", "15")
        assert (code, err) == (0, "")
        if flag:
            doc = json.loads(out)
            assert doc["t"] == big and doc["representable"] is True
            witness = [int(Decimal(x)) for x in doc["witness"]]
        else:
            assert out.startswith("yes ")
            witness = [int(Decimal(x)) for x in out.split()[1:]]
        assert min(witness) >= 0
        assert sum(a * b for a, b in zip(witness, (6, 10, 15))) == 10**5000

        code, out, err = invoke("number", *flag, *weights)
        assert (code, err) == (0, "")
        fstar = json.loads(out)["frobenius"] if flag else out
        assert int(Decimal(fstar)) == p1 * p2 - p1 - p2
    # basis exponents and components past the limit: x2^q1 - x1^q2, (0,q1)
    q1, q2 = (big[:-1] + d for d in "13")
    assert invoke("gb", q1, q2)[:2] == (0, f"x2^{q1} - x1^{q2}\n")
    assert invoke("decomp", q1, q2)[:2] == (0, f"(0,{q1})\n")
    doc = json.loads(invoke("gb", "--json", q1, q2)[1])
    assert doc["basis"][0]["head"] == ["0", q1] and doc["basis"][0]["tail"] == [q2, "0"]
    # 10^5000 exceeds p1 * p2, past which every degree is representable
    assert invoke("hilbert", "--t", big, *weights)[:2] == (0, "1\n")
    # diagnostics carry long integers too
    code, _, err = invoke("number", "2" + big[1:], "4" + big[1:])
    assert (code, err) == (2, f"gcd is {'2' + big[1:]}, not 1\n")
    code, _, err = invoke("number", "-" + big, "3")
    assert (code, err) == (2, f"weight -{big} is not positive\n")
    # what int() rejects stays rejected, short or long
    for tok in ("1e5", "1.0", "x", big + "e5", big + ".0"):
        assert invoke("number", "6", "10", tok)[0] == 2, tok
        assert invoke("test", "--t", tok, "6", "10", "15")[0] == 2, tok


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "frobgb", "number", "6", "10", "15"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "29\n"


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the reader of standard output is gone before frob starts, so its first
    # write, or the final flush, meets a broken pipe: frob says nothing and
    # exits 128 + SIGPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "frobgb", "gb", "6", "10", "15"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=30,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
