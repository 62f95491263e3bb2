"""Command dispatch, output stability, and exit codes."""

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import re
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qbracket.bracket3 as bracket3_module
import qbracket.cli as cli
import qbracket.multipoly as multipoly
import qbracket.quotient as quotient
import qbracket.search as search
import state_oracle
from conftest import SRC
from qbracket.bracket3 import CURL_MINUS, tl_evaluate
from qbracket.classical import LaurentPolynomial, bracket_from_raw, format_laurent, writhe_normalize
from qbracket.cli import main
from qbracket.diagram import BraidWord, closure, parse_braid, pd_text
from qbracket.multipoly import format_poly
from qbracket.quotient import normal_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- bracket -----------------------------------------------------------------------

TREFOIL_BRACKET_TEXT = (
    "input: braid:2:1,1,1\n"
    "writhe: 3\n"
    "bracket: -1*a^5 -1*a^-3 +1*a^-7\n"
    "f: +1*a^-4 +1*a^-12 -1*a^-16\n"
)


def test_bracket_golden_text(capsys):
    code, out, _ = run(capsys, "bracket", "braid:2:1,1,1")
    assert code == 0
    assert out == TREFOIL_BRACKET_TEXT


def test_bracket_on_a_braid_builds_no_closure(capsys, forbid_closure):
    forbid_closure()
    assert run(capsys, "bracket", "braid:2:1,1,1") == (0, TREFOIL_BRACKET_TEXT, "")


def test_bracket_json(capsys):
    code, out, _ = run(capsys, "bracket", "braid:2:1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "input": "braid:2:1,1,1",
        "writhe": 3,
        "bracket": "-1*a^5 -1*a^-3 +1*a^-7",
        "f": "+1*a^-4 +1*a^-12 -1*a^-16",
    }


def test_bracket_accepts_pd_input(capsys):
    code, out, _ = run(capsys, "bracket", "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]", "--json")
    assert code == 0
    assert json.loads(out)["writhe"] == -3


TORUS_26 = "braid:2:" + ",".join(["1"] * 26)


def test_bracket_braid_past_the_enumeration_cap_uses_the_transfer_pass(capsys):
    code, out, err = run(capsys, "bracket", TORUS_26, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["bracket"] == format_laurent(
        bracket_from_raw(tl_evaluate(parse_braid(TORUS_26)))
    )


def test_bracket_braid_wider_than_the_transfer_cap_still_enumerates(capsys):
    text = "braid:13:1,-12"  # 13 strands, over the transfer pass's cap of 12
    code, out, err = run(capsys, "bracket", text, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["bracket"] == format_laurent(state_oracle.kauffman_bracket(closure(parse_braid(text))))


def test_bracket_pd_too_wide_for_the_cap_exits_1_with_one_error_line(capsys):
    # the full twist on 13 strands: 156 crossings, 26 open arcs wide in its own
    # crossing order and in the greedy one, over the cap of 24
    pd = pd_text(closure(BraidWord(13, tuple(range(1, 13)) * 13)))
    code, out, err = run(capsys, "bracket", pd)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: 156 crossings need 26 open arcs")
    assert err.rstrip().endswith("cap of 24")
    # `bracket` has no engine option, so the message must not point to one
    assert "engine" not in err and "--" not in err


@pytest.mark.parametrize("argv", [("bracket", "braid:2:1,1,1"), ("bracket3", "braid:2:1,1,1"), ("search",)])
def test_out_of_memory_exits_1_with_one_error_line(capsys, monkeypatch, argv):
    # a real exhaustion (a wide random braid word under an address-space
    # limit) raised from inside the state-sum engines
    def exhausted(*args, **kwargs):
        raise MemoryError

    for module, name in ((cli, "tl_evaluate"), (cli, "bracket3_raw"), (search, "bracket3_raw")):
        monkeypatch.setattr(module, name, exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_bracket_on_5000_strands_is_the_closed_form(capped_cli):
    # one crossing closes to an unknot with a kink, -a^3, beside k = 4998 free
    # circles, (-a^-2 - a^2)^k = sum_i C(k, i) a^(4i-2k) for even k; squaring
    # it through the list of every product ran out of 1 GiB
    k = 4998
    bracket = LaurentPolynomial({4 * i - 2 * k + 3: -math.comb(k, i) for i in range(k + 1)})
    done = capped_cli("bracket", "braid:5000:1")
    assert (done.returncode, done.stderr) == (0, "")
    assert_same_lines(done.stdout, (
        f"input: braid:5000:1\nwrithe: 1\nbracket: {format_laurent(bracket)}\n"
        f"f: {format_laurent(writhe_normalize(bracket, 1))}\n"
    ))


def assert_same_lines(out: str, expected: str) -> None:
    """``out == expected`` for outputs of long lines, by their line counts and
    then each line's sha256, so that a failure names its first differing
    line: pytest's diff of two texts of some 5,000 terms ran for minutes."""
    got, want = out.split("\n"), expected.split("\n")
    assert len(got) == len(want), f"{len(got)} lines, expected {len(want)}"
    digests = [[hashlib.sha256(line.encode()).digest() for line in lines] for lines in (got, want)]
    first = next((i for i, (g, w) in enumerate(zip(*digests)) if g != w), None)
    assert first is None, f"line {first + 1} differs: {got[first][:60]!r}..., expected {want[first][:60]!r}..."


def test_bracket_folds_many_circle_counts_under_the_cap(capped_cli):
    # 200 crossings beside 6,998 free circles: the raw sum spans about 200
    # circle counts near 7,000, and a power of the circle factor per count
    # would not fit in 1 GiB; the fold builds only the lowest one
    done = capped_cli("bracket", "braid:7000:" + ",".join(["1"] * 200), timeout=60.0)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[1] == "writhe: 200"


def test_bracket_of_a_long_two_strand_twist_beside_many_circles_is_fast(capped_cli):
    # T(2,400) beside 3,998 free circles, through the frontier pass: slots
    # of one b-power per circle count took about 14 s on a 2-core machine
    # (Python 3.11); slots sized to the state diamond, about 1.5 s
    start = time.perf_counter()
    done = capped_cli("bracket", "braid:4000:" + ",".join(["1"] * 400))
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[1] == "writhe: 400"
    assert elapsed < 5.0, f"bracket of T(2,400) beside 3,998 circles took {elapsed:.2f}s"


@pytest.mark.parametrize("letters, bound", [(400, 1.0), (1500, 10.0)])
def test_bracket3_of_a_long_two_strand_twist_is_fast(capped_cli, letters, bound):
    # ambient3 is lifted from the raw sum once; padding the normal form with
    # one curl factor per crossing and reducing after each took 1.4-2 s for
    # 400 letters and 31-34 s for 1,500 on a 2-core machine (Python 3.11),
    # the lift about 0.5 s and 3 s; with the normal form read off the lift at
    # writhe 0 too, 1,500 letters take about 3-4.5 s
    start = time.perf_counter()
    done = capped_cli("bracket3", "braid:2:" + ",".join(["1"] * letters), "--json", timeout=bound + 30.0)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)
    assert payload["writhe"] == letters
    assert payload["ambient3"].startswith(f"-b^2*d^{3 * letters - 1} ")
    assert elapsed < bound, f"bracket3 of T(2,{letters}) took {elapsed:.2f}s"


@pytest.mark.parametrize("command", ["bracket", "bracket3"])
def test_long_two_strand_twist_fits_in_128_mib(capped_cli, command):
    # T(2,1500): the classical fold that kept every circle-count stage alive
    # peaked at about 230 MB, and the Horner pass that kept every a-slice at
    # about 140 MB; both ran out of memory here.  The fold drops each stage
    # as it is read, and the normal form is the lift plus a residue
    done = capped_cli(command, "braid:2:" + ",".join(["1"] * 1500), timeout=60.0, address_space=128 << 20)
    assert (done.returncode, done.stderr) == (0, "")
    assert "\nwrithe: 1500\n" in done.stdout


@pytest.mark.parametrize("strands", [9_000, 100_000])
def test_bracket3_of_many_circles_is_fast(capped_cli, strands):
    # the lift keeps circle counts as powers of d and builds no power of the
    # circle factor, so bracket3 answers where bracket meets the term cap
    start = time.perf_counter()
    done = capped_cli("bracket3", f"braid:{strands}:1")
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (0, "")
    assert f"\nambient3: +d^{strands - 1}\n" in done.stdout
    assert elapsed < 2.0, f"bracket3 of {strands - 1} circles took {elapsed:.2f}s"


@pytest.mark.parametrize("strands", [100_000, 100_000_000])
def test_bracket_of_too_many_circles_exits_1_early(capped_cli, strands):
    # the value of 99,999 circles or more cannot be held under the term cap:
    # refused before any coefficient is built, and before any per-strand work
    start = time.perf_counter()
    done = capped_cli("bracket", f"braid:{strands}:1")
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (1, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(f"error: the value of {strands - 1} extra circles has {strands} terms")
    assert elapsed < 2.0, f"refusing braid:{strands}:1 took {elapsed:.2f}s"


#: A 40-letter word on 6 strands with writhe 0, and its closure as a PD code
#: that lists the crossings 7 apart (7 is prime to 40): 52 open arcs wide as given.
WORD_40 = BraidWord(6, (1, -2, 3, -4, 5, -1, 2, -3, 4, -5) * 4)
_CROSSINGS_40 = closure(WORD_40).crossings
PD_40 = "PD[" + ",".join("X({},{},{},{})".format(*_CROSSINGS_40[7 * k % 40]) for k in range(40)) + "]"


def test_bracket_and_bracket3_on_a_40_crossing_pd_code_exit_0(capsys):
    raw = tl_evaluate(WORD_40)
    code, out, err = run(capsys, "bracket", PD_40, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["bracket"] == format_laurent(bracket_from_raw(raw))
    code, out, err = run(capsys, "bracket3", PD_40, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["raw"] == format_poly(raw)


# -- bracket3 -----------------------------------------------------------------------

TREFOIL_BRACKET3 = {
    "writhe": 3,
    "raw": "+a^3*d^2 +3*a^2*b*d +3*a*b^2*d^2 +b^3*d^3",
    "normal_form": "+a*d +2*b^3*d^3 -2*b^3*d +b*d^4",
    "ambient3": "+b^2*d^8 -7*b^2*d^6 +14*b^2*d^4 -8*b^2*d^2 +d^7 -6*d^5 +9*d^3 -3*d",
}


def test_bracket3_golden_json(capsys):
    code, out, _ = run(capsys, "bracket3", "braid:2:1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "naive"
    assert {key: payload[key] for key in TREFOIL_BRACKET3} == TREFOIL_BRACKET3
    assert "ambient3_circle_variant" in payload


def test_bracket3_unknot_text(capsys):
    code, out, _ = run(capsys, "bracket3", "braid:1:")
    assert code == 0
    assert "normal_form: +d\n" in out
    assert "ambient3: +d\n" in out


def test_bracket3_on_26_crossings_equals_the_padded_transfer_pass(capsys):
    # a 26-crossing closure of a 3-strand word: the frontier pass's ambient3
    # equals the curl-padded normal form of the transfer pass's raw sum
    text = "braid:3:" + ",".join(["1,-2"] * 12 + ["1,1"])
    code, out, err = run(capsys, "bracket3", text, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["writhe"] == 2
    padded = CURL_MINUS**2 * tl_evaluate(parse_braid(text))
    assert payload["ambient3"] == format_poly(normal_form(padded))


@pytest.mark.parametrize("text", ["braid:2:1,1,1", "braid:3:1,-2,1,-2"])
def test_bracket3_reduces_the_raw_sum_once(capsys, monkeypatch, text):
    raw = tl_evaluate(parse_braid(text))
    seen: list = []

    def recording(p):
        seen.append(p)
        return normal_form(p)

    for module in (cli, bracket3_module, quotient):
        monkeypatch.setattr(module, "normal_form", recording)
    code, out, _ = run(capsys, "bracket3", text, "--json")
    assert code == 0
    assert seen == [raw]  # for the printed normal form; ambient3 is lifted
    assert json.loads(out)["normal_form"] == format_poly(normal_form(raw))


# -- verify ------------------------------------------------------------------------

def test_verify_groebner_passes(capsys):
    code, out, _ = run(capsys, "verify", "groebner", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [obj["pass"] for obj in lines] == [True] * 5
    assert lines[-1]["z_exact"] is True


def test_verify_groebner_names_the_first_nonzero_remainder_of_a_wrong_basis(capsys, monkeypatch):
    # every remainder certificate divides by the basis it certifies, so a
    # wrong stored basis fails each of them, the generators' one included
    g1, g2, g3 = quotient.GROEBNER_BASIS
    monkeypatch.setattr(quotient, "GROEBNER_BASIS", (g1, g2, g3 + multipoly.parse_poly("+d")))
    code, out, _ = run(capsys, "verify", "groebner", "--json")
    assert code == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert [obj["pass"] for obj in lines] == [False] * 5
    assert [obj.get("witness") for obj in lines[:3]] == [
        "S(g1,g3) -> +b^2*d^4 -b^2*d^2 +d^3 -d",
        "generator 1 -> -d",
        "basis element 3 -> +d",
    ]
    assert lines[3]["check"] == "reduced_computed_basis_matches" and lines[3]["witness"]


def test_verify_variety_passes(capsys):
    code, out, _ = run(capsys, "verify", "variety", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0] == {"check": "branch_list", "raw_count": 34, "distinct_count": 26}
    assert all(obj["pass"] for obj in lines[1:])
    assert len(lines) == 27  # header + 26 distinct branches
    assert lines[1] == {"check": "branch_1_sol_1", "pass": True, "components": ["Jc"]}
    assert lines[-1] == {"check": "branch_34_sol_33", "pass": True, "components": ["d=0"]}


def test_verify_variety_exits_2_on_a_perturbed_branch(capsys, monkeypatch):
    sol27 = next(br for br in quotient.BRANCHES if br.label == "sol_27")
    bad = dataclasses.replace(sol27, assignments=tuple(sorted({**dict(sol27.assignments), "b": "-3"}.items())))
    monkeypatch.setattr(quotient, "BRANCHES", quotient.BRANCHES + (bad,))
    code, out, _ = run(capsys, "verify", "variety", "--json")
    assert code == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0] == {"check": "branch_list", "raw_count": 35, "distinct_count": 27}
    assert all(obj["pass"] for obj in lines[1:-1])
    assert lines[-1] == {"check": "branch_28_sol_27", "pass": False, "components": []}


@pytest.mark.parametrize("flag", [["--tol", "1e-9"], ["--samples", "4"]], ids=["tol", "samples"])
def test_verify_variety_rejects_removed_flags(capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "variety", *flag])
    assert exit_info.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["bracket3", "braid:2:1,1,1", "--engine", "naive"], ["verify", "moves", "--engine", "tl"],
     ["search", "--engine", "naive"]],
    ids=["bracket3", "verify-moves", "search"],
)
def test_removed_engine_option_is_a_usage_error(capsys, argv):
    # each command's former default value is refused like any other
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cases", ["0", "-1", "x"])
def test_verify_moves_rejects_fewer_than_one_case(capsys, cases):
    # a usage error, like any other bad option value
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "moves", "--cases", cases])
    assert exit_info.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, message = captured.err.splitlines()
    assert usage.startswith("usage: qbracket verify moves")
    assert message.endswith(f"argument --cases: expected a positive integer, got {cases!r}")


@pytest.mark.parametrize(
    ("argv", "value", "expected"),
    [(["verify", "moves"], "٣", "an integer"), (["verify", "moves"], "1_0", "an integer"),
     (["verify", "moves"], "+3", "an integer"), (["search"], "-1", "a non-negative integer"),
     (["search"], "٣", "a non-negative integer")],
)
def test_integer_options_take_ascii_digits_only(capsys, argv, value, expected):
    option = "--seed" if argv[0] == "verify" else "--max-crossings"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, option, value])
    assert exit_info.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()  # the usage line wraps on search
    assert lines[0].startswith(f"usage: qbracket {' '.join(argv)}")
    assert lines[-1] == f"qbracket {' '.join(argv)}: error: argument {option}: expected {expected}, got {value!r}"


def test_verify_moves_runs_on_a_negative_seed(capsys):
    code, out, _ = run(capsys, "verify", "moves", "--json", "--cases", "1", "--seed", "-3")
    assert code == 0
    assert json.loads(out.splitlines()[0])["seed"] == -3


def test_verify_moves_reduces_each_base_word_once(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "normal_form", lambda p: calls.append(p) or normal_form(p))
    code, _, _ = run(capsys, "verify", "moves", "--cases", "1")
    assert code == 0
    # 4 base words, 4 one-case variants, and 12 conjugations (2 per extra strand)
    assert len(calls) == 4 + 4 + 12


#: stdout of ``qbracket verify moves --json --cases 5 --seed 3``.
VERIFY_MOVES_JSON = (
    '{"cases": 5, "check": "moves_config", "engine": "tl", "moves_per_case": 12, "seed": 3}\n'
    '{"cases": 5, "check": "moves_unknot", "failures": 0, "pass": true}\n'
    '{"cases": 5, "check": "moves_hopf", "failures": 0, "pass": true}\n'
    '{"cases": 5, "check": "moves_trefoil", "failures": 0, "pass": true}\n'
    '{"cases": 5, "check": "moves_figure8", "failures": 0, "pass": true}\n'
    '{"check": "conjugation_unknot", "failures": 0, "pass": true}\n'
    '{"check": "conjugation_hopf", "failures": 0, "pass": true}\n'
    '{"check": "conjugation_trefoil", "failures": 0, "pass": true}\n'
    '{"check": "conjugation_figure8", "failures": 0, "pass": true}\n'
)


def test_verify_moves_golden_json(capsys):
    assert run(capsys, "verify", "moves", "--json", "--cases", "5", "--seed", "3") == (0, VERIFY_MOVES_JSON, "")


def test_verify_moves_small_run(capsys):
    code, out, _ = run(capsys, "verify", "moves", "--json", "--cases", "3", "--seed", "11")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["seed"] == 11 and lines[0]["cases"] == 3
    names = [obj["check"] for obj in lines[1:]]
    assert names == [
        "moves_unknot", "moves_hopf", "moves_trefoil", "moves_figure8",
        "conjugation_unknot", "conjugation_hopf", "conjugation_trefoil", "conjugation_figure8",
    ]
    assert all(obj["pass"] for obj in lines[1:])


# -- search -------------------------------------------------------------------------

def test_search_csv_on_small_table(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\n3_1pad\tbraid:2:1,1,-1,1,1\nu\tbraid:1:\n")
    code, out, _ = run(capsys, "search", "--table", str(table), "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name1,name2,bucket,verdict,engines"
    assert len(lines) == 2 and ",SAME," in lines[1]


def test_search_json_with_cache(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\nu\tbraid:1:\n")
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "search", "--table", str(table), "--json", "--cache", str(cache))
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["entries"] == 2
    assert cache.exists() and len(cache.read_text().splitlines()) == 2
    # second run hits the cache and produces identical output
    code2, out2, _ = run(capsys, "search", "--table", str(table), "--json", "--cache", str(cache))
    assert (code2, out2) == (code, out)


def test_warm_search_builds_no_closure(tmp_path, capsys, forbid_closure):
    table = tmp_path / "t.tsv"
    table.write_text(
        "3_1\tbraid:2:1,1,1\n3_1s\tbraid:3:1,1,1,2\n"
        "3_1pd\tPD[X(1,5,2,4),X(3,1,4,6),X(5,3,6,2)]\n4_1\tbraid:3:1,-2,1,-2\n"
    )
    argv = ("search", "--json", "--table", str(table), "--cache", str(tmp_path / "cache.jsonl"))
    cold = run(capsys, *argv)
    assert cold[0] == 0 and '"verdict": "SAME"' in cold[1]
    forbid_closure()
    assert run(capsys, *argv) == cold


def test_search_max_crossings_filter(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\n5_1\tbraid:2:1,1,1,1,1\n")
    code, out, _ = run(capsys, "search", "--table", str(table), "--json", "--max-crossings", "3")
    assert json.loads(out.splitlines()[0])["entries"] == 1


def test_search_max_crossings_zero_keeps_crossing_free_entries(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("unknot\tbraid:1:\n3_1\tbraid:2:1,1,1\n")
    code, out, _ = run(capsys, "search", "--table", str(table), "--json", "--max-crossings", "0")
    assert code == 0
    assert json.loads(out.splitlines()[0])["entries"] == 1


def test_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path):
    # 120 equal entries give about 7,000 pair lines, far more than a pipe holds
    table = tmp_path / "t.tsv"
    table.write_text("".join(f"u{k}\tbraid:2:1,-1\n" for k in range(120)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "qbracket.cli", "search", "--json", "--table", str(table)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            header = json.loads(proc.stdout.readline())
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a no-op once it has exited
    assert header["entries"] == 120
    assert (proc.returncode, err) == (141, b"")


def test_search_reports_load_errors(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text(
        "ok\tbraid:2:1,1,1\nbad\tbraid:2:9\nunorientable\tPD[X(1,4,4,3),X(2,2,3,1)]\n"
        "nonplanar\tPD[X(4,2,1,3),X(3,2,4,1)]\n"
    )
    code, out, _ = run(capsys, "search", "--table", str(table), "--json")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert [lineno for lineno, _ in header["load_errors"]] == [2, 3, 4]
    assert header["load_errors"][2][1].startswith("not a planar diagram")


def test_search_reports_a_table_line_that_is_not_utf8(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_bytes(b"3_1\tbraid:2:1,1,1\r\nbad\xff\tbraid:2:1\r\n3_1b\tbraid:2:1,1,1\r\n")
    code, out, _ = run(capsys, "search", "--table", str(table), "--json")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["entries"] == 2
    assert [lineno for lineno, _ in header["load_errors"]] == [2]
    assert "utf-8" in header["load_errors"][0][1]
    assert json.loads(out.splitlines()[1])["verdict"] == "SAME"


# -- error handling -------------------------------------------------------------------

def test_unknown_command_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "braid:1:", "--frogs"])
    assert exc.value.code == 64


def test_bad_input_exits_1(capsys):
    code, _, err = run(capsys, "bracket", "braid:2:7,1")
    assert code == 1
    assert "position 0" in err
    # a code whose walk enters an under-strand where it leaves, and an
    # orientable code that is not planar
    for command in ("bracket", "bracket3"):
        for pd in ("PD[X(1,4,4,3),X(2,2,3,1)]", "PD[X(4,2,1,3),X(3,2,4,1)]"):
            code, out, err = run(capsys, command, pd)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert "Traceback" not in err


# the last: the trefoil's PD code with an Arabic-Indic one for arc 1
@pytest.mark.parametrize("text", ["braid:2:\u0661", "braid:2:1_0", "braid:\u0662:1", "braid:1_0:",
                                  "PD[X(\u0661,5,2,4),X(3,1,4,6),X(5,3,6,2)]"])
def test_braid_digits_outside_ascii_exit_1_with_one_error_line(capsys, text):
    for command in ("bracket", "bracket3"):
        code, out, err = run(capsys, command, text)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "ASCII digits" in err


def test_missing_table_exits_1(capsys):
    code, _, err = run(capsys, "search", "--table", "/nonexistent.tsv")
    assert code == 1


def test_term_limit_exits_1_with_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(multipoly, "TERM_LIMIT", 3)  # the trefoil's raw sum has 4 terms
    code, out, err = run(capsys, "bracket3", "braid:2:1,1,1")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_deterministic_output_same_invocation(capsys):
    first = run(capsys, "bracket3", "braid:3:1,-2,1,-2", "--json")
    second = run(capsys, "bracket3", "braid:3:1,-2,1,-2", "--json")
    assert first == second


def _parser_flags(parser: argparse.ArgumentParser, words: tuple = ()) -> dict[tuple, set[str]]:
    """The ``--`` options of every leaf command, keyed by its subcommand words."""
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        return {words: {flag for action in parser._actions for flag in action.option_strings
                        if flag.startswith("--") and flag != "--help"}}
    return {key: flags for name, child in subs[0].choices.items()
            for key, flags in _parser_flags(child, words + (name,)).items()}


def test_readme_synopsis_lists_every_command_and_option():
    # the "Command line" block: one line per command, indented lines continue it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    synopsis: dict[tuple, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("qbracket "):
            command = tuple(re.match(r"qbracket((?: [a-z0-9]+)+)", line).group(1).split())
            synopsis[command] = set()
        if line.strip():
            synopsis[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    assert synopsis == _parser_flags(cli.build_parser())


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """The "Command line" examples: each ``$ qbracket`` line's arguments and
    the output lines shown under it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("Examples:", 1)[1].split("```", 2)[1]
    examples: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ qbracket "):
            examples.append((shlex.split(line)[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def test_readme_examples_print_the_lines_shown(capsys):
    # a shown line that ends in ", ...}" is a prefix of the printed one, and
    # a lone "..." leaves the printed lines after it unchecked
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["bracket", "bracket3", "verify", "verify", "search"]
    for argv, shown in examples:
        code, out, _ = run(capsys, *argv)
        printed = out.splitlines()
        assert code == 0, argv
        if "..." in shown:
            shown = shown[:shown.index("...")]
            printed = printed[:len(shown)]
        assert len(printed) == len(shown), argv
        for want, got in zip(shown, printed):
            if want.endswith(", ...}"):
                assert got.startswith(want[:-len("...}")]), (argv, got)
            else:
                assert got == want, argv


def test_traced_bench_names_resolve():
    # the traced benchmark wraps these names from outside the library; a
    # renamed or deleted one would only surface when a traced run starts
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"qbracket.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qbracket.{layer}.{name}"
    for layer, classes in tracing.WRAPPED_METHODS.items():
        module = importlib.import_module(f"qbracket.{layer}")
        for cls_name, methods in classes.items():
            for attr in methods:
                assert attr in vars(getattr(module, cls_name)), f"qbracket.{layer}.{cls_name}.{attr}"
    # its count hooks also read some arguments by parameter name
    layer_of = {name: layer for layer, names in tracing.WRAPPED.items() for name in names}
    read = {
        attr[len("_after_"):]: param
        for attr, hook in vars(tracing.Tracer).items() if attr.startswith("_after_")
        for param in re.findall(r'_first\(args, kwargs, "(\w+)"\)', inspect.getsource(hook))
    }
    assert read.items() >= {("bracket3_raw", "d"), ("kauffman_bracket", "d"), ("normal_form", "p")}
    for op, param in read.items():
        fn = getattr(importlib.import_module(f"qbracket.{layer_of[op]}"), op)
        assert param in inspect.signature(fn).parameters, f"qbracket.{layer_of[op]}.{op}({param}=)"
