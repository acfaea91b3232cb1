"""CLI behaviour: outputs, formats, determinism, exit codes."""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import chain

import numpy as np
import pytest

import nortonalg

from nortonalg import autos, cayley, cli, families, norton, trees
from nortonalg.cli import main
from nortonalg.families import BilinearFamily, CubeFamily, make_family
from reference import table_output


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_spectrum_hamming23(capsys):
    code, payload = run_json(capsys, "spectrum", "--family", "hamming", "--n", "2", "--e", "3")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["spectrum"] == [
        {"eigenvalue": 4, "multiplicity": 1},
        {"eigenvalue": 1, "multiplicity": 4},
        {"eigenvalue": -2, "multiplicity": 4},
    ]


def test_spectrum_bilinear(capsys):
    code, payload = run_json(capsys, "spectrum", "--family", "bilinear",
                             "--q", "2", "--d", "2", "--e", "2", "--verify")
    assert code == 0
    assert payload["eigenvectors_verified"] is True
    assert [row["eigenvalue"] for row in payload["spectrum"]] == [9, 1, -3]
    assert [row["multiplicity"] for row in payload["spectrum"]] == [1, 9, 6]


def test_spectrum_single_edge_csv(capsys):
    code, out = run(capsys, "spectrum", "--family", "hamming", "--n", "1", "--e", "2",
                    "--format", "csv")
    assert code == 0
    assert out == "eigenvalue,multiplicity\n1,1\n-1,1\n"


def test_table_example32_v1(capsys):
    code, payload = run_json(capsys, "table", "--family", "hamming",
                             "--n", "2", "--e", "3", "--i", "1")
    assert code == 0
    assert payload["basis"] == ["01", "02", "10", "20"]
    assert payload["table"] == [
        [1, -1, -1, -1],
        [-1, 0, -1, -1],
        [-1, -1, 3, -1],
        [-1, -1, -1, 2],
    ]


def test_table_v0_with_oracle(capsys):
    code, payload = run_json(capsys, "table", "--family", "hamming",
                             "--n", "2", "--e", "3", "--i", "0", "--verify-oracle")
    assert code == 0
    assert payload["table"] == [[0]]
    assert payload["oracle_verified"] is True


def test_table_text_chart(capsys):
    code, out = run(capsys, "table", "--family", "hypercube", "--n", "3", "--i", "2",
                    "--format", "text")
    assert code == 0
    assert "12" in out and "0" in out


def test_nonassoc_double_minus_counts(capsys):
    code, payload = run_json(capsys, "nonassoc", "--family", "hamming",
                             "--n", "1", "--e", "3", "--max-m", "6")
    assert code == 0
    counts = [r["class_count"] for r in payload["reports"]]
    assert counts == [1, 2, 5, 10, 21, 42]
    assert all(r["class_count"] == r["a000975"] for r in payload["reports"])
    assert all(r["mode"] == "exact" for r in payload["reports"])


def test_nonassoc_witness_mode(capsys):
    code, payload = run_json(capsys, "nonassoc", "--family", "hamming",
                             "--n", "1", "--e", "4", "--max-m", "4",
                             "--mode", "witness", "--seed", "5")
    assert code == 0
    assert payload["seed"] == 5
    assert payload["reports"][-1]["class_count"] == 14
    assert payload["reports"][-1]["matches"] == "catalan"


def test_nonassoc_labels_no_lower_bound(capsys):
    # hamming(4,3) V_4 counts 10, 21, 42, 85 exactly at m = 4..7; auto mode
    # takes witness there and may only report lower bounds, matching nothing
    argv = ["nonassoc", "--family", "hamming", "--n", "4", "--e", "3", "--i", "4",
            "--max-m", "7"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    rows = payload["reports"]
    assert [r["mode"] for r in rows] == ["exact"] * 3 + ["witness-lower-bound"] * 4
    assert [r["matches"] for r in rows] == ["one", "catalan", "catalan"] + [None] * 4
    assert [r["class_count"] for r in rows[3:]] == [3, 1, 1, 1]
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "2,2,2,exact,2,catalan"
    assert lines[5:] == ["5,42,1,witness-lower-bound,21,", "6,132,1,witness-lower-bound,42,",
                         "7,429,1,witness-lower-bound,85,"]
    assert main(argv + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "m=3: 5 classes of 5 (exact, matches catalan)"
    assert lines[5] == "m=5: 1 classes of 42 (witness-lower-bound)"
    assert not any("matches" in line for line in lines[4:])


def test_idempotents_e4(capsys):
    code, payload = run_json(capsys, "idempotents", "--e", "4")
    assert code == 0
    assert payload["count"] == 4
    assert payload["eta_relations"] is True
    assert payload["primitivity_facts"] is True
    assert payload["nilpotent_count"] == 3
    supports = sorted(tuple(x["support"]) for x in payload["idempotents"])
    assert supports == [(1,), (1, 2, 3), (2,), (3,)]


def test_idempotents_primitivity_is_a_verdict_past_e7(capsys):
    for e in (8, 9):
        code, payload = run_json(capsys, "idempotents", "--e", str(e))
        assert code == 0 and payload["status"] == "ok"
        assert payload["primitivity_facts"] is True
    code, out = run(capsys, "idempotents", "--e", "8", "--format", "text")
    assert code == 0 and out.endswith("eta relations: True; primitivity: True\n")


def test_idempotents_export(tmp_path, capsys):
    path = tmp_path / "idems.json"
    code, payload = run_json(capsys, "idempotents", "--e", "3", "--export", str(path))
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == payload


def test_autocheck_hamming(capsys):
    code, payload = run_json(capsys, "autocheck", "--family", "hamming",
                             "--n", "2", "--e", "3", "--i", "1",
                             "--samples", "10", "--seed", "0")
    assert code == 0
    assert payload["all_ok"] is True
    assert len(payload["results"]) == 10
    assert payload["kernel"]["ok"] is True


def test_autocheck_kernel_past_the_old_enumeration_bound(capsys):
    # the old bound e^n phi(e)^n n! = 933,120 is over 10^5; e^n + n! n phi(e) = 1443 is not
    code, payload = run_json(capsys, "autocheck", "--family", "hamming", "--n", "5", "--e", "3",
                             "--i", "1", "--samples", "2")
    assert code == 0
    assert payload["kernel"]["ok"] is True
    assert payload["kernel"]["kernel"] == ["((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 1, 2, 3, 4))"]


def test_autocheck_rejects_folded_families(capsys):
    assert main(["autocheck", "--family", "folded-half-cube", "--n", "8"]) == 2
    assert capsys.readouterr().err == (
        "error: autocheck supports hamming, hypercube, halved-cube and bilinear"
        " families, not folded-half-cube\n")


@pytest.mark.parametrize("kind", ["folded-cube", "folded-half-cube"])
def test_autocheck_usage_names_the_kinds_with_actions(capsys, kind):
    # the list is read from autos.ACTIONS; the family is named as it was given
    assert main(["autocheck", "--family", kind, "--n", "8", "--samples", "1"]) == 2
    assert capsys.readouterr() == ("", (
        "error: autocheck supports hamming, hypercube, halved-cube and bilinear"
        f" families, not {kind}\n"))


@pytest.mark.parametrize("command", ["table", "nonassoc", "autocheck", "oracle-verify"])
def test_space_index_out_of_range(capsys, command):
    for i in ("3", "-1"):  # hamming(2,3) has the spaces 0..2
        assert main([command, *_FAMILY_23, "--i", i]) == 2
        assert capsys.readouterr().err == "error: --i must be in 0..2\n"


def test_autocheck_bilinear(capsys):
    code, payload = run_json(capsys, "autocheck", "--family", "bilinear",
                             "--q", "2", "--d", "2", "--e", "2", "--i", "1",
                             "--samples", "6", "--seed", "1")
    assert code == 0
    assert payload["conjugation_identity"] is True


@pytest.mark.parametrize("e, samples, expected", [(4, 0, None), (3, 2, True)])
def test_autocheck_bilinear_conjugation_follows_samples(monkeypatch, capsys, e, samples,
                                                        expected):
    # the identity runs on --samples seeded triples; it used to run once per
    # vertex, 2^12 times at e = 4, whatever --samples said
    calls = []
    check = autos.conjugation_identity_check

    def counted(*args):
        calls.append(args)
        assert len(calls) <= samples, "more conjugation checks than --samples"
        return check(*args)

    monkeypatch.setattr(autos, "conjugation_identity_check", counted)
    code, payload = run_json(capsys, "autocheck", "--family", "bilinear", "--q", "2",
                             "--d", "3", "--e", str(e), "--i", "1", "--samples", str(samples))
    assert code == 0
    assert len(calls) == samples
    assert payload["conjugation_identity"] is expected
    assert payload["all_ok"] is True


def test_oracle_verify_folded_half_cube(capsys):
    code, payload = run_json(capsys, "oracle-verify", "--family", "folded-half-cube",
                             "--n", "6")
    assert code == 0
    assert payload["all_ok"] is True
    assert [row["i"] for row in payload["spaces"]] == [0, 1]


def test_oracle_verify_holds_no_table(capsys, monkeypatch):
    # the oracle builds each space's table for its check alone; a fresh
    # family cache makes the family the command reads the one inspected here
    monkeypatch.setattr(families, "_cached_family",
                        functools.lru_cache(maxsize=None)(families._cached_family.__wrapped__))
    code, payload = run_json(capsys, "oracle-verify", "--family", "hypercube", "--n", "5")
    assert code == 0 and payload["all_ok"] and len(payload["spaces"]) == 6
    spaces = make_family("hypercube", n=5)._spaces
    assert len(spaces) == 6 and not any("table" in vars(space) for space in spaces.values())


def test_table_verify_oracle_holds_no_table(capsys, monkeypatch):
    # the oracle and the writer each look the table up as they read it; a
    # fresh family cache makes the family the command reads the one inspected here
    monkeypatch.setattr(families, "_cached_family",
                        functools.lru_cache(maxsize=None)(families._cached_family.__wrapped__))
    code, payload = run_json(capsys, "table", "--family", "hypercube", "--n", "5", "--i", "2",
                             "--verify-oracle")
    assert code == 0 and payload["oracle_verified"] is True and len(payload["table"]) == 10
    assert "table" not in vars(make_family("hypercube", n=5).space(2))


def test_oracle_verify_beyond_float_packing(capsys):
    # bits(|X|) * e > 52 here, which the packed-float64 oracle refused
    for argv in (["--n", "3", "--e", "7"], ["--n", "1", "--e", "257"]):
        code, payload = run_json(capsys, "oracle-verify", "--family", "hamming", *argv)
        assert code == 0
        assert payload["all_ok"] is True


def test_budgets_checked_before_the_basis(capsys, monkeypatch):
    def no_basis(self, i):
        raise AssertionError("basis enumerated before the budget check")

    monkeypatch.setattr(CubeFamily, "_make_basis", no_basis)
    fam = ["--family", "hypercube", "--n", "30", "--i", "15"]
    assert main(["oracle-verify", *fam]) == 3
    assert main(["nonassoc", *fam, "--max-m", "2"]) == 3
    assert capsys.readouterr().err.count("budget exceeded") == 2


def test_vertex_counts_past_4300_digits_exit_3(capsys):
    # 2^20000 has 6021 decimal digits, more than int converts to str by
    # default, so the count is compared as an int and printed as a power
    for argv in (["spectrum", "--family", "hypercube", "--n", "20000"],
                 ["spectrum", "--family", "hamming", "--n", "20000", "--e", "2"],
                 ["oracle-verify", "--family", "hypercube", "--n", "20000", "--i", "1"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3 and out == "", argv
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1, err
        assert " has 2^20000 vertices, over the budget " in err, err


HUGE = str(10**30)
# the budget checks of these built the number they checked, or wrote it in
# decimal: the vertex count of the first five and the kernel's e^n and unit
# list of the last two never ended, and the sizes of the four between, past
# 4300 decimal digits, exited 4
HUGE_CASES = [
    (["spectrum", "--family", "hamming", "--n", HUGE, "--e", HUGE],
     f"hamming({HUGE},{HUGE}) has {HUGE}^{HUGE} vertices, over the budget 1048576"),
    (["spectrum", "--family", "folded-cube", "--n", HUGE, "--verify"],
     f"has 2^{10**30 - 1} vertices, over the budget 1048576"),
    (["oracle-verify", "--family", "folded-half-cube", "--n", HUGE, "--i", "2"],
     f"has 2^{10**30 - 2} vertices, over the budget 1048576"),
    (["table", "--family", "folded-cube", "--n", HUGE, "--i", "9", "--verify-oracle"],
     f"has 2^{10**30 - 1} vertices, over the budget 1048576"),
    (["spectrum", "--family", "hamming", "--n", HUGE, "--e", "3"],
     f"has 3^{HUGE} vertices, over the budget 1048576"),
    (["nonassoc", "--family", "folded-half-cube", "--n", HUGE, "--i", "64", "--max-m", "5"],
     " V_64 has about 2^24080 entries, over 67108864"),
    (["nonassoc", "--family", "hypercube", "--n", HUGE, "--i", "100", "--max-m", "1"],
     " V_100 has about 2^18882 entries, over 67108864"),
    (["nonassoc", "--family", "hypercube", "--n", HUGE, "--i", "100", "--max-m", "1",
      "--mode", "exact"], "exact mode needs about 2^18882 evaluations (budget 10000000)"),
    (["autocheck", "--family", "hypercube", "--n", HUGE, "--i", "100", "--samples", "1"],
     " V_100 has about 2^18882 entries, over 67108864"),
    (["autocheck", "--family", "hamming", "--n", HUGE, "--e", "3", "--i", "1", "--samples", "0"],
     None),
    (["autocheck", "--family", "hamming", "--n", "2", "--e", HUGE, "--i", "1", "--samples", "0"],
     None),
]

HUGE_PROBE = """
import contextlib, io, json, sys, time
import nortonalg.cli
for argv in json.load(sys.stdin):
    out, err, start = io.StringIO(), io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nortonalg.cli.main(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue(), time.perf_counter() - start]))
"""


def test_huge_parameters_exit_at_once_with_one_line():
    # in one child with a timeout, so a command that never ends fails the test
    proc = subprocess.run([sys.executable, "-c", HUGE_PROBE], env=_process_env(),
                          input=json.dumps([argv for argv, _ in HUGE_CASES]),
                          capture_output=True, text=True, timeout=30, check=True)
    results = list(map(json.loads, proc.stdout.splitlines()))
    assert len(results) == len(HUGE_CASES)
    for (argv, message), (code, out, err, seconds) in zip(HUGE_CASES, results):
        assert seconds < 5, argv
        if message is None:  # the kernel is refused by its bit length, and not printed
            payload = json.loads(out)
            assert (code, err, payload["kernel"], payload["all_ok"]) == (0, "", None, True), argv
        else:
            assert code == 3 and out == "", argv
            assert err.startswith("budget exceeded: ") and err.count("\n") == 1, (argv, err)
            assert message in err, (argv, err)


HALF = str(5 * 10**29)
# math.comb in each cube and Hamming dimension formula raised OverflowError
# (exit 4), and the bilinear one built q**e at e = 10^30, which never ended
DIMENSION_CASES = [
    *(["table", "--family", kind, "--n", HUGE, "--i", HALF, *extra] for kind, extra in (
        ("hypercube", []), ("halved-cube", []), ("hamming", ["--e", "3"]))),
    *([command, "--family", "hypercube", "--n", HUGE, "--i", HALF, *extra] for command, extra in (
        ("oracle-verify", []), ("nonassoc", ["--max-m", "2"]), ("autocheck", ["--samples", "1"]))),
    ["table", "--family", "bilinear", "--q", "2", "--d", "3", "--e", HUGE, "--i", "2"],
]

DIMENSION_PROBE = """
import json, sys, time
import nortonalg.cli
start = time.perf_counter()
code = nortonalg.cli.main(sys.argv[1:])
print(json.dumps([code, time.perf_counter() - start]))
"""


def _address_space_cap() -> None:
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _exit_3_at_once(argv: list[str]) -> str:
    """The one stderr line of argv, run through cli.main in a child capped at
    1 GiB of address space, with a timeout, so neither a hang nor a runaway
    allocation holds up the suite; main must return 3 within 1 s."""
    proc = subprocess.run([sys.executable, "-c", DIMENSION_PROBE, *argv], env=_process_env(),
                          preexec_fn=_address_space_cap, capture_output=True, text=True,
                          timeout=10)
    code, seconds = json.loads(proc.stdout)
    assert (code, proc.returncode) == (3, 0) and seconds < 1, (argv, proc.stderr)
    assert proc.stderr.startswith("budget exceeded: ") and proc.stderr.count("\n") == 1, proc.stderr
    return proc.stderr


@pytest.mark.parametrize("argv", DIMENSION_CASES,
                         ids=[f"{argv[0]}-{argv[2]}" for argv in DIMENSION_CASES])
def test_huge_dimensions_exit_3_at_once(argv):
    # the bound on the dimension's bit length refuses it before it is built
    err = _exit_3_at_once(argv)
    assert " has dimension at least 2^" in err, err


# one basis row n = 10^30 entries wide, of V_n or of the folded cube's V_0,
# which the index rows of _subsets could not hold (OverflowError, exit 4)
WIDE_ROW_CASES = [
    ["table", "--family", "hypercube", "--n", HUGE, "--i", HUGE],
    ["table", "--family", "folded-cube", "--n", HUGE, "--i", "0"],
    ["nonassoc", "--family", "hypercube", "--n", HUGE, "--i", HUGE, "--max-m", "2"],
    ["autocheck", "--family", "hypercube", "--n", HUGE, "--i", HUGE],
]


@pytest.mark.parametrize("argv", WIDE_ROW_CASES,
                         ids=[f"{argv[0]}-{argv[2]}" for argv in WIDE_ROW_CASES])
def test_wide_basis_rows_exit_3_at_once(argv):
    # the rows' entries, dim x length, are refused before the basis is built
    err = _exit_3_at_once(argv)
    assert err.startswith("budget exceeded: basis rows of "), err
    assert " have about 2^99 entries, over 67108864" in err, err


SUMS_PAST_UINT64 = " V_0 sum residues up to about 2^6"
# V_0 with residue sums past uint64 exited 4 (numpy chose object), the
# units of 2^40 were listed for one draw (over 120 s), and is_prime divided
# a large prime q by every k up to its root (9.8 s, and over 120 s at 2^64 + 13)
MODULUS_CASES = [
    *(([command, "--family", "hamming", "--n", n, "--e", e, "--i", "0"], SUMS_PAST_UINT64)
      for n, e, commands in (("2", str(2**63 + 1), ("table", "nonassoc", "autocheck")),
                             ("65", str(2**64), ("table", "nonassoc", "autocheck")),
                             ("2", str(2**64 + 1), ("nonassoc", "autocheck")))
      for command in commands),
    (["autocheck", "--family", "hamming", "--n", "2", "--e", str(2**40), "--i", "0",
      "--samples", "1"], f"lists the units among {2**40 - 1} residues, over the budget 1048576"),
    *((["table", "--family", "bilinear", "--q", q, "--d", "1", "--e", "1", "--i", "0"],
       f"bilinear({q},1,1) has {q}^1 vertices, over the budget 1048576")
      for q in ("10000000000000061", str(2**64 + 13))),
]


@pytest.mark.parametrize("argv, message", MODULUS_CASES,
                         ids=["-".join(argv[0:7:2]) for argv, _ in MODULUS_CASES])
def test_huge_moduli_exit_3_at_once(argv, message):
    err = _exit_3_at_once(argv)
    assert message in err, err


# exact nonassoc prices every m before it counts one, and refuses as the counts
# would have: m = 1's price, then the table's size and its rows, then each
# later m's price; the first case counted m <= 6 before it refused m = 7
EXACT_PRICE_CASES = [
    (["nonassoc", "--family", "hamming", "--n", "4", "--e", "3", "--i", "4", "--max-m", "7",
      "--mode", "exact", "--budget", "100000000000"],
     "exact mode needs 1842540969984 evaluations (budget 100000000000); use witness mode"),
    (["nonassoc", "--family", "hypercube", "--n", "100000000", "--i", "0", "--max-m", "4",
      "--mode", "exact", "--budget", "1"],
     "basis rows of hypercube(100000000) V_0 have 100000000 entries, over 67108864"),
]


@pytest.mark.parametrize("argv, message", EXACT_PRICE_CASES,
                         ids=["-".join(argv[2:5:2]) for argv, _ in EXACT_PRICE_CASES])
def test_exact_nonassoc_is_priced_before_any_count(argv, message):
    err = _exit_3_at_once(argv)
    assert err == f"budget exceeded: {message}\n", err


def test_v0_sums_at_the_largest_modulus_that_fits_uint64(capsys):
    # residues below 2^63 sum below 2^64: the one-row table is looked up
    code, payload = run_json(capsys, "table", "--family", "hamming", "--n", "2",
                             "--e", str(2**63), "--i", "0")
    assert code == 0 and payload["table"] == [[0]] and payload["basis"] == ["0,0"]


def test_autocheck_checks_past_a_million_pairs(capsys):
    # bilinear(2,3,4) V_2 has dim 1470: 2,160,900 pairs, which a pair budget
    # of 10^6 refused; the table, of 2^26 entries at most, bounds the check
    code, payload = run_json(capsys, "autocheck", "--family", "bilinear", "--q", "2", "--d", "3",
                             "--e", "4", "--i", "2", "--samples", "2")
    assert code == 0 and payload["all_ok"] is True
    assert [r["ok"] for r in payload["results"]] == [True, True]
    assert payload["conjugation_identity"] is True


def test_spectrum_verify_reduces_each_histogram_once_in_all(capsys, monkeypatch):
    # the certificate returns the spectrum it computed, and cmd_spectrum prints
    # it: the distinct histograms are reduced once, not once for each
    reduced = []
    real = cayley._integer_root_sums
    monkeypatch.setattr(cayley, "_integer_root_sums",
                        lambda hists, e: reduced.append(len(hists)) or real(hists, e))
    for kind, opts in (("hamming", {"n": 2, "e": 5}), ("halved-cube", {"n": 8})):
        argv = ["spectrum", "--family", kind, *chain(*((f"--{k}", str(v)) for k, v in opts.items()))]
        reduced.clear()
        plain = run_json(capsys, *argv)
        once = sum(reduced)
        reduced.clear()
        code, payload = run_json(capsys, *argv, "--verify")
        assert 0 < sum(reduced) == once, kind
        assert code == 0 and payload["eigenvectors_verified"] is True
        assert {**payload, "eigenvectors_verified": None} == plain[1]


def test_autocheck_pair_budget_checked_before_the_basis(capsys, monkeypatch):
    def no_basis(self, i):
        raise AssertionError("basis enumerated before the pair budget check")

    monkeypatch.setattr(CubeFamily, "_make_basis", no_basis)
    fam = ["--family", "hypercube", "--n", "22", "--i", "11"]
    assert main(["autocheck", *fam, "--samples", "1"]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    # with no samples nothing is checked, so nothing is refused
    code, payload = run_json(capsys, "autocheck", *fam, "--samples", "0")
    assert code == 0 and payload["results"] == [] and payload["all_ok"] is True


def test_table_oracle_budget_checked_before_the_basis(capsys, monkeypatch):
    def no_basis(self, i):
        raise AssertionError("basis enumerated before the oracle's budget check")

    monkeypatch.setattr(BilinearFamily, "_make_basis", no_basis)
    # 2^21 vertices, past the budget 2^20
    code = main(["table", "--family", "bilinear", "--q", "2", "--d", "3", "--e", "7",
                 "--i", "1", "--verify-oracle"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_nonassoc_max_m_over_the_cap_exits_before_counting(capsys, monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("a count ran before the --max-m check")

    monkeypatch.setattr(trees, "count_classes_exact", no_count)
    monkeypatch.setattr(trees, "count_classes_witness", no_count)
    fam = ["--family", "hamming", "--n", "1", "--e", "3"]
    for argv in (["--mode", "witness", "--attempts", "10"], ["--mode", "exact"], []):
        code, out = run(capsys, "nonassoc", *fam, "--max-m", str(trees.DEFAULT_MAX_M + 1), *argv)
        assert code == 3 and out == ""
    assert main(["nonassoc", *fam, "--max-m", "20"]) == 3
    assert capsys.readouterr().err.count("budget exceeded") == 1


def test_idempotents_builds_the_vectors_once(capsys, monkeypatch):
    # the primitivity check reads the supports, not the Q(w) vectors
    calls = []
    real = norton.classified_idempotents
    monkeypatch.setattr(norton, "classified_idempotents", lambda e: calls.append(e) or real(e))
    code, out = run_json(capsys, "idempotents", "--e", "6")
    assert code == 0 and out["primitivity_facts"] is True
    assert calls == [6]


def test_idempotents_budget_checked_before_enumerating(capsys, monkeypatch):
    def no_enumeration(e):
        raise AssertionError("subsets enumerated before the budget check")

    monkeypatch.setattr("nortonalg.norton.classified_idempotents", no_enumeration)
    assert main(["idempotents", "--e", "40"]) == 3
    # 2^7 - 1 subsets (the 35 nilpotent ones too) of 7 coordinates of phi(8) = 4
    # coefficients each
    assert main(["idempotents", "--e", "8", "--budget", str(127 * 7 * 4 - 1)]) == 3
    monkeypatch.undo()
    assert main(["idempotents", "--e", "4", "--budget", str(7 * 3 * 2)]) == 0
    monkeypatch.setenv("NORTON_BUDGET", "100")
    assert main(["idempotents", "--e", "5"]) == 3
    assert capsys.readouterr().err.count("budget exceeded") == 3


def test_idempotents_budget_boundary_and_huge_e(capsys, monkeypatch):
    # at the default budget of 10^7: (2^15 - 1) * 15 * phi(16) = 3,932,040 fits and
    # (2^16 - 1) * 16 * phi(17) = 16,776,960 does not
    def no_enumeration(e):
        raise AssertionError(f"subsets enumerated at e={e}")

    monkeypatch.setattr("nortonalg.norton.classified_idempotents", no_enumeration)
    assert main(["idempotents", "--e", "16"]) == 4  # past the budget check
    assert "subsets enumerated at e=16" in capsys.readouterr().err
    assert main(["idempotents", "--e", "17"]) == 3
    # a cost of some 30,000 digits is refused, not written out
    assert main(["idempotents", "--e", "100000"]) == 3
    err = capsys.readouterr().err
    assert err.count("budget exceeded") == 2 and "more than the budget" in err
    assert len(err) < 400


def test_isocheck(capsys):
    code, payload = run_json(capsys, "isocheck")
    assert code == 0
    assert payload["all_ok"] is True
    assert len(payload["checks"]) == 7


def test_determinism(capsys):
    argv = ["nonassoc", "--family", "hypercube", "--n", "3", "--i", "2",
            "--max-m", "4", "--seed", "0"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("NORTON_SEED", "17")
    _, payload = run_json(capsys, "nonassoc", "--family", "hamming",
                          "--n", "1", "--e", "3", "--max-m", "2")
    assert payload["seed"] == 17
    _, payload = run_json(capsys, "nonassoc", "--family", "hamming",
                          "--n", "1", "--e", "3", "--max-m", "2", "--seed", "3")
    assert payload["seed"] == 3


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--family", "nope"])
    assert info.value.code == 2
    assert main(["spectrum", "--family", "hamming"]) == 2  # missing --n/--e
    assert main(["table", "--family", "hamming", "--n", "2", "--e", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["--family", "hamming", "--n", "2"], "hamming requires --n and --e"),
    (["--family", "bilinear", "--q", "2", "--e", "3"], "bilinear requires --q, --d and --e"),
    (["--family", "folded-half-cube", "--e", "3"], "folded_half_cube requires --n"),
], ids=["hamming", "bilinear", "cube"])
def test_missing_family_parameters_exit_2(argv, message, capsys):
    assert main(["spectrum", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--family", "hamming", "--n", "2", "--e", "3", "--q", "5", "--d", "7"],
     "hamming does not take --q and --d"),
    (["table", "--family", "hypercube", "--n", "3", "--e", "9", "--i", "1"],
     "hypercube does not take --e"),
], ids=["hamming", "hypercube"])
def test_unused_family_parameters_exit_2(argv, message, capsys):
    # an option the kind does not take is bad input, not ignored
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "hamming", "--n", "2", "--e", "3", "--seed", "1"],
    ["oracle-verify", "--family", "hamming", "--n", "2", "--e", "3", "--budget", "5"],
], ids=["spectrum-seed", "oracle-verify-budget"])
def test_options_the_command_does_not_read_exit_2(argv, capsys):
    # --seed and --budget are given only to the commands that read them
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(argv[-2:])}" in err


# sha256 of the help texts 80 columns wide, of the top level and of every
# subcommand with family options, recorded from literal lists of the kinds and
# family options (the last four from the parser that read families.KINDS):
# the lists read from the kind table must give them
HELP_SHA256 = {
    "": "c8bdcdbd69251ecc7d49669df67079d2dcad44ac07631163b47ec599187bb7a4",
    "spectrum": "ddda4ef67b8b82b3bc660e3dd555b2d62e6442864be83cbea66c605983cc81db",
    "table": "973def8336403be9a2b5b5ebf9f49b333fb427a73ba5440da6408108e5fc3581",
    "nonassoc": "b7c7a3af214a7721172289c0d74185620cfe9baf02a210b61a2cafdec8cc287c",
    "autocheck": "c7dc06ba1e753894f073b3468dcf8b62a0c2339a825cc8f5fb3ddd045b57898f",
    "oracle-verify": "e5fcda21165002f33251b9daac8d1f2adf0a71734a8efdd3d4c43dc2edd3cda7",
}


def test_help_reads_the_kinds_table_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        with pytest.raises(SystemExit) as info:
            main([*command.split(), "--help"])
        assert info.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, command


def test_budget_exit_3(capsys):
    code = main(["nonassoc", "--family", "hamming", "--n", "2", "--e", "3",
                 "--i", "2", "--max-m", "6", "--mode", "exact", "--budget", "1000"])
    assert code == 3
    capsys.readouterr()
    # 3^40 vertices: the vertex budget is checked before any label is built
    assert main(["spectrum", "--family", "hamming", "--n", "40", "--e", "3"]) == 3
    # 12870^2 entries are over the product-table cap
    assert main(["table", "--family", "hypercube", "--n", "16", "--i", "8"]) == 3
    assert capsys.readouterr().err.count("budget exceeded") == 2


def test_budget_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("NORTON_BUDGET", "1000")
    code = main(["nonassoc", "--family", "hamming", "--n", "2", "--e", "3",
                 "--i", "2", "--max-m", "6", "--mode", "exact"])
    assert code == 3
    capsys.readouterr()
    # an explicit flag overrides the environment
    code = main(["nonassoc", "--family", "hamming", "--n", "2", "--e", "3",
                 "--i", "2", "--max-m", "6", "--mode", "exact",
                 "--budget", str(10**7)])
    assert code == 0
    capsys.readouterr()


def test_spectrum_verify_e257(capsys):
    # exponents mod 257 need more than 8 bits; a uint8 cast wrapped them
    code, payload = run_json(capsys, "spectrum", "--family", "hamming", "--n", "1",
                             "--e", "257", "--verify")
    assert code == 0
    assert payload["status"] == "ok" and payload["eigenvectors_verified"] is True


def test_output_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    code = main(["spectrum", "--family", "hypercube", "--n", "3", "-o", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["spectrum"][0] == {"eigenvalue": 3, "multiplicity": 1}


def test_table_oracle_reads_the_vertices_the_basis_enumerated(capsys):
    # the V_1 basis enumerates all 2^15 vertices under the one vertex budget,
    # and the oracle checks the table on the same vertices
    code, payload = run_json(capsys, "table", "--family", "bilinear", "--q", "2", "--d", "3",
                             "--e", "5", "--i", "1", "--verify-oracle")
    assert code == 0 and payload["oracle_verified"] is True


def test_one_vertex_budget_governs_every_reader_of_x(capsys, monkeypatch):
    # with the budget at 4096 and a fresh family cache, every command that
    # reads X refuses 8192 vertices and reads 4096
    monkeypatch.setattr(families, "DEFAULT_VERTEX_BUDGET", 4096)
    monkeypatch.setattr(families, "_cached_family",
                        functools.lru_cache(maxsize=None)(families._cached_family.__wrapped__))
    for n, (d, e), want in ((13, (1, 13), 3), (12, (3, 4), 0)):
        cube = ["--family", "hypercube", "--n", str(n)]
        for argv in (["spectrum", *cube], ["spectrum", *cube, "--verify"],
                     ["oracle-verify", *cube], ["table", *cube, "--i", "1", "--verify-oracle"],
                     ["table", "--family", "bilinear", "--q", "2", "--d", str(d), "--e", str(e),
                      "--i", "1"]):
            code = main(argv)
            assert code == want, argv
            assert ("over the budget 4096" in capsys.readouterr().err) == (want == 3), argv


def test_oracle_verify_refuses_a_table_over_the_cap_before_any_check(capsys, monkeypatch):
    # hypercube(17) is within the vertex budget, and V_6 to V_11 are past
    # the table cap: refused before V_0 is checked
    checked = []
    monkeypatch.setattr(families, "verify_oracle_space",
                        lambda space: checked.append(space.i) or True)
    start = time.perf_counter()
    code = main(["oracle-verify", "--family", "hypercube", "--n", "17"])
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out, checked) == (3, "", []) and seconds < 1
    assert err == ("budget exceeded: product table of hypercube(17) V_6 has 153165376 entries,"
                   " over 67108864\n")


def test_hamming_top_space_past_64_positions(capsys):
    # V_64 of hamming(64,2) is the one word of 64 ones; its grid of values
    # took np.indices on 65 axes, past numpy's 64 (exit 4)
    fam = ["--family", "hamming", "--n", "64", "--e", "2", "--i", "64"]
    code, payload = run_json(capsys, "table", *fam)
    assert code == 0 and payload["table"] == [[-1]] and payload["basis"] == ["1" * 64]
    for command in ("nonassoc", "autocheck"):
        code, payload = run_json(capsys, command, *fam)
        assert code == 0, command


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.json")
    assert main(["isocheck", "--output", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}")
    assert main(["idempotents", "--e", "3", "--export", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}")


class _Pieces(io.StringIO):
    """stdout that keeps each write as a piece."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


# (family, parameters, i, cayley.SUM_CHUNK_BYTES): the lookup's steps at
# that budget, 18 bytes a sum of packed 12-bit rows and 34 of 9 residues
TABLE_SHAPES = [
    ("halved-cube", {"n": 12}, 6, 2**18),  # dim 462: 14 steps of 31 rows, then 28
    ("hamming", {"n": 9, "e": 3}, 9, 2**18 + 2**14),  # dim 512: 32 steps of 16 rows
    ("hamming", {"n": 2, "e": 3}, 0, 2**18),  # one row, with the oracle line in text
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("kind, params, i, budget", TABLE_SHAPES,
                         ids=["xor-short-last-step", "residue-equal-steps", "one-row"])
def test_streamed_table_equals_one_string(monkeypatch, tmp_path, fmt, kind, params, i, budget):
    families._cached_family.cache_clear()  # so no held table gives the rows
    monkeypatch.setattr(cayley, "SUM_CHUNK_BYTES", budget)
    lookups = []  # the (start, stop) steps of each row-sum lookup, in call order
    real_lookup = cayley._lookup_sums

    def lookup_sums(*args):
        steps = []
        lookups.append(steps)

        def recorded(blocks):
            for start, stop, block in blocks:
                steps.append((start, stop))
                yield start, stop, block

        return recorded(real_lookup(*args))  # built before it is returned, as the real one is

    monkeypatch.setattr(cayley, "_lookup_sums", lookup_sums)
    fam = make_family(kind, **params)
    dim = fam.predicted_dimension(i)
    oracle = ["--verify-oracle"] if dim == 1 else []
    argv = ["table", "--family", kind, *(f"--{k}={v}" for k, v in params.items()),
            "--i", str(i), "--format", fmt, *oracle]
    out = _Pieces()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    # a write per row, after the head and before the tail
    assert len(out.pieces) == dim + 2
    # the oracle runs two lookups, the table's and its own of the value rows,
    # and holds neither; the writer then looks the table up again
    assert len(lookups) == (3 if oracle else 1)
    steps = lookups[-1]
    # the writer's rows came in steps of one size, in order, the last one whole or short
    sizes = [stop - start for start, stop in steps]
    assert [start for start, _ in steps] == [sum(sizes[:k]) for k in range(len(steps))]
    assert sum(sizes) == dim and len(set(sizes[:-1])) <= 1
    if dim == 1:
        assert lookups == [[(0, 1)]] * 3
    else:
        assert len(steps) > 1 and (sizes[-1] < sizes[0]) == (kind == "halved-cube"), sizes
    path = tmp_path / "table.out"
    assert main([*argv, "--output", str(path)]) == 0
    expected = table_output(fam, i, fmt, True if oracle else None)  # holds the table
    assert out.getvalue() == expected
    assert path.read_bytes() == expected.encode()


def test_json_payload_streams_in_blocks(monkeypatch, tmp_path, capsys):
    # the blocks join to json.dumps of the payload, on stdout and in --export
    code, expected = run(capsys, "idempotents", "--e", "7")
    assert code == 0
    assert expected == json.dumps(json.loads(expected), indent=2, sort_keys=True) + "\n"
    monkeypatch.setattr(cli, "JSON_BLOCK_PIECES", 64)
    out = _Pieces()
    monkeypatch.setattr(sys, "stdout", out)
    path = tmp_path / "idems.json"
    assert main(["idempotents", "--e", "7", "--export", str(path)]) == 0
    assert out.getvalue() == expected
    assert path.read_text() == expected
    # the last write is the closing newline
    assert len(out.pieces) > 100 and out.pieces[-1] == "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_table_peak_memory_is_the_table_and_a_block(monkeypatch, fmt):
    # a fresh family, so the table is built under the trace too
    monkeypatch.setattr(families, "make_family",
                        lambda kind, **params: families.CubeFamily(kind, params["n"]))
    dim = families.CubeFamily("hypercube", 12).predicted_dimension(6)
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", null)
        tracemalloc.start()
        try:
            assert main(["table", "--family", "hypercube", "--n", "12", "--i", "6",
                         "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * dim * dim * np.dtype(np.int32).itemsize, peak


@pytest.mark.parametrize("name", ["NORTON_BUDGET", "NORTON_SEED"])
def test_bad_environment_integer_exits_2(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    assert main(["nonassoc", "--family", "hamming", "--n", "1", "--e", "3",
                 "--max-m", "2"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be an integer, got 'abc'\n"


def test_negative_budget_from_environment_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("NORTON_BUDGET", "-5")
    assert main(["nonassoc", "--family", "hamming", "--n", "1", "--e", "3",
                 "--max-m", "2"]) == 2
    assert "NORTON_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nonassoc", "--family", "hamming", "--n", "1", "--e", "3", "--budget", "-1"],
    ["autocheck", "--family", "hamming", "--n", "2", "--e", "3", "--samples", "-3"],
    ["nonassoc", "--family", "hamming", "--n", "1", "--e", "3", "--attempts", "-2"],
], ids=["budget", "samples", "attempts"])
def test_negative_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_internal_error_exits_4_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("oracle exploded")

    monkeypatch.setattr(families, "verify_oracle_space", broken)
    assert main(["oracle-verify", "--family", "hamming", "--n", "2", "--e", "3"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: oracle exploded\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_m_below_1_exits_2(capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["nonassoc", "--family", "hamming", "--n", "1", "--e", "3", "--max-m", value])
    assert info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, supported", [
    (["autocheck", "--family", "hamming", "--n", "2", "--e", "3", "--samples", "1"], ["json"]),
    (["oracle-verify", "--family", "hamming", "--n", "2", "--e", "3"], ["json"]),
    (["isocheck"], ["json"]),
    (["idempotents", "--e", "3"], ["json", "text"]),
], ids=["autocheck", "oracle-verify", "isocheck", "idempotents"])
def test_format_a_subcommand_cannot_write_exits_2(capsys, argv, supported):
    for fmt in ("json", "csv", "text"):
        if fmt in supported:
            assert main(argv + ["--format", fmt]) == 0
            capsys.readouterr()
            continue
        with pytest.raises(SystemExit) as info:
            main(argv + ["--format", fmt])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{fmt}'" in err
        named = err.split("choose from", 1)[1]
        assert [f for f in ("json", "csv", "text") if f in named] == supported


IMPORT_PROBE = """
import contextlib, io, sys
def loaded(*names):
    return sorted(m for m in names if m in sys.modules)
def numeric():
    return loaded("numpy", "nortonalg.families", "nortonalg.cayley")
import nortonalg.cli
print(loaded("nortonalg.autos", "nortonalg.norton", "nortonalg.trees",
             "nortonalg.cyclotomic"))
print(numeric())
for argv in (["--help"], ["table", "--help"], ["table", "--family", "cube", "--n", "3"],
             ["idempotents", "--e", "2"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = nortonalg.cli.main(argv)
        except SystemExit as exc:  # from argparse
            code = exc.code
    print(code, numeric())
for argv in (["table", "--family", "hypercube", "--n", "6", "--i", "3"],
             ["nonassoc", "--family", "hamming", "--n", "1", "--e", "3", "--max-m", "6",
              "--mode", "exact"],
             ["autocheck", "--family", "hamming", "--n", "3", "--e", "4", "--i", "2",
              "--samples", "2"],
             ["oracle-verify", "--family", "halved-cube", "--n", "8"],
             ["table", "--family", "hamming", "--n", "3", "--e", "3", "--i", "2",
              "--verify-oracle"],
             ["spectrum", "--family", "hamming", "--n", "2", "--e", "5", "--verify"],
             ["idempotents", "--e", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert nortonalg.cli.main(argv) == 0
    print(loaded("nortonalg.norton", "nortonalg.cyclotomic", "fractions", "numpy.ma"))
"""


def test_cli_import_leaves_the_other_layers_unloaded():
    # import, help and usage errors load no numpy and no layer; the layers
    # load per subcommand: Q(w) (norton, cyclotomic and fractions)
    # only where it is computed, so not by the oracle or the eigenvalues, and
    # numpy.ma nowhere
    src = os.path.dirname(os.path.dirname(nortonalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == [
        "[]",  # after import nortonalg.cli
        "[]",  # nor numpy, families or cayley: the parser reads no layer
        "0 []", "0 []",  # after --help and table --help
        "2 []", "2 []",  # after an unknown kind (argparse) and idempotents --e 2
        "[]", "[]", "[]",  # after table, exact nonassoc and autocheck
        "[]", "[]", "[]",  # after oracle-verify, table --verify-oracle and spectrum --verify
        "['fractions', 'nortonalg.cyclotomic', 'nortonalg.norton']",  # after idempotents
    ]


_FAMILY_23 = ["--family", "hamming", "--n", "2", "--e", "3"]
PROCESS_CASES = (
    [["spectrum", *_FAMILY_23, "--verify", "--format", f] for f in ("json", "csv", "text")]
    + [["table", "--family", "hypercube", "--n", "11", "--i", "5"]]  # about 2 MB
    + [["table", "--family", "hypercube", "--n", "11", "--i", "5", "--format", f]
       for f in ("csv", "text")]  # 4 blocks of rows each
    + [["table", *_FAMILY_23, "--i", "1", "--format", f] for f in ("csv", "text")]
    + [["nonassoc", "--family", "hamming", "--n", "1", "--e", "3", "--max-m", "5",
        "--format", f] for f in ("json", "csv", "text")]
    + [["idempotents", "--e", "4", "--format", f] for f in ("json", "text")]
    + [["autocheck", *_FAMILY_23, "--samples", "2"],
       ["oracle-verify", *_FAMILY_23],
       ["isocheck"],
       ["--help"],  # exits 0
       ["nonassoc", *_FAMILY_23, "--max-m", "0"],  # exits 2
       ["spectrum", "--family", "hamming", "--n", "30", "--e", "3"]]  # exits 3
)


def _process_env() -> dict:
    """The environment of a `python -m nortonalg.cli` child: stdout block
    buffered, as it is by default, and help text 80 columns wide."""
    src = os.path.dirname(os.path.dirname(nortonalg.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _spawn(argv: list[str], stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "nortonalg.cli", *argv], env=_process_env(),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


def test_process_entry_matches_main(capsys, monkeypatch, tmp_path):
    # the process entry exits without interpreter teardown; every exit code,
    # stdout byte and stderr line is still main()'s, and written files are whole
    table = str(tmp_path / "table.json")
    export = str(tmp_path / "idempotents.json")
    extra = {"output": [*PROCESS_CASES[3], "--output", table],
             "export": ["idempotents", "--e", "4", "--export", export]}
    with ThreadPoolExecutor(max_workers=2) as pool:
        spawned = [pool.submit(_spawn, argv) for argv in PROCESS_CASES]
        spawned_extra = {key: pool.submit(_spawn, argv) for key, argv in extra.items()}
        monkeypatch.setenv("COLUMNS", "80")
        expected = []
        for argv in PROCESS_CASES:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse
                code = exc.code
            captured = capsys.readouterr()
            expected.append((code, captured.out.encode(), captured.err))
        for argv, future, (code, out, err) in zip(PROCESS_CASES, spawned, expected):
            proc = future.result()
            assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, out, err), argv
        assert [code for code, _, _ in expected[-3:]] == [0, 2, 3]
        for key in extra:
            proc = spawned_extra[key].result()
            assert proc.returncode == 0 and proc.stderr == b"", key
    with open(table, "rb") as fh:
        assert fh.read() == expected[3][1]
    with open(export, "rb") as fh:
        assert fh.read() == expected[PROCESS_CASES.index(["idempotents", "--e", "4",
                                                         "--format", "json"])][1]
    assert len(expected[3][1]) > 2_000_000
    if os.path.exists("/dev/full"):  # output that cannot be written exits 4, one line
        # isocheck fails in run()'s flush; the tables (dim 299, 2 blocks) fail
        # in main(), with a small head still in the buffer for the flush
        table = ["table", "--family", "hamming", "--n", "1", "--e", "300", "--i", "1"]
        for argv in (["isocheck"], table, [*table, "--format", "csv"]):
            with open("/dev/full", "wb") as full:
                proc = _spawn(argv, stdout=full)
            assert proc.returncode == 4, argv
            err = proc.stderr.decode()
            assert err.startswith("internal error: OSError: ") and err.count("\n") == 1, (argv, err)


def test_package_names_resolve_on_first_access():
    for name in nortonalg.__all__:
        assert getattr(nortonalg, name).__name__ == name
    namespace: dict = {}
    exec("from nortonalg import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(nortonalg.__all__)
    assert set(nortonalg.__all__) <= set(dir(nortonalg))
    with pytest.raises(AttributeError):
        nortonalg.no_such_name


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_command_parser_speaks_as_the_full_parser(command, capsys, monkeypatch):
    # main builds the named command's subparser only; its help, its errors and
    # the top-level error for arguments it leaves over are the full parser's
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda name=None: built.append(name) or real(name))
    for argv in ([command, "--format", "xml"], ["--help"], [command[:3]]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == [command, None, None]
    assert list(real(command)._subparsers._group_actions[0].choices) == [command]
    assert list(real()._subparsers._group_actions[0].choices) == list(cli.COMMANDS)

    def parse(parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    # with its required options, the subparser leaves --bogus to the top level
    given = {"idempotents": ["--e", "3"], "isocheck": []}.get(command, ["--family", "hamming"])
    for argv in ([command, "--help"], [command, "--bogus"], [command, "--format", "xml"],
                 [command, "--budget", "-1"], [command, *given, "--bogus"],
                 [command, *given, "extra"]):
        full = parse(real(), argv)
        assert parse(real(command), argv) == full, argv
        assert full[0] == (0 if argv[1] == "--help" else 2) and full[1:] != ("", ""), argv
