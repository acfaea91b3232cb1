"""CLI behaviour: outputs, formats, determinism, exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import nortonalg

from nortonalg import autos, cli, families, norton, trees
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


def test_idempotents_e4(capsys):
    code, payload = run_json(capsys, "idempotents", "--e", "4")
    assert code == 0
    assert payload["count"] == 4
    assert payload["eta_relations"] is True
    assert payload["primitivity_facts"] is True
    assert payload["nilpotent_count"] == 3
    supports = sorted(tuple(x["support"]) for x in payload["idempotents"])
    assert supports == [(1,), (1, 2, 3), (2,), (3,)]


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


def test_autocheck_rejects_folded_families(capsys):
    assert main(["autocheck", "--family", "folded-half-cube", "--n", "8"]) == 2
    assert capsys.readouterr().err == (
        "error: autocheck supports hamming, hypercube, halved-cube and bilinear"
        " families, not folded_half_cube\n")


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
    code = main(["table", "--family", "bilinear", "--q", "2", "--d", "3", "--e", "5",
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
    # 2^7 - 1 subsets (the 35 nilpotent ones too) of 7^2 steps each
    assert main(["idempotents", "--e", "8", "--budget", str(127 * 49 - 1)]) == 3
    monkeypatch.undo()
    assert main(["idempotents", "--e", "4", "--budget", str(7 * 9)]) == 0
    monkeypatch.setenv("NORTON_BUDGET", "100")
    assert main(["idempotents", "--e", "5"]) == 3
    assert capsys.readouterr().err.count("budget exceeded") == 3


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


def test_table_oracle_checks_vertex_budget_after_basis_enumeration(capsys):
    # the V_1 basis enumerates all 2^15 vertices under the default budget; the
    # oracle's 4096-vertex budget must still refuse them
    code = main(["table", "--family", "bilinear", "--q", "2", "--d", "3", "--e", "5",
                 "--i", "1", "--verify-oracle"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


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


# (family, parameters, i, blocks of TABLE_BLOCK_CELLS cells of rows)
TABLE_SHAPES = [
    ("halved-cube", {"n": 12}, 6, 4),  # dim 462: 141 rows a block, the last 39
    ("hamming", {"n": 9, "e": 3}, 9, 4),  # dim 512: exactly 4 blocks of 128 rows
    ("hamming", {"n": 2, "e": 3}, 0, 1),  # one row, with the oracle line in text
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("kind, params, i, blocks", TABLE_SHAPES,
                         ids=["partial-last-block", "whole-blocks", "one-row"])
def test_streamed_table_equals_one_string(monkeypatch, tmp_path, fmt, kind, params, i, blocks):
    fam = make_family(kind, **params)
    dim = fam.predicted_dimension(i)
    step = max(1, cli.TABLE_BLOCK_CELLS // dim)
    assert -(-dim // step) == blocks
    oracle = ["--verify-oracle"] if dim == 1 else []
    argv = ["table", "--family", kind, *(f"--{k}={v}" for k, v in params.items()),
            "--i", str(i), "--format", fmt, *oracle]
    expected = table_output(fam, i, fmt, True if oracle else None)
    out = _Pieces()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.getvalue() == expected
    # a write per block of rows, after the head and before the tail
    assert len(out.pieces) == blocks + 2
    path = tmp_path / "table.out"
    assert main([*argv, "--output", str(path)]) == 0
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_table_peak_memory_is_the_table_and_a_block(monkeypatch, fmt):
    # a fresh family, so the table is built under the trace too
    monkeypatch.setattr(cli, "make_family",
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

    monkeypatch.setattr(norton, "verify_oracle_space", broken)
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
import nortonalg.cli
print(loaded("nortonalg.autos", "nortonalg.norton", "nortonalg.trees",
             "nortonalg.cyclotomic"))
for argv in (["table", "--family", "hypercube", "--n", "6", "--i", "3"],
             ["nonassoc", "--family", "hamming", "--n", "1", "--e", "3", "--max-m", "6",
              "--mode", "exact"],
             ["autocheck", "--family", "hamming", "--n", "3", "--e", "4", "--i", "2",
              "--samples", "2"],
             ["oracle-verify", "--family", "halved-cube", "--n", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert nortonalg.cli.main(argv) == 0
    print(loaded("nortonalg.cyclotomic", "fractions", "numpy.ma"))
"""


def test_cli_import_leaves_the_other_layers_unloaded():
    # the layers load per subcommand: Q(w) (cyclotomic and fractions) only
    # where it is computed, and numpy.ma nowhere
    src = os.path.dirname(os.path.dirname(nortonalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == [
        "[]",  # after import nortonalg.cli
        "[]", "[]", "[]",  # after table, exact nonassoc and autocheck
        "['fractions', 'nortonalg.cyclotomic']",  # after oracle-verify
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
