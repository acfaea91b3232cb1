"""CLI behaviour: outputs, formats, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

from nortonalg import trees
from nortonalg.cli import main
from nortonalg.families import BilinearFamily, HypercubeFamily


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


def test_autocheck_bilinear(capsys):
    code, payload = run_json(capsys, "autocheck", "--family", "bilinear",
                             "--q", "2", "--d", "2", "--e", "2", "--i", "1",
                             "--samples", "6", "--seed", "1")
    assert code == 0
    assert payload["conjugation_identity"] is True


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

    monkeypatch.setattr(HypercubeFamily, "_make_basis", no_basis)
    fam = ["--family", "hypercube", "--n", "30", "--i", "15"]
    assert main(["oracle-verify", *fam]) == 3
    assert main(["nonassoc", *fam, "--max-m", "2"]) == 3
    assert capsys.readouterr().err.count("budget exceeded") == 2


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
