"""Tests for tree enumeration, evaluation, and associative-spectrum counting."""

from __future__ import annotations

import pytest

from nortonalg.errors import BudgetExceededError
from nortonalg.families import make_family
from nortonalg.norton import AlgebraVector, closed_form_product
from nortonalg.trees import (
    BinaryTree,
    a000975,
    catalan,
    count_classes_exact,
    count_classes_witness,
    double_minus_form,
    enumerate_trees,
    evaluate,
    exact_partition,
    ominus_class,
    ominus_equivalence_check,
    ominus_partition,
)


def test_enumeration_counts():
    for m in range(11):
        assert len(enumerate_trees(m)) == catalan(m)
    assert catalan(6) == 132


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_trees(13)


def test_depth_sequences_m3():
    got = {t.depths for t in enumerate_trees(3)}
    assert got == {(3, 3, 2, 1), (2, 3, 3, 1), (2, 2, 2, 2), (1, 3, 3, 2), (1, 2, 3, 3)}


def test_depth_sequences_distinct_and_reconstructible():
    for m in range(9):
        seqs = [t.depths for t in enumerate_trees(m)]
        assert len(set(seqs)) == len(seqs)


def test_tree_invariants():
    t = enumerate_trees(4)[0]
    assert t.leaf_count == 5
    assert len(t.depths) == 5
    with pytest.raises(ValueError):
        BinaryTree(enumerate_trees(0)[0], None)


def test_evaluate_comb_examples():
    # ((chi_u * chi_u) * chi_-u) = chi_u but chi_u * (chi_u * chi_-u) = 0
    fam = make_family("hamming", n=1, e=3)
    chi1 = AlgebraVector.basis_vector(fam, 1, (1,))
    chi2 = AlgebraVector.basis_vector(fam, 1, (2,))
    left_comb, right_comb = enumerate_trees(2)[1], enumerate_trees(2)[0]
    assert left_comb.depths == (2, 2, 1)
    assert right_comb.depths == (1, 2, 2)
    got = evaluate(left_comb, closed_form_product, [chi1, chi1, chi2])
    assert got == chi1
    assert evaluate(right_comb, closed_form_product, [chi1, chi1, chi2]).is_zero()


def test_evaluate_constant_space():
    fam = make_family("hamming", n=2, e=3)
    one = AlgebraVector.basis_vector(fam, 0, (0, 0))
    for t in enumerate_trees(3):
        assert evaluate(t, closed_form_product, [one] * 4) == one


def test_evaluate_length_mismatch():
    fam = make_family("hamming", n=1, e=3)
    chi1 = AlgebraVector.basis_vector(fam, 1, (1,))
    with pytest.raises(ValueError):
        evaluate(enumerate_trees(2)[0], closed_form_product, [chi1])


def test_ominus_class_examples():
    by_depth = {t.depths: t for t in enumerate_trees(3)}
    assert ominus_class(by_depth[(3, 3, 2, 1)]) == (1, 1, 0, 1)
    assert ominus_class(by_depth[(2, 2, 2, 2)]) == (0, 0, 0, 0)
    assert ominus_class(enumerate_trees(1)[0]) == (1, 1)


def test_double_minus_form_matches_depth_parity():
    for m in range(9):
        for t in enumerate_trees(m):
            form = double_minus_form(t)
            assert form == tuple((-1) ** d for d in t.depths)


def test_a000975_values_and_enumeration():
    assert a000975(1) == 1
    assert a000975(4) == 10
    assert a000975(10) == 682
    with pytest.raises(ValueError):
        a000975(0)
    for m in range(1, 11):
        assert len({ominus_class(t) for t in enumerate_trees(m)}) == a000975(m)


def test_count_classes_exact_examples():
    # associative at e = 2: V_1(H(1,2)) has the zero product
    fam2 = make_family("hamming", n=1, e=2)
    for m in range(1, 7):
        assert count_classes_exact(fam2, 1, m).class_count == 1
    # double-minus-like at e = 3
    fam3 = make_family("hamming", n=1, e=3)
    assert count_classes_exact(fam3, 1, 4).class_count == 10
    # totally nonassociative on V_2(Q_3) at m = 3
    cube = make_family("hypercube", n=3)
    assert count_classes_exact(cube, 2, 3).class_count == 5


def test_exact_budget_error_mentions_witness():
    fam = make_family("hamming", n=3, e=3)
    with pytest.raises(BudgetExceededError, match="witness"):
        count_classes_exact(fam, 2, 6)


def test_count_classes_witness_seeded_example():
    fam = make_family("hamming", n=3, e=3)
    report = count_classes_witness(fam, 2, 5, seed=42)
    assert report.class_count == catalan(5) == 42
    assert report.mode == "exact"
    assert report.seed == 42


def test_count_classes_witness_e4():
    fam = make_family("hamming", n=1, e=4)
    report = count_classes_witness(fam, 1, 4, seed=0)
    assert report.class_count == catalan(4) == 14
    assert report.mode == "exact"


def test_witness_zero_product_reports_one_class():
    fam = make_family("hypercube", n=4)
    report = count_classes_witness(fam, 3, 4, seed=0, attempts=50)
    assert report.class_count == 1
    assert report.mode == "witness-lower-bound"
    assert report.budget_used == 50


def test_witness_never_exceeds_exact():
    for fam, i in ((make_family("hamming", n=1, e=3), 1),
                   (make_family("hamming", n=1, e=4), 1),
                   (make_family("hypercube", n=3), 2)):
        for m in range(1, 6):
            exact = count_classes_exact(fam, i, m).class_count
            report = count_classes_witness(fam, i, m, seed=3)
            assert report.class_count <= exact
            if report.mode == "exact":
                assert report.class_count == exact


def test_witness_determinism():
    fam = make_family("hamming", n=2, e=4)
    a = count_classes_witness(fam, 1, 4, seed=9)
    b = count_classes_witness(fam, 1, 4, seed=9)
    assert a == b


def test_ominus_equivalence():
    fam3 = make_family("hamming", n=1, e=3)
    for m in range(1, 7):
        assert ominus_equivalence_check(fam3, 1, m)
    # at e = 4 the partitions are both discrete at m = 3, then split at m = 4
    fam4 = make_family("hamming", n=1, e=4)
    assert ominus_equivalence_check(fam4, 1, 3)
    assert not ominus_equivalence_check(fam4, 1, 4)


def test_partitions_are_tree_partitions():
    fam = make_family("hamming", n=1, e=3)
    for m in (2, 4):
        parts = exact_partition(fam, 1, m)
        flat = sorted(i for part in parts for i in part)
        assert flat == list(range(catalan(m)))
        oparts = ominus_partition(m)
        assert sorted(i for part in oparts for i in part) == flat


def test_parenthesization_rendering():
    t = enumerate_trees(2)[0]
    assert t.parenthesization() == "(z0*(z1*z2))"
