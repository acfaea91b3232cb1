"""Tests for tree enumeration, evaluation, and associative-spectrum counting."""

from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest

from nortonalg import trees
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
    tree_masks,
)


def _criterion1_spaces():
    fams = ([make_family("hamming", n=n, e=e) for n in range(1, 5) for e in range(2, 6)]
            + [make_family("hypercube", n=n) for n in range(1, 9)]
            + [make_family("halved_cube", n=n) for n in range(2, 9)]
            + [make_family("folded_cube", n=n) for n in range(3, 9)]
            + [make_family("folded_half_cube", n=n) for n in (6, 8)]
            + [make_family("bilinear", q=q, d=2, e=2) for q in (2, 3)])
    return [(fam, i) for fam in fams for i in fam.eigenspaces()]


# Reference evaluator: each tree as a postfix program run on one tuple of
# basis positions at a time, straight from the product table.

def _postfix(t: BinaryTree) -> list[int]:
    # leaf slot index, or -1 for an internal combine
    prog: list[int] = []
    slot = 0

    def walk(node: BinaryTree) -> None:
        nonlocal slot
        if node.is_leaf:
            prog.append(slot)
            slot += 1
            return
        walk(node.left)
        walk(node.right)
        prog.append(-1)

    walk(t)
    return prog


def _run_postfix(prog: list[int], tup: tuple[int, ...], table: list[list[int]]) -> int:
    stack: list[int] = []
    push = stack.append
    for op in prog:
        if op >= 0:
            push(tup[op])
        else:
            b = stack.pop()
            a = stack.pop()
            push(-1 if a < 0 or b < 0 else table[a][b])
    return stack[0]


def reference_partition(fam, i, m):
    """Trees grouped by their values on every basis tuple."""
    table = fam.product_table(i).tolist()
    tuples = list(product(range(len(table)), repeat=m + 1))
    groups = {}
    for idx, t in enumerate(enumerate_trees(m)):
        prog = _postfix(t)
        groups.setdefault(tuple(_run_postfix(prog, tup, table) for tup in tuples), []).append(idx)
    return sorted(groups.values())


def reference_witness(fam, i, m, seed, attempts):
    """(class_count, mode, budget_used) of the tuple-at-a-time witness loop."""
    table = fam.product_table(i).tolist()
    progs = [_postfix(t) for t in enumerate_trees(m)]
    rng = random.Random(seed)
    classes = [list(range(len(progs)))]
    used = 0
    while used < attempts and any(len(c) > 1 for c in classes):
        tup = tuple(rng.randrange(len(table)) for _ in range(m + 1))
        used += 1
        refined = []
        for cls in classes:
            if len(cls) == 1:
                refined.append(cls)
                continue
            buckets = {}
            for t_idx in cls:
                buckets.setdefault(_run_postfix(progs[t_idx], tup, table), []).append(t_idx)
            refined.extend(buckets.values())
        classes = refined
    separated = all(len(c) == 1 for c in classes)
    return len(classes), "exact" if separated else "witness-lower-bound", used


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


def test_two_word_interval_sets():
    # m = 11 has 66 intervals, over one uint64 word; V_1(H(1,3)) is double minus
    fam3 = make_family("hamming", n=1, e=3)
    assert exact_partition(fam3, 1, 11, budget=10**9) == ominus_partition(11)


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


def test_tree_masks_are_the_interval_sets_in_enumeration_order():
    def intervals(t, a):
        if t.is_leaf:
            return set()
        b = a + t.leaf_count
        return {(a, b)} | intervals(t.left, a) | intervals(t.right, a + t.left.leaf_count)

    for m in (0, 1, 4, 7, 11):
        masks = tree_masks(m)
        assert masks.shape == (catalan(m), 1 if m <= 10 else 2)
        step = 1 if m <= 7 else 97
        for t, row in zip(enumerate_trees(m)[::step], masks[::step]):
            bits = {k for k in range(64 * len(row)) if int(row[k // 64]) >> (k % 64) & 1}
            assert bits == {(b - 1) * (b - 2) // 2 + a for a, b in intervals(t, 0)}
    with pytest.raises(BudgetExceededError):
        tree_masks(13)


def test_exact_partition_matches_the_postfix_reference():
    # every criterion-1 space for m <= 4 where the reference's
    # dim^(m+1) * Catalan(m) tuple evaluations stay small
    checked = 0
    for fam, i in _criterion1_spaces():
        dim = fam.predicted_dimension(i)
        for m in range(1, 5):
            if dim ** (m + 1) * catalan(m) > 30_000:
                break
            assert exact_partition(fam, i, m) == reference_partition(fam, i, m), (
                fam.describe(), i, m)
            checked += 1
    assert checked > 300


def test_witness_matches_the_postfix_reference():
    for fam, i in _criterion1_spaces():
        for m in range(1, 5):
            for seed in (0, 1, 5):
                report = count_classes_witness(fam, i, m, seed=seed, attempts=200)
                assert ((report.class_count, report.mode, report.budget_used)
                        == reference_witness(fam, i, m, seed, 200)), (fam.describe(), i, m, seed)


def test_small_chunks_give_the_same_classes(monkeypatch):
    # slices of the tuple grid, tree blocks and witness chunks of a few rows
    cases = [(make_family("hamming", n=2, e=3), 2, 4), (make_family("hypercube", n=4), 2, 3),
             (make_family("hamming", n=1, e=4), 1, 5)]
    before = [(exact_partition(fam, i, m), count_classes_witness(fam, i, m + 1, seed=2))
              for fam, i, m in cases]
    monkeypatch.setattr(trees, "CHUNK_BYTES", 64)
    after = [(exact_partition(fam, i, m), count_classes_witness(fam, i, m + 1, seed=2))
             for fam, i, m in cases]
    assert after == before


def test_counters_reject_a_table_not_determined_by_sums(monkeypatch):
    # V_1(H(1,3)): chi_1 * chi_2 = 0; calling it chi_1 makes
    # (chi_1 chi_1) chi_2 = chi_2 * chi_2 = chi_1 but chi_1 (chi_1 chi_2) = chi_2
    fam = make_family("hamming", n=1, e=3)
    doctored = fam.product_table(1).copy()
    assert doctored.tolist() == [[1, -1], [-1, 0]]
    doctored[0, 1] = 0
    monkeypatch.setattr(fam, "product_table", lambda i: doctored)
    assert len(reference_partition(fam, 1, 2)) == 2  # the tuple loop sees no fault
    with pytest.raises(AssertionError, match="not determined by the sum"):
        exact_partition(fam, 1, 2)
    with pytest.raises(AssertionError, match="not determined by the sum"):
        count_classes_witness(fam, 1, 2, seed=0)
