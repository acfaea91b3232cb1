"""Tests for the six graph families and their closed product rules."""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest

from nortonalg.autos import (
    SignedPermutation,
    hamming_candidate,
    identity_auto,
    is_algebra_automorphism,
    signed_perm_candidate,
)
from nortonalg.errors import BudgetExceededError
from nortonalg.families import (
    CubeFamily,
    HammingFamily,
    make_family,
    qbinom,
    rank_fq,
    ranks_fq,
)
from nortonalg.norton import verify_oracle_space
from nortonalg.trees import count_classes_exact
from reference import (
    as_matrix,
    reference_basis,
    reference_index,
    support,
    symmetric_difference_feasible,
)


def test_make_family_dimensions():
    assert [make_family("hamming", n=2, e=3).predicted_dimension(i) for i in range(3)] == [1, 4, 4]
    assert [make_family("halved_cube", n=4).predicted_dimension(i) for i in range(3)] == [1, 4, 3]
    assert [make_family("bilinear", q=2, d=2, e=2).predicted_dimension(i) for i in range(3)] == [1, 9, 6]


def test_predicted_eigenvalues():
    assert make_family("hamming", n=2, e=3).predicted_eigenvalue(1) == 1
    assert make_family("folded_cube", n=5).predicted_eigenvalue(0) == 5
    assert make_family("bilinear", q=2, d=2, e=2).predicted_eigenvalue(2) == -3


def test_predicted_dimensions():
    assert make_family("hamming", n=3, e=2).predicted_dimension(2) == 3
    assert make_family("hamming", n=2, e=3).predicted_dimension(2) == 4
    assert make_family("folded_half_cube", n=6).predicted_dimension(1) == 15


def test_basis_orders_and_counts():
    fam = make_family("hamming", n=2, e=3)
    assert fam.basis(1) == [(0, 1), (0, 2), (1, 0), (2, 0)]
    assert fam.basis(2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    half = make_family("halved_cube", n=4)
    assert half.basis(2) == [(1, 2), (1, 3), (1, 4)]
    fhc = make_family("folded_half_cube", n=8)
    assert all(2 in s or 1 in s for s in fhc.basis(2))
    assert len(fhc.basis(2)) == 35


def test_dimension_sums_match_vertex_count():
    fams = [make_family("hamming", n=3, e=4), make_family("hypercube", n=7),
            make_family("halved_cube", n=8), make_family("folded_cube", n=7),
            make_family("folded_half_cube", n=8), make_family("bilinear", q=3, d=2, e=2)]
    for fam in fams:
        assert sum(fam.predicted_dimension(i) for i in fam.eigenspaces()) == fam.vertex_count()
        for i in fam.eigenspaces():
            assert len(fam.basis(i)) == fam.predicted_dimension(i)


def test_closed_product_hamming_example32():
    fam = make_family("hamming", n=2, e=3)
    assert fam.closed_product(1, (0, 1), (0, 1)) == (0, 2)
    assert fam.closed_product(1, (0, 1), (1, 0)) is None
    assert fam.closed_product(2, (1, 1), (2, 2)) is None
    assert fam.closed_product(0, (0, 0), (0, 0)) == (0, 0)


def test_closed_product_hypercube_example38():
    fam = make_family("hypercube", n=3)
    assert fam.closed_product(2, (1, 3), (2, 3)) == (1, 2)
    assert fam.closed_product(2, (1, 2), (1, 2)) is None
    assert fam.closed_product(2, (2, 3), (1, 2)) == (1, 3)


def test_closed_product_halved_cube_example():
    fam = make_family("halved_cube", n=4)
    assert fam.closed_product(2, (1, 2), (1, 3)) == (1, 4)
    assert fam.closed_product(2, (1, 2), (1, 4)) == (1, 3)
    assert fam.closed_product(2, (1, 3), (1, 4)) == (1, 2)
    assert fam.closed_product(2, (1, 2), (1, 2)) is None


def test_closed_product_folded_and_folded_half():
    fold = make_family("folded_cube", n=4)
    assert fold.closed_product(1, (1, 2), (2, 3)) == (1, 3)
    assert fold.closed_product(1, (1, 2), (3, 4)) is None
    fhc = make_family("folded_half_cube", n=8)
    # |S symdiff T| = 6 = n - 2i folds back through the complement
    assert fhc.closed_product(1, (1, 2), (3, 4)) is None
    assert fhc.closed_product(1, (1, 2), (1, 3)) == (2, 3)


def test_canonical_label_folds_odd_sets_then_complements():
    assert make_family("hypercube", n=5).canonical_label({3, 1}) == (1, 3)
    assert make_family("folded_cube", n=5).canonical_label({1}) == (1, 5)
    fhc = make_family("folded_half_cube", n=8)
    assert fhc.canonical_label({1, 2, 3}) == (1, 2, 3, 8)  # size n/2 with 1
    assert fhc.canonical_label({2, 3, 4}) == (1, 5, 6, 7)  # {2,3,4,8} complemented
    assert fhc.canonical_label({1, 2, 3, 4, 5}) == (6, 7)  # {1,...,5,8} complemented


def test_closed_product_bilinear():
    fam = make_family("bilinear", q=2, d=2, e=2)
    e11 = (1, 0, 0, 0)
    e12 = (0, 1, 0, 0)
    assert fam.closed_product(1, e11, e11) is None
    assert fam.closed_product(1, e11, e12) == (1, 1, 0, 0)


def test_closed_product_commutative_random():
    rng = random.Random(5)
    fams = [make_family("hamming", n=3, e=3), make_family("hypercube", n=5),
            make_family("halved_cube", n=6), make_family("folded_cube", n=5),
            make_family("bilinear", q=2, d=2, e=2)]
    for fam in fams:
        for i in fam.eigenspaces():
            basis = fam.basis(i)
            for _ in range(30):
                a, b = rng.choice(basis), rng.choice(basis)
                assert fam.closed_product(i, a, b) == fam.closed_product(i, b, a)


def test_closed_product_membership_errors():
    fam = make_family("hamming", n=2, e=3)
    with pytest.raises(ValueError):
        fam.closed_product(1, (1, 1), (0, 1))
    with pytest.raises(ValueError):
        fam.closed_product(3, (1, 1), (1, 1))


def test_hamming_support_locality():
    # products inside a fixed-support block stay in the block (or vanish)
    fam = make_family("hamming", n=3, e=4)
    for i in fam.eigenspaces():
        for a in fam.basis(i):
            for b in fam.basis(i):
                if support(a) == support(b):
                    c = fam.closed_product(i, a, b)
                    assert c is None or support(c) == support(a)


def test_hypercube_zero_product_regimes():
    # i odd or i > floor(2n/3) forces the zero product; exhaustive n <= 8
    for n in range(1, 9):
        fam = make_family("hypercube", n=n)
        for i in fam.eigenspaces():
            all_zero = all(
                fam.closed_product(i, a, b) is None
                for a in fam.basis(i) for b in fam.basis(i))
            expected_zero = (i % 2 == 1) or (i > (2 * n) // 3)
            if i == 0:
                assert not all_zero
            else:
                assert all_zero == expected_zero


def test_in_basis_matches_enumerated_basis():
    # the label predicates agree with basis membership on every label of the
    # family and, for the cube variants, on every subset of positions
    fams = [make_family("hamming", n=3, e=3), make_family("hypercube", n=5),
            make_family("halved_cube", n=6), make_family("halved_cube", n=7),
            make_family("folded_cube", n=6), make_family("folded_half_cube", n=8),
            make_family("bilinear", q=3, d=2, e=2)]
    for fam in fams:
        candidates = {lbl for i in fam.eigenspaces() for lbl in fam.basis(i)}
        if fam.kind not in ("hamming", "bilinear"):
            cube = make_family("hypercube", n=fam.n)
            candidates |= {lbl for i in cube.eigenspaces() for lbl in cube.basis(i)}
        for i in fam.eigenspaces():
            basis = set(fam.basis(i))
            for lbl in candidates:
                assert fam.in_basis(i, lbl) == (lbl in basis), (fam.describe(), i, lbl)
    cube = make_family("hypercube", n=4)
    assert not cube.in_basis(2, (2, 1)) and not cube.in_basis(2, (1, 1))
    assert not cube.in_basis(2, (0, 1)) and not cube.in_basis(2, (1, 5))
    assert not make_family("hamming", n=2, e=3).in_basis(1, (0, 3))


def test_closed_product_checks_labels_without_enumerating():
    fam = make_family("hamming", n=30, e=2)
    u = tuple([1] * 15 + [0] * 15)
    assert fam.closed_product(15, u, u) is None
    assert 15 not in fam._bases  # C(30, 15) labels were never built
    with pytest.raises(ValueError):
        fam.closed_product(15, u, tuple([1] * 14 + [0] * 16))


def test_product_table_layout():
    fam = make_family("hamming", n=2, e=3)
    table = fam.product_table(1)
    assert table.dtype == np.int32
    assert table.tolist() == [[1, -1, -1, -1], [-1, 0, -1, -1],
                              [-1, -1, 3, -1], [-1, -1, -1, 2]]
    assert fam.product_table(1) is table  # cached per family and space
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        fam.product_table(3)


def test_symmetric_difference_feasible_examples():
    assert symmetric_difference_feasible(3, 2, 2)
    assert not symmetric_difference_feasible(5, 2, 3)
    assert not symmetric_difference_feasible(6, 2, 6)


def test_symmetric_difference_feasible_brute_force():
    for n in range(0, 11):
        universe = range(1, n + 1)
        for i in range(0, n + 1):
            achieved = set()
            for s in combinations(universe, i):
                for t in combinations(universe, i):
                    achieved.add(len(set(s) ^ set(t)))
            for j in range(0, n + 1):
                assert symmetric_difference_feasible(n, i, j) == (j in achieved)


def test_halved_cube_character_collision():
    # chi_S and chi_{S^c} agree on the even-weight subgroup, and nothing else collides
    for n in range(2, 9):
        fam = make_family("halved_cube", n=n)
        xs = fam.vertices()
        tables = {}
        for mask in range(2**n):
            s = tuple(j + 1 for j in range(n) if mask >> j & 1)
            vec = reference_index(fam, s)
            table = tuple(sum(v * x[j] for j, v in enumerate(vec)) % 2 for x in xs)
            tables.setdefault(table, []).append(frozenset(s))
        assert len(tables) == 2 ** (n - 1)
        full = frozenset(range(1, n + 1))
        for sets in tables.values():
            assert len(sets) == 2 and sets[0] ^ sets[1] == full


def test_qbinom():
    assert qbinom(4, 0, 3) == 1
    assert qbinom(2, 1, 2) == 3
    assert qbinom(4, 2, 2) == 35
    with pytest.raises(ValueError):
        qbinom(2, 3, 2)


def test_rank_fq():
    assert rank_fq([[0, 0], [0, 0]], 2) == 0
    assert rank_fq([[1, 0], [0, 1]], 2) == 2
    assert rank_fq([[1, 1], [1, 1]], 2) == 1
    assert rank_fq([[1, 2], [2, 4]], 5) == 1
    assert rank_fq([[1, 2], [2, 3]], 5) == 2
    with pytest.raises(ValueError):
        rank_fq([[1]], 4)


@pytest.mark.parametrize("q, d, e", [(2, 2, 2), (3, 2, 2), (2, 1, 3), (5, 1, 1),
                                     (2, 2, 3), (2, 3, 3), (5, 2, 2), (3, 2, 3)])
def test_batched_ranks_equal_rank_fq(q, d, e):
    # the first two are the bilinear families of criterion 1
    fam = make_family("bilinear", q=q, d=d, e=e)
    vertices = [tuple(x) for x in fam.vertices().tolist()]
    mats = np.array(vertices, dtype=np.uint8).reshape(-1, d, e)
    ranks = [rank_fq(as_matrix(x, e), q) for x in vertices]
    assert ranks_fq(mats, q).tolist() == ranks
    for i in fam.eigenspaces():
        assert fam.basis(i) == [x for x, r in zip(vertices, ranks) if r == i]
    assert fam.connection().tolist() == [list(x) for x, r in zip(vertices, ranks) if r == 1]
    with pytest.raises(ValueError):
        ranks_fq(mats, 4)


def test_bilinear_rank_counts_match_dimensions():
    for q in (2, 3):
        fam = make_family("bilinear", q=q, d=2, e=2)
        for i in fam.eigenspaces():
            count = sum(1 for x in fam.vertices().tolist() if fam.rank(x) == i)
            assert count == fam.predicted_dimension(i)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        make_family("hamming", n=0, e=3)
    with pytest.raises(ValueError):
        make_family("hamming", n=2, e=1)
    with pytest.raises(ValueError):
        make_family("bilinear", q=4, d=2, e=2)
    with pytest.raises(ValueError):
        make_family("bilinear", q=2, d=3, e=2)
    for kind, n, message in [
            ("hypercube", 0, "hypercube requires n >= 1, got 0"),
            ("halved_cube", 1, "halved_cube requires n >= 2, got 1"),
            ("folded_cube", 2, "folded_cube requires n >= 3, got 2"),
            ("folded_half_cube", 4, "folded_half_cube requires even n >= 6, got 4"),
            ("folded_half_cube", 7, "folded_half_cube requires even n >= 6, got 7")]:
        with pytest.raises(ValueError) as info:
            make_family(kind, n=n)
        assert str(info.value) == message
    with pytest.raises(ValueError):
        make_family("no_such_family", n=2)


def test_vertex_budget():
    fam = make_family("hypercube", n=25)
    with pytest.raises(BudgetExceededError):
        fam.vertices(budget=4096)
    # closed-form products never enumerate vertices
    big = make_family("hamming", n=30, e=2)
    u = tuple([1] + [0] * 29)
    assert big.closed_product(1, u, u) is None


def test_connection_sets():
    assert len(make_family("hamming", n=2, e=3).connection()) == 4
    assert len(make_family("folded_cube", n=5).connection()) == 5
    assert len(make_family("folded_half_cube", n=6).connection()) == 15
    assert len(make_family("halved_cube", n=5).connection()) == 10
    assert len(make_family("bilinear", q=2, d=2, e=2).connection()) == 9


def _reference_sets(fam):
    """The vertex and connection sets as lists of tuples, by the enumeration
    the arrays replace: itertools.product and the per-family filters."""
    if fam.kind == "hamming":
        xs = list(product(range(fam.e), repeat=fam.n))
        return xs, [x for x in xs if sum(1 for a in x if a) == 1]
    if fam.kind == "bilinear":
        xs = list(product(range(fam.q), repeat=fam.length))
        return xs, [x for x in xs if fam.rank(x) == 1]
    pad = (0,) * fam.folded
    xs = [x + pad for x in product(range(2), repeat=fam.n - fam.folded)
          if not fam.halved or sum(x) % 2 == 0]
    w = 1 + fam.halved
    weights = {w, fam.n - w} if fam.folded else {w}
    return xs, [x for x in xs if sum(x) in weights]


# the families of criterion 1, then one of each larger shape
_ARRAY_CASES = (
    [("hamming", {"n": n, "e": e}) for n in range(1, 5) for e in range(2, 6)]
    + [("hypercube", {"n": n}) for n in range(1, 9)]
    + [("halved_cube", {"n": n}) for n in range(2, 9)]
    + [("folded_cube", {"n": n}) for n in range(3, 9)]
    + [("folded_half_cube", {"n": n}) for n in (6, 8)]
    + [("bilinear", {"q": q, "d": 2, "e": 2}) for q in (2, 3)]
    + [("bilinear", {"q": 2, "d": 2, "e": 3}), ("halved_cube", {"n": 10}),
       ("folded_half_cube", {"n": 10})])


@pytest.mark.parametrize("kind, opts", _ARRAY_CASES)
def test_sets_are_arrays_equal_to_the_reference_enumeration(kind, opts):
    fam = make_family(kind, **opts)
    xs, conn = _reference_sets(fam)
    dtype = np.min_scalar_type(fam.modulus - 1)
    for rows, want in ((fam.vertices(), xs), (fam.connection(), conn)):
        assert rows.dtype == dtype and not rows.flags.writeable
        assert rows.tolist() == [list(x) for x in want]
    chars = fam.cayley_graph().characters
    assert chars.dtype == dtype
    labels = [lbl for i in fam.eigenspaces() for lbl in fam.basis(i)]
    assert chars.tolist() == [reference_index(fam, lbl) for lbl in labels]
    for i in fam.eigenspaces():
        rows = fam.basis_array(i)
        assert rows is fam.basis_array(i) and rows.dtype == dtype and not rows.flags.writeable


# every space of the array cases, then spaces of instances whose 3^30 and 2^30
# vertices are out of reach: a basis never enumerates Z_e^n
_BASIS_CASES = ([(kind, opts, None) for kind, opts in _ARRAY_CASES]
                + [("hamming", {"n": 30, "e": 3}, (0, 1)), ("hypercube", {"n": 30}, (1,))])


@pytest.mark.parametrize("kind, opts, spaces", _BASIS_CASES)
def test_bases_equal_the_label_enumeration(kind, opts, spaces):
    # the rows are built first and the labels rendered from them; both must be
    # what the per-label enumeration gave, in the same order
    fam = make_family(kind, **opts)
    for i in fam.eigenspaces() if spaces is None else spaces:
        labels = reference_basis(fam, i)
        assert fam.basis_array(i).tolist() == [reference_index(fam, lbl) for lbl in labels], i
        assert fam.basis(i) == labels, i
        assert all(type(a) is int for lbl in fam.basis(i) for a in lbl), i


def test_row_paths_render_no_labels():
    # the graph, the table, the oracle, an automorphism check and the exact
    # associative spectrum read the basis rows only
    for fam, i in ((CubeFamily("hypercube", 6), 2), (HammingFamily(3, 3), 2)):
        fam.cayley_graph()
        fam.product_table(i)
        assert verify_oracle_space(fam, i)
        if fam.kind == "hamming":
            candidate = hamming_candidate(identity_auto(fam.n, fam.e), fam, i)
        else:
            candidate = signed_perm_candidate(SignedPermutation((1, 0, 2, 3, 4, 5), (1,) * 6),
                                              fam, i)
        assert is_algebra_automorphism(candidate, fam, i)
        assert count_classes_exact(fam, i, 3).class_count >= 1
        assert fam._bases == {}, fam.describe()


def test_label_text():
    fam = make_family("hypercube", n=3)
    assert fam.label_text((1, 3)) == "13"
    assert fam.label_text(()) == "{}"
    ham = make_family("hamming", n=2, e=3)
    assert ham.label_text((0, 2)) == "02"
    bil = make_family("bilinear", q=2, d=2, e=2)
    assert bil.label_text((1, 0, 0, 1)) == "[10;01]"
