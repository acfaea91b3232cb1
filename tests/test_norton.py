"""Tests for Norton algebra vectors, the projection oracle, and idempotents."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nortonalg import families, norton, roots
from nortonalg.cyclotomic import Cyclotomic, root_power
from nortonalg.errors import BudgetExceededError
from nortonalg.families import HammingFamily, Space, make_family
from nortonalg.norton import (
    AlgebraVector,
    classified_idempotents,
    closed_form_product,
    direct_sum,
    eta,
    eta_relations_check,
    find_identity,
    nilpotents_order2_classified,
    primitivity_facts_check,
    verify_isomorphism,
    verify_oracle_space,
)
from nortonalg.trees import exact_partition
from reference import (
    LabelVector,
    basis_vector,
    eta_product,
    find_identity_by_elimination,
    idempotent_supports,
    label_product,
    nilpotent_supports,
    oracle_product,
    primitivity_on_every_pair,
    value_table,
    vector,
    vector_map_preserves_products,
    vertex_row_oracle,
)


def _basis_vec(fam, i, label):
    return basis_vector(fam, i, label)


def test_oracle_product_examples():
    fam = make_family("hamming", n=2, e=3)
    a = oracle_product(_basis_vec(fam, 1, (0, 1)), _basis_vec(fam, 1, (0, 1)))
    assert a == _basis_vec(fam, 1, (0, 2))
    b = oracle_product(_basis_vec(fam, 2, (1, 1)), _basis_vec(fam, 2, (2, 2)))
    assert b.is_zero()
    cube = make_family("hypercube", n=3)
    r, s, t = (1, 2), (1, 3), (2, 3)
    lhs = oracle_product(_basis_vec(cube, 2, r) + _basis_vec(cube, 2, s),
                         _basis_vec(cube, 2, t))
    assert lhs == _basis_vec(cube, 2, s) + _basis_vec(cube, 2, r)


def test_closed_form_matches_oracle_and_bilinearity():
    fam = make_family("hamming", n=2, e=3)
    v = _basis_vec(fam, 1, (0, 1))
    assert closed_form_product(2 * v, 3 * v) == 6 * _basis_vec(fam, 1, (0, 2))
    assert closed_form_product(AlgebraVector.zero(fam.space(1)), v).is_zero()


def test_products_random_bilinear_commutative():
    rng = random.Random(11)
    fam = make_family("hamming", n=2, e=4)
    basis = fam.space(1).labels

    def rand_vec():
        return vector(fam, 1, {
            lbl: Fraction(rng.randint(-2, 2)) for lbl in rng.sample(basis, 3)})

    for _ in range(25):
        u, v, w = rand_vec(), rand_vec(), rand_vec()
        assert closed_form_product(u, v) == closed_form_product(v, u)
        assert closed_form_product(u + v, w) == (
            closed_form_product(u, w) + closed_form_product(v, w))
        assert oracle_product(u, v) == closed_form_product(u, v)


def test_space_mismatch_rejected():
    fam = make_family("hamming", n=2, e=3)
    v1 = _basis_vec(fam, 1, (0, 1))
    v2 = _basis_vec(fam, 2, (1, 1))
    with pytest.raises(ValueError):
        closed_form_product(v1, v2)
    with pytest.raises(ValueError):
        v1 + v2


def test_verify_oracle_space_small_instances():
    fams = [make_family("hamming", n=2, e=3), make_family("hypercube", n=3),
            make_family("halved_cube", n=4), make_family("folded_cube", n=4),
            make_family("bilinear", q=2, d=2, e=2)]
    for fam in fams:
        result = {i: verify_oracle_space(fam.space(i)) for i in fam.eigenspaces()}
        assert all(result.values()), fam.describe()


def test_verify_oracle_matches_pairwise_oracle():
    fam = make_family("halved_cube", n=4)
    for i in fam.eigenspaces():
        for a in fam.space(i).labels:
            for b in fam.space(i).labels:
                got = oracle_product(_basis_vec(fam, i, a), _basis_vec(fam, i, b))
                want = closed_form_product(_basis_vec(fam, i, a), _basis_vec(fam, i, b))
                assert got == want


def test_verify_oracle_budget():
    # the one vertex budget, 2^20: 2^21 vertices are refused, 2^13 are checked
    with pytest.raises(BudgetExceededError):
        verify_oracle_space(make_family("hypercube", n=21).space(1))
    assert verify_oracle_space(make_family("hypercube", n=13).space(1))


def test_verify_oracle_rejects_one_changed_entry():
    space = HammingFamily(2, 3).space(2)  # a private instance: its kept table is replaced
    good = space.table
    (a, b), (c, d) = np.argwhere(good >= 0)[0], np.argwhere(good < 0)[0]
    changes = [((a, b), (good[a, b] + 1) % len(good)),  # position -> other position
               ((a, b), -1),                            # position -> zero
               ((c, d), 0)]                             # zero -> position
    for (r, s), value in changes:
        table = good.copy()
        table[r, s] = value
        space.table = table
        assert not verify_oracle_space(space), ((r, s), value)
    space.table = good
    assert verify_oracle_space(space)


def _on_vertices(rows, i):
    """V_i of a private hamming(2,3) whose vertex rows are the given ones."""
    fam = HammingFamily(2, 3)
    fam.vertices = lambda: np.array(rows, np.uint8).reshape(-1, 2)
    return fam.space(i)


def test_verify_oracle_rejects_coinciding_basis_rows():
    # on the group {0}, with no generators, every character takes the value
    # 1; on the proper subgroup {(a, 0)}, generated by (1, 0), chi_11 =
    # chi_12 in V_2 and chi_01 = chi_02 in V_1: the lookup among the rows at
    # the generators rejects the repeated row, as the reference over the
    # vertices does; V_0, one character, passes
    for rows in ([(0, 0)], [(a, 0) for a in range(3)]):
        spaces = [_on_vertices(rows, i) for i in range(3)]
        want = [vertex_row_oracle(space, space.family.vertices(), space.table) for space in spaces]
        assert [verify_oracle_space(space) for space in spaces] == want == [True, False, False], rows


def test_verify_oracle_rejects_a_vertex_set_that_is_no_group():
    # not closed under addition, without the identity, and with a repeated
    # row (the twelve rows of {(a, 0)}, each four times): the coset walk
    # refuses each, and the oracle says False, raising nothing
    for rows in ([(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0)], [(a, 0) for a in range(3)] * 4):
        assert [verify_oracle_space(_on_vertices(rows, i)) for i in range(3)] == [False] * 3, rows


def test_oracle_walks_x_once_and_reads_the_rows_at_its_generators(monkeypatch):
    # the walk of the 27 vertices of hamming(3,3) is kept beside them, and
    # each space's exponent rows are 3 entries wide, one per generator
    walks, widths = [], []
    walk, exponents = families._generators, families.character_exponents
    monkeypatch.setattr(families, "_generators", lambda *a: walks.append(1) or walk(*a))
    monkeypatch.setattr(families, "character_exponents",
                        lambda u, x, e: widths.append(len(x)) or exponents(u, x, e))
    fam = HammingFamily(3, 3)
    assert all(verify_oracle_space(fam.space(i)) for i in fam.eigenspaces())
    assert (len(walks), widths) == (1, [3] * 4)


def test_oracle_works_in_a_bounded_set():
    # the oracle reads the basis characters at the 9 generators of
    # halved-cube(10), which the walk of its 512 vertices finds once for all
    # its spaces, and compares the lookup's 256 KiB steps with the table as
    # they come (0.32 MiB; 0.29 when it read value rows over all 512
    # vertices, bit-packed and computed in vertex blocks, and 3.3 with
    # residue sums of 512-byte rows)
    fam = make_family("halved_cube", n=10)
    for i in fam.eigenspaces():
        fam.space(i).table  # the spaces' kept tables, built before the trace
    tracemalloc.start()
    try:
        assert all(verify_oracle_space(fam.space(i)) for i in fam.eigenspaces())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * (1 << 20), peak


def test_oracle_holds_no_table_of_a_space_that_keeps_none():
    # hypercube(12) V_6, dim 924, keeps no table: the oracle compares the
    # rows of the table's lookup with its own as they come, in 256 KiB steps
    # (0.53 MiB with the vertices and their walk; 3.68 when it built the
    # 3.3 MiB table for the check), and leaves no table behind
    space = families.CubeFamily("hypercube", 12).space(6)
    tracemalloc.start()
    try:
        assert verify_oracle_space(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert "table" not in vars(space)


def test_eta_examples():
    fam = make_family("hamming", n=1, e=3)
    w = root_power(3, 1)
    assert eta(3, 0).vector == _basis_vec(fam, 1, (1,)) + _basis_vec(fam, 1, (2,))
    assert eta(3, 1).vector == w * _basis_vec(fam, 1, (1,)) + (w * w) * _basis_vec(fam, 1, (2,))
    fam4 = make_family("hamming", n=1, e=4)
    expected = Fraction(1, 2) * (_basis_vec(fam4, 1, (1,)) + _basis_vec(fam4, 1, (2,))
                                 + _basis_vec(fam4, 1, (3,)))
    assert eta(4, 0).vector == expected
    with pytest.raises(ValueError):
        eta(2, 0)


def test_eta_value_identity():
    # eta_j(k) = (e-1)/(e-2) when j + k = 0 mod e, else -1/(e-2); exhaustive e <= 8
    for e in range(3, 9):
        for j in range(e):
            table = value_table(eta(e, j).vector)
            for k in range(e):
                expected = Fraction(e - 1, e - 2) if (j + k) % e == 0 else Fraction(-1, e - 2)
                assert table[k] == Cyclotomic.from_rational(e, expected)


def test_classified_idempotents_e3_matches_chart():
    fam = make_family("hamming", n=1, e=3)
    w = root_power(3, 1)
    chi1, chi2 = _basis_vec(fam, 1, (1,)), _basis_vec(fam, 1, (2,))
    got = {idem.vector for idem in classified_idempotents(3)}
    assert got == {chi1 + chi2, w * chi1 + w * w * chi2, w * w * chi1 + w * chi2}


def test_classified_idempotents_e4_matches_chart():
    fam = make_family("hamming", n=1, e=4)
    w = root_power(4, 1)
    half = Fraction(1, 2)
    chi1, chi2, chi3 = (_basis_vec(fam, 1, (k,)) for k in (1, 2, 3))
    expected = {
        half * chi2 + half * (chi1 + chi3),
        half * chi2 - half * (chi1 + chi3),
        -(half * chi2) + (w * half) * (chi1 - chi3),
        -(half * chi2) - (w * half) * (chi1 - chi3),
    }
    assert {idem.vector for idem in classified_idempotents(4)} == expected


def test_classified_idempotent_counts():
    # one idempotent per nonempty subset of {1..e-1} with size != e/2
    for e in range(3, 8):
        expected = sum(1 for size in range(1, e) if 2 * size != e
                       for _ in combinations(range(1, e), size))
        assert len(classified_idempotents(e)) == expected
    assert len(classified_idempotents(3)) == 3
    assert len(classified_idempotents(4)) == 4
    assert len(classified_idempotents(5)) == 15


def test_nilpotents():
    fam = make_family("hamming", n=1, e=4)
    reps = nilpotents_order2_classified(4)
    assert len(reps) == 3
    etas = {j: eta(4, j).vector for j in range(1, 4)}
    assert set(reps) == {etas[1] + etas[2], etas[1] + etas[3], etas[2] + etas[3]}
    assert nilpotents_order2_classified(3) == []
    assert nilpotents_order2_classified(5) == []
    assert len(nilpotents_order2_classified(6)) == 10
    for vec in nilpotents_order2_classified(6):
        assert closed_form_product(vec, vec).is_zero()
    assert fam is make_family("hamming", n=1, e=4)


def test_eta_relations():
    for e in (3, 4, 5, 6, 7):
        assert eta_relations_check(e)


def test_eta_coordinate_product_matches_closed_form():
    # the rational product on eta_1..eta_(e-1) coordinates, mapped to chi
    # coordinates through eta(e, j), is the closed-form product
    rng = random.Random(11)
    for e in range(3, 8):
        etas = [eta(e, j).vector for j in range(1, e)]

        def chi(coords):
            out = AlgebraVector.zero(etas[0].space)
            for c, vec in zip(coords, etas):
                out = out + c * vec
            return out

        for _ in range(4):
            x, y = ([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(e - 1)]
                    for _ in range(2))
            assert chi(norton._eta_product(e, x, y)) == closed_form_product(chi(x), chi(y))


@pytest.mark.parametrize("suite", [classified_idempotents, nilpotents_order2_classified,
                                   primitivity_facts_check])
def test_suite_refuses_an_uncertified_eta_frame(monkeypatch, suite):
    monkeypatch.setattr(norton, "eta_relations_check", lambda e: False)
    with pytest.raises(AssertionError, match="eta relations"):
        suite(4)


def test_primitivity_facts():
    for e in range(3, 17):
        assert primitivity_facts_check(e) is True


@settings(max_examples=60, deadline=None)
@given(e=st.integers(min_value=3, max_value=12), data=st.data())
def test_eta_product_commutes_with_coordinate_permutations(e, data):
    # the premise of checking one support per size and one pair per
    # (|A|, |B|, |A & B|): permuting the coordinates permutes the product
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    x, y = (data.draw(st.lists(coord, min_size=e - 1, max_size=e - 1)) for _ in range(2))
    perm = data.draw(st.permutations(range(e - 1)))

    def moved(v):
        return tuple(v[k] for k in perm)

    product = norton._eta_product(e, x, y)
    assert norton._eta_product(e, moved(x), moved(y)) == moved(product)
    assert product == eta_product(e, x, y)


@pytest.mark.parametrize("e", range(3, 10))
def test_primitivity_check_covers_every_pair_type(monkeypatch, e):
    # each (|A|, |B|, |A & B|) of two distinct classified supports, |A| <= |B|,
    # is the type of one pair whose product the check takes
    seen = []
    real = norton._eta_product

    def spy(e, x, y):
        if x is not y:  # not a square
            a, b = ({j for j, v in enumerate(z) if v} for z in (x, y))
            seen.append((len(a), len(b), len(a & b)))
        return real(e, x, y)

    monkeypatch.setattr(norton, "_eta_product", spy)
    assert primitivity_facts_check(e)
    supports = [set(s) for s in idempotent_supports(e)]
    types = {(*sorted((len(a), len(b))), len(a & b)) for a, b in combinations(supports, 2)}
    assert sorted(seen) == sorted(types)


@pytest.mark.parametrize("e", range(3, 8))
def test_per_type_suite_equals_every_support_and_pair(e):
    idems = classified_idempotents(e)
    assert [tuple(sorted(idem.support)) for idem in idems] == idempotent_supports(e)
    etas = {j: eta(e, j).vector for j in range(1, e)}
    assert nilpotents_order2_classified(e) == [
        sum((etas[j] for j in support), AlgebraVector.zero(etas[1].space))
        for support in nilpotent_supports(e)]
    assert primitivity_facts_check(e) is primitivity_on_every_pair(e) is True


def test_find_identity_examples():
    fam = make_family("hamming", n=2, e=3)
    ident = find_identity(fam, 0)
    assert ident == _basis_vec(fam, 0, (0, 0))
    assert find_identity(fam, 1) is None
    assert find_identity(make_family("hypercube", n=3), 2) is None


def test_find_identity_checks_the_table_size_before_the_basis(monkeypatch):
    fam = HammingFamily(4, 11)  # V_4 has dimension 10^4: 10^8 table entries, over the cap

    def no_basis(i):
        raise AssertionError("basis enumerated before the table size check")

    monkeypatch.setattr(fam, "_make_basis", no_basis)
    with pytest.raises(BudgetExceededError, match="product table"):
        find_identity(fam, 4)


@pytest.mark.parametrize("make, i", [(lambda: HammingFamily(5, 4), 3),
                                     (lambda: families.CubeFamily("hypercube", 12), 6),
                                     (lambda: families.BilinearFamily(2, 3, 4), 2)],
                         ids=["hamming(5,4)", "hypercube(12)", "bilinear(2,3,4)"])
def test_find_identity_streams_the_table_past_dimension_256(make, i):
    # the elimination over Q refused these (dim 270, 924 and 1470); the rows
    # of the table's lookup come in 256 KiB steps, and none is kept
    # (0.30-0.42 MiB traced)
    fam = make()
    assert fam.predicted_dimension(i) > 256
    tracemalloc.start()
    try:
        assert find_identity(fam, i) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert "table" not in vars(fam.space(i))


def _table_family(table):
    """A stand-in family whose every space is the table space of table."""
    space = Space.of_table(table, 3, "table", list(range(len(table))))
    return SimpleNamespace(space=lambda i: space)


def test_find_identity_reads_the_identity_row():
    # the group algebra of Z_3: row 0 reads 0..2
    fam = _table_family([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    ident = find_identity(fam, 0)
    assert ident == AlgebraVector.unit(fam.space(0), 0) == find_identity_by_elimination(fam, 0)


def test_find_identity_of_a_broken_identity_row_is_none():
    # chi_0 * chi_2 = 0 leaves column 2 with no fixed entry: (2, 2) reads 0 = 1
    fam = _table_family([[0, 1, -1], [1, 2, 0], [2, 0, 1]])
    assert find_identity(fam, 0) is None
    assert find_identity_by_elimination(fam, 0) is None


def test_find_identity_refuses_fixed_columns_without_an_identity_row():
    # two orthogonal idempotents: chi_0 + chi_1 is the identity, which no one
    # row gives, as a product is not chi_(u+v) here
    fam = _table_family([[0, -1], [-1, 1]])
    assert find_identity_by_elimination(fam, 0) == (AlgebraVector.unit(fam.space(0), 0)
                                                    + AlgebraVector.unit(fam.space(0), 1))
    with pytest.raises(AssertionError, match="no table row is the identity"):
        find_identity(fam, 0)


def test_find_identity_only_at_i0():
    for n in (1, 2):
        for e in (2, 3, 4):
            fam = make_family("hamming", n=n, e=e)
            for i in fam.eigenspaces():
                ident = find_identity(fam, i)
                if i == 0:
                    assert ident is not None
                else:
                    assert ident is None


def test_verify_isomorphism_identity():
    space = make_family("hamming", n=2, e=3).space(1)
    assert verify_isomorphism(np.arange(space.dim), space, space)


def test_verify_isomorphism_folded_to_hypercube():
    dom = make_family("folded_cube", n=4).space(1)
    cod = make_family("hypercube", n=4).space(2)
    assert dom.labels == cod.labels
    assert verify_isomorphism(np.arange(dom.dim), dom, cod)


def test_verify_isomorphism_pairing_decomposition():
    # V_2(H(2,3)) splits into the spans of {chi_11, chi_22} and {chi_12, chi_21}
    dom = make_family("hamming", n=2, e=3).space(2)
    line = make_family("hamming", n=1, e=3).space(1)
    assert dom.labels == [(1, 1), (1, 2), (2, 1), (2, 2)]
    # chi_11, chi_12, chi_21, chi_22 -> (0, chi_1), (1, chi_1), (1, chi_2), (0, chi_2)
    assert verify_isomorphism([0, 2, 3, 1], dom, direct_sum([line, line], "line x line"))


def test_direct_product_table_is_block_diagonal():
    line = make_family("hamming", n=1, e=3).space(1)
    assert line.table.tolist() == [[1, -1], [-1, 0]]
    assert direct_sum([line, line], "line x line").table.tolist() == [
        [1, -1, -1, -1], [-1, 0, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 2]]


def test_verify_isomorphism_rejects_non_bijection():
    space = make_family("hamming", n=2, e=3).space(1)
    with pytest.raises(ValueError):
        verify_isomorphism(np.zeros(space.dim, dtype=int), space, space)
    with pytest.raises(ValueError):  # too short, though injective
        verify_isomorphism(np.arange(space.dim - 1), space, space)


def test_verify_isomorphism_detects_broken_map():
    # swapping chi_01 with chi_10 breaks the squares of V_1(H(2,3))
    space = make_family("hamming", n=2, e=3).space(1)
    assert space.labels == [(0, 1), (0, 2), (1, 0), (2, 0)]
    assert not verify_isomorphism([2, 1, 0, 3], space, space)


def test_a_direct_sum_goes_through_the_table_readers():
    # V_2(H(2,3)) is V_1(H(1,3)) x V_1(H(1,3)): the tree counters and the
    # closed-form product read a table space as they read the eigenspace
    line = make_family("hamming", n=1, e=3).space(1)
    pair = direct_sum([line, line], "line x line")
    assert (pair.dim, pair.modulus, pair.key, pair.name) == (4, 3, "line x line", "line x line")
    assert pair.labels == [(0, (1,)), (0, (2,)), (1, (1,)), (1, (2,))]
    assert not pair.table.flags.writeable
    for attr in ("family", "i", "rows"):
        assert not hasattr(pair, attr), attr
    square = make_family("hamming", n=2, e=3).space(2)
    counts = []
    for m in range(1, 7):
        classes = exact_partition(pair, m)
        assert classes == exact_partition(square, m), m
        counts.append(len(classes))
    assert counts == [1, 2, 5, 10, 21, 42]
    units = [AlgebraVector.unit(pair, k) for k in range(pair.dim)]
    for a, b in np.ndindex(pair.dim, pair.dim):
        target = pair.table[a, b]
        expected = AlgebraVector.zero(pair) if target < 0 else units[target]
        assert closed_form_product(units[a], units[b]) == expected


def test_of_table_refuses_a_table_that_is_not_one():
    labels = [(0,), (1,)]
    for table in ([[0, -1]], [[0, 2], [-1, 1]], [[0, -2], [-1, 1]]):
        with pytest.raises(ValueError):
            Space.of_table(table, 2, "bad", labels)
    table = np.array([[1, -1], [-1, 0]], dtype=np.int32)
    space = Space.of_table(table, 3, "copy", labels)
    assert table.flags.writeable and not np.shares_memory(table, space.table)


def _eta_permutation_images(e: int, perm: tuple[int, ...]) -> dict:
    # chi_k = ((e-2)/e) * sum_j (w^(-jk)) eta_j; the map sends eta_j to eta_perm(j)
    fam = make_family("hamming", n=1, e=e)
    eta_vecs = [eta(e, j).vector for j in range(e)]
    images = {}
    for k in range(1, e):
        out = AlgebraVector.zero(fam.space(1))
        for j in range(e):
            out = out + root_power(e, (-j * k) % e) * eta_vecs[perm[j]]
        images[(k,)] = Fraction(e - 2, e) * out
    return images


def test_eta_permutations_are_automorphisms():
    from itertools import permutations
    for e in (3, 4, 5):
        fam = make_family("hamming", n=1, e=e)
        for perm in permutations(range(e)):
            images = _eta_permutation_images(e, perm)
            assert vector_map_preserves_products(images, fam, 1)


def test_non_automorphism_detected():
    fam = make_family("hamming", n=1, e=4)
    images = {(1,): _basis_vec(fam, 1, (2,)), (2,): _basis_vec(fam, 1, (1,)),
              (3,): _basis_vec(fam, 1, (3,))}
    assert not vector_map_preserves_products(images, fam, 1)


def test_v2_q3_idempotents_by_brute_force():
    # The three basis characters square to zero and multiply cyclically, so a
    # vector with all coefficients +-1 squares to twice itself; the nonzero
    # idempotents carry +-1/2 coefficients with an even number of minus signs.
    fam = make_family("hypercube", n=3)
    basis = fam.space(2).labels
    half = Fraction(1, 2)
    grid = (Fraction(-1), -half, Fraction(0), half, Fraction(1))
    found = []
    for signs in product(grid, repeat=3):
        vec = vector(fam, 2, dict(zip(basis, signs)))
        if not vec.is_zero() and closed_form_product(vec, vec) == vec:
            found.append(signs)
    assert sorted(found) == sorted([
        (half, half, half), (half, -half, -half),
        (-half, half, -half), (-half, -half, half)])
    ones = vector(fam, 2, {lbl: 1 for lbl in basis})
    assert closed_form_product(ones, ones) == 2 * ones


def test_value_table_and_json_roundtrip():
    fam = make_family("hamming", n=1, e=5)
    v = eta(5, 2).vector
    payload = v.to_json()
    assert payload["family"] == "hamming(1,5)"
    assert set(payload["coeffs"]) == {"1", "2", "3", "4"}


# ---------------------------------------------------------------------------
# The integer-array vectors against the label-keyed Q(w) reference
# ---------------------------------------------------------------------------

ARRAY_SPACES = ([(make_family("hamming", n=1, e=e), 1) for e in range(2, 6)]
                + [(make_family("halved_cube", n=6), 2),
                   (make_family("bilinear", q=2, d=2, e=2), 1)])


def _random_label_vector(rng, fam, i, bits):
    """A LabelVector on a random part of the V_i basis with random rational
    power-basis coefficients of up to bits-bit numerators."""
    basis = fam.space(i).labels
    deg = len(Cyclotomic.zero(fam.modulus).coeffs)
    coeffs = {}
    for label in rng.sample(basis, rng.randint(1, len(basis))):
        coeffs[label] = Cyclotomic(fam.modulus, [
            Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**(bits // 2) + 1))
            for _ in range(deg)])
    return LabelVector(fam, i, coeffs)


@pytest.mark.parametrize("fam, i", ARRAY_SPACES, ids=lambda v: getattr(v, "describe", str)())
@pytest.mark.parametrize("bits", [3, 70])
def test_array_product_equals_the_label_reference(fam, i, bits):
    # at 70 bits the numerators and denominators pass 2^64, and stay exact
    rng = random.Random(bits * 31 + i)
    widest = 0
    for _ in range(6):
        u, v = (_random_label_vector(rng, fam, i, bits) for _ in range(2))
        a, b = u.array(), v.array()
        assert a.coeffs == u.coeffs and b.coeffs == v.coeffs
        prod = closed_form_product(a, b)
        assert prod.coeffs == label_product(u, v).coeffs
        assert (a + b).coeffs == (u + v).coeffs
        c = Cyclotomic(fam.modulus, [Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 9))
                                     for _ in range(len(Cyclotomic.zero(fam.modulus).coeffs))])
        assert (c * a - b).coeffs == (c * u + Fraction(-1) * v).coeffs
        for vec in (prod, a + b, c * a - b):
            widest = max([widest, vec.den] + [abs(x) for x in vec.num.ravel().tolist()])
    assert (widest > 2**64) == (bits == 70)


def test_array_json_equals_the_fraction_rendering():
    rng = random.Random(3)
    for fam, i in ARRAY_SPACES:
        for bits in (3, 70):
            u = _random_label_vector(rng, fam, i, bits)
            want = {fam.label_text(label): c.to_json() for label, c in sorted(u.coeffs.items())}
            assert u.array().to_json()["coeffs"] == want


def test_equal_vectors_have_equal_arrays():
    fam = make_family("hamming", n=1, e=5)
    chi = basis_vector(fam, 1, (1,))
    half = Fraction(1, 2) * chi
    assert 2 * (half + half) == chi + chi and hash(2 * (half + half)) == hash(chi + chi)
    assert (half - half).is_zero() and (half - half) == AlgebraVector.zero(fam.space(1))
    assert (half - half).den == 1 and half.den == 2
    assert Fraction(-3, 4) * chi == AlgebraVector(fam.space(1), -3 * chi.num, 4)
    # a vector is of the space with its family's key and i, whichever instance
    twin = AlgebraVector(HammingFamily(1, 5).space(1), chi.num)
    assert twin == chi and hash(twin) == hash(chi)
    other = AlgebraVector.unit(make_family("hamming", n=1, e=4).space(1), 0)
    assert twin != other
    with pytest.raises(ValueError, match=r"hamming\(1,5\) V_1 vs hamming\(1,4\) V_1"):
        chi + other
    assert not half.num.flags.writeable
    with pytest.raises(ValueError):
        root_power(7, 1) * chi


def _reference_eta(fam, e, j):
    """eta_j = (1/(e-2)) sum_k w^(jk) chi_k, by Q(w) division, keyed by label."""
    return LabelVector(fam, 1, {(k,): root_power(e, j * k) / (e - 2) for k in range(1, e)})


def test_eta_sums_equal_the_label_sums():
    # the one-matmul idempotents and nilpotents are the scaled eta sums
    for e in range(3, 10):
        fam = make_family("hamming", n=1, e=e)
        etas = {j: _reference_eta(fam, e, j) for j in range(1, e)}

        def eta_sum(subset, scale):
            out = LabelVector(fam, 1, {})
            for j in subset:
                out = out + etas[j]
            return Fraction(scale) * out

        for idem in classified_idempotents(e):
            scale = Fraction(e - 2, e - 2 * len(idem.support))
            assert idem.vector.coeffs == eta_sum(sorted(idem.support), scale).coeffs
        nilpotents = nilpotents_order2_classified(e)
        subsets = list(combinations(range(1, e), e // 2)) if e % 2 == 0 else []
        assert [vec.coeffs for vec in nilpotents] == [eta_sum(s, 1).coeffs for s in subsets]
        if e <= 6:
            for idem in classified_idempotents(e):
                lv = LabelVector(fam, 1, idem.vector.coeffs)
                assert label_product(lv, lv) == lv


def test_eta_sums_raise_before_an_int64_product_could_wrap(monkeypatch):
    # an entry is at most size * max(1, max|tail|): at 2^62 and size 2 that is 2^63
    monkeypatch.setattr(roots, "root_tail",
                        lambda e: np.full((4, e - 4), 2**62, dtype=np.int64))
    with pytest.raises(OverflowError):
        norton._eta_sums(5, 2, 1)
    assert len(norton._eta_sums(5, 1, 1)) == 4
