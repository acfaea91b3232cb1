"""Tests for Norton algebra vectors, the projection oracle, and idempotents."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from nortonalg import cayley, norton
from nortonalg.cyclotomic import Cyclotomic, root_power
from nortonalg.errors import BudgetExceededError
from nortonalg.families import HammingFamily, make_family
from nortonalg.norton import (
    AlgebraVector,
    BasisAlgebra,
    classified_idempotents,
    closed_form_product,
    eta,
    eta_relations_check,
    find_identity,
    nilpotents_order2_classified,
    primitivity_facts_check,
    verify_isomorphism,
    verify_oracle_space,
)
from reference import oracle_product, value_table, vector_map_preserves_products


def _basis_vec(fam, i, label):
    return AlgebraVector.basis_vector(fam, i, label)


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
    assert closed_form_product(AlgebraVector.zero(fam, 1), v).is_zero()


def test_products_random_bilinear_commutative():
    rng = random.Random(11)
    fam = make_family("hamming", n=2, e=4)
    basis = fam.basis(1)

    def rand_vec():
        return AlgebraVector(fam, 1, {
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
        result = {i: verify_oracle_space(fam, i) for i in fam.eigenspaces()}
        assert all(result.values()), fam.describe()


def test_verify_oracle_matches_pairwise_oracle():
    fam = make_family("halved_cube", n=4)
    for i in fam.eigenspaces():
        for a in fam.basis(i):
            for b in fam.basis(i):
                got = oracle_product(_basis_vec(fam, i, a), _basis_vec(fam, i, b))
                want = closed_form_product(_basis_vec(fam, i, a), _basis_vec(fam, i, b))
                assert got == want


def test_verify_oracle_budget():
    fam = make_family("hypercube", n=13)
    with pytest.raises(BudgetExceededError):
        verify_oracle_space(fam, 1)


def test_verify_oracle_rejects_one_changed_entry():
    fam = HammingFamily(2, 3)  # a private instance: its cached table is replaced
    good = fam.product_table(2)
    (a, b), (c, d) = np.argwhere(good >= 0)[0], np.argwhere(good < 0)[0]
    changes = [((a, b), (good[a, b] + 1) % len(good)),  # position -> other position
               ((a, b), -1),                            # position -> zero
               ((c, d), 0)]                             # zero -> position
    for (r, s), value in changes:
        table = good.copy()
        table[r, s] = value
        fam._tables[2] = table
        assert not verify_oracle_space(fam, 2), ((r, s), value)
    fam._tables[2] = good
    assert verify_oracle_space(fam, 2)


def test_verify_oracle_rejects_coinciding_basis_rows(monkeypatch):
    # on the one-vertex set {0} every character takes the value 1
    fam = HammingFamily(2, 3)
    monkeypatch.setattr(fam, "vertices", lambda budget=None: np.zeros((1, 2), np.uint8))
    assert not verify_oracle_space(fam, 1)
    # on 12 vertices with last entry 0, chi_11 = chi_12 in V_2: value rows of 24 bits
    # are looked up by byte key, not by the dense code index
    rows = np.array([(a, 0) for a in range(3)] * 4, np.uint8)
    assert rows.shape[0] * 2 > cayley.DENSE_CODE_BITS
    monkeypatch.setattr(fam, "vertices", lambda budget=None: rows)
    assert not verify_oracle_space(fam, 2)


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
            out = AlgebraVector.zero(etas[0].family, 1)
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
    for e in (3, 4, 5, 6, 7):
        assert primitivity_facts_check(e)
    with pytest.raises(BudgetExceededError):
        primitivity_facts_check(9)


def test_find_identity_examples():
    fam = make_family("hamming", n=2, e=3)
    ident = find_identity(fam, 0)
    assert ident == _basis_vec(fam, 0, (0, 0))
    assert find_identity(fam, 1) is None
    assert find_identity(make_family("hypercube", n=3), 2) is None


def test_find_identity_checks_the_dimension_before_the_basis(monkeypatch):
    fam = HammingFamily(5, 4)  # V_3 has dimension 270, over the 256 of the solve

    def no_basis(i):
        raise AssertionError("basis enumerated before the dimension check")

    monkeypatch.setattr(fam, "_make_basis", no_basis)
    with pytest.raises(BudgetExceededError):
        find_identity(fam, 3)


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
    fam = make_family("hamming", n=2, e=3)
    alg = BasisAlgebra.from_eigenspace(fam, 1)
    assert verify_isomorphism({lbl: lbl for lbl in alg.labels}, alg, alg)


def test_verify_isomorphism_folded_to_hypercube():
    dom = BasisAlgebra.from_eigenspace(make_family("folded_cube", n=4), 1)
    cod = BasisAlgebra.from_eigenspace(make_family("hypercube", n=4), 2)
    assert verify_isomorphism({lbl: lbl for lbl in dom.labels}, dom, cod)


def test_verify_isomorphism_pairing_decomposition():
    # V_2(H(2,3)) splits into the spans of {chi_11, chi_22} and {chi_12, chi_21}600
    dom = BasisAlgebra.from_eigenspace(make_family("hamming", n=2, e=3), 2)
    line = BasisAlgebra.from_eigenspace(make_family("hamming", n=1, e=3), 1)
    cod = BasisAlgebra.direct_product([line, line])
    mapping = {(1, 1): (0, (1,)), (2, 2): (0, (2,)),
               (1, 2): (1, (1,)), (2, 1): (1, (2,))}
    assert verify_isomorphism(mapping, dom, cod)


def test_direct_product_table_is_block_diagonal():
    line = BasisAlgebra.from_eigenspace(make_family("hamming", n=1, e=3), 1)
    assert line.table.tolist() == [[1, -1], [-1, 0]]
    both = BasisAlgebra.direct_product([line, line])
    assert both.labels == [(0, (1,)), (0, (2,)), (1, (1,)), (1, (2,))]
    assert both.table.tolist() == [[1, -1, -1, -1], [-1, 0, -1, -1],
                                   [-1, -1, 3, -1], [-1, -1, -1, 2]]


def test_verify_isomorphism_rejects_non_bijection():
    fam = make_family("hamming", n=2, e=3)
    alg = BasisAlgebra.from_eigenspace(fam, 1)
    bad = {lbl: alg.labels[0] for lbl in alg.labels}
    with pytest.raises(ValueError):
        verify_isomorphism(bad, alg, alg)


def test_verify_isomorphism_detects_broken_map():
    # swapping chi_01 with chi_10 breaks the squares of V_1(H(2,3))
    fam = make_family("hamming", n=2, e=3)
    alg = BasisAlgebra.from_eigenspace(fam, 1)
    mapping = {(0, 1): (1, 0), (1, 0): (0, 1), (0, 2): (0, 2), (2, 0): (2, 0)}
    assert not verify_isomorphism(mapping, alg, alg)


def _eta_permutation_images(e: int, perm: tuple[int, ...]) -> dict:
    # chi_k = ((e-2)/e) * sum_j (w^(-jk)) eta_j; the map sends eta_j to eta_perm(j)
    fam = make_family("hamming", n=1, e=e)
    eta_vecs = [eta(e, j).vector for j in range(e)]
    images = {}
    for k in range(1, e):
        out = AlgebraVector.zero(fam, 1)
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
    basis = fam.basis(2)
    half = Fraction(1, 2)
    grid = (Fraction(-1), -half, Fraction(0), half, Fraction(1))
    found = []
    for signs in product(grid, repeat=3):
        vec = AlgebraVector(fam, 2, dict(zip(basis, signs)))
        if not vec.is_zero() and closed_form_product(vec, vec) == vec:
            found.append(signs)
    assert sorted(found) == sorted([
        (half, half, half), (half, -half, -half),
        (-half, half, -half), (-half, -half, half)])
    ones = AlgebraVector(fam, 2, {lbl: 1 for lbl in basis})
    assert closed_form_product(ones, ones) == 2 * ones


def test_value_table_and_json_roundtrip():
    fam = make_family("hamming", n=1, e=5)
    v = eta(5, 2).vector
    payload = v.to_json()
    assert payload["family"] == "hamming(1,5)"
    assert set(payload["coeffs"]) == {"1", "2", "3", "4"}
