"""Tests for finite abelian groups and their linear characters: the group
law and vertex enumeration of the package, and the per-element Q(w)
references of tests/reference.py."""

from __future__ import annotations

import random

import numpy as np
import pytest

from nortonalg import families
from nortonalg.cyclotomic import Cyclotomic, root_power
from nortonalg.errors import BudgetExceededError
from nortonalg.families import BilinearFamily, HammingFamily, _words, make_family
from nortonalg.groups import is_prime, word_text
from reference import (
    character_table,
    character_value,
    closed_product,
    elements,
    flatten,
    in_basis,
    inner_product,
    support,
    word_add,
    word_dot,
)


def test_add_examples():
    assert word_add((0, 1), (0, 1), 3) == (0, 2)
    assert word_add((1, 2), (2, 1), 3) == (0, 0)
    assert word_add((1, 1), (1, 2), 3) == (2, 0)


def test_add_length_mismatch():
    # a label of another length is no element of the group: the family's
    # product refuses it before adding
    with pytest.raises(ValueError):
        closed_product(HammingFamily(2, 3), 1, (0, 1), (0, 1, 2))


def test_character_value_examples():
    assert character_value((1, 0), (2, 0), 3) == root_power(3, 2)
    assert character_value((0, 0), (2, 1), 3) == Cyclotomic.one(3)
    assert character_value((1, 1), (2, 1), 3) == Cyclotomic.one(3)


def test_example_character_matrix_h23():
    # full 9x9 character matrix of Z_3^2, row u = 10, columns in vertex order
    cols = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)]
    row_10 = [word_dot((1, 0), x, 3) for x in cols]
    assert row_10 == [0, 1, 0, 2, 1, 0, 2, 1, 2]
    row_22 = [word_dot((2, 2), x, 3) for x in cols]
    assert row_22 == [0, 2, 2, 1, 1, 1, 0, 0, 2]


def _tuples(rows: np.ndarray) -> list:
    return list(map(tuple, rows.tolist()))


def test_enumerate_elements():
    assert _tuples(_words(2, 1)) == [(0,), (1,)]
    assert _tuples(_words(3, 2)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert _tuples(_words(2, 1)) == elements(1, 2)
    assert _tuples(_words(5, 0)) == [()]  # the one word of length 0


def test_enumeration_budget(monkeypatch):
    with pytest.raises(BudgetExceededError):
        HammingFamily(30, 2).vertices()
    monkeypatch.setattr(families, "DEFAULT_VERTEX_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        HammingFamily(4, 3).vertices()  # a private instance: no cached rows


def test_element_counts():
    assert len(_words(4, 3)) == 4**3
    assert len(BilinearFamily(3, 2, 2).vertices()) == 3**4
    assert BilinearFamily(2, 2, 3).vertex_count() == 2**6


def test_matrix_group_requires_prime():
    with pytest.raises(ValueError):
        make_family("bilinear", q=4, d=2, e=2)
    with pytest.raises(ValueError):
        make_family("bilinear", q=3, d=3, e=2)  # d x e with d > e
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


def test_matrix_reshape_roundtrip():
    fam = BilinearFamily(5, 2, 3)
    m = ((1, 2, 3), (4, 0, 2))
    assert fam._matrix(flatten(m, 5)) == m


def test_inner_product_orthonormal_small():
    for n, e in ((2, 3), (3, 2), (4, 2)):
        xs = elements(n, e)
        for u in xs:
            for v in xs:
                ip = inner_product(character_table(n, e, u), character_table(n, e, v))
                expected = 1 if u == v else 0
                assert ip == Cyclotomic.from_rational(e, expected)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(character_table(1, 2, (0,)), [Cyclotomic.one(2)] * 3)


def _dot_matrix(n: int, e: int) -> np.ndarray:
    xs = elements(n, e)
    arr = np.array(xs, dtype=np.int64)
    return (arr @ arr.T) % e


def test_character_multiplicativity_exhaustive():
    # chi_u(x + y) = chi_u(x) chi_u(y), all triples (u, x, y), |X| up to 512
    for length, e in ((2, 3), (4, 2), (9, 2), (3, 8), (4, 2)):
        xs = elements(length, e)
        arr = np.array(xs, dtype=np.int64)
        n = len(xs)
        assert n <= 512
        # lexicographic enumeration means index(x) is the base-e place value sum
        places = e ** np.arange(length - 1, -1, -1, dtype=np.int64)
        sum_index = ((arr[:, None, :] + arr[None, :, :]) % e) @ places
        dots = (arr @ arr.T % e).astype(np.int16)
        for j in range(n):
            row = dots[j]
            assert (row[sum_index] == (row[:, None] + row[None, :]) % e).all()


def test_product_of_characters_is_character():
    # chi_u(x) chi_v(x) = chi_{u+v}(x) for all u, v, x in small groups
    for n, e in ((2, 3), (3, 2), (2, 3)):
        xs = elements(n, e)
        dots = _dot_matrix(n, e)
        index = {x: k for k, x in enumerate(xs)}
        for j, u in enumerate(xs):
            for k, v in enumerate(xs):
                uv = index[word_add(u, v, e)]
                assert ((dots[j] + dots[k]) % e == dots[uv]).all()


def test_orthonormality_numpy_exhaustive_256():
    xs = elements(8, 2)
    n = len(xs)
    assert n == 256
    dots = _dot_matrix(8, 2)
    # <chi_u, chi_v> * |X| = (count of 0 residues) - (count of 1 residues) at e = 2
    for j in range(n):
        diff = (dots[j][None, :] - dots) % 2
        ip = (diff == 0).sum(axis=1) - (diff == 1).sum(axis=1)
        expected = np.zeros(n, dtype=np.int64)
        expected[j] = n
        assert (ip == expected).all()


def test_orthonormality_sampled_above_256():
    rng = random.Random(7)
    xs = elements(10, 2)
    for _ in range(40):
        u, v = rng.choice(xs), rng.choice(xs)
        ip = inner_product(character_table(10, 2, u), character_table(10, 2, v))
        assert ip == Cyclotomic.from_rational(2, 1 if u == v else 0)


def test_support_and_weight():
    # the weight is the Hamming family's V_i membership
    fam = HammingFamily(4, 3)
    assert support((0, 2, 0, 1)) == (2, 4)
    assert in_basis(fam, 2, (0, 2, 0, 1)) and not in_basis(fam, 1, (0, 2, 0, 1))


def test_word_text():
    assert word_text((0, 1, 2), 3) == "012"
    assert word_text((0, 11), 12) == "0,11"
