"""Tests for finite abelian groups and their linear characters."""

from __future__ import annotations

import random

import numpy as np
import pytest

from nortonalg.cyclotomic import Cyclotomic, root_power
from nortonalg.errors import BudgetExceededError
from nortonalg.groups import (
    WordGroup,
    character_table,
    inner_product,
    is_prime,
    word_text,
)


def test_add_examples():
    g = WordGroup(2, 3)
    assert g.add((0, 1), (0, 1)) == (0, 2)
    assert g.add((1, 2), (2, 1)) == (0, 0)
    assert g.add((1, 1), (1, 2)) == (2, 0)


def test_add_length_mismatch():
    g = WordGroup(2, 3)
    with pytest.raises(ValueError):
        g.add((0, 1), (0, 1, 2))


def test_character_value_examples():
    g = WordGroup(2, 3)
    assert g.character_value((1, 0), (2, 0)) == root_power(3, 2)
    assert g.character_value((0, 0), (2, 1)) == Cyclotomic.one(3)
    assert g.character_value((1, 1), (2, 1)) == Cyclotomic.one(3)


def test_example_character_matrix_h23():
    # full 9x9 character matrix of Z_3^2, row u = 10, columns in vertex order
    g = WordGroup(2, 3)
    cols = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)]
    row_10 = [g.dot((1, 0), x) for x in cols]
    assert row_10 == [0, 1, 0, 2, 1, 0, 2, 1, 2]
    row_22 = [g.dot((2, 2), x) for x in cols]
    assert row_22 == [0, 2, 2, 1, 1, 1, 0, 0, 2]


def test_enumerate_elements():
    assert WordGroup(1, 2).elements() == [(0,), (1,)]
    assert WordGroup(2, 3).elements() == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert WordGroup(1, 2, shape=(1, 1)).elements() == [(0,), (1,)]


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        WordGroup(30, 2).elements()
    with pytest.raises(BudgetExceededError):
        WordGroup(4, 3).elements(budget=10)


def test_element_counts():
    assert len(WordGroup(3, 4).elements()) == 4**3
    assert len(WordGroup(4, 3, shape=(2, 2)).elements()) == 3**4
    assert WordGroup(6, 2, shape=(2, 3)).order == 2**6


def test_matrix_group_requires_prime():
    with pytest.raises(ValueError):
        WordGroup(4, 4, shape=(2, 2))
    with pytest.raises(ValueError):
        WordGroup(4, 3, shape=(2, 3))
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


def test_matrix_reshape_roundtrip():
    g = WordGroup(6, 5, shape=(2, 3))
    m = ((1, 2, 3), (4, 0, 2))
    assert g.as_matrix(g.flatten(m)) == m


def test_inner_product_orthonormal_small():
    for group in (WordGroup(2, 3), WordGroup(3, 2), WordGroup(4, 2, shape=(2, 2))):
        xs = group.elements()
        for u in xs:
            for v in xs:
                ip = inner_product(character_table(group, u), character_table(group, v))
                expected = 1 if u == v else 0
                assert ip == Cyclotomic.from_rational(group.modulus, expected)


def test_inner_product_length_mismatch():
    g = WordGroup(1, 2)
    with pytest.raises(ValueError):
        inner_product(character_table(g, (0,)), [Cyclotomic.one(2)] * 3)


def _dot_matrix(group) -> np.ndarray:
    xs = group.elements()
    arr = np.array(xs, dtype=np.int64)
    return (arr @ arr.T) % group.modulus


def test_character_multiplicativity_exhaustive():
    # chi_u(x + y) = chi_u(x) chi_u(y), all triples (u, x, y), |X| up to 512
    for group in (WordGroup(2, 3), WordGroup(4, 2), WordGroup(9, 2),
                  WordGroup(3, 8), WordGroup(4, 2, shape=(2, 2))):
        xs = group.elements()
        arr = np.array(xs, dtype=np.int64)
        n = len(xs)
        assert n <= 512
        e = group.modulus
        # lexicographic enumeration means index(x) is the base-e place value sum
        places = e ** np.arange(group.length - 1, -1, -1, dtype=np.int64)
        sum_index = ((arr[:, None, :] + arr[None, :, :]) % e) @ places
        dots = (arr @ arr.T % e).astype(np.int16)
        for j in range(n):
            row = dots[j]
            assert (row[sum_index] == (row[:, None] + row[None, :]) % e).all()


def test_product_of_characters_is_character():
    # chi_u(x) chi_v(x) = chi_{u+v}(x) for all u, v, x in small groups
    for group in (WordGroup(2, 3), WordGroup(3, 2), WordGroup(2, 3, shape=(1, 2))):
        xs = group.elements()
        dots = _dot_matrix(group)
        index = {x: k for k, x in enumerate(xs)}
        for j, u in enumerate(xs):
            for k, v in enumerate(xs):
                uv = index[group.add(u, v)]
                assert ((dots[j] + dots[k]) % group.modulus == dots[uv]).all()


def test_orthonormality_numpy_exhaustive_256():
    group = WordGroup(8, 2)
    xs = group.elements()
    n = len(xs)
    assert n == 256
    dots = _dot_matrix(group)
    # <chi_u, chi_v> * |X| = (count of 0 residues) - (count of 1 residues) at e = 2
    for j in range(n):
        diff = (dots[j][None, :] - dots) % 2
        ip = (diff == 0).sum(axis=1) - (diff == 1).sum(axis=1)
        expected = np.zeros(n, dtype=np.int64)
        expected[j] = n
        assert (ip == expected).all()


def test_orthonormality_sampled_above_256():
    group = WordGroup(10, 2)
    rng = random.Random(7)
    xs = group.elements()
    for _ in range(40):
        u, v = rng.choice(xs), rng.choice(xs)
        ip = inner_product(character_table(group, u), character_table(group, v))
        assert ip == Cyclotomic.from_rational(2, 1 if u == v else 0)


def test_support_and_weight():
    g = WordGroup(4, 3)
    assert g.support((0, 2, 0, 1)) == (2, 4)
    assert g.weight((0, 2, 0, 1)) == 2


def test_word_text():
    assert word_text((0, 1, 2), 3) == "012"
    assert word_text((0, 11), 12) == "0,11"
