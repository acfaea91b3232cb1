"""Tests for exact cyclotomic arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nortonalg.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    field_degree,
    from_exponent_counts,
    root_power,
    root_reduction_matrix,
)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_product_of_cyclotomics_is_x_pow_e_minus_one():
    # x^e - 1 = prod over d | e of Phi_d, checked by multiplying back
    for e in range(1, 30):
        prod = [Fraction(1)]
        for d in range(1, e + 1):
            if e % d == 0:
                phi = [Fraction(c) for c in cyclotomic_polynomial(d)]
                new = [Fraction(0)] * (len(prod) + len(phi) - 1)
                for k, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[k + j] += a * b
                prod = new
        expected = [Fraction(-1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
        assert prod == expected


def test_root_power_examples():
    assert root_power(3, 0) == Cyclotomic.one(3)
    assert root_power(4, 2) == Cyclotomic.from_rational(4, -1)
    assert root_power(3, 1) + root_power(3, 2) == Cyclotomic.from_rational(3, -1)


def test_root_sum_identity():
    # sum over k of w^(j*k) is e when j = 0 mod e and 0 otherwise
    for e in range(1, 13):
        for j in range(e):
            total = Cyclotomic.zero(e)
            for k in range(e):
                total = total + root_power(e, j * k)
            expected = e if j == 0 else 0
            assert total == Cyclotomic.from_rational(e, expected)


def test_conj_and_mul_examples():
    w = root_power(3, 1)
    assert w.conj() == root_power(3, 2)
    assert w * root_power(3, 2) == Cyclotomic.one(3)
    assert Cyclotomic.from_rational(4, 2).inv() == Cyclotomic.from_rational(4, Fraction(1, 2))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        root_power(3, 1) + root_power(4, 1)
    with pytest.raises(ValueError):
        root_power(3, 1) * root_power(4, 1)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(5).inv()


def _random_element(rng: random.Random, e: int) -> Cyclotomic:
    deg = field_degree(e)
    return Cyclotomic(e, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(deg)])


def test_field_axioms_random_triples():
    rng = random.Random(0)
    checked = 0
    while checked < 1200:
        e = rng.randint(2, 8)
        x, y, z = (_random_element(rng, e) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)
        checked += 1


def test_conj_properties_random():
    rng = random.Random(1)
    for _ in range(300):
        e = rng.randint(2, 9)
        x, y = _random_element(rng, e), _random_element(rng, e)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()


def test_inverse_random():
    rng = random.Random(2)
    done = 0
    while done < 200:
        e = rng.randint(2, 16)
        x = _random_element(rng, e)
        if x.is_zero():
            continue
        assert x * x.inv() == Cyclotomic.one(e)
        done += 1


@settings(max_examples=60, deadline=None)
@given(
    e=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_add_mul_commute_hypothesis(e, data):
    deg = field_degree(e)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = Cyclotomic(e, data.draw(st.lists(coeff, min_size=deg, max_size=deg)))
    y = Cyclotomic(e, data.draw(st.lists(coeff, min_size=deg, max_size=deg)))
    assert x + y == y + x
    assert x * y == y * x


def test_canonical_equality_survives_serialization():
    rng = random.Random(3)
    for _ in range(100):
        e = rng.randint(1, 9)
        x = _random_element(rng, e)
        assert Cyclotomic.from_json(x.to_json()) == x


def test_degenerate_orders_are_rational():
    assert root_power(1, 5) == Cyclotomic.one(1)
    assert root_power(2, 1) == Cyclotomic.from_rational(2, -1)
    assert root_power(2, 1) * root_power(2, 1) == Cyclotomic.one(2)


def test_from_exponent_counts():
    for e in range(1, 9):
        rng = random.Random(e)
        counts = [rng.randint(0, 7) for _ in range(e)]
        total = Cyclotomic.zero(e)
        for r, c in enumerate(counts):
            total = total + c * root_power(e, r)
        assert from_exponent_counts(e, counts) == total


def test_root_reduction_matrix_agrees_with_root_power():
    for e in range(1, 10):
        mat = root_reduction_matrix(e)
        deg = field_degree(e)
        assert len(mat) == deg
        for k in range(e):
            col = tuple(Fraction(mat[r][k]) for r in range(deg))
            assert Cyclotomic(e, col) == root_power(e, k)


def test_rational_helpers():
    x = Cyclotomic.from_rational(5, Fraction(7, 3))
    assert x.is_rational()
    assert x.as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        root_power(5, 1).as_fraction()
    assert Cyclotomic.from_rational(5, -2).as_int() == -2
    with pytest.raises(ValueError):
        x.as_int()


def test_division_by_scalar():
    w = root_power(5, 1)
    assert (w / 2) * 2 == w
    assert w / w == Cyclotomic.one(5)
