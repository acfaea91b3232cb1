"""Tests for the shared exact row reduction."""

from __future__ import annotations

from fractions import Fraction

from nortonalg.cyclotomic import Cyclotomic, root_power
from nortonalg.linalg import row_reduce


def test_row_reduce_over_q():
    # x + y = 3, x - y = 1 has the unique solution (2, 1)
    rows = [[Fraction(1), Fraction(1), Fraction(3)], [Fraction(1), Fraction(-1), Fraction(1)]]
    reduced, pivots = row_reduce(rows, lambda x: 1 / x)
    assert pivots == [0, 1]
    assert reduced == [[1, 0, 2], [0, 1, 1]]
    # x + y = 1, 2x + 2y = 3 is inconsistent: the constant column is a pivot
    rows = [[Fraction(1), Fraction(1), Fraction(1)], [Fraction(2), Fraction(2), Fraction(3)]]
    assert row_reduce(rows, lambda x: 1 / x)[1] == [0, 2]


def test_row_reduce_over_fq_and_cyclotomic():
    fq = row_reduce([[2, 4], [1, 2]], lambda v: pow(v, -1, 5), lambda row: [v % 5 for v in row])
    assert fq == ([[1, 2], [0, 0]], [0])
    w = root_power(3, 1)
    one, zero = Cyclotomic.one(3), Cyclotomic.zero(3)
    # rows (1, w) and (w, w^2) are dependent; (1, 0) is not
    assert row_reduce([[one, w], [w, w * w]], Cyclotomic.inv)[1] == [0]
    assert row_reduce([[one, w], [one, zero]], Cyclotomic.inv)[1] == [0, 1]
    assert row_reduce([], Cyclotomic.inv) == ([], [])
