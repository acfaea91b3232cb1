"""Tests for exact cyclotomic arithmetic."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nortonalg
from nortonalg.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    field_degree,
    from_exponent_counts,
    root_power,
)
from nortonalg import roots
from nortonalg.roots import radical, root_sums, root_tail
from reference import power_remainders


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
    for e in range(1, 258):
        deg = field_degree(e)
        # x^k mod Phi_e by long division, for every k <= e - 1 and every
        # degree up to 2 phi(e) - 2 of a product of two canonical forms
        want = power_remainders(e, max(e, 2 * deg - 1))
        got = root_sums(np.eye(len(want), dtype=np.int64), e, 1)
        assert got.dtype == np.int64 and got.tolist() == want, e
        if e <= 9:
            for k in range(2 * e):
                assert root_power(e, k).coeffs == tuple(map(Fraction, want[k % e])), (e, k)


def test_root_sums_reduce_the_tail_powers_alone():
    # the powers below phi(e) stand as they are, so the tail's product equals
    # that of the whole reduction by long division
    rng = np.random.default_rng(7)
    for e in [*range(1, 65), 257]:
        deg = field_degree(e)
        tail = root_tail(e)
        assert tail.shape == (deg, e - deg) and tail.dtype == np.int64, e
        assert not tail.flags.writeable and root_tail(e) is tail
        hists = rng.integers(0, 40, (3, 5, e), dtype=np.int64)
        got = root_sums(hists, e, 40 * e)
        assert got.dtype == np.int64 and got.shape == (3, 5, deg), e
        assert (got == hists @ np.array(power_remainders(e, e))).all(), e


def test_root_sums_fold_and_reduce_rows_of_every_width():
    # rows of every width 1 .. 2e - 1, int64 under a total and exact objects
    # without one (Python ints past int64, and Fractions): w^e = 1 folds the
    # powers from e on, and a row narrower than phi(e) is padded with zeros
    rng = np.random.default_rng(11)
    for e in [*range(1, 65), 257]:
        deg = field_degree(e)
        powers = np.array(power_remainders(e, 2 * e - 1), dtype=np.int64).reshape(-1, deg)
        for width in range(1, 2 * e):
            rows = rng.integers(-9, 10, (2, width), dtype=np.int64)
            want = rows @ powers[:width]
            got = root_sums(rows, e, 9 * width)
            assert got.dtype == np.int64 and (got == want).all(), (e, width)
            exact = root_sums(rows.astype(object) << 64, e)
            assert exact.dtype == object and (exact == want.astype(object) << 64).all()
            if e <= 9:
                thirds = root_sums(rows.astype(object) * Fraction(1, 3), e)
                assert (thirds == want.astype(object) * Fraction(1, 3)).all(), (e, width)


RADICAL_ORDERS = [4, 8, 9, 12, 18, 30, 36, 60, 64, 100, 210, 256, 360, 1024, 4096]


def test_root_sums_through_the_radical_equal_long_division():
    # Phi_e(x) = Phi_r(x^s), r = rad(e): reduced by root_tail(r) alone, w^k
    # is x^k mod Phi_e by long division for every k < e, int64 and exact; at
    # e = 4096 for a sample of k, as the division side by side of all 4096
    # would hold 128 MiB
    rng = np.random.default_rng(17)
    for e in RADICAL_ORDERS:
        deg = field_degree(e)
        ks = np.arange(e) if e <= 1024 else np.unique(
            np.r_[0, deg - 1, deg, e - 1, rng.integers(0, e, 64)])
        want = power_remainders(e, e, ks)
        units = np.zeros((len(ks), e), dtype=np.int64)
        units[np.arange(len(ks)), ks] = 1
        got = root_sums(units, e, 1)
        assert got.dtype == np.int64 and got.tolist() == want, e
        exact = root_sums(units.astype(object) << 64, e)
        assert exact.dtype == object and (exact == np.array(want, dtype=object) << 64).all(), e
    assert [radical(e) for e in (4096, 360, 210, 1)] == [2, 30, 210, 1]


def test_root_sums_of_a_prime_power_hold_no_tail_of_its_order():
    # the tail of 4096 would be phi(e) * (e - phi(e)) int64s, 32 MiB; that of
    # rad(4096) = 2 is one entry
    rows = np.eye(8, 4096, 4088, dtype=np.int64)  # w^4088 .. w^4095
    roots.root_tail.cache_clear()
    tracemalloc.start()
    try:
        got = root_sums(rows, 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == -np.eye(8, 2048, 2040, dtype=np.int64)).all()  # w^2048 = -1
    assert peak < 2**20, peak


def test_only_roots_reads_the_tail():
    # root_sums is the one reduction mod Phi_e: no other module reads the tail
    package = Path(nortonalg.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py"))
               if "root_tail" in path.read_text()]
    assert readers == ["roots.py"]


def test_tail_of_a_large_prime_order_is_linear_in_e():
    # Phi_65537 has degree e - 1, so the tail is the one column of w^(e-1) =
    # -(1 + w + ... + w^(e-2)); the whole matrix would take phi(e) * e * 8
    # bytes, 32 GiB (about 40 bytes a residue here, with Phi_e's Python ints)
    e = 65537
    tracemalloc.start()
    try:
        tail = root_tail.__wrapped__(e)  # built under the trace, not read from the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tail.shape == (e - 1, 1) and (tail == -1).all()
    assert peak < 64 * e, peak
    # the e-th roots of unity sum to 0, and w^(e-1) is the tail's column
    hists = np.zeros((2, e), dtype=np.int64)
    hists[0] = 1
    hists[1, e - 1] = 3
    sums = root_sums(hists, e, e)
    assert not sums[0].any() and (sums[1] == -3).all()


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
