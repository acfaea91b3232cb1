"""Sums of e-th roots of unity: the cyclotomic polynomial Phi_e, the degree
phi(e) of Q(w), w = exp(2*pi*i/e), and root_sums, the one reduction mod Phi_e
to the power basis 1, w, ..., w^(phi(e)-1), from which every canonical form
in Q(w) comes.  Only the powers w^k with k >= phi(e) change under it, and as
Phi_e(x) = Phi_r(x^s) for r = rad(e), s = e / r, their canonical forms are
those of the powers of the r-th root w^s, shifted: only those of order r are
built (root_tail(r)).  Nothing here loads `fractions`,
so the eigenvalue path (`cayley.spectrum`) loads no exact field arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials, denominator monic, remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd]
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact cyclotomic polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e (low degree first), by exact division of x^e - 1
    by the product of Phi_d over proper divisors d of e."""
    if e < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {e}")
    num = [-1] + [0] * (e - 1) + [1]
    for d in [d for d in range(1, e) if e % d == 0]:  # the proper divisors
        num = _div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def field_degree(e: int) -> int:
    """Degree of Q(w) over Q, i.e. phi(e)."""
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def radical(e: int) -> int:
    """rad(e), the product of the distinct primes dividing e >= 1."""
    rad, rest, p = 1, e, 2
    while p * p <= rest:
        if rest % p == 0:
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return rad * rest


@lru_cache(maxsize=None)
def root_tail(e: int) -> np.ndarray:
    """Read-only int64 matrix T of shape phi(e) x (e - phi(e)): T[r, j] is
    the coefficient of w^r in the canonical form of w^(phi(e) + j).  Column j
    is column j-1 times x, with x^phi(e) replaced by -(Phi_e - x^phi(e)),
    starting from w^(phi(e) - 1); the powers below phi(e) are their own
    canonical forms."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    top = -np.array(phi[:deg], dtype=np.int64)
    tail = np.zeros((deg, e - deg), dtype=np.int64)
    prev = np.zeros(deg, dtype=np.int64)
    prev[-1] = 1  # w^(deg - 1)
    for k in range(e - deg):
        col = tail[:, k]
        col[1:] = prev[:-1]
        col += prev[-1] * top
        prev = col
    tail.flags.writeable = False
    return tail


def root_sums(rows: np.ndarray, e: int, total: int | None = None) -> np.ndarray:
    """The canonical forms of sum_k rows[..., k] w^k, rows of any width below
    2e: w^e = 1 folds w^k onto w^(k - e).  With r = rad(e), s = e / r and
    k = s q + t, t < s, w^k is w^t times (w^s)^q, and w^s has order r: the w^k
    with q >= phi(r), which are those from phi(e) = s phi(r) on, add their
    coefficients times T[a, q - phi(r)] to that of w^(s a + t), T = root_tail(r).
    Given a total, rows are int64, each adding up to at most total, and
    OverflowError is raised before an entry could pass 2^63, which
    total * max(1, max|T|) bounds; without one, they are exact objects
    (Python ints or Fractions)."""
    r = radical(e)
    tail, s, width = root_tail(r), e // r, rows.shape[-1]
    low = len(tail)  # phi(r)
    deg = s * low  # phi(e)
    if total is not None:
        most = max(1, int(tail.max(initial=0)), -int(tail.min(initial=0)))  # with no |T| copy
        if total * most >= 2**63:
            raise OverflowError(f"root sums of e={e} exceed int64")
    if width > e:  # w^e = 1
        rows = np.concatenate((rows[..., :width - e] + rows[..., e:], rows[..., width - e:e]), -1)
        width = e
    if width <= deg:  # canonical already; the missing powers count zero
        return np.concatenate((rows, np.zeros((*rows.shape[:-1], deg - width), rows.dtype)), -1)
    span = -(-width // s)  # the q of the highest power, plus one
    if span * s > width:
        pad = np.zeros((*rows.shape[:-1], span * s - width), rows.dtype)
        rows = np.concatenate((rows, pad), -1)
    grid = rows.reshape(*rows.shape[:-1], span, s)  # [..., q, t]: the coefficient of w^(s q + t)
    high = np.swapaxes(grid[..., low:, :], -1, -2)  # one 2-d product, a view when s = 1
    out = high.reshape(-1, span - low) @ tail[:, :span - low].T
    out = np.swapaxes(out.reshape(*high.shape[:-1], low), -1, -2)
    out += grid[..., :low, :]
    return out.reshape(*rows.shape[:-1], deg)
