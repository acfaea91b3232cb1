"""Sums of e-th roots of unity in integers: the cyclotomic polynomial Phi_e,
the degree phi(e) of Q(w), w = exp(2*pi*i/e), and the reduction of a
residue histogram sum_r h_r w^r to the power basis 1, w, ..., w^(phi(e)-1).

Only the powers w^k with k >= phi(e) change under reduction mod Phi_e, so
only their canonical forms are built (root_tail).  Everything here is
integer arithmetic, so the eigenvalue path (`cayley.spectrum`) reads it
without loading `fractions` or the exact field arithmetic of `cyclotomic`.
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


def root_sums(hists: np.ndarray, e: int, total: int) -> np.ndarray:
    """The canonical forms of sum_r hists[..., r] w^r for int64 residue
    histograms hists (... x e) whose rows each add up to at most total:
    the counts of w^r below phi(e) as they stand, plus the rest times the
    tail T = root_tail(e) transposed.  Raises OverflowError before any
    entry could pass 2^63, which total * max(1, max|T|) bounds."""
    tail = root_tail(e)
    deg = field_degree(e)
    most = max(1, int(tail.max(initial=0)), -int(tail.min(initial=0)))  # with no |T| copy
    if total * most >= 2**63:
        raise OverflowError(f"root sums of e={e} exceed int64")
    return hists[..., :deg] + hists[..., deg:] @ tail.T
