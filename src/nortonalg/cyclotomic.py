"""Exact arithmetic in the cyclotomic field Q(w), w = exp(2*pi*i/e).

Elements live in Q[x]/(Phi_e(x)) and are stored in the power basis
1, w, ..., w^(phi(e)-1) with arbitrary-precision rational coefficients, so
two field elements are equal exactly when their coefficient vectors are.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

from .linalg import row_reduce

Scalar = Union[int, Fraction, "Cyclotomic"]


def _divisors(e: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= e:
        if e % k == 0:
            small.append(k)
            if k != e // k:
                large.append(e // k)
        k += 1
    return small + large[::-1]


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
    for d in _divisors(e)[:-1]:
        num = _div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def field_degree(e: int) -> int:
    """Degree of Q(w) over Q, i.e. phi(e)."""
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def _power_rows(e: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficient rows of x^k mod Phi_e for k = 0 .. max(e-1, 2*deg-2)."""
    phi = cyclotomic_polynomial(e)
    deg = field_degree(e)
    top = max(e - 1, 2 * deg - 2, deg - 1)
    rows: list[list[int]] = [[0] * deg for _ in range(top + 1)]
    for k in range(min(deg, top + 1)):
        rows[k][k] = 1
    for k in range(deg, top + 1):
        prev = rows[k - 1]
        shifted = [0] + prev[:-1]
        lead = prev[-1]
        if lead:
            for j in range(deg):
                shifted[j] -= lead * phi[j]
        rows[k] = shifted
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def _power_terms(e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (position, coefficient) terms of each row of _power_rows."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in _power_rows(e))


def root_reduction_matrix(e: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix R with R[r][k] = coefficient of w^r in the canonical form
    of w^k, for k = 0 .. e-1.  Shape phi(e) x e."""
    rows = _power_rows(e)
    deg = field_degree(e)
    return tuple(tuple(rows[k][r] for k in range(e)) for r in range(deg))


_ZERO = Fraction(0)
_ONE = Fraction(1)


class Cyclotomic:
    """A canonical element of Q(w) of a fixed order e."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        deg = field_degree(order)
        cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(cs) != deg:
            raise ValueError(f"expected {deg} coefficients for order {order}, got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @classmethod
    def zero(cls, e: int) -> "Cyclotomic":
        return cls(e, (_ZERO,) * field_degree(e))

    @classmethod
    def one(cls, e: int) -> "Cyclotomic":
        return cls.from_rational(e, _ONE)

    @classmethod
    def from_rational(cls, e: int, value) -> "Cyclotomic":
        cs = [_ZERO] * field_degree(e)
        cs[0] = Fraction(value)
        return cls(e, cs)

    def _coerce(self, other: Scalar) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        raise TypeError(f"cannot combine Cyclotomic with {type(other).__name__}")

    def __add__(self, other: Scalar) -> "Cyclotomic":
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        o = self._coerce(other)
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        o = self._coerce(other)
        return Cyclotomic(self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        return self._coerce(other) - self

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Cyclotomic.zero(self.order)
            return Cyclotomic(self.order, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        deg = field_degree(self.order)
        conv = [_ZERO] * (2 * deg - 1)
        for k, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[k + j] += a * b
        out = conv[:deg]
        rows = _power_rows(self.order)
        for k in range(deg, len(conv)):
            c = conv[k]
            if c:
                row = rows[k]
                for j in range(deg):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclotomic(self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            frac = Fraction(other)
            if frac == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / frac)
        return self * self._coerce(other).inv()

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, the automorphism w -> w^(e-1)."""
        e = self.order
        counts = [_ZERO] * e
        for k, c in enumerate(self.coeffs):
            counts[-k % e] = c
        return from_exponent_counts(e, counts)

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse: the solution y of x*y = 1, by exact elimination
        on the matrix of multiplication by x, whose column k is x*w^k."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        e, deg = self.order, field_degree(self.order)
        columns = [(self * root_power(e, k)).coeffs for k in range(deg)]
        rows = [[col[r] for col in columns] + [_ONE if r == 0 else _ZERO] for r in range(deg)]
        reduced, _ = row_reduce(rows, lambda a: 1 / a)
        return Cyclotomic(e, [row[deg] for row in reduced])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return f.numerator

    def to_json(self) -> dict:
        return {
            "e": self.order,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Cyclotomic":
        coeffs = [Fraction(int(num), int(den)) for num, den in obj["coeffs"]]
        return cls(int(obj["e"]), coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        return (self.is_rational() and other.is_rational()
                and self.coeffs[0] == other.coeffs[0])

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclotomic(e={self.order}, {self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mon = "w" if k == 1 else f"w^{k}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@lru_cache(maxsize=None)
def root_power(e: int, k: int = 0) -> Cyclotomic:
    """w^(k mod e), reduced mod Phi_e."""
    if e < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {e}")
    row = _power_rows(e)[k % e]
    return Cyclotomic(e, row)


def from_exponent_counts(e: int, counts) -> Cyclotomic:
    """Sum of counts[r] * w^r over r = 0..e-1, reduced to canonical form.

    counts may be any rational sequence of length e; with integer counts this
    is the exact value of a sum of roots of unity given as a residue histogram.
    """
    if len(counts) != e:
        raise ValueError(f"expected {e} counts, got {len(counts)}")
    terms = _power_terms(e)
    out = [0] * field_degree(e)
    for r, c in enumerate(counts):
        if c:
            for j, v in terms[r]:
                out[j] += c * v
    return Cyclotomic(e, out)

