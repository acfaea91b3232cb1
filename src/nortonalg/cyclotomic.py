"""Exact arithmetic in the cyclotomic field Q(w), w = exp(2*pi*i/e).

Elements live in Q[x]/(Phi_e(x)) and are stored in the power basis
1, w, ..., w^(phi(e)-1) with arbitrary-precision rational coefficients, so
two field elements are equal exactly when their coefficient vectors are.
No floating point is used anywhere.  Phi_e and phi(e) come from `roots`,
and so does every canonical form: `roots.root_sums` reduces exact rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Union

# the package's modules before numpy: compiled from source, their scratch is
# freed before numpy loads and reused by it (tests/test_load_order.py)
from .linalg import row_reduce
from .roots import cyclotomic_polynomial, field_degree, root_sums  # Phi_e re-exported

import numpy as np

Scalar = Union[int, Fraction, "Cyclotomic"]


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
        # int numerators over one denominator each: no Fraction gcd per term
        (a, da), (b, db) = over_lcm(self.coeffs), over_lcm(self._coerce(other).coeffs)
        conv = [0] * (2 * len(a) - 1)
        for k, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[k + j] += x * y
        return from_exponent_counts(self.order, conv, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            frac = Fraction(other)
            if frac == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / frac)
        return self * self._coerce(other).inv()

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, the automorphism w -> w^(e-1), which fixes Q."""
        if self.is_rational():
            return self
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
    return from_exponent_counts(e, [0] * (k % e) + [1])


def over_lcm(coeffs) -> tuple[list[int], int]:
    """The numerators of rational coeffs over their least common denominator, and it."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def from_exponent_counts(e: int, counts, den: int = 1) -> Cyclotomic:
    """Sum of counts[k] * w^k / den in canonical form, for 1 to 2e - 1 rational
    counts (a residue histogram, or the product of two canonical forms),
    reduced by roots.root_sums as integers over the counts' least common
    denominator."""
    if not 0 < len(counts) < 2 * e:
        raise ValueError(f"expected 1 to {2 * e - 1} counts, got {len(counts)}")
    nums, lcd = over_lcm(counts)
    sums = root_sums(np.array(nums, dtype=object), e)
    return Cyclotomic(e, [Fraction(c, lcd * den) for c in sums.tolist()])

