"""Finite abelian groups Z_e^n and Mat_{d,e}(F_q), with their linear characters.

Group elements are plain tuples of residues (matrices flattened row-major).
Characters are indexed by group elements: the character indexed by u takes
x to w^(u.x) where u.x is the entrywise dot product mod the modulus.  Their
values are computed in Q(w), so `cyclotomic` is imported by the functions
that compute them, not by this module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import BudgetExceededError

Word = tuple[int, ...]

DEFAULT_ENUM_BUDGET = 2**20


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    k = 2
    while k * k <= m:
        if m % k == 0:
            return False
        k += 1
    return True


def word_add(x: Sequence[int], y: Sequence[int], e: int) -> Word:
    """The group law of Z_e^n: entrywise sum mod e."""
    return tuple((a + b) % e for a, b in zip(x, y))


def word_dot(u: Sequence[int], x: Sequence[int], e: int) -> int:
    """Exponent of the character indexed by u at x, an integer mod e; for
    matrices this is tr(u^t x)."""
    return sum(a * b for a, b in zip(u, x)) % e


class WordGroup:
    """Z_e^n: words of length n over residues mod e, added entrywise.

    With a shape (rows, cols), rows * cols = n, the words are row-major
    flattened rows x cols matrices over F_e, which requires a prime e."""

    def __init__(self, n: int, e: int, shape: tuple[int, int] | None = None) -> None:
        if n < 1:
            raise ValueError(f"word length must be >= 1, got {n}")
        if e < 2:
            raise ValueError(f"alphabet modulus must be >= 2, got {e}")
        if shape is not None:
            if min(shape) < 1 or shape[0] * shape[1] != n:
                raise ValueError(f"matrix shape {shape} does not match word length {n}")
            if not is_prime(e):
                raise ValueError(f"matrix group requires a prime modulus, got {e}")
        self.n = n
        self.e = e
        self.shape = shape

    @property
    def length(self) -> int:
        return self.n

    @property
    def modulus(self) -> int:
        return self.e

    @property
    def order(self) -> int:
        return self.e**self.n

    def _check(self, x: Word) -> None:
        if len(x) != self.n:
            raise ValueError(f"element length {len(x)} does not match group length {self.n}")

    def add(self, x: Word, y: Word) -> Word:
        self._check(x)
        self._check(y)
        return word_add(x, y, self.e)

    def dot(self, u: Word, x: Word) -> int:
        self._check(u)
        self._check(x)
        return word_dot(u, x, self.e)

    def support(self, x: Word) -> tuple[int, ...]:
        """1-based positions of the nonzero entries."""
        return tuple(j + 1 for j, a in enumerate(x) if a)

    def weight(self, x: Word) -> int:
        return sum(1 for a in x if a)

    def as_matrix(self, x: Word) -> tuple[tuple[int, ...], ...]:
        self._check(x)
        rows, cols = self.shape
        return tuple(x[r * cols:(r + 1) * cols] for r in range(rows))

    def flatten(self, m: Sequence[Sequence[int]]) -> Word:
        return tuple(entry % self.e for row in m for entry in row)

    def elements(self, budget: int | None = None) -> list[Word]:
        """All group elements in lexicographic order on entry vectors."""
        limit = DEFAULT_ENUM_BUDGET if budget is None else budget
        if self.order > limit:
            raise BudgetExceededError(
                f"group order {self.order} exceeds enumeration budget {limit}")
        return _word_elements(self.n, self.e)

    def character_value(self, u: Word, x: Word):
        from .cyclotomic import root_power
        return root_power(self.e, self.dot(u, x))

    def __eq__(self, other) -> bool:
        return isinstance(other, WordGroup) and (
            (self.n, self.e, self.shape) == (other.n, other.e, other.shape))

    def __hash__(self) -> int:
        return hash(("WordGroup", self.n, self.e, self.shape))

    def __repr__(self) -> str:
        shape = "" if self.shape is None else f", shape={self.shape}"
        return f"WordGroup(n={self.n}, e={self.e}{shape})"


@lru_cache(maxsize=None)
def _word_elements(n: int, e: int) -> list[Word]:
    out: list[Word] = [()]
    for _ in range(n):
        out = [w + (a,) for w in out for a in range(e)]
    return out


def character_table(group: WordGroup, u: Word, domain: Sequence[Word] | None = None) -> list:
    """Values of the character indexed by u over the given domain (default: all of G)."""
    xs = group.elements() if domain is None else domain
    return [group.character_value(u, x) for x in xs]


def inner_product(phi: Sequence, psi: Sequence):
    """Hermitian inner product (1/|G|) sum of phi(g) * conj(psi(g)) over the
    domain, for tables of Q(w) values."""
    from .cyclotomic import Cyclotomic
    if len(phi) != len(psi):
        raise ValueError(f"table length mismatch: {len(phi)} vs {len(psi)}")
    if not phi:
        raise ValueError("empty function tables")
    total = Cyclotomic.zero(phi[0].order)
    for a, b in zip(phi, psi):
        total = total + a * b.conj()
    return total / len(phi)


def word_text(x: Word, modulus: int) -> str:
    """Digit-string form for small alphabets, comma-separated residues otherwise."""
    if modulus <= 10:
        return "".join(str(a) for a in x)
    return ",".join(str(a) for a in x)
