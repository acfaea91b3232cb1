"""Primality, the group law of Z_e^n on single labels, and their text form.

A label is a plain tuple of residues (a matrix flattened row-major).  The
character indexed by u takes x to w^(u.x), where u.x is the entrywise dot
product mod the modulus; whole sets of them are integer row arrays, which
`cayley` and `families` compute on.
"""

from __future__ import annotations

from typing import Sequence

Word = tuple[int, ...]


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


def word_text(x: Word, modulus: int) -> str:
    """Digit-string form for small alphabets, comma-separated residues otherwise."""
    if modulus <= 10:
        return "".join(str(a) for a in x)
    return ",".join(str(a) for a in x)
