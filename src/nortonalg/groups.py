"""Primality and the text form of single labels.

A label is a plain tuple of residues (a matrix flattened row-major), a
rendering of one index row.  The character indexed by u takes x to
w^(u.x), where u.x is the entrywise dot product mod the modulus; the group
law and the characters act on whole integer row arrays, which `cayley` and
`families` compute on.
"""

from __future__ import annotations

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


def word_text(x: Word, modulus: int) -> str:
    """Digit-string form for small alphabets, comma-separated residues otherwise."""
    if modulus <= 10:
        return "".join(str(a) for a in x)
    return ",".join(str(a) for a in x)
