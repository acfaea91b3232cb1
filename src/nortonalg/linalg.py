"""Exact Gauss-Jordan elimination over any field whose elements are falsy
exactly when zero: F_q (integers mod a prime), Q (fractions) and Q(w)."""

from __future__ import annotations


def row_reduce(rows, inv, reduce=None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of a matrix and its pivot columns.

    Pivots are the first nonzero entry of each column, and rows that are
    already zero in the pivot column are skipped.  `inv` inverts a nonzero
    field element; `reduce`, when given, maps a computed row to canonical
    form (for F_q, every entry mod q)."""
    m = [reduce(row) if reduce else list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((k for k in range(r, len(m)) if m[k][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        s = inv(m[r][col])
        top = [v * s for v in m[r]]
        m[r] = top = reduce(top) if reduce else top
        for k in range(len(m)):
            c = m[k][col]
            if k != r and c:
                row = [a - c * b for a, b in zip(m[k], top)]
                m[k] = reduce(row) if reduce else row
        pivots.append(col)
    return m, pivots
