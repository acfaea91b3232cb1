"""Cayley graphs of finite abelian groups: character eigenvalues, spectra,
and exact adjacency verification of the character eigenbasis.

`cyclotomic` is imported by the functions that compute in Q(w), so building
a graph or a product table never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_CHUNK_BYTES = 2**20  # bytes of rows per numpy step of sum_positions, spectrum and the check
DENSE_CODE_BITS = 22  # row_finder indexes up to 2^22 codes densely, 16 MB of int32


class RepeatedRowError(ValueError):
    """row_finder was given a row that it holds twice."""


@dataclass
class CayleyGraph:
    """Cayley graph of a subgroup X of Z_e^n, with the vertex, connection and
    character sets as integer row arrays, entries in 0..e-1.

    `characters` holds the exponent-index rows of the linear characters of X;
    it defaults to the vertices themselves, which is the full dual group when
    X is all of Z_e^n.  Proper subgroups (halved and folded cubes) must pass
    their own character indexing.
    """

    modulus: int
    vertices: np.ndarray
    connection: np.ndarray
    characters: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.characters is None:
            self.characters = self.vertices
        e, conn = self.modulus, self.connection
        if len({rows.shape[1] for rows in (self.vertices, conn, self.characters)}) != 1:
            raise ValueError("vertex, connection and character rows differ in width")
        if not conn.any(axis=1).all():
            raise ValueError("connection set contains the identity")
        find = row_finder(conn, e)  # raises on a repeated connection element
        if (find((-conn.astype(np.int64)) % e) < 0).any():
            raise ValueError("connection set not symmetric")
        if (row_finder(self.vertices, e)(conn) < 0).any():
            raise ValueError("connection element outside the vertex set")
        if len(self.characters) != len(self.vertices):
            raise ValueError("character count must equal vertex count")

    @property
    def degree(self) -> int:
        return len(self.connection)


def spectrum(graph: CayleyGraph) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) pairs over all characters, descending eigenvalue.

    chi_u(S) is read from the histogram of the exponents u.s over the
    connection set; each distinct histogram is converted to Q(w) once.  The
    eigenvalues of every shipped family are rational integers; this is
    asserted by the exact downcast.
    """
    from .cyclotomic import from_exponent_counts
    e = graph.modulus
    chars, conn = graph.characters, graph.connection
    tally: dict[bytes, int] = {}
    for start, stop in _chunks(len(chars), (len(conn) + e) * 8):
        hist = _exponent_histograms(character_exponents(chars[start:stop], conn, e), e)
        keys, mult = np.unique(row_keys(hist), return_counts=True)
        for key, m in zip(keys.tolist(), mult.tolist()):
            tally[key] = tally.get(key, 0) + m
    counts: dict[int, int] = {}
    for key, m in tally.items():
        row = np.frombuffer(key, dtype=np.int64).tolist()  # bincount counts are int64
        ev = from_exponent_counts(e, row).as_int()
        counts[ev] = counts.get(ev, 0) + m
    if sum(counts.values()) != len(graph.vertices):
        raise AssertionError("spectrum multiplicities do not sum to the vertex count")
    return sorted(counts.items(), key=lambda p: -p[0])


def _chunks(count: int, row_bytes: int):
    """(start, stop) steps over count rows, SUM_CHUNK_BYTES of row_bytes rows each."""
    step = max(1, SUM_CHUNK_BYTES // max(1, row_bytes))
    for start in range(0, count, step):
        yield start, min(start + step, count)


def _neighbor_index(graph: CayleyGraph, verts: np.ndarray) -> np.ndarray:
    """|X| x |S| int32 positions of x + s among the vertex rows verts."""
    e = graph.modulus
    find = row_finder(verts, e)
    wide = verts.astype(np.min_scalar_type(2 * e - 2))
    nbr = np.empty((len(verts), graph.degree), dtype=np.int32)
    for j, s in enumerate(graph.connection.astype(wide.dtype)):
        nbr[:, j] = find(_reduced_sum(wide, s, e))
    if (nbr < 0).any():
        raise ValueError("the vertex set is not closed under adding a connection element")
    return nbr


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One exact byte string per row, so rows compare, sort and search as wholes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _reduced_sum(a: np.ndarray, b: np.ndarray, modulus: int, out=None,
                 wrap=None) -> np.ndarray:
    """(a + b) mod modulus for entries in 0..modulus-1, in an unsigned dtype
    that holds 2 * modulus - 2, written to out when given, with a + b - modulus
    held in wrap when given: where a + b < modulus, a + b - modulus wraps
    above a + b, so the smaller of the two is the residue."""
    total = np.add(a, b, out=out)
    return np.minimum(total, np.subtract(total, modulus, out=wrap), out=total)


def row_finder(rows: np.ndarray, modulus: int):
    """The lookup among distinct rows with entries in 0..modulus-1: a function
    taking query rows of the same width, entries in the same range, to their
    positions among rows, or -1 where no row matches.  Duplicate rows raise
    RepeatedRowError.

    A row is read as a bit-field code of bits(modulus - 1) bits per entry.
    When the codes fit in DENSE_CODE_BITS bits, a dense int32 array maps each
    code to its position; wider rows, such as exponent rows over a vertex
    set, are compared by exact byte key in the dtype of rows."""
    count, width = rows.shape
    bits = (modulus - 1).bit_length()
    if width * bits > DENSE_CODE_BITS:
        return _byte_key_finder(rows)

    def codes(block: np.ndarray) -> np.ndarray:
        if block.size and (block.min() < 0 or block.max() >= modulus):
            raise ValueError(f"row entries must be in 0..{modulus - 1}")
        out = np.zeros(len(block), dtype=np.int32)
        for col in block.T:  # column by column, so no wide copy of block is made
            out <<= bits
            out |= col
        return out

    keys = codes(rows)
    index = np.full(1 << (width * bits), -1, dtype=np.int32)
    index[keys] = np.arange(count, dtype=np.int32)
    if (index[keys] != np.arange(count)).any():
        raise RepeatedRowError("row_finder needs distinct rows")
    return lambda queries: index[codes(queries)]


def _byte_key_finder(rows: np.ndarray):
    """row_finder by binary search among the sorted byte keys of rows."""
    keys = row_keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise RepeatedRowError("row_finder needs distinct rows")

    def find(queries: np.ndarray) -> np.ndarray:
        found = row_keys(queries.astype(rows.dtype, copy=False))
        at = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
        return np.where(keys[at] == found, order[at], -1)

    return find


def sum_positions(rows: np.ndarray, modulus: int, canonical=None) -> np.ndarray:
    """Row-sum lookup as a dim x dim int32 array: entry (a, b) is the position
    among rows of canonical((rows[a] + rows[b]) mod modulus), or -1 when no
    row matches (row_finder).  Rows must be distinct, with entries in
    0..modulus-1; duplicate rows raise RepeatedRowError."""
    dim, width = rows.shape
    rows = rows.astype(np.min_scalar_type(2 * modulus - 2))
    find = row_finder(rows, modulus)
    out = np.empty((dim, dim), dtype=np.int32)
    chunks = list(_chunks(dim, rows.nbytes))  # one row's sums take rows.nbytes
    # the sums and their wrapped differences, allocated once and reused by every chunk
    sums, wrap = (np.empty((chunks[0][1], dim, width), rows.dtype) for _ in range(2))
    for start, stop in chunks:
        part = _reduced_sum(rows[start:stop, None, :], rows[None, :, :], modulus,
                            out=sums[:stop - start], wrap=wrap[:stop - start]).reshape(-1, width)
        out[start:stop] = find(part if canonical is None else canonical(part)).reshape(-1, dim)
    return out


def character_exponents(u_arr: np.ndarray, x_arr: np.ndarray, e: int) -> np.ndarray:
    """Exponents u.x mod e for index rows u and vertex rows x (entries in
    0..e-1), in the smallest unsigned dtype that holds e - 1.  The dot products
    are summed in a dtype that holds every one of them."""
    acc = np.result_type(u_arr, x_arr, np.min_scalar_type(u_arr.shape[1] * (e - 1) ** 2))
    dots = u_arr.astype(acc, copy=False) @ x_arr.T.astype(acc, copy=False)
    return (dots % e).astype(np.min_scalar_type(e - 1))


def _exponent_histograms(exps: np.ndarray, e: int) -> np.ndarray:
    """Per row of exponents, the int64 count of each residue 0..e-1 (rows x e)."""
    slots = np.arange(len(exps))[:, None] * e
    return np.bincount((slots + exps).ravel(), minlength=len(exps) * e).reshape(-1, e)


def verify_all_eigenvectors(graph: CayleyGraph) -> bool:
    """Adjacency verification of every character (exact integer arithmetic).

    Each character's exponent row E[u] over X is checked against the edge
    identity E[u, x+s] = E[u, x] + E[u, s] (mod e) at every vertex x and
    connection element s.  Where it holds, (A chi_u)(x) = chi_u(x) * theta_u
    with theta_u = sum over s of w^E[u, s], the neighbor counts at the
    identity vertex, which must reduce to a rational integer.  A row that
    breaks the identity somewhere is not the character u and fails the check.
    Exponent rows are computed per chunk of characters, so no |X| x |X| array
    is built."""
    from .cyclotomic import root_reduction_matrix
    e = graph.modulus
    verts, chars = graph.vertices, graph.characters
    nbr = _neighbor_index(graph, verts)
    origin = np.flatnonzero(~verts.any(axis=1))[0]  # the identity vertex
    red = np.array(root_reduction_matrix(e), dtype=np.int64)
    wide = np.min_scalar_type(2 * e - 2)  # holds E[u, x] + E[u, s]
    for start, stop in _chunks(len(chars), len(verts) * wide.itemsize):
        # vertices x characters, so that x -> x + s gathers whole rows
        exps = np.ascontiguousarray(character_exponents(chars[start:stop], verts, e).T, dtype=wide)
        held = np.ones(exps.shape[1], dtype=bool)
        # written in place at every s: a fresh array of this size per step
        # costs more in page faults than the arithmetic
        total, image = np.empty_like(exps), np.empty_like(exps)
        for col, s in zip(nbr.T, nbr[origin]):
            _reduced_sum(exps, exps[s], e, out=total, wrap=image)
            held &= (total == np.take(exps, col, axis=0, out=image)).all(axis=0)
        if not held.all():
            return False
        theta = _exponent_histograms(exps[nbr[origin]].T, e)
        if (red[1:] @ theta.T).any():  # some theta_u is not a rational integer
            return False
    return True

