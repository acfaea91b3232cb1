"""Cayley graphs of finite abelian groups: spectra from linear characters,
their certificate by a coset walk of the vertex group, and the row-sum
lookup that builds product tables and the projection oracle.

The row-sum lookup is one loop that looks its rows up in SUM_CHUNK_BYTES
steps and yields them one at a time (sum_rows), so a caller can write or
compare a table without holding it; sum_positions fills the whole table
from the same steps.  The step layout is known here alone.

The eigenvalues are integer sums of roots of unity, reduced by `roots`,
which the functions that read them import; nothing here loads the exact
Q(w) arithmetic of `cyclotomic`, so building a graph, a product table or
the oracle's lookup never loads `fractions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_CHUNK_BYTES = 2**18  # a step's working set: tables, spectra, automorphism, trees
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
        if any(rows.size and (rows.min() < 0 or rows.max() >= e)
               for rows in (self.vertices, conn, self.characters)):
            raise ValueError(f"row entries must be in 0..{e - 1}")
        if not conn.any(axis=1).all():
            raise ValueError("connection set contains the identity")
        find = row_finder(conn, e)  # raises on a repeated connection element
        if (find((-conn.astype(np.int64)) % e) < 0).any():
            raise ValueError("connection set not symmetric")
        if self.vertices.any(axis=1).all():
            raise ValueError("vertex set does not contain the identity")
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
    connection set; each distinct histogram is read as an integer once a call,
    the new ones of a chunk together (_integer_root_sums).  The eigenvalues
    of every shipped family are rational integers; others raise ValueError.

    A chunk of characters fits in SUM_CHUNK_BYTES: per character, its
    index row widened to uint64 words; per character and connection
    element, character_exponents' sums and quotients and the exponent, then
    the intp histogram key; per character and residue, the int64 count and
    np.unique's sorted copy, its mask and its counts."""
    e = graph.modulus
    chars, conn = graph.characters, graph.connection
    acc = _dot_dtype(chars, conn, e).itemsize
    values: dict[bytes, int] = {}  # histogram bytes -> eigenvalue, across chunks
    counts: dict[int, int] = {}
    row_bytes = 8 * chars.shape[1] + (2 * acc + 1 + 8) * len(conn) + 4 * 8 * e
    for start, stop in _chunks(len(chars), row_bytes):
        hist = _exponent_histograms(character_exponents(chars[start:stop], conn, e), e)
        keys, mult = np.unique(row_keys(hist), return_counts=True)
        unseen = keys[[key not in values for key in keys.tolist()]]
        if len(unseen):
            found = _integer_root_sums(unseen.view(hist.dtype).reshape(-1, e), e)
            if found is None:
                raise ValueError("a character sum over the connection set is not a rational integer")
            values.update(zip(unseen.tolist(), found.tolist()))
        for key, m in zip(keys.tolist(), mult.tolist()):
            counts[values[key]] = counts.get(values[key], 0) + m
    if sum(counts.values()) != len(graph.vertices):
        raise AssertionError("spectrum multiplicities do not sum to the vertex count")
    return sorted(counts.items(), key=lambda p: -p[0])


def _integer_root_sums(hists: np.ndarray, e: int) -> np.ndarray | None:
    """The sums sum_r hists[k, r] w^r of the int64 residue histograms hists
    (rows x e) as int64, or None when one is not a rational integer
    (roots.root_sums)."""
    from .roots import root_sums
    forms = root_sums(hists, e, int(hists.max(initial=0)) * e)  # a row adds up e counts
    return None if forms[:, 1:].any() else forms[:, 0]


def _chunks(count: int, row_bytes: int):
    """(start, stop) steps over count rows, SUM_CHUNK_BYTES // row_bytes (at least 1) each."""
    step = max(1, SUM_CHUNK_BYTES // max(1, row_bytes))
    for start in range(0, count, step):
        yield start, min(start + step, count)


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

    A row is a bit-field code of bits(modulus - 1) bits per entry.  When the
    codes fit in int32 and the largest is below 2^DENSE_CODE_BITS, as packed
    rows of up to 22 entries do, an int32 array up to it maps each code to its
    position (a larger one to -1); else byte keys, and `find.dense` is False."""
    count, width = rows.shape
    bits = (modulus - 1).bit_length()

    def codes(block: np.ndarray) -> np.ndarray:
        if block.size and (block.min() < 0 or block.max() >= modulus):
            raise ValueError(f"row entries must be in 0..{modulus - 1}")
        out = np.zeros(len(block), dtype=np.int32)
        for col in block.T:  # column by column, so no wide copy of block is made
            out <<= bits
            out |= col
        return out

    keys = codes(rows) if width * bits <= 31 else None
    if keys is None or keys.max(initial=-1) >= 2**DENSE_CODE_BITS:
        return _byte_key_finder(rows)
    index = np.full(int(keys.max(initial=-1)) + 2, -1, dtype=np.int32)  # -1 last
    index[keys] = at = np.arange(count, dtype=np.int32)
    if (index[keys] != at).any():
        raise RepeatedRowError("row_finder needs distinct rows")

    def find(queries: np.ndarray) -> np.ndarray:
        return index.take(codes(queries), mode="clip")

    find.dense = True
    return find


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

    find.dense = False
    return find


def sum_positions(rows: np.ndarray, modulus: int) -> np.ndarray:
    """Row-sum lookup as a dim x dim int32 array: entry (a, b) is the position
    among rows of (rows[a] + rows[b]) mod modulus, or -1 when no row matches
    (row_finder).  Rows must be distinct, with entries in 0..modulus-1;
    duplicate rows raise RepeatedRowError.  The array is filled from the
    steps of sum_rows' lookup."""
    return _filled(len(rows), _sum_blocks(rows, modulus))


def sum_rows(rows: np.ndarray, modulus: int):
    """The rows of sum_positions(rows, modulus) in order, each an int32 or
    intp array of dim positions, looked up in the steps of _lookup_sums.
    The checks and the lookup are made before the first row is asked for,
    so a repeated row raises here."""
    return (row for _, _, block in _sum_blocks(rows, modulus) for row in block)


def _sum_blocks(rows: np.ndarray, modulus: int):
    """The steps of the lookup (_lookup_sums).  Modulo 2 a sum is a XOR: the
    rows are bit-packed, last byte first in little bit order, so the zero
    padding leads and n-bit rows code below 2^n; each sum is one
    bitwise_xor, and row_finder reads the sums as rows of bytes.  Every
    other modulus sums residues (_residue_blocks)."""
    if modulus != 2:
        return _residue_blocks(rows, modulus)
    return _xor_blocks(_packed_bits(rows))


def _filled(dim: int, blocks) -> np.ndarray:
    out = np.empty((dim, dim), dtype=np.int32)
    for start, stop, block in blocks:
        out[start:stop] = block
    return out


def _packed_bits(rows: np.ndarray) -> np.ndarray:
    if rows.size and (rows.min() < 0 or rows.max() > 1):  # packbits reads any nonzero as 1
        raise ValueError("row entries must be in 0..1")
    return np.ascontiguousarray(np.packbits(rows, axis=1, bitorder="little")[:, ::-1])


def _xor_blocks(packed: np.ndarray):
    return _lookup_sums(packed, 256, 1, lambda a, b, out: np.bitwise_xor(a, b, out=out))


def _residue_blocks(rows: np.ndarray, modulus: int):
    rows = rows.astype(np.min_scalar_type(2 * modulus - 2), copy=False)
    return _lookup_sums(rows, modulus, 2,
                        lambda a, b, out, wrap: _reduced_sum(a, b, modulus, out=out, wrap=wrap))


def _lookup_sums(rows: np.ndarray, modulus: int, buffers: int, add):
    """The one row-sum lookup loop, as a generator of (start, stop, block)
    over chunks of rows a, built with its lookup and buffers before it is
    returned: add sums the rows a with every row b into `buffers`
    chunk-sized scratch buffers allocated once, and row_finder(rows,
    modulus) looks the sums up, giving block, the positions of the sums of
    rows start..stop-1.  It reads them column by column when the finder is
    dense, so the codes read contiguous columns, else whole rows, so their
    byte keys are views.  A chunk is sized so that all it holds per
    sum fits in SUM_CHUNK_BYTES: the buffers' entries and what the lookup
    holds, an int32 code, the intp copy that take makes of it and an int32
    position when the codes are dense, else the intp search positions, the
    keys found and their match, and the intp positions gathered and
    returned."""
    dim, width = rows.shape
    find = row_finder(rows, modulus)
    sum_bytes = buffers * width * rows.itemsize + (16 if find.dense else width + 1 + 3 * 8)
    chunks = list(_chunks(dim, dim * sum_bytes))
    scratch = np.empty((buffers, width * chunks[0][1] * dim), rows.dtype)
    cols = rows.T

    def blocks():
        for start, stop in chunks:
            sums = (stop - start) * dim
            held = scratch[:, :width * sums]
            if find.dense:  # sizes spelled out, so rows 0 wide (X = {0} has no generators) reshape
                part = add(cols[:, start:stop, None], cols[:, None, :],
                           *held.reshape(buffers, width, stop - start, dim)).reshape(width, sums).T
            else:
                part = add(rows[start:stop, None, :], rows[None, :, :],
                           *held.reshape(buffers, -1, dim, width)).reshape(-1, width)
            yield start, stop, find(part).reshape(-1, dim)

    return blocks()


def character_exponents(u_arr: np.ndarray, x_arr: np.ndarray, e: int) -> np.ndarray:
    """Exponents u.x mod e for index rows u and vertex rows x (entries in
    0..e-1), in the smallest unsigned dtype that holds e - 1.  The dot
    products are summed as lanes of a dtype that holds each (_dot_dtype) in
    uint64 words, several vertices to a word with no carry between them,
    and reduced as dots - e * (dots // e), much faster than numpy's %."""
    acc = _dot_dtype(u_arr, x_arr, e)
    count, lanes = len(x_arr), 8 // acc.itemsize
    packed = np.zeros((x_arr.shape[1], -(-count // lanes) * lanes), dtype=acc)
    packed[:, :count] = x_arr.T
    dots = np.zeros((len(u_arr), packed.shape[1] // lanes), dtype=np.uint64)
    part = np.empty_like(dots)  # apart from dots: the residues returned keep it alive
    for coeff, word in zip(u_arr.T.astype(np.uint64), packed.view(np.uint64)):
        np.add(dots, np.multiply(coeff[:, None], word, out=part), out=dots)
    dots, rem = dots.view(acc)[:, :count], part.view(acc)[:, :count]
    np.multiply(np.floor_divide(dots, e, out=rem), e, out=rem)
    return np.subtract(dots, rem, out=rem).astype(np.min_scalar_type(e - 1), copy=False)


def _dot_dtype(u_arr: np.ndarray, x_arr: np.ndarray, e: int) -> np.dtype:
    """The dtype of character_exponents' sums: it holds each dot product."""
    return np.result_type(u_arr, x_arr, np.min_scalar_type(u_arr.shape[1] * (e - 1) ** 2))


def _exponent_histograms(exps: np.ndarray, e: int) -> np.ndarray:
    """Per row of exponents, the int64 count of each residue 0..e-1 (rows x e),
    by one bincount of intp keys row * e + exponent, which it reads uncopied."""
    keys = exps.astype(np.intp, order="C")  # adding to a copy casts with no buffer of numpy's
    keys += np.arange(0, len(exps) * e, e)[:, None]
    return np.bincount(keys.ravel(), minlength=len(exps) * e).reshape(-1, e)


def _generators(vertices: np.ndarray, modulus: int) -> list[int]:
    """Positions among the vertex rows X of generators of X, by a coset walk:
    the first vertex x not yet generated joins, and the subgroup H of the
    earlier ones takes in the cosets H - k x, k below the order m of x mod
    H, from one column, the positions of X + x: m in scalar steps from the
    identity, then the cosets in ceil(log2 m) doublings of the column.  That
    X holds the identity, has no repeated row (RepeatedRowError) and holds
    X + x for each generator makes X a group, else ValueError.  A chunk of
    X + x holds per vertex its sum and wrap, an int32 code, take's intp copy
    and the int32 position."""
    e = modulus
    verts = vertices.astype(np.min_scalar_type(2 * e - 2), copy=False)
    find = row_finder(vertices, e)
    origin = int(np.argmin(verts.any(axis=1)))  # the identity's position, if X holds it
    if verts[origin].any():
        raise ValueError("the vertex set is not a group: it does not hold the identity")
    inside = np.arange(len(verts)) == origin
    col = np.empty(len(verts), dtype=np.int32)
    gens = []
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        for lo, hi in _chunks(len(verts), 2 * verts[0].nbytes + 16):
            col[lo:hi] = find(_reduced_sum(verts[lo:hi], verts[gens[-1]], e))
        if (col < 0).any():
            raise ValueError("the vertex set is not a group: it is not closed under addition")
        order, at = 1, col[origin]
        while not inside[at]:
            order, at = order + 1, col[at]
        for step in range((order - 1).bit_length()):  # then inside is H - k x, k < 2^(step+1)
            if step:  # an order-2 generator keeps its single gather
                col = col[col]  # the positions of X + 2^step x
            inside |= inside[col]
    return gens


def verify_all_eigenvectors(graph: CayleyGraph) -> list[tuple[int, int]] | None:
    """The spectrum, or None unless the characters are an eigenbasis with
    rational integer eigenvalues, certified by the group structure in integers.

    X is a group that holds S (_generators), so the character w^(u.x) of an
    integer row u is an eigenvector with eigenvalue theta_u = chi_u(S).  It is
    fixed by its values at generators: |X| characters distinct there are the
    whole dual group, an orthogonal eigenbasis.  Each theta_u must be a
    rational integer (spectrum).  A chunk of characters holds per character
    its row widened to uint64 words and character_exponents' sums, quotients
    and residues at the generators, within SUM_CHUNK_BYTES."""
    e, chars = graph.modulus, graph.characters
    gens = graph.vertices[_generators(graph.vertices, e)]
    acc = _dot_dtype(chars, gens, e).itemsize
    exps = np.empty((len(chars), len(gens)), dtype=np.min_scalar_type(e - 1))
    row_bytes = 8 * chars.shape[1] + (2 * acc + exps.itemsize) * (len(gens) + 8)  # whole words
    for start, stop in _chunks(len(chars), row_bytes):
        exps[start:stop] = character_exponents(chars[start:stop], gens, e)
    try:
        row_finder(exps, e)  # RepeatedRowError: two characters agree on all of X
        del exps  # before spectrum's chunks
        return spectrum(graph)  # ValueError: some theta_u is no rational integer
    except ValueError:
        return None
