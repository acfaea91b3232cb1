"""Cayley graphs of finite abelian groups: character eigenvalues, spectra,
and brute-force adjacency verification of the character eigenbasis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cyclotomic import Cyclotomic, from_exponent_counts, root_power, root_reduction_matrix
from .groups import Word, WordGroup

SUM_CHUNK_BYTES = 2**20  # bytes of row sums per numpy step of sum_positions


@dataclass
class CayleyGraph:
    """Cayley graph of an abelian group on a vertex set closed under the group law.

    `characters` lists the exponent-index vectors of the linear characters of the
    vertex set; it defaults to the vertices themselves, which is the full dual
    group when the vertex set is all of Z_e^n.  Proper subgroups (halved and
    folded cubes) must pass their own character indexing.
    """

    group: WordGroup
    vertices: list[Word]
    connection: list[Word]
    characters: list[Word] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.characters is None:
            self.characters = list(self.vertices)
        zero = self.group.zero()
        seen = set()
        vset = set(self.vertices)
        for s in self.connection:
            if s == zero:
                raise ValueError("connection set contains the identity")
            if s in seen:
                raise ValueError(f"duplicate connection element {s}")
            seen.add(s)
            if self.group.neg(s) not in seen and self.group.neg(s) not in self.connection:
                raise ValueError(f"connection set not symmetric at {s}")
            if s not in vset:
                raise ValueError(f"connection element {s} outside the vertex set")
        if len(self.characters) != len(self.vertices):
            raise ValueError("character count must equal vertex count")

    @property
    def degree(self) -> int:
        return len(self.connection)

    @property
    def modulus(self) -> int:
        return self.group.modulus


def eigenvalue_of_character(graph: CayleyGraph, u: Word) -> Cyclotomic:
    """chi_u(S) = sum over s in S of chi_u(s), computed exactly."""
    e = graph.modulus
    counts = [0] * e
    for s in graph.connection:
        counts[graph.group.dot(u, s)] += 1
    return from_exponent_counts(e, counts)


def integer_eigenvalue(graph: CayleyGraph, u: Word) -> int:
    """Eigenvalue downcast to an integer; raises if it is not a rational integer."""
    return eigenvalue_of_character(graph, u).as_int()


def spectrum(graph: CayleyGraph) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) pairs over all characters, descending eigenvalue.

    The eigenvalues of every shipped family are rational integers; this is
    asserted by the exact downcast.
    """
    counts: dict[int, int] = {}
    for u in graph.characters:
        ev = integer_eigenvalue(graph, u)
        counts[ev] = counts.get(ev, 0) + 1
    if sum(counts.values()) != len(graph.vertices):
        raise AssertionError("spectrum multiplicities do not sum to the vertex count")
    return sorted(counts.items(), key=lambda p: -p[0])


def verify_eigenvector(graph: CayleyGraph, u: Word) -> bool:
    """Materialize chi_u, apply the adjacency operator by neighbor summation,
    and compare with eigenvalue * chi_u at every vertex, exactly."""
    group = graph.group
    e = graph.modulus
    theta = eigenvalue_of_character(graph, u)
    index = {x: k for k, x in enumerate(graph.vertices)}
    exps = [group.dot(u, x) for x in graph.vertices]
    for k, x in enumerate(graph.vertices):
        counts = [0] * e
        for s in graph.connection:
            counts[exps[index[group.add(x, s)]]] += 1
        lhs = from_exponent_counts(e, counts)
        rhs = theta * root_power(e, exps[k])
        if lhs != rhs:
            return False
    return True


def _neighbor_index(graph: CayleyGraph) -> np.ndarray:
    index = {x: k for k, x in enumerate(graph.vertices)}
    add = graph.group.add
    return np.array(
        [[index[add(x, s)] for s in graph.connection] for x in graph.vertices],
        dtype=np.int32)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One exact byte string per row, so rows compare, sort and search as wholes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def row_finder(rows: np.ndarray):
    """The lookup among distinct rows: a function taking query rows of the
    same width to their positions among rows, or -1 where no row matches,
    compared by exact byte key in the dtype of rows."""
    keys = row_keys(rows)
    order = np.argsort(keys)
    keys = keys[order]

    def find(queries: np.ndarray) -> np.ndarray:
        found = row_keys(queries.astype(rows.dtype, copy=False))
        at = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
        return np.where(keys[at] == found, order[at], -1)

    return find


def sum_positions(rows: np.ndarray, modulus: int, canonical=None) -> np.ndarray:
    """Row-sum lookup as a dim x dim int32 array: entry (a, b) is the position
    among rows of canonical((rows[a] + rows[b]) mod modulus), or -1 when no
    row matches (row_finder).  Rows must be distinct."""
    dim, width = rows.shape
    rows = rows.astype(np.min_scalar_type(2 * modulus - 2))
    find = row_finder(rows)
    out = np.empty((dim, dim), dtype=np.int32)
    step = max(1, SUM_CHUNK_BYTES // max(1, rows.nbytes))  # one row's sums take rows.nbytes
    for start in range(0, dim, step):
        stop = min(start + step, dim)
        sums = ((rows[start:stop, None, :] + rows[None, :, :]) % modulus).reshape(-1, width)
        out[start:stop] = find(sums if canonical is None else canonical(sums)).reshape(-1, dim)
    return out


def character_exponents(u_arr: np.ndarray, x_arr: np.ndarray, e: int) -> np.ndarray:
    """Exponents u.x mod e for index rows u and vertex rows x, in the smallest
    unsigned dtype that holds e - 1."""
    return ((u_arr @ x_arr.T) % e).astype(np.min_scalar_type(e - 1))


def exponent_matrix(graph: CayleyGraph, indices: Sequence[Word] | None = None) -> np.ndarray:
    """Character exponents (rows = characters, columns = vertices), entries mod e."""
    us = graph.characters if indices is None else list(indices)
    u_arr = np.array(us, dtype=np.int64).reshape(len(us), -1)
    return character_exponents(u_arr, np.array(graph.vertices, dtype=np.int64), graph.modulus)


def verify_all_eigenvectors(graph: CayleyGraph) -> bool:
    """Adjacency verification of every character at once (exact integer arithmetic).

    The eigenvalue chi_u(S) is read off the neighbor counts of chi_u at the
    identity vertex, so no character is evaluated twice; the check there
    then certifies that chi_u(S) is that rational integer."""
    e = graph.modulus
    nbr = _neighbor_index(graph)
    exps = exponent_matrix(graph)
    red = np.array(root_reduction_matrix(e), dtype=np.int64)
    n_x = len(graph.vertices)
    slots = np.arange(n_x)[:, None] * e
    origin = graph.vertices.index(graph.group.zero())
    for k in range(len(graph.characters)):
        # per vertex, exponent counts of chi_u over its neighbors minus theta
        # times chi_u there; each distinct row must reduce to zero in Q(w)
        diff = np.bincount((slots + exps[k][nbr]).ravel(), minlength=n_x * e).reshape(n_x, e)
        theta = red[0] @ diff[origin]  # the rational part of chi_u(S)
        diff[np.arange(n_x), exps[k]] -= theta
        distinct = np.unique(row_keys(diff)).view(np.int64).reshape(-1, e)
        if (red @ distinct.T).any():
            return False
    return True
