"""Test-only references: per-element paths in exact Q(w) arithmetic, the
label enumerations that the package's numpy rows replace, the `table`
output rendered as one string, and the live-interval patterns of the whole
tuple grid by index arithmetic.

Each function computes its answer one group element or one label at a time,
straight from the definitions, so the row paths of the package are checked
against an independent computation.  Nothing in the package imports this
module.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from typing import Sequence

import numpy as np

from nortonalg import trees
from nortonalg.cyclotomic import Cyclotomic, from_exponent_counts, root_power
from nortonalg.groups import Word, word_add
from nortonalg.linalg import row_reduce
from nortonalg.norton import DEFAULT_ORACLE_VERTEX_BUDGET, AlgebraVector, closed_form_product

# ---------------------------------------------------------------------------
# Group elements and characters, one at a time
# ---------------------------------------------------------------------------


def word_dot(u: Sequence[int], x: Sequence[int], e: int) -> int:
    """Exponent of the character indexed by u at x, an integer mod e; for
    matrices this is tr(u^t x)."""
    return sum(a * b for a, b in zip(u, x)) % e


def support(x: Word) -> tuple[int, ...]:
    """1-based positions of the nonzero entries."""
    return tuple(j + 1 for j, a in enumerate(x) if a)


def weight(x: Word) -> int:
    return sum(1 for a in x if a)


def as_matrix(x: Word, cols: int) -> tuple[tuple[int, ...], ...]:
    """The row-major flattened word x as a matrix with cols columns."""
    return tuple(tuple(x[r:r + cols]) for r in range(0, len(x), cols))


def flatten(m: Sequence[Sequence[int]], e: int) -> Word:
    return tuple(entry % e for row in m for entry in row)


def elements(n: int, e: int) -> list[Word]:
    """All of Z_e^n in lexicographic order on entry vectors."""
    return list(product(range(e), repeat=n))


def character_value(u: Word, x: Word, e: int) -> Cyclotomic:
    return root_power(e, word_dot(u, x, e))


def character_table(n: int, e: int, u: Word) -> list:
    """Values of the character indexed by u over all of Z_e^n."""
    return [character_value(u, x, e) for x in elements(n, e)]


def inner_product(phi: Sequence, psi: Sequence):
    """Hermitian inner product (1/|G|) sum of phi(g) * conj(psi(g)) over the
    domain, for tables of Q(w) values."""
    if len(phi) != len(psi):
        raise ValueError(f"table length mismatch: {len(phi)} vs {len(psi)}")
    if not phi:
        raise ValueError("empty function tables")
    total = Cyclotomic.zero(phi[0].order)
    for a, b in zip(phi, psi):
        total = total + a * b.conj()
    return total / len(phi)


# ---------------------------------------------------------------------------
# Cayley graphs: eigenvalues and eigenvectors, one character at a time
# ---------------------------------------------------------------------------


def eigenvalue_of_character(graph, u):
    """chi_u(S) = sum over s in S of chi_u(s), computed exactly in Q(w)."""
    e = graph.modulus
    u = np.asarray(u).tolist()
    counts = [0] * e
    for s in graph.connection.tolist():
        counts[word_dot(u, s, e)] += 1
    return from_exponent_counts(e, counts)


def integer_eigenvalue(graph, u) -> int:
    """Eigenvalue downcast to an integer; raises if it is not a rational integer."""
    return eigenvalue_of_character(graph, u).as_int()


def verify_eigenvector(graph, u) -> bool:
    """Materialize chi_u, apply the adjacency operator by neighbor summation,
    and compare with eigenvalue * chi_u at every vertex, exactly."""
    e = graph.modulus
    u = np.asarray(u).tolist()
    theta = eigenvalue_of_character(graph, u)
    xs = [tuple(x) for x in graph.vertices.tolist()]
    index = {x: k for k, x in enumerate(xs)}
    exps = [word_dot(u, x, e) for x in xs]
    for k, x in enumerate(xs):
        counts = [0] * e
        for s in graph.connection.tolist():
            counts[exps[index[word_add(x, s, e)]]] += 1
        lhs = from_exponent_counts(e, counts)
        rhs = theta * root_power(e, exps[k])
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Families: bases as label lists, and the label-to-row rule
# ---------------------------------------------------------------------------


def symmetric_difference_feasible(n: int, i: int, j: int) -> bool:
    """Whether i-subsets S, T of [n] with |S symdiff T| = j exist."""
    if not 0 <= i <= n:
        raise ValueError(f"subset size {i} out of range 0..{n}")
    return j % 2 == 0 and 0 <= j <= min(2 * i, 2 * (n - i))


def reference_basis(fam, i: int) -> list:
    """The V_i basis labels by the per-label enumeration that the basis rows
    replace: Hamming words of weight i, sorted; the cube subsets of size s in
    combinations order, or those containing 1; the bilinear vertices of
    rank i in vertex order, ranked one at a time."""
    if fam.kind == "hamming":
        out = []
        for positions in combinations(range(fam.n), i):
            for values in product(range(1, fam.e), repeat=i):
                word = [0] * fam.n
                for p, v in zip(positions, values):
                    word[p] = v
                out.append(tuple(word))
        out.sort()
        return out
    if fam.kind == "bilinear":
        return [x for x in elements(fam.length, fam.q) if fam.rank(x) == i]
    s = fam._size(i)
    if fam._with_one(s):
        return [(1,) + rest for rest in combinations(range(2, fam.n + 1), s - 1)]
    return list(combinations(range(1, fam.n + 1), s))


def reference_index(fam, label) -> list[int]:
    """The index vector of a basis label, written out here: the indicator of
    the subset for the cubes, the label itself otherwise."""
    if fam.kind in ("hamming", "bilinear"):
        return list(label)
    return [int(j in label) for j in range(1, fam.n + 1)]


# ---------------------------------------------------------------------------
# Norton algebra vectors: value tables and the pairwise projection oracle
# ---------------------------------------------------------------------------


def value_table(vec: AlgebraVector, budget: int | None = None) -> list[Cyclotomic]:
    """Values of an algebra vector over the vertex set, materialized exactly."""
    fam = vec.family
    e = fam.modulus
    xs = fam.vertices(budget).tolist()
    out = [Cyclotomic.zero(e) for _ in xs]
    for label, c in vec.coeffs.items():
        u = reference_index(fam, label)
        for k, x in enumerate(xs):
            out[k] = out[k] + c * root_power(e, word_dot(u, x, e))
    return out


def oracle_product(v: AlgebraVector, w: AlgebraVector) -> AlgebraVector:
    """Entrywise product of value tables projected back onto V_i via character
    inner products, exactly.  Independent of the closed-form rule."""
    v._check_space(w)
    fam, i = v.family, v.i
    e = fam.modulus
    xs = fam.vertices(DEFAULT_ORACLE_VERTEX_BUDGET).tolist()
    tv = value_table(v, DEFAULT_ORACLE_VERTEX_BUDGET)
    tw = value_table(w, DEFAULT_ORACLE_VERTEX_BUDGET)
    prod = [a * b for a, b in zip(tv, tw)]
    out: dict = {}
    for label in fam.basis(i):
        u = reference_index(fam, label)
        chi = [root_power(e, word_dot(u, x, e)) for x in xs]
        coeff = inner_product(prod, chi)
        if not coeff.is_zero():
            out[label] = coeff
    return AlgebraVector(fam, i, out)


def vector_map_preserves_products(images: dict, family, i: int) -> bool:
    """Whether the linear map sending each basis character to the given vector
    is an algebra automorphism: invertible and product-preserving on basis pairs."""
    labels = family.basis(i)
    if set(images) != set(labels):
        raise ValueError("images must be given on the full basis")
    matrix = [[images[b].coeffs.get(a, Cyclotomic.zero(family.modulus))
               for b in labels] for a in labels]
    if len(row_reduce(matrix, Cyclotomic.inv)[1]) != len(labels):
        return False

    def apply(vec: AlgebraVector) -> AlgebraVector:
        out = AlgebraVector.zero(family, i)
        for label, c in vec.coeffs.items():
            out = out + c * images[label]
        return out

    for a in labels:
        for b in labels:
            chi_a = AlgebraVector.basis_vector(family, i, a)
            chi_b = AlgebraVector.basis_vector(family, i, b)
            lhs = apply(closed_form_product(chi_a, chi_b))
            rhs = closed_form_product(apply(chi_a), apply(chi_b))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# The `table` subcommand's output, rendered as one string
# ---------------------------------------------------------------------------


def _joined_rows(table: np.ndarray, cells: list[str], sep: str) -> list[str]:
    """Each table row as its cells joined by sep, where entry v reads cells[v],
    so a zero product (-1) reads the last cell."""
    lookup = np.array(cells, dtype=object)
    return [sep.join(lookup[row].tolist()) for row in table]


def table_output(fam, i: int, fmt: str, oracle_ok: bool | None = None) -> str:
    """The whole stdout of `table` on V_i of fam in format fmt, where oracle_ok
    is the --verify-oracle verdict or None without it: json by json.dumps of
    the payload, csv and text by the one-string renderers that the streamed
    row blocks replaced."""
    table = fam.product_table(i)
    labels = fam.basis(i)
    if fmt == "json":
        payload = {
            "command": "table",
            "family": fam.describe(),
            "i": i,
            "basis": [fam.label_json(lbl) for lbl in labels],
            "table": table.tolist(),
            "oracle_verified": oracle_ok,
            "status": "ok" if oracle_ok in (None, True) else "mismatch",
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    texts = [fam.label_text(lbl) for lbl in labels]
    if fmt == "csv":
        numbers = [str(v) for v in range(len(texts))] + ["-1"]
        lines = ["*," + ",".join(texts)]
        lines += [text + "," + row for text, row in zip(texts, _joined_rows(table, numbers, ","))]
        return "\n".join(lines) + "\n"
    width = max(len(t) for t in texts) + 1
    cells = [t.rjust(width) for t in texts] + ["0".rjust(width)]
    lines = [f"# {fam.describe()} V_{i} products", " " * width + " ".join(cells[:-1])]
    lines += [text.ljust(width) + row for text, row in zip(texts, _joined_rows(table, cells, " "))]
    if oracle_ok is not None:
        lines.append(f"# oracle verified: {oracle_ok}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Live-interval patterns of the whole tuple grid, by index arithmetic
# ---------------------------------------------------------------------------


def grid_patterns(table: np.ndarray, m: int) -> np.ndarray:
    """Distinct live-interval sets of all basis tuples of length m+1, from the
    value grid of each interval length over the full dim^length grid, looked
    up for each slice of tuple indices by index // dim**k % dim**j.  This is
    the grid that the blocked one of `trees._grid_patterns` replaced."""
    dim = len(table) - 1
    values = {1: np.arange(dim, dtype=table.dtype)}
    for length in range(2, m + 2):
        values[length] = trees._join(table, (table[values[k][:, None], values[length - k][None, :]]
                                             .reshape(-1) for k in range(1, length)))
    total = dim ** (m + 1)
    words = trees._words(m)
    step = max(1, trees.CHUNK_BYTES // (8 * words))
    found = []
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total))
        sets = np.zeros((len(index), words), dtype=np.uint64)
        for b in range(2, m + 2):
            prefix = index // dim ** (m + 1 - b)  # the first b inputs
            for a in range(b - 1):
                trees._set_bit(sets, a, b, values[b - a][prefix % dim ** (b - a)] < dim)
        found.append(trees._distinct_rows(sets))
    return trees._distinct_rows(np.concatenate(found))
