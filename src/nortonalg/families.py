"""The six graph families: vertex sets, connection sets, eigenspace bases,
closed-form Norton product rules, and predicted spectra.

A basis is an array of index rows, one per basis character, in the dtype of
the vertex rows: it is what the graph, the product table, the oracle and the
automorphism candidates read.  Its labels are a rendering of those rows, made
only where a label is printed or keys a vector: words (tuples of residues)
for the Hamming family, sorted tuples of 1-based positions for the cube
variants, and flattened matrices for the bilinear forms family.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, combinations
from math import comb

import numpy as np

from .cayley import CayleyGraph, sum_positions
from .errors import BudgetExceededError
from .groups import Word, is_prime, word_add, word_text
from .linalg import row_reduce

Subset = tuple[int, ...]

DEFAULT_VERTEX_BUDGET = 2**20
MAX_TABLE_ENTRIES = 2**26  # 256 MB of int32, about the peak of `table`: it streams its rows


def qbinom(d: int, i: int, q: int) -> int:
    """Gaussian binomial coefficient, the number of i-dim subspaces of F_q^d."""
    if not 0 <= i <= d:
        raise ValueError(f"qbinom index {i} out of range 0..{d}")
    num = 1
    den = 1
    for k in range(i):
        num *= q ** (d - k) - 1
        den *= q ** (k + 1) - 1
    if num % den:
        raise AssertionError("gaussian binomial division not exact")
    return num // den


def fq_reduce(matrix, q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q (prime q) and its pivot columns."""
    if not is_prime(q):
        raise ValueError(f"row reduction over F_q requires a prime q, got {q}")
    return row_reduce(matrix, lambda v: pow(v, -1, q), lambda row: [v % q for v in row])


def rank_fq(matrix, q: int) -> int:
    """Rank of a matrix over F_q (prime q)."""
    return len(fq_reduce(matrix, q)[1])


def ranks_fq(mats: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q (prime q) of a stack of matrices with entries in 0..q-1
    (count x rows x cols), by one Gaussian elimination run on all at once.

    Column by column, each matrix takes as pivot its first row that is
    nonzero there, and every row r becomes lead * r - r[col] * pivot (mod q),
    where lead, the pivot's entry, is a unit.  So the pivot row becomes zero
    and the others lose column col: their rank drops by exactly one.  A
    matrix without a pivot in the column keeps its rows (lead 1, pivot zero).
    The rank is the number of pivots."""
    if not is_prime(q):
        raise ValueError(f"row reduction over F_q requires a prime q, got {q}")
    m = mats.astype(np.min_scalar_type(2 * q * q))  # holds (q-1)^2 + q(q-1) before % q
    count, _, cols = m.shape
    every = np.arange(count)
    ranks = np.zeros(count, dtype=np.int64)
    for col in range(cols):
        live = m[:, :, col] != 0
        has = live.any(axis=1)
        top = m[every, live.argmax(axis=1)] * has[:, None]
        lead = np.where(has, top[:, col], 1)
        m = (lead[:, None, None] * m + (q - m[:, :, col])[:, :, None] * top[:, None, :]) % q
        ranks += has
    return ranks


def _read_only(rows: np.ndarray) -> np.ndarray:
    rows.flags.writeable = False  # one array is shared by every caller
    return rows


def _words(modulus: int, length: int) -> np.ndarray:
    """Every word of Z_modulus^length as a row, in lexicographic order, in the
    smallest unsigned dtype that holds modulus - 1."""
    grid = np.indices((modulus,) * length, dtype=np.min_scalar_type(modulus - 1))
    return np.ascontiguousarray(grid.reshape(length, modulus**length).T)


def _subsets(n: int, size: int, low: int = 0) -> np.ndarray:
    """The size-subsets of low..n-1 as rows of positions, in combinations order."""
    flat = np.fromiter(chain.from_iterable(combinations(range(low, n), size)), dtype=np.intp)
    return flat.reshape(comb(n - low, size), size)


def carries_table(perm: np.ndarray, dom: np.ndarray, cod: np.ndarray) -> bool:
    """Whether the basis bijection a -> perm[a] carries the product table dom
    onto cod: cod[perm[a], perm[b]] is perm[dom[a, b]], and zero where dom is."""
    image = np.where(dom >= 0, perm[dom], -1)
    return bool((cod[np.ix_(perm, perm)] == image).all())


class FamilySpec:
    """One graph family instance; subclasses fill in the family-specific rules."""

    kind: str = ""

    def __init__(self) -> None:
        self._vertices: np.ndarray | None = None
        self._connection: np.ndarray | None = None
        self._bases: dict[int, list] = {}  # the labels, rendered only on request
        self._basis_pos: dict[int, dict] = {}
        self._basis_rows: dict[int, np.ndarray] = {}
        self._tables: dict[int, np.ndarray] = {}

    # family-specific interface -------------------------------------------------

    @property
    def modulus(self) -> int:
        raise NotImplementedError

    @property
    def length(self) -> int:
        raise NotImplementedError

    @property
    def diameter(self) -> int:
        raise NotImplementedError

    def vertex_count(self) -> int:
        raise NotImplementedError

    def _make_vertices(self) -> np.ndarray:
        """The vertex rows in lexicographic order; by default all of Z_q^length."""
        return _words(self.modulus, self.length)

    def _connection_mask(self, vertices: np.ndarray) -> np.ndarray:
        """Which vertex rows are connection elements."""
        raise NotImplementedError

    def _make_basis(self, i: int) -> np.ndarray:
        """The index rows of the V_i basis characters, in the row dtype: the
        one basis rule of a family."""
        raise NotImplementedError

    def _labels(self, rows: np.ndarray) -> list:
        """The labels of the given basis rows, as tuples of ints: the rows
        themselves, unless the family labels characters otherwise."""
        return list(map(tuple, rows.tolist()))

    def predicted_eigenvalue(self, i: int) -> int:
        raise NotImplementedError

    def predicted_dimension(self, i: int) -> int:
        raise NotImplementedError

    def in_basis(self, i: int, label) -> bool:
        """Whether label is a V_i basis label, by the family's own predicate,
        without enumerating the basis; i must be in range."""
        raise NotImplementedError

    def _canonical_rows(self, rows: np.ndarray) -> np.ndarray:
        """Canonical index rows of the characters the given rows index."""
        return rows

    def closed_product(self, i: int, a, b):
        """Closed-form Norton product of two basis characters of V_i: a basis
        label (unit coefficient) or None for the zero product."""
        raise NotImplementedError

    def label_text(self, label) -> str:
        raise NotImplementedError

    def label_json(self, label):
        raise NotImplementedError

    @property
    def key(self) -> tuple:
        raise NotImplementedError

    # shared machinery ------------------------------------------------------------

    def _check_space(self, i: int) -> None:
        if not 0 <= i <= self.diameter:
            raise ValueError(f"eigenspace index {i} out of range 0..{self.diameter}")

    @property
    def row_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds modulus - 1: the dtype of
        every vertex, connection and character row."""
        return np.min_scalar_type(self.modulus - 1)

    def vertices(self, budget: int | None = None) -> np.ndarray:
        """The vertex rows, a cached read-only array; every call checks the
        budget, so rows enumerated under a larger budget are not handed to a
        smaller one."""
        limit = DEFAULT_VERTEX_BUDGET if budget is None else budget
        if self.vertex_count() > limit:
            raise BudgetExceededError(
                f"{self.describe()} has {self.vertex_count()} vertices"
                f", over the budget {limit}")
        if self._vertices is None:
            rows = self._make_vertices()
            if len(rows) != self.vertex_count():
                raise AssertionError("vertex enumeration disagrees with the count formula")
            self._vertices = _read_only(rows)
        return self._vertices

    def connection(self) -> np.ndarray:
        """The connection rows in vertex order, a cached read-only array."""
        vertices = self.vertices()
        if self._connection is None:
            self._connection = _read_only(vertices[self._connection_mask(vertices)])
        return self._connection

    def basis(self, i: int) -> list:
        """The V_i basis labels in basis order, rendered from basis_array(i)
        once and cached."""
        if i not in self._bases:
            self._bases[i] = self._labels(self.basis_array(i))
        return self._bases[i]

    def basis_position(self, i: int) -> dict:
        if i not in self._basis_pos:
            self._basis_pos[i] = {lbl: k for k, lbl in enumerate(self.basis(i))}
        return self._basis_pos[i]

    def _require_basis(self, i: int, label) -> None:
        """Raise unless label is a V_i basis label; a basis already enumerated
        answers by lookup, any other by the family's predicate."""
        self._check_space(i)
        known = label in self.basis_position(i) if i in self._bases else self.in_basis(i, label)
        if not known:
            raise ValueError(f"label {self.label_text(label)} is not in the V_{i} basis")

    def product_table(self, i: int) -> np.ndarray:
        """The V_i basis products as a read-only dim x dim int32 array, cached:
        entry (a, b) is the basis position of chi_a * chi_b, or -1 when it is
        zero.  Over MAX_TABLE_ENTRIES entries it raises BudgetExceededError
        before building the basis.

        The index sums (B[a] + B[b]) mod q are put in canonical form and
        looked up among the basis rows (cayley.sum_positions); a sum that is
        not a basis row is a zero product."""
        if i not in self._tables:
            dim = self.predicted_dimension(i)
            if dim * dim > MAX_TABLE_ENTRIES:
                raise BudgetExceededError(
                    f"product table of {self.describe()} V_{i} has {dim * dim} entries"
                    f", over {MAX_TABLE_ENTRIES}")
            self._tables[i] = _read_only(
                sum_positions(self.basis_array(i), self.modulus, self._canonical_rows))
        return self._tables[i]

    def eigenspaces(self) -> range:
        return range(self.diameter + 1)

    def cayley_graph(self) -> CayleyGraph:
        """The graph with the basis characters of V_0, ..., V_d in order."""
        vertices = self.vertices()  # the budget check precedes any enumeration
        chars = np.concatenate([self.basis_array(i) for i in self.eigenspaces()])
        return CayleyGraph(self.modulus, vertices, self.connection(), chars)

    def basis_array(self, i: int) -> np.ndarray:
        """Index rows of the V_i basis (dim x length), a cached read-only array."""
        self._check_space(i)
        if i not in self._basis_rows:
            rows = self._make_basis(i)
            if len(rows) != self.predicted_dimension(i):
                raise AssertionError(
                    f"basis size {len(rows)} != predicted dimension "
                    f"{self.predicted_dimension(i)} for {self.describe()} i={i}")
            self._basis_rows[i] = _read_only(rows)
        return self._basis_rows[i]

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<FamilySpec {self.describe()}>"


class HammingFamily(FamilySpec):
    """Hamming graph H(n,e): Cayley graph of Z_e^n with weight-1 connection set."""

    kind = "hamming"

    def __init__(self, n: int, e: int) -> None:
        super().__init__()
        if n < 1:
            raise ValueError(f"hamming requires n >= 1, got {n}")
        if e < 2:
            raise ValueError(f"hamming requires e >= 2, got {e}")
        self.n = n
        self.e = e

    @property
    def modulus(self) -> int:
        return self.e

    @property
    def length(self) -> int:
        return self.n

    @property
    def diameter(self) -> int:
        return self.n

    @property
    def key(self) -> tuple:
        return ("hamming", self.n, self.e)

    def vertex_count(self) -> int:
        return self.e**self.n

    def _connection_mask(self, vertices: np.ndarray) -> np.ndarray:
        return np.count_nonzero(vertices, axis=1) == 1

    def _make_basis(self, i: int) -> np.ndarray:
        """The words of weight i in lexicographic order: every grid of nonzero
        values scattered into every support, then sorted."""
        support = _subsets(self.n, i)
        values = _words(self.e - 1, i).astype(self.row_dtype)
        values += 1  # in the row dtype, which holds e - 1
        rows = np.zeros((len(support), len(values), self.n), dtype=self.row_dtype)
        rows[np.arange(len(support))[:, None, None], np.arange(len(values))[:, None],
             support[:, None, :]] = values
        rows = rows.reshape(-1, self.n)
        return rows[np.lexsort(rows.T[::-1])]

    def predicted_eigenvalue(self, i: int) -> int:
        self._check_space(i)
        return (self.n - i) * self.e - self.n

    def predicted_dimension(self, i: int) -> int:
        self._check_space(i)
        return comb(self.n, i) * (self.e - 1) ** i

    def in_basis(self, i: int, label) -> bool:
        return (isinstance(label, tuple) and len(label) == self.n
                and all(0 <= a < self.e for a in label) and sum(1 for a in label if a) == i)

    def closed_product(self, i: int, a: Word, b: Word):
        self._require_basis(i, a)
        self._require_basis(i, b)
        w = word_add(a, b, self.e)
        return w if sum(1 for c in w if c) == i else None

    def label_text(self, label: Word) -> str:
        return word_text(label, self.e)

    def label_json(self, label: Word):
        return self.label_text(label)

    def describe(self) -> str:
        return f"hamming({self.n},{self.e})"


# kind: (halved, folded, least n).  Folding needs the connection weights w
# and n - w apart, and on the halved cube an all-ones word of even weight.
_CUBE_KINDS = {
    "hypercube": (False, False, 1),
    "halved_cube": (True, False, 2),
    "folded_cube": (False, True, 3),
    "folded_half_cube": (True, True, 6),
}


class CubeFamily(FamilySpec):
    """The hypercube Q_n = H(n,2) and its quotients: halved keeps the
    even-weight vertices, connected at distance 2; folded takes the vertices
    modulo the all-ones word, stored with last coordinate 0, and adds the
    connections of weight n - w.

    Labels are sorted tuples of 1-based positions; the character indexed by a
    subset S sends a vertex x to (-1) raised to the sum of x over S.  Halved,
    S and its complement index one character; folded, only even S index one.
    V_i is indexed by the sets of size s = i, or 2i when folded.
    """

    def __init__(self, kind: str, n: int) -> None:
        super().__init__()
        halved, folded, least = _CUBE_KINDS[kind]
        even = halved and folded
        if n < least or (even and n % 2):
            raise ValueError(f"{kind} requires {'even ' if even else ''}n >= {least}, got {n}")
        self.kind = kind
        self.n = n
        self.halved = halved
        self.folded = folded

    @property
    def modulus(self) -> int:
        return 2

    @property
    def length(self) -> int:
        return self.n

    @property
    def diameter(self) -> int:
        return self.n >> (self.halved + self.folded)

    @property
    def key(self) -> tuple:
        return (self.kind, self.n)

    def vertex_count(self) -> int:
        return 2 ** (self.n - self.halved - self.folded)

    def _make_vertices(self) -> np.ndarray:
        rows = _words(2, self.n - self.folded)
        if self.halved:
            rows = rows[rows.sum(axis=1) % 2 == 0]
        return np.pad(rows, ((0, 0), (0, 1))) if self.folded else rows

    def _connection_mask(self, vertices: np.ndarray) -> np.ndarray:
        w = 1 + self.halved
        return np.isin(vertices.sum(axis=1), [w, self.n - w] if self.folded else [w])

    def _size(self, i: int) -> int:
        return 2 * i if self.folded else i

    def _with_one(self, s: int) -> bool:
        """Whether the V_i labels of size s are the sets containing 1: halved,
        at s = n/2 a set and its complement of the same size index one
        character."""
        return self.halved and 2 * s >= self.n

    def _make_basis(self, i: int) -> np.ndarray:
        """The indicator rows of the size-s sets in combinations order, or of
        the sets containing 1 (_with_one), set by one scatter."""
        s = self._size(i)
        first = int(self._with_one(s))  # position 0 is in every set, the rest vary
        rest = _subsets(self.n, s - first, first)
        rows = np.zeros((len(rest), self.n), dtype=self.row_dtype)
        rows[:, :first] = 1
        rows[np.arange(len(rest))[:, None], rest] = 1
        return rows

    def _labels(self, rows: np.ndarray) -> list[Subset]:
        """The 1-based positions of the ones of each row; the basis rows of a
        space all have one weight."""
        return list(map(tuple, (np.nonzero(rows)[1].reshape(len(rows), -1) + 1).tolist()))

    def predicted_eigenvalue(self, i: int) -> int:
        self._check_space(i)
        theta = self.n - 2 * self._size(i)
        return (theta**2 - self.n) // 2 if self.halved else theta

    def predicted_dimension(self, i: int) -> int:
        self._check_space(i)
        s = self._size(i)
        full = comb(self.n, s)
        return full // 2 if self._with_one(s) else full

    def in_basis(self, i: int, label) -> bool:
        s = self._size(i)
        return (isinstance(label, tuple) and len(label) == s
                and all(a < b for a, b in zip((0,) + label, label + (self.n + 1,)))
                and (not self._with_one(s) or label[:1] == (1,)))

    def canonical_label(self, subset) -> Subset:
        """Representative of the character class of the set: folded, an even
        set (toggling position n); halved, the smaller of it and its
        complement, or on ties the one containing 1."""
        keep = frozenset(subset)
        if self.folded and len(keep) % 2:
            keep ^= {self.n}
        size = 2 * len(keep)
        if self.halved and (size > self.n or size == self.n and 1 not in keep):
            keep = frozenset(range(1, self.n + 1)) - keep
        return tuple(sorted(keep))

    def _canonical_rows(self, rows: np.ndarray) -> np.ndarray:
        # canonical_label on 0/1 index rows; folded, the rows are sums of even
        # basis sets and so even already, so only the halved complement acts
        if self.halved:
            weight = 2 * rows.sum(axis=1, dtype=np.int64)
            flip = (weight > self.n) | ((weight == self.n) & (rows[:, 0] == 0))
            rows ^= flip[:, None]
        return rows

    def closed_product(self, i: int, a: Subset, b: Subset):
        self._require_basis(i, a)
        self._require_basis(i, b)
        d = frozenset(a) ^ frozenset(b)
        s = self._size(i)
        if len(d) != s and not (self.halved and len(d) == self.n - s):
            return None
        return self.canonical_label(d)

    def label_text(self, label: Subset) -> str:
        if not label:
            return "{}"
        if self.n <= 9:
            return "".join(str(j) for j in label)
        return "{" + ",".join(str(j) for j in label) + "}"

    def label_json(self, label: Subset):
        return list(label)

    def describe(self) -> str:
        return f"{self.kind}({self.n})"


class BilinearFamily(FamilySpec):
    """Bilinear forms graph H_q(d,e): d x e matrices over F_q, rank-1 connections."""

    kind = "bilinear"

    def __init__(self, q: int, d: int, e: int) -> None:
        super().__init__()
        if not is_prime(q):
            raise ValueError(f"bilinear requires a prime q, got {q}")
        if not 1 <= d <= e:
            raise ValueError(f"bilinear requires 1 <= d <= e, got d={d}, e={e}")
        self.q = q
        self.d = d
        self.cols = e
        self._ranks: np.ndarray | None = None

    @property
    def modulus(self) -> int:
        return self.q

    @property
    def length(self) -> int:
        return self.d * self.cols

    @property
    def diameter(self) -> int:
        return self.d

    @property
    def key(self) -> tuple:
        return ("bilinear", self.q, self.d, self.cols)

    def vertex_count(self) -> int:
        return self.q ** (self.d * self.cols)

    def _matrix(self, flat: Word) -> tuple[Word, ...]:
        """The d x e matrix of a row-major flattened label, as row tuples."""
        return tuple(flat[r * self.cols:(r + 1) * self.cols] for r in range(self.d))

    def rank(self, flat: Word) -> int:
        return rank_fq(self._matrix(flat), self.q)

    def _vertex_ranks(self) -> np.ndarray:
        """The rank of every vertex, by one batched elimination (ranks_fq), cached."""
        if self._ranks is None:
            self._ranks = ranks_fq(self.vertices().reshape(-1, self.d, self.cols), self.q)
        return self._ranks

    def _connection_mask(self, vertices: np.ndarray) -> np.ndarray:
        return self._vertex_ranks() == 1

    def _make_basis(self, i: int) -> np.ndarray:
        """The vertices of rank i, in vertex order."""
        return self.vertices()[self._vertex_ranks() == i]

    def predicted_eigenvalue(self, i: int) -> int:
        self._check_space(i)
        q, d, e = self.q, self.d, self.cols
        num = q ** (d + e - i) - q**d - q**e + 1
        if num % (q - 1):
            raise AssertionError("bilinear eigenvalue is not an integer")
        return num // (q - 1)

    def predicted_dimension(self, i: int) -> int:
        self._check_space(i)
        q, d, e = self.q, self.d, self.cols
        out = qbinom(d, i, q)
        for k in range(i):
            out *= q**e - q**k
        return out

    def in_basis(self, i: int, label) -> bool:
        return (isinstance(label, tuple) and len(label) == self.length
                and all(0 <= a < self.q for a in label) and self.rank(label) == i)

    def closed_product(self, i: int, a: Word, b: Word):
        self._require_basis(i, a)
        self._require_basis(i, b)
        w = word_add(a, b, self.q)
        return w if self.rank(w) == i else None

    def label_text(self, label: Word) -> str:
        rows = self._matrix(label)
        return "[" + ";".join(word_text(r, self.q) for r in rows) + "]"

    def label_json(self, label: Word):
        return [list(r) for r in self._matrix(label)]

    def describe(self) -> str:
        return f"bilinear({self.q},{self.d},{self.cols})"


_KINDS = {
    "hamming": HammingFamily,
    **{kind: partial(CubeFamily, kind) for kind in _CUBE_KINDS},
    "bilinear": BilinearFamily,
}


@lru_cache(maxsize=None)
def _cached_family(key: tuple) -> FamilySpec:
    kind = key[0]
    return _KINDS[kind](*key[1:])


def make_family(kind: str, *, n: int | None = None, e: int | None = None,
                q: int | None = None, d: int | None = None) -> FamilySpec:
    """Build a family instance.  Instances are cached, so basis and vertex
    enumerations are shared across callers."""
    kind = kind.replace("-", "_")
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {sorted(_KINDS)}")
    if kind == "hamming":
        if n is None or e is None:
            raise ValueError("hamming requires --n and --e")
        return _cached_family(("hamming", n, e))
    if kind == "bilinear":
        if q is None or d is None or e is None:
            raise ValueError("bilinear requires --q, --d and --e")
        return _cached_family(("bilinear", q, d, e))
    if n is None:
        raise ValueError(f"{kind} requires --n")
    return _cached_family((kind, n))
