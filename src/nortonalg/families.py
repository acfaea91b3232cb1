"""The six graph families: vertex sets, connection sets, eigenspaces as
Space objects (a basis and its Norton product table, kept whole or read as
a stream of its rows; or a table alone), the one check of a monomial map
between two spaces, the oracle that checks a table row by row, and spectra.

A basis is an array of index rows, one per basis character, in the dtype of
the vertex rows: it is what the graph, the product table, the oracle, the
automorphism candidates and the algebra vectors read.  Its labels are a
rendering of those rows, made only where a label is printed: words (tuples
of residues) for the Hamming family, sorted tuples of 1-based positions for
the cube variants, and flattened matrices for the bilinear forms family.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from itertools import chain, combinations
from math import comb

import numpy as np

from .cayley import CayleyGraph, _chunks, _generators, character_exponents, sum_positions, sum_rows
from .errors import KIND_PARAMETERS, BudgetExceededError, size_text
from .groups import Word, is_prime, word_text
from .linalg import row_reduce

Subset = tuple[int, ...]

DEFAULT_VERTEX_BUDGET = 2**20
MAX_TABLE_ENTRIES = 2**26  # of a held table (256 MB of int32) and of a space's basis rows
MAX_DIMENSION_BITS = 2**16  # past 2^(2^16) a dimension is past every budget and is not built


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
    smallest unsigned dtype that holds modulus - 1, column by column (any length)."""
    words = np.zeros((modulus**length, length), dtype=np.min_scalar_type(modulus - 1))
    for j in range(length if modulus > 1 else 0):  # modulo 1 every entry is 0
        words.reshape(modulus**j, modulus, -1, length)[..., j] = np.arange(modulus)[:, None]
    return words


def _comb_bits(n: int, s: int) -> int:
    """A k with 2^k <= comb(n, s), which is at least (n // s)^s for s <= n / 2."""
    s = min(s, n - s)
    return s * ((n // s).bit_length() - 1) if s else 0


def _subsets(n: int, size: int, low: int = 0) -> np.ndarray:
    """The size-subsets of low..n-1 as rows of positions, in combinations order;
    the one subset of size 0 or n - low directly, with no pool of Python ints."""
    if size in (0, n - low):
        return np.arange(low, low + size, dtype=np.intp)[None]
    flat = np.fromiter(chain.from_iterable(combinations(range(low, n), size)), dtype=np.intp)
    return flat.reshape(comb(n - low, size), size)


def carries_table(candidate: np.ndarray, dom: Space, cod: Space) -> bool:
    """Whether chi_a -> w^exp[a] chi_pos[a], candidate's rows (pos, exp), pos
    a bijection of dom's basis onto cod's, carries dom's table onto cod's:
    cod.table[pos[a], pos[b]] is pos[dom.table[a, b]], or zero where dom's
    is, and exp[a] + exp[b] = exp[dom.table[a, b]] mod cod.modulus where it
    is not.  One pass over blocks of dom's rows, each block's int32 images,
    gathered rows of cod's table, int64 exponent sums and masks within SUM_CHUNK_BYTES."""
    pos, exp = candidate[:, 0].astype(np.int32), candidate[:, 1].astype(np.int64)
    for lo, hi in _chunks(dom.dim, dom.dim * (2 * 4 + cod.table.itemsize + 2 * 8 + 5)):
        block = dom.table[lo:hi]
        image = pos[block]  # -1 gathers the last position: masked next
        image[block < 0] = -1
        diff = np.add.outer(exp[lo:hi], exp)
        diff -= exp[block]  # -1 gathers the last exponent: a zero product is masked
        if (not (np.take(cod.table[pos[lo:hi]], pos, axis=1) == image).all()
                or (np.remainder(diff, cod.modulus, out=diff).astype(bool) & (block >= 0)).any()):
            return False
    return True


def verify_oracle_space(space: Space) -> bool:
    """Projection-oracle check of the product table on every V_i basis pair.

    On the vertex group X, chi_u . chi_v is the character of X whose exponent
    row is the sum of theirs mod e.  Distinct characters of X are orthogonal,
    so once the V_i basis characters are distinct on X, projecting the product
    onto V_i gives the basis character with that value row, with coefficient
    1, and a row that matches no basis character certifies a zero product.
    A character of X is fixed by its values at generators of X
    (FamilySpec.generators), so the lookup runs on value rows there, never
    on index rows or labels (a set and its complement agree on X).  Vertex
    rows that are not a group fail the check, and so do two basis characters
    with one value row, which the lookup rejects (RepeatedRowError).  The
    table's rows (Space.table_rows) and the oracle's are compared row by row
    as they come, so neither is held whole.
    """
    table = space.table_rows()  # the size check, the basis and its lookup first
    try:
        gens = space.family.generators()
        oracle = sum_rows(character_exponents(space.rows, gens, space.modulus), space.modulus)
    except ValueError:  # from the walk or the lookup
        return False
    return all((row == mine).all() for row, mine in zip(oracle, table))


class Space:
    """The eigenspace V_i of a family, or a table alone (of_table), as one
    multiplicity-free algebra.  V_i's basis index rows (dim x length), their
    labels and the product table are each built on first read and kept,
    read-only; table_rows() streams the table.

    Table entry (a, b) is the basis position of chi_a * chi_b, or -1 for a
    zero product: the index sum (B[a] + B[b]) mod q is the row of chi_a *
    chi_b, looked up among the basis rows (cayley.sum_positions).  Over
    MAX_TABLE_ENTRIES entries the table, or the rows themselves, raise
    BudgetExceededError before the rows are built, and so do rows whose
    residue sums, up to 2 * modulus - 2, do not fit in uint64."""

    def __init__(self, family: FamilySpec, i: int) -> None:
        self.dim = family.predicted_dimension(i)  # checks i
        self.family, self.i, self.modulus = family, i, family.modulus
        self.key = (family.key, i)
        self.name = f"{family.describe()} V_{i}"

    @classmethod
    def of_table(cls, table, modulus: int, name: str, labels: list) -> Space:
        """The algebra with a copy of table as its product table and these basis
        labels, over Q(w), w of order modulus, keyed by name: no family, i or rows."""
        space, dim = cls.__new__(cls), len(labels)
        space.table = _read_only(np.array(table, dtype=np.int32))
        if space.table.shape != (dim, dim) or not ((space.table >= -1) & (space.table < dim)).all():
            raise ValueError(f"{name}: a product table is dim x dim with entries in -1..dim-1")
        space.dim, space.modulus, space.key, space.name = dim, modulus, name, name
        space.labels = list(labels)
        return space

    @cached_property
    def rows(self) -> np.ndarray:
        entries = self.dim * self.family.length  # of two built numbers: cheap at any size
        if entries > MAX_TABLE_ENTRIES:
            raise BudgetExceededError(f"basis rows of {self.name} have {size_text(entries)}"
                                      f" entries, over {MAX_TABLE_ENTRIES}")
        if 2 * self.modulus - 2 >= 2**64:  # the lookup sums two residues in one uint64
            raise BudgetExceededError(f"basis rows of {self.name} sum residues up to"
                                      f" {size_text(2 * self.modulus - 2)}, over {2**64 - 1}")
        rows = self.family._make_basis(self.i)
        if len(rows) != self.dim:
            raise AssertionError(f"{self.name} has {len(rows)} basis rows, not {self.dim}")
        return _read_only(rows)

    @cached_property
    def labels(self) -> list:
        return self.family._labels(self.rows)

    @cached_property
    def table(self) -> np.ndarray:
        self.check_table_size()
        return _read_only(sum_positions(self.rows, self.modulus))

    def table_rows(self):
        """The table's rows in order: the kept table's, else the row-sum
        lookup's (cayley.sum_rows), which holds one SUM_CHUNK_BYTES step.  The
        size check and the lookup, which refuses repeated rows, come first."""
        if "table" in vars(self):
            return iter(self.table)
        self.check_table_size()
        return sum_rows(self.rows, self.modulus)

    def check_table_size(self) -> None:
        """Refuse a table past MAX_TABLE_ENTRIES entries, before any row is built."""
        if self.dim * self.dim > MAX_TABLE_ENTRIES:
            raise BudgetExceededError(f"product table of {self.name} has {size_text(self.dim**2)}"
                                      f" entries, over {MAX_TABLE_ENTRIES}")


class FamilySpec:
    """One graph family instance, held as its key (kind, *parameters), which
    names it in the cache and describes it, on the vertex group
    Z_modulus^length; subclasses fill in the family-specific rules."""

    def __init__(self, key: tuple, modulus: int, length: int, diameter: int) -> None:
        self.key = key
        self.kind = key[0]
        self.modulus = modulus
        self.length = length
        self.diameter = diameter
        self._vertices: np.ndarray | None = None
        self._generator_rows: np.ndarray | None = None
        self._connection: np.ndarray | None = None
        self._spaces: dict[int, Space] = {}

    # family-specific interface -------------------------------------------------

    def vertex_count(self) -> int:
        return self.modulus**self._vertex_exponent()

    def _vertex_exponent(self) -> int:
        """k with modulus^k vertices: the length, unless the family's vertex
        set is a proper subgroup."""
        return self.length

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

    def _basis_form(self, rows: np.ndarray) -> np.ndarray:
        """The basis rows of the characters the given index rows index: the rows themselves."""
        return rows

    def predicted_eigenvalue(self, i: int) -> int:
        raise NotImplementedError

    def predicted_dimension(self, i: int) -> int:
        raise NotImplementedError

    def label_text(self, label) -> str:
        raise NotImplementedError

    def label_json(self, label):
        raise NotImplementedError

    # shared machinery ------------------------------------------------------------

    def _check_space(self, i: int) -> None:
        if not 0 <= i <= self.diameter:
            raise ValueError(f"eigenspace index {i} out of range 0..{self.diameter}")

    def _check_dimension(self, i: int, bits: int) -> None:
        """Check i, then refuse a dim V_i of at least 2^bits past
        2^MAX_DIMENSION_BITS before its formula is built: at n = 10^30 none
        would finish."""
        self._check_space(i)
        if bits > MAX_DIMENSION_BITS:
            raise BudgetExceededError(f"{self.describe()} V_{i} has dimension at least 2^{bits},"
                                      f" over 2^{MAX_DIMENSION_BITS}")

    @property
    def row_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds modulus - 1: the dtype of
        every vertex, connection and character row."""
        return np.min_scalar_type(self.modulus - 1)

    def vertices(self) -> np.ndarray:
        """The vertex rows, a cached read-only array, built once their count is
        within DEFAULT_VERTEX_BUDGET: a bound on its bit length decides before
        the count is built, which at n = 10^30 never ends."""
        if self._vertices is not None:
            return self._vertices
        limit = DEFAULT_VERTEX_BUDGET
        k = self._vertex_exponent()  # the message writes the count as a power
        if k * (self.modulus.bit_length() - 1) >= limit.bit_length() or self.vertex_count() > limit:
            raise BudgetExceededError(
                f"{self.describe()} has {self.modulus}^{k} vertices, over the budget {limit}")
        rows = self._make_vertices()
        if len(rows) != self.vertex_count():
            raise AssertionError("vertex enumeration disagrees with the count formula")
        self._vertices = _read_only(rows)
        return self._vertices

    def generators(self) -> np.ndarray:
        """The rows of generators of the vertex group, found by one coset walk
        (cayley._generators, ValueError unless it is a group), cached read-only."""
        if self._generator_rows is None:
            vertices = self.vertices()
            self._generator_rows = _read_only(vertices[_generators(vertices, self.modulus)])
        return self._generator_rows

    def connection(self) -> np.ndarray:
        """The connection rows in vertex order, a cached read-only array."""
        vertices = self.vertices()
        if self._connection is None:
            self._connection = _read_only(vertices[self._connection_mask(vertices)])
        return self._connection

    def space(self, i: int) -> Space:
        """V_i as a Space, cached."""
        if i not in self._spaces:
            self._spaces[i] = Space(self, i)
        return self._spaces[i]

    def eigenspaces(self) -> range:
        return range(self.diameter + 1)

    def cayley_graph(self) -> CayleyGraph:
        """The graph with the basis characters of V_0, ..., V_d in order."""
        vertices = self.vertices()  # the budget check precedes any enumeration
        chars = np.concatenate([self.space(i).rows for i in self.eigenspaces()])
        return CayleyGraph(self.modulus, vertices, self.connection(), chars)

    def describe(self) -> str:
        return f"{self.kind}({','.join(map(str, self.key[1:]))})"

    def __repr__(self) -> str:
        return f"<FamilySpec {self.describe()}>"


class HammingFamily(FamilySpec):
    """Hamming graph H(n,e): Cayley graph of Z_e^n with weight-1 connection set."""

    def __init__(self, n: int, e: int) -> None:
        if n < 1:
            raise ValueError(f"hamming requires n >= 1, got {n}")
        if e < 2:
            raise ValueError(f"hamming requires e >= 2, got {e}")
        super().__init__(("hamming", n, e), e, n, n)
        self.n = n
        self.e = e

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
        return rows[np.lexsort(rows.T[::-1])] if len(rows) > 1 else rows

    def predicted_eigenvalue(self, i: int) -> int:
        self._check_space(i)
        return (self.n - i) * self.e - self.n

    def predicted_dimension(self, i: int) -> int:
        self._check_dimension(i, _comb_bits(self.n, i) + i * ((self.e - 1).bit_length() - 1))
        return comb(self.n, i) * (self.e - 1) ** i

    def label_text(self, label: Word) -> str:
        return word_text(label, self.e)

    def label_json(self, label: Word):
        return self.label_text(label)


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

    The character indexed by a subset S of the positions sends a vertex x to
    (-1) raised to the sum of x over S.  Folded, only even S index one: each
    basis row is even, and so is a sum of two.  Halved, S and its complement
    index one character, so the characters are Z_2^(n-1): each basis row is
    the one of the two without position n, and so is a sum of two.

    Labels are sorted tuples of 1-based positions.  V_i is labelled by the
    sets of size s = i, or 2i when folded; halved, by the smaller of S and
    its complement, or on ties the one containing 1 (_label_rows).
    """

    def __init__(self, kind: str, n: int) -> None:
        halved, folded, least = _CUBE_KINDS[kind]
        even = halved and folded
        if n < least or (even and n % 2):
            raise ValueError(f"{kind} requires {'even ' if even else ''}n >= {least}, got {n}")
        super().__init__((kind, n), 2, n, n >> (halved + folded))
        self.n = n
        self.halved = halved
        self.folded = folded

    def _vertex_exponent(self) -> int:
        return self.n - self.halved - self.folded

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
        the sets containing 1 (_with_one), set by one scatter, in basis form."""
        s = self._size(i)
        first = int(self._with_one(s))  # position 0 is in every set, the rest vary
        rest = _subsets(self.n, s - first, first)
        rows = np.zeros((len(rest), self.n), dtype=self.row_dtype)
        rows[:, :first] = 1
        rows[np.arange(len(rest))[:, None], rest] = 1
        return self._basis_form(rows)

    def _basis_form(self, rows: np.ndarray) -> np.ndarray:
        """Halved, each row holding position n complemented, as in the basis."""
        return rows ^ rows[:, -1:] if self.halved else rows

    def _label_rows(self, rows: np.ndarray) -> np.ndarray:
        """The label indicator rows of the characters the given index rows
        index: halved, the smaller of a set and its complement, or on ties
        the one containing position 1; otherwise the rows themselves."""
        if not self.halved:
            return rows
        weight = 2 * rows.sum(axis=1, dtype=np.int64)
        return rows ^ ((weight > self.n) | ((weight == self.n) & (rows[:, 0] == 0)))[:, None]

    def _labels(self, rows: np.ndarray) -> list[Subset]:
        """The 1-based positions of the ones of each label row; the label rows
        of a space all have one weight."""
        rows = self._label_rows(rows)
        return list(map(tuple, (np.nonzero(rows)[1].reshape(len(rows), -1) + 1).tolist()))

    def predicted_eigenvalue(self, i: int) -> int:
        self._check_space(i)
        theta = self.n - 2 * self._size(i)
        return (theta**2 - self.n) // 2 if self.halved else theta

    def predicted_dimension(self, i: int) -> int:
        s = self._size(i)
        self._check_dimension(i, _comb_bits(self.n, s) - self._with_one(s))
        return comb(self.n, s) >> self._with_one(s)

    def label_text(self, label: Subset) -> str:
        if not label:
            return "{}"
        if self.n <= 9:
            return "".join(str(j) for j in label)
        return "{" + ",".join(str(j) for j in label) + "}"

    def label_json(self, label: Subset):
        return list(label)


class BilinearFamily(FamilySpec):
    """Bilinear forms graph H_q(d,e): d x e matrices over F_q, rank-1 connections."""

    def __init__(self, q: int, d: int, e: int) -> None:
        # every space is read from the q^(de) >= q vertices, so a q past the
        # budget is refused before is_prime, whose trial division takes sqrt(q) steps
        if q <= DEFAULT_VERTEX_BUDGET and not is_prime(q):
            raise ValueError(f"bilinear requires a prime q, got {q}")
        if not 1 <= d <= e:
            raise ValueError(f"bilinear requires 1 <= d <= e, got d={d}, e={e}")
        if q > DEFAULT_VERTEX_BUDGET:
            raise BudgetExceededError(f"bilinear({q},{d},{e}) has {q}^{d * e} vertices,"
                                      f" over the budget {DEFAULT_VERTEX_BUDGET}")
        super().__init__(("bilinear", q, d, e), q, d * e, d)
        self.q = q
        self.d = d
        self.cols = e
        self._ranks: np.ndarray | None = None

    def _matrix(self, flat: Word) -> tuple[Word, ...]:
        """The d x e matrix of a row-major flattened label, as row tuples."""
        return tuple(flat[r * self.cols:(r + 1) * self.cols] for r in range(self.d))

    def _vertex_ranks(self) -> np.ndarray:
        """The rank of every vertex, by batched eliminations (ranks_fq) over
        chunks of the vertex stack, cached.  A chunk holds per matrix its
        entries in ranks_fq's dtype and about three temporaries of that size,
        and its int64 and intp bookkeeping, within SUM_CHUNK_BYTES."""
        if self._ranks is None:
            mats = self.vertices().reshape(-1, self.d, self.cols)
            entry = np.min_scalar_type(2 * self.q * self.q).itemsize
            ranks = np.empty(len(mats), dtype=np.int64)
            for lo, hi in _chunks(len(mats), 4 * entry * self.d * self.cols + 6 * 8):
                ranks[lo:hi] = ranks_fq(mats[lo:hi], self.q)
            self._ranks = ranks
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
        q, d, e = self.q, self.d, self.cols
        self._check_dimension(i, i * (e - 1) * (q.bit_length() - 1))  # each q^e - q^k >= q^(e-1)
        out = qbinom(d, i, q)
        for k in range(i):
            out *= q**e - q**k
        return out

    def label_text(self, label: Word) -> str:
        rows = self._matrix(label)
        return "[" + ";".join(word_text(r, self.q) for r in rows) + "]"

    def label_json(self, label: Word):
        return [list(r) for r in self._matrix(label)]


_CONSTRUCTORS = {"hamming": HammingFamily, "bilinear": BilinearFamily,
                 **{kind: partial(CubeFamily, kind) for kind in _CUBE_KINDS}}
# kind: (constructor, parameter names in key order), in the order of the
# one kind table, errors.KIND_PARAMETERS; a family's key is (kind, *parameters)
KINDS = {kind: (_CONSTRUCTORS[kind], names) for kind, names in KIND_PARAMETERS.items()}


@lru_cache(maxsize=None)
def _cached_family(key: tuple) -> FamilySpec:
    return KINDS[key[0]][0](*key[1:])


def listed(words: list[str]) -> str:
    """The words joined as in "a", "a and b" or "a, b and c"."""
    return f"{', '.join(words[:-1])} and {words[-1]}" if len(words) > 1 else words[0]


def make_family(kind: str, **params: int | None) -> FamilySpec:
    """The cached instance whose key is kind (dashes read as underscores)
    and its KINDS parameters in order, so enumerations are shared across
    callers; a parameter given as None is not given.  ValueError on an unknown
    kind, then on a missing parameter, then on one the kind does not take."""
    kind = kind.replace("-", "_")
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {sorted(KINDS)}")
    names = KINDS[kind][1]
    given = {name: value for name, value in params.items() if value is not None}
    if not given.keys() >= set(names):
        raise ValueError(f"{kind} requires {listed([f'--{name}' for name in names])}")
    if extra := [f"--{name}" for name in given if name not in names]:
        raise ValueError(f"{kind} does not take {listed(extra)}")
    return _cached_family((kind, *(given[name] for name in names)))
